/**
 * @file
 * Timing-enforcing model of one HBM channel.
 *
 * The device is passive: a memory controller (or the RoMe command generator)
 * asks when a command may issue (earliestIssue) and then commits it (issue).
 * Every commit is re-validated against the full conventional timing rule set
 * — including commands produced by the RoMe command generator, which is how
 * the tests prove the generator's fixed sequences are timing-legal.
 *
 * Modeled constraints:
 *  - bank core timings: tRC, tRAS, tRP, tRCDRD/WR, tRTP, write recovery
 *  - ACT-to-ACT: tRRDL / tRRDS and the tFAW window per (PC, SID)
 *  - CAS-to-CAS: tCCDL (same BG), tCCDS (diff BG), tCCDR (diff SID)
 *  - bus turnaround: tRTW and derived WR→RD gaps
 *  - refresh: tRFCab / tRFCpb busy windows, tRREFD spacing
 *  - command bus: one row command and one column command per ns per PC
 *    (the two PCs share the C/A pins, which are fast enough for both)
 */

#ifndef ROME_DRAM_DEVICE_H
#define ROME_DRAM_DEVICE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/checkpoint.h"
#include "common/sorted_ticks.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/command.h"
#include "dram/timing.h"

namespace rome
{

/** Event counters a channel accumulates (consumed by the energy model). */
struct DeviceCounters
{
    Counter acts;
    Counter pres;
    Counter reads;
    Counter writes;
    Counter refAbs;
    Counter refPbs;
    /** Ticks any PC's data bus carried data (summed over PCs). */
    Counter dataBusBusyTicks;
    /** Bytes moved over the channel data pins. */
    Counter dataBytes;
    /** Commands sent over the row / column C/A pins. */
    Counter rowCmds;
    Counter colCmds;
};

/**
 * One fixed-offset command of a lowering template (see CmdTemplate).
 * bankSlot indexes the per-call SequenceBinding's bank list, so the same
 * template drives every VBA of a design.
 */
struct TemplateCmd
{
    CmdKind kind = CmdKind::Act;
    /** Physical PC the command addresses. */
    std::int16_t pc = 0;
    /** Index into SequenceBinding::banks. */
    std::int16_t bankSlot = 0;
    /** Column for RD/WR entries. */
    std::int32_t col = 0;
    /** Tick offset from the sequence anchor t0. */
    Tick offset = 0;
};

/**
 * A precomputed "predetermined commands at fixed intervals" sequence
 * (RoMe §IV-C, Figure 9): the steady-state lowering of one row-level
 * operation, with every command at a constant offset from the anchor.
 * Entries are in issue order — the order the scalar lowering path commits
 * them — so a bulk commit reproduces the scalar path's state transitions
 * and trace exactly.
 */
struct CmdTemplate
{
    std::vector<TemplateCmd> cmds;
    /**
     * Offset of the first / last column command: the first is checked
     * against each PC's column bus, the last is where the stream leaves it.
     */
    Tick casFirstOffset = 0;
    Tick casLastOffset = 0;
    bool hasCas = false;

    // ---- bulk-commit aggregates (derived from cmds by the recorder) -----
    // The column stream's net effect on per-PC / per-bank records depends
    // only on its last commands, so the bulk committer applies it once
    // instead of per CAS. Offsets are identical across PCs.

    /** Column commands per participating PC. */
    int casPerPc = 0;
    /** Bank slot of the last column command. */
    std::int16_t lastCasSlot = 0;
    /** All column commands of a template share one direction. */
    bool casIsWrite = false;
    /** Offset of the last column command per bank slot. */
    std::array<Tick, 2> lastCasOffsetPerSlot{kTickInvalid, kTickInvalid};
    /** PCs participating (PCs 0..pcCount-1 each see every offset). */
    int pcCount = 0;
    /** Fixed spacing of the column stream (per PC). */
    Tick casCadence = 0;
    /**
     * Entries earliestSequence must inspect: every row command plus the
     * first column command per PC — all later column commands interact
     * only with the template's own stream.
     */
    std::vector<std::uint32_t> probeIdx;
    /** Row-command entries (the bulk committer applies the column stream
     *  as one aggregate instead). */
    std::vector<std::uint32_t> rowIdx;
};

/** Per-call addressing context a CmdTemplate is bound to. */
struct SequenceBinding
{
    int sid = 0;
    int row = 0;
    /** (bank group, bank) per template bank slot. */
    std::array<std::pair<int, int>, 2> banks{};
    int numBanks = 0;
};

/** One HBM channel with full conventional timing enforcement. */
class ChannelDevice
{
  public:
    ChannelDevice(const Organization& org, const TimingParams& timing);

    const Organization& organization() const { return org_; }
    const TimingParams& timing() const { return t_; }

    /**
     * Earliest tick >= @p not_before at which @p cmd satisfies every timing
     * constraint. Returns kTickMax if the command is structurally illegal in
     * the current state (e.g. ACT to an open bank).
     */
    Tick earliestIssue(const Command& cmd, Tick not_before) const;

    /** Result of committing a command. */
    struct IssueResult
    {
        /** When the bank returns to a schedulable state. */
        Tick bankReadyAt = 0;
        /** Data occupies the PC bus in [dataFrom, dataUntil); 0/0 if none. */
        Tick dataFrom = 0;
        Tick dataUntil = 0;
    };

    /**
     * Commit @p cmd at @p when. Panics when any constraint is violated —
     * callers must consult earliestIssue first.
     */
    IssueResult issue(const Command& cmd, Tick when);

    // ---- bulk template issue (RoMe steady-state fast path) --------------

    /**
     * Whole-template admission probe: returns @p t0 when every command of
     * @p tpl can issue at exactly t0 + offset — i.e. the scalar lowering
     * path, asked to start at @p t0, would produce precisely the
     * template's fixed-interval schedule — and kTickMax otherwise
     * (callers fall back to scalar per-command lowering, which stretches
     * minimally instead).
     *
     * The probe validates only the constraints that involve pre-existing
     * device state (per-bank floors, tRRD/tFAW/CAS-chain interaction with
     * the last committed commands, refresh windows, the row-bus slot
     * calendar, and the column bus at the stream's first CAS: every later
     * CAS follows it at the recorded cadence); intra-template constraints
     * hold by construction, since the template was recorded from a
     * validated scalar run. The tFAW window — the one rule mixing
     * pre-existing and template commands by order statistics — is checked
     * against the k-th oldest entry of the ACT ring for the k-th template
     * ACT.
     */
    Tick earliestSequence(const CmdTemplate& tpl, const SequenceBinding& b,
                          Tick t0) const;

    /**
     * Commit every command of @p tpl at t0 + offset in one pass, with the
     * identical state transitions, counters, and trace callbacks the
     * scalar per-command path would produce — but without re-validating
     * each command (debug builds still assert legality). Only call after
     * earliestSequence(tpl, b, t0) returned t0.
     */
    void issueSequence(const CmdTemplate& tpl, const SequenceBinding& b,
                       Tick t0);

    /**
     * Advance the device's clock to @p now: no later earliestIssue or
     * earliestSequence asks about a tick before it (Debug builds panic if
     * one does), so the row-bus calendars may release the slots that ended
     * by it. Controllers set it at the top of every step; a device whose
     * clock stays 0 keeps every slot.
     */
    void setClock(Tick now) { clock_ = now; }

    /** Observable state of the addressed bank at @p now. */
    BankState bankState(const DramAddress& a, Tick now) const;

    /** Open row of the addressed bank (-1 when closed). */
    int openRow(const DramAddress& a) const;

    /** Raw record access for schedulers that inspect timestamps. */
    const BankRecord& bankRecord(const DramAddress& a) const;

    /** Same, addressed by flat bank index (see flatBankIndex). */
    const BankRecord&
    bankRecord(int flat_index) const
    {
        return banks_[static_cast<std::size_t>(flat_index)];
    }

    // ---- timing terms ----------------------------------------------------
    // Every row-command probe has the form rowBus(pc).nextFree(max(t0, bank
    // term, shared term)), and every RD/WR probe max(t0, colBusFloor(pc),
    // bank term, shared term): the bank term reads only the addressed
    // bank's record, the shared term only (PC, SID, bank group, direction)
    // state. earliestIssue composes these same helpers, so a scheduler that
    // caches bank terms between commands to the bank applies every timing
    // rule through its one definition. A term is 0 when no rule binds.

    /** tRP since the last PRE, tRC since the last ACT, refresh busy. */
    Tick
    actBankTerm(const BankRecord& b) const
    {
        Tick t = 0;
        if (b.lastPre != kTickInvalid)
            t = std::max(t, b.lastPre + t_.tRP);
        if (b.lastAct != kTickInvalid)
            t = std::max(t, b.lastAct + t_.tRC);
        if (b.refUntil != kTickInvalid)
            t = std::max(t, b.refUntil);
        return t;
    }

    /** All-bank refresh busy, tRRDL / tRRDS and the tFAW window. */
    Tick
    actSharedTerm(int pc, int sid, int bg) const
    {
        const SidRecord& s = sidRec(pc, sid);
        Tick t = 0;
        if (s.refAbUntil != kTickInvalid)
            t = std::max(t, s.refAbUntil);
        const Tick bg_last = s.lastActPerBg[static_cast<std::size_t>(bg)];
        if (bg_last != kTickInvalid)
            t = std::max(t, bg_last + t_.tRRDL);
        if (s.lastAct != kTickInvalid)
            t = std::max(t, s.lastAct + t_.tRRDS);
        // tFAW: the fourth-to-last ACT bounds the next one.
        const Tick oldest = s.actWindow[s.actWindowHead];
        if (oldest != kTickInvalid)
            t = std::max(t, oldest + t_.tFAW);
        return t;
    }

    /** tRAS since the ACT, read (tRTP) or write (tWR) recovery. */
    Tick
    preBankTerm(const BankRecord& b) const
    {
        Tick t = 0;
        if (b.lastAct != kTickInvalid)
            t = std::max(t, b.lastAct + t_.tRAS);
        if (b.lastCas != kTickInvalid)
            t = std::max(t, b.lastCas + (b.lastCasWasWrite ? t_.tWR
                                                           : t_.tRTP));
        return t;
    }

    /** tRCDRD / tRCDWR since the ACT. */
    Tick
    casBankTerm(const BankRecord& b, bool is_write) const
    {
        if (b.lastAct == kTickInvalid)
            return 0;
        return b.lastAct + (is_write ? t_.tRCDWR : t_.tRCDRD);
    }

    /**
     * CAS-to-CAS spacing and bus turnarounds on the PC's data path for a
     * RD/WR whose SID and bank group do (@p same_sid, @p same_bg) or do
     * not match the PC's last CAS: the term depends on nothing else.
     */
    Tick
    casClassTerm(int pc, bool same_sid, bool same_bg, bool is_write) const
    {
        const PcRecord& p = pcs_[static_cast<std::size_t>(pc)];
        if (p.lastCas == kTickInvalid)
            return 0;
        Tick gap = t_.tCCDS;
        if (!same_sid)
            gap = t_.tCCDR;
        else if (same_bg)
            gap = t_.tCCDL;
        Tick t = p.lastCas + gap;
        if (!p.lastCasWasWrite && is_write)
            t = std::max(t, p.lastCas + t_.tRTW);
        if (p.lastCasWasWrite && !is_write)
            t = std::max(t, p.lastCas + (same_bg ? t_.tWTRL : t_.tWTRS));
        return t;
    }

    /** SID of the PC's last RD/WR (-1 before the first). */
    int
    lastCasSid(int pc) const
    {
        return pcs_[static_cast<std::size_t>(pc)].lastCasSid;
    }

    /** Bank group of the PC's last RD/WR (-1 before the first). */
    int
    lastCasBg(int pc) const
    {
        return pcs_[static_cast<std::size_t>(pc)].lastCasBg;
    }

    /** casClassTerm of a RD/WR to (@p sid, @p bg). */
    Tick
    casSharedTerm(int pc, int sid, int bg, bool is_write) const
    {
        const PcRecord& p = pcs_[static_cast<std::size_t>(pc)];
        return casClassTerm(pc, p.lastCasSid == sid, p.lastCasBg == bg,
                            is_write);
    }

    /** tRP since the last PRE and the bank's own refresh busy window. */
    Tick
    refPbBankTerm(const BankRecord& b) const
    {
        Tick t = 0;
        if (b.lastPre != kTickInvalid)
            t = std::max(t, b.lastPre + t_.tRP);
        if (b.refUntil != kTickInvalid)
            t = std::max(t, b.refUntil);
        return t;
    }

    /** All-bank refresh busy and tRREFD spacing in the (PC, SID). */
    Tick
    refPbSharedTerm(int pc, int sid) const
    {
        const SidRecord& s = sidRec(pc, sid);
        Tick t = 0;
        if (s.refAbUntil != kTickInvalid)
            t = std::max(t, s.refAbUntil);
        if (s.lastRefPb != kTickInvalid)
            t = std::max(t, s.lastRefPb + t_.tRREFD);
        return t;
    }

    /**
     * End of the newest reservation on @p pc's row command bus (0 when
     * there is none). Slots never overlap, so for every t at or after the
     * newest reservation the bus's first free slot is max(t, this floor):
     * a scheduler that issues in time order folds the bus into its max of
     * terms.
     */
    Tick
    rowBusFloor(int pc) const
    {
        return pcs_[static_cast<std::size_t>(pc)].rowBus.newestEnd();
    }

    /**
     * End of @p pc's newest column-bus slot (0 when there is none). Every
     * RD/WR on a PC issues at least min(tCCDS, tCCDL, tCCDR) after the
     * PC's last one (casClassTerm), so column commands commit in tick
     * order and the newest slot is the latest: the bus's first free slot
     * at any tick a probe can ask about is max(t, this floor).
     */
    Tick
    colBusFloor(int pc) const
    {
        return pcs_[static_cast<std::size_t>(pc)].colBusEnd;
    }

    // ---- stall attribution floors ---------------------------------------
    // The part of a probe set by other banks' traffic alone. A stalled
    // RD/WR or ACT whose exact issue tick equals its floor waited on the
    // CAS chain or the ACT window rather than on its own bank.

    /** Lower bound for any RD/WR on @p pc at or after @p t. */
    Tick
    casFloor(int pc, Tick t) const
    {
        const PcRecord& p = pcs_[static_cast<std::size_t>(pc)];
        if (p.lastCas != kTickInvalid && p.lastCas + minCcd_ > t)
            return p.lastCas + minCcd_;
        return t;
    }

    /** Lower bound for any ACT in (@p pc, @p sid) at or after @p t. */
    Tick
    actFloor(int pc, int sid, Tick t) const
    {
        const SidRecord& s = sidRec(pc, sid);
        if (s.lastAct != kTickInvalid && s.lastAct + minRrd_ > t)
            t = s.lastAct + minRrd_;
        const Tick oldest = s.actWindow[s.actWindowHead];
        if (oldest != kTickInvalid && oldest + t_.tFAW > t)
            t = oldest + t_.tFAW;
        return t;
    }

    /** Tick at which the last issued command's data transfer finishes. */
    Tick lastDataEnd() const { return lastDataEnd_; }

    const DeviceCounters& counters() const { return counters_; }

    /**
     * Install a trace callback invoked on every committed command with
     * its IssueResult (busy window / data beats), so timeline exporters
     * can render spans without re-deriving timing.
     */
    void
    setTrace(std::function<void(Tick, const Command&, const IssueResult&)>
                 cb)
    {
        trace_ = std::move(cb);
    }

    /** Command-only trace callback (result ignored). */
    void
    setTrace(std::function<void(Tick, const Command&)> cb)
    {
        if (!cb) {
            trace_ = nullptr;
            return;
        }
        trace_ = [cb = std::move(cb)](Tick when, const Command& c,
                                      const IssueResult&) { cb(when, c); };
    }

    // ---- checkpoint / restore (common/checkpoint.h) ---------------------

    /**
     * Serialize every mutable timing record (banks, SIDs, PCs including
     * the row-bus slot calendar and the column-bus floor), lastDataEnd
     * and the counters.
     * Geometry, timing parameters and derived floors are reproduced by
     * constructing the restore target with the same configuration.
     */
    void saveState(CheckpointWriter& w) const;

    /** Inverse of saveState into an identically configured device. */
    void loadState(CheckpointReader& r);

  private:
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& self);

    /** Tracking shared by the banks of one (PC, SID). */
    struct SidRecord
    {
        /** Last ACT per bank group (tRRDL). */
        std::vector<Tick> lastActPerBg;
        /** Last ACT anywhere in the (PC, SID) (tRRDS). */
        Tick lastAct = kTickInvalid;
        /** Ring of the last four ACT times (tFAW). */
        std::vector<Tick> actWindow;
        std::size_t actWindowHead = 0;
        /** Last per-bank refresh issue (tRREFD). */
        Tick lastRefPb = kTickInvalid;
        /** Completion of the last all-bank refresh. */
        Tick refAbUntil = kTickInvalid;
    };

    /**
     * Occupied row-bus slots (one per ns). A calendar rather than a
     * high-water mark like the column bus: the RoMe command generator
     * lowers whole row operations at once, so a later operation's ACT may
     * legally claim an earlier free slot between row commands that were
     * already committed.
     *
     * The slots' start ticks live in a SortedTicks buffer. A reservation
     * first releases every slot that ended by the device's clock: no probe
     * asks about a tick before the clock, and a window that starts at or
     * after it cannot overlap such a slot, so no answer changes. The slot
     * it then pushes is at or after the clock, so the newest slot (the
     * bus floor) survives every release.
     */
    class SlotCalendar
    {
      public:
        explicit SlotCalendar(Tick width) : width_(width) {}

        /** First tick >= @p t whose [t, t+width) window is free. */
        Tick
        nextFree(Tick t) const
        {
            // Fast path: conventional schedulers probe at monotonically
            // increasing times, so most queries land past the newest
            // reservation and need no search at all.
            if (t >= newestEnd())
                return t;
            Tick cand = t;
            const Tick* it =
                std::lower_bound(slots_.begin(), slots_.end(), t - width_ + 1);
            for (; it != slots_.end() && *it < cand + width_; ++it)
                cand = std::max(cand, *it + width_);
            return cand;
        }

        /** End of the newest reservation, 0 when there is none. */
        Tick
        newestEnd() const
        {
            return slots_.size() == 0 ? 0 : slots_.back() + width_;
        }

        /** Mark [at, at+width) busy, releasing the slots ended by @p clock. */
        void
        reserve(Tick at, Tick clock)
        {
            slots_.release(clock - width_);
            slots_.push(at);
        }

        void saveState(CheckpointWriter& w) const { slots_.saveState(w); }
        void loadState(CheckpointReader& r) { slots_.loadState(r); }

      private:
        Tick width_;
        SortedTicks slots_;
    };

    /** Tracking shared by one PC (CAS stream, data bus, command slots). */
    struct PcRecord
    {
        explicit PcRecord(Tick slot_width) : rowBus(slot_width) {}

        Tick lastCas = kTickInvalid;
        int lastCasSid = -1;
        int lastCasBg = -1;
        bool lastCasWasWrite = false;
        /** End of the last write burst (WR→RD turnaround reference). */
        Tick lastWrDataEnd = kTickInvalid;
        /** End of the last data transfer on this PC. */
        Tick busBusyUntil = 0;
        /**
         * Command slots per PC. The C/A pins are shared by the two PCs of a
         * channel but are fast enough to issue RD/WR to both PCs every
         * tCCDS and ACTs every tRRDS (§IV-D): one slot per ns per PC.
         */
        SlotCalendar rowBus;
        /** End of the newest column slot, 0 when none (colBusFloor). */
        Tick colBusEnd = 0;
    };

    BankRecord& bank(const DramAddress& a);
    const BankRecord& bank(const DramAddress& a) const;
    SidRecord& sidRec(int pc, int sid);
    const SidRecord& sidRec(int pc, int sid) const;

    Tick earliestRefAb(const DramAddress& a, Tick t0) const;

    /** Debug check that a probe at @p t does not precede the clock. */
    void checkProbe(Tick t) const;

    /** State-transition body of issue() (no validation). */
    IssueResult commit(const Command& cmd, Tick when);

    Organization org_;
    TimingParams t_;
    /** Smallest possible CAS-to-CAS / ACT-to-ACT gaps (stall floors). */
    Tick minCcd_ = 0;
    Tick minRrd_ = 0;
    std::vector<BankRecord> banks_;
    std::vector<SidRecord> sids_;
    std::vector<PcRecord> pcs_;
    Tick lastDataEnd_ = 0;
    /** See setClock. */
    Tick clock_ = 0;
    DeviceCounters counters_;
    std::function<void(Tick, const Command&, const IssueResult&)> trace_;
};

} // namespace rome

#endif // ROME_DRAM_DEVICE_H
