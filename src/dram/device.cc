#include "dram/device.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

using namespace rome::literals;

namespace
{

/** One command-bus slot is one nanosecond (1 GHz command clock). */
constexpr Tick kCmdSlot = kTicksPerNs;

Tick
maxTick(Tick a, Tick b)
{
    return a > b ? a : b;
}

} // namespace

ChannelDevice::ChannelDevice(const Organization& org,
                             const TimingParams& timing)
    : org_(org), t_(timing)
{
    minCcd_ = std::min({t_.tCCDL, t_.tCCDS, t_.tCCDR});
    minRrd_ = std::min(t_.tRRDL, t_.tRRDS);
    banks_.resize(static_cast<std::size_t>(org_.banksPerChannel()));
    sids_.resize(static_cast<std::size_t>(org_.pcsPerChannel *
                                          org_.sidsPerChannel));
    for (auto& s : sids_) {
        s.lastActPerBg.assign(
            static_cast<std::size_t>(org_.bankGroupsPerSid), kTickInvalid);
        s.actWindow.assign(4, kTickInvalid);
    }
    pcs_.reserve(static_cast<std::size_t>(org_.pcsPerChannel));
    for (int i = 0; i < org_.pcsPerChannel; ++i)
        pcs_.emplace_back(kCmdSlot);
}

BankRecord&
ChannelDevice::bank(const DramAddress& a)
{
    return banks_[static_cast<std::size_t>(flatBankIndex(org_, a))];
}

const BankRecord&
ChannelDevice::bank(const DramAddress& a) const
{
    return banks_[static_cast<std::size_t>(flatBankIndex(org_, a))];
}

ChannelDevice::SidRecord&
ChannelDevice::sidRec(int pc, int sid)
{
    return sids_[static_cast<std::size_t>(pc * org_.sidsPerChannel + sid)];
}

const ChannelDevice::SidRecord&
ChannelDevice::sidRec(int pc, int sid) const
{
    return sids_[static_cast<std::size_t>(pc * org_.sidsPerChannel + sid)];
}

Tick
ChannelDevice::earliestAct(const DramAddress& a, Tick t0) const
{
    const BankRecord& b = bank(a);
    if (b.open())
        return kTickMax; // must precharge first
    const SidRecord& s = sidRec(a.pc, a.sid);

    Tick t = t0;
    if (b.lastPre != kTickInvalid)
        t = maxTick(t, b.lastPre + t_.tRP);
    if (b.lastAct != kTickInvalid)
        t = maxTick(t, b.lastAct + t_.tRC);
    if (b.refUntil != kTickInvalid)
        t = maxTick(t, b.refUntil);
    if (s.refAbUntil != kTickInvalid)
        t = maxTick(t, s.refAbUntil);
    if (s.lastActPerBg[static_cast<std::size_t>(a.bg)] != kTickInvalid) {
        t = maxTick(t, s.lastActPerBg[static_cast<std::size_t>(a.bg)] +
                    t_.tRRDL);
    }
    if (s.lastAct != kTickInvalid)
        t = maxTick(t, s.lastAct + t_.tRRDS);
    // tFAW: the fourth-to-last ACT bounds the next one.
    const Tick oldest = s.actWindow[s.actWindowHead];
    if (oldest != kTickInvalid)
        t = maxTick(t, oldest + t_.tFAW);
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(t);
}

Tick
ChannelDevice::earliestPre(const DramAddress& a, Tick t0) const
{
    const BankRecord& b = bank(a);
    if (!b.open())
        return kTickMax;
    Tick t = t0;
    if (b.lastAct != kTickInvalid)
        t = maxTick(t, b.lastAct + t_.tRAS);
    if (b.lastCas != kTickInvalid) {
        if (b.lastCasWasWrite)
            t = maxTick(t, b.lastCas + t_.tWR);
        else
            t = maxTick(t, b.lastCas + t_.tRTP);
    }
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(t);
}

Tick
ChannelDevice::earliestCas(const DramAddress& a, bool is_write, Tick t0) const
{
    const BankRecord& b = bank(a);
    if (!b.open() || b.openRow != a.row)
        return kTickMax; // row must be open (the MC handles ACT/PRE)
    const PcRecord& pc = pcs_[static_cast<std::size_t>(a.pc)];

    Tick t = t0;
    if (b.lastAct != kTickInvalid)
        t = maxTick(t, b.lastAct + (is_write ? t_.tRCDWR : t_.tRCDRD));
    if (pc.lastCas != kTickInvalid) {
        // CAS-to-CAS spacing on the shared PC data path.
        Tick gap = t_.tCCDS;
        if (pc.lastCasSid != a.sid)
            gap = t_.tCCDR;
        else if (pc.lastCasBg == a.bg)
            gap = t_.tCCDL;
        t = maxTick(t, pc.lastCas + gap);
        // Bus-direction turnarounds (command-level).
        if (!pc.lastCasWasWrite && is_write)
            t = maxTick(t, pc.lastCas + t_.tRTW);
        if (pc.lastCasWasWrite && !is_write) {
            const Tick wtr = (pc.lastCasBg == a.bg) ? t_.tWTRL : t_.tWTRS;
            t = maxTick(t, pc.lastCas + wtr);
        }
    }
    return pc.colBus.nextFree(t);
}

Tick
ChannelDevice::earliestRefPb(const DramAddress& a, Tick t0) const
{
    const BankRecord& b = bank(a);
    if (b.open())
        return kTickMax; // REFpb requires a precharged bank
    const SidRecord& s = sidRec(a.pc, a.sid);

    Tick t = t0;
    if (b.lastPre != kTickInvalid)
        t = maxTick(t, b.lastPre + t_.tRP);
    if (b.refUntil != kTickInvalid)
        t = maxTick(t, b.refUntil);
    if (s.refAbUntil != kTickInvalid)
        t = maxTick(t, s.refAbUntil);
    if (s.lastRefPb != kTickInvalid)
        t = maxTick(t, s.lastRefPb + t_.tRREFD);
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(t);
}

Tick
ChannelDevice::earliestRefAb(const DramAddress& a, Tick t0) const
{
    // Every bank in the (PC, SID) must be idle.
    Tick t = t0;
    for (int bg = 0; bg < org_.bankGroupsPerSid; ++bg) {
        for (int ba = 0; ba < org_.banksPerGroup; ++ba) {
            DramAddress ba_addr = a;
            ba_addr.bg = bg;
            ba_addr.bank = ba;
            const BankRecord& b = bank(ba_addr);
            if (b.open())
                return kTickMax;
            if (b.lastPre != kTickInvalid)
                t = maxTick(t, b.lastPre + t_.tRP);
            if (b.refUntil != kTickInvalid)
                t = maxTick(t, b.refUntil);
        }
    }
    const SidRecord& s = sidRec(a.pc, a.sid);
    if (s.refAbUntil != kTickInvalid)
        t = maxTick(t, s.refAbUntil);
    if (s.lastRefPb != kTickInvalid)
        t = maxTick(t, s.lastRefPb + t_.tRREFD);
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(t);
}

Tick
ChannelDevice::earliestIssue(const Command& cmd, Tick not_before) const
{
    // The probe path runs once per candidate per scheduling step; range
    // validation stays on in debug builds, while release builds rely on
    // issue() re-validating every command that actually commits.
#ifndef NDEBUG
    checkAddress(org_, cmd.addr);
#endif
    switch (cmd.kind) {
      case CmdKind::Act:
        return earliestAct(cmd.addr, not_before);
      case CmdKind::Pre:
        return earliestPre(cmd.addr, not_before);
      case CmdKind::Rd:
        return earliestCas(cmd.addr, false, not_before);
      case CmdKind::Wr:
        return earliestCas(cmd.addr, true, not_before);
      case CmdKind::RefPb:
        return earliestRefPb(cmd.addr, not_before);
      case CmdKind::RefAb:
        return earliestRefAb(cmd.addr, not_before);
      default:
        panic("unknown command kind");
    }
}

ChannelDevice::IssueResult
ChannelDevice::issue(const Command& cmd, Tick when)
{
    checkAddress(org_, cmd.addr);
    const Tick earliest = earliestIssue(cmd, when);
    if (earliest == kTickMax || earliest > when) {
        panic("illegal %s at %lld ns (earliest legal: %s)",
              cmd.str().c_str(),
              static_cast<long long>(when / kTicksPerNs),
              earliest == kTickMax
                  ? "never (wrong bank state)"
                  : strfmt("%lld ns",
                           static_cast<long long>(earliest / kTicksPerNs))
                        .c_str());
    }
    return commit(cmd, when);
}

ChannelDevice::IssueResult
ChannelDevice::commit(const Command& cmd, Tick when)
{
    BankRecord& b = bank(cmd.addr);
    SidRecord& s = sidRec(cmd.addr.pc, cmd.addr.sid);
    PcRecord& pc = pcs_[static_cast<std::size_t>(cmd.addr.pc)];
    IssueResult res;

    switch (cmd.kind) {
      case CmdKind::Act:
        b.lastAct = when;
        b.openRow = cmd.addr.row;
        s.lastActPerBg[static_cast<std::size_t>(cmd.addr.bg)] = when;
        s.lastAct = when;
        s.actWindow[s.actWindowHead] = when;
        s.actWindowHead = (s.actWindowHead + 1) % s.actWindow.size();
        pc.rowBus.reserve(when);
        counters_.acts.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = when + std::min(t_.tRCDRD, t_.tRCDWR);
        break;

      case CmdKind::Pre:
        b.lastPre = when;
        b.openRow = -1;
        pc.rowBus.reserve(when);
        counters_.pres.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = when + t_.tRP;
        break;

      case CmdKind::Rd:
      case CmdKind::Wr: {
        const bool is_write = cmd.kind == CmdKind::Wr;
        b.lastCas = when;
        b.lastCasWasWrite = is_write;
        pc.lastCas = when;
        pc.lastCasSid = cmd.addr.sid;
        pc.lastCasBg = cmd.addr.bg;
        pc.lastCasWasWrite = is_write;
        const Tick data_from = when + (is_write ? t_.tWL : t_.tCL);
        const Tick data_until = data_from + t_.tBURST;
        if (is_write) {
            pc.lastWrDataEnd = data_until;
            counters_.writes.inc();
        } else {
            counters_.reads.inc();
        }
        pc.busBusyUntil = data_until;
        lastDataEnd_ = maxTick(lastDataEnd_, data_until);
        pc.colBus.reserve(when);
        counters_.colCmds.inc();
        counters_.dataBusBusyTicks.inc(static_cast<std::uint64_t>(t_.tBURST));
        counters_.dataBytes.inc(org_.columnBytes);
        res.dataFrom = data_from;
        res.dataUntil = data_until;
        res.bankReadyAt = data_until;
        break;
      }

      case CmdKind::RefPb:
        b.refUntil = when + t_.tRFCpb;
        s.lastRefPb = when;
        pc.rowBus.reserve(when);
        counters_.refPbs.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = b.refUntil;
        break;

      case CmdKind::RefAb: {
        for (int bg = 0; bg < org_.bankGroupsPerSid; ++bg) {
            for (int ba = 0; ba < org_.banksPerGroup; ++ba) {
                DramAddress a = cmd.addr;
                a.bg = bg;
                a.bank = ba;
                bank(a).refUntil = when + t_.tRFCab;
            }
        }
        s.refAbUntil = when + t_.tRFCab;
        pc.rowBus.reserve(when);
        counters_.refAbs.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = when + t_.tRFCab;
        break;
      }

      default:
        panic("unknown command kind");
    }

    if (trace_)
        trace_(when, cmd, res);
    return res;
}

namespace
{

/** Build the concrete address of one template command. */
DramAddress
templateAddr(const TemplateCmd& e, const SequenceBinding& bind)
{
    DramAddress a;
    a.pc = e.pc;
    a.sid = bind.sid;
    a.bg = bind.banks[static_cast<std::size_t>(e.bankSlot)].first;
    a.bank = bind.banks[static_cast<std::size_t>(e.bankSlot)].second;
    a.row = bind.row;
    a.col = e.col;
    return a;
}

} // namespace

Tick
ChannelDevice::earliestSequence(const CmdTemplate& tpl,
                                const SequenceBinding& bind, Tick t0) const
{
    // Walk the template in issue order, validating only the constraints
    // that can involve pre-existing state (see the header comment). The
    // per-PC counters track how many template commands of each class were
    // already placed: later commands of a class interact only with the
    // template's own commands, whose spacing holds by construction.
    constexpr std::size_t kMaxPcs = 4;
    if (static_cast<std::size_t>(org_.pcsPerChannel) > kMaxPcs)
        panic("sequence probe supports at most %zu PCs", kMaxPcs);
    std::array<std::uint8_t, kMaxPcs> n_act{};
    std::array<std::uint8_t, kMaxPcs> n_ref{};

    for (const std::uint32_t idx : tpl.probeIdx) {
        const TemplateCmd& e = tpl.cmds[idx];
        const auto pi = static_cast<std::size_t>(e.pc);
        const Tick at = t0 + e.offset;
        const DramAddress a = templateAddr(e, bind);
        const BankRecord& bk = bank(a);
        const SidRecord& s = sidRec(a.pc, a.sid);
        const PcRecord& pc = pcs_[pi];

        switch (e.kind) {
          case CmdKind::Act: {
            if (bk.open())
                return kTickMax;
            if (bk.lastPre != kTickInvalid && bk.lastPre + t_.tRP > at)
                return kTickMax;
            if (bk.lastAct != kTickInvalid && bk.lastAct + t_.tRC > at)
                return kTickMax;
            if (bk.refUntil != kTickInvalid && bk.refUntil > at)
                return kTickMax;
            if (s.refAbUntil != kTickInvalid && s.refAbUntil > at)
                return kTickMax;
            const Tick bg_last =
                s.lastActPerBg[static_cast<std::size_t>(a.bg)];
            if (bg_last != kTickInvalid && bg_last + t_.tRRDL > at)
                return kTickMax;
            if (n_act[pi] == 0 && s.lastAct != kTickInvalid &&
                s.lastAct + t_.tRRDS > at) {
                return kTickMax;
            }
            // tFAW mixes pre-existing and template ACTs: with k template
            // ACTs already placed, the fourth-most-recent ACT before this
            // one is the k-th oldest pre-existing window entry.
            const std::size_t k = n_act[pi];
            if (k < s.actWindow.size()) {
                const Tick w =
                    s.actWindow[(s.actWindowHead + k) % s.actWindow.size()];
                if (w != kTickInvalid && w + t_.tFAW > at)
                    return kTickMax;
            }
            if (pc.rowBus.nextFree(at) != at)
                return kTickMax;
            ++n_act[pi];
            break;
          }

          case CmdKind::Rd:
          case CmdKind::Wr: {
            if (pc.lastCas != kTickInvalid) {
                Tick gap = t_.tCCDS;
                if (pc.lastCasSid != a.sid)
                    gap = t_.tCCDR;
                else if (pc.lastCasBg == a.bg)
                    gap = t_.tCCDL;
                if (pc.lastCas + gap > at)
                    return kTickMax;
                const bool is_write = e.kind == CmdKind::Wr;
                if (!pc.lastCasWasWrite && is_write &&
                    pc.lastCas + t_.tRTW > at) {
                    return kTickMax;
                }
                if (pc.lastCasWasWrite && !is_write) {
                    const Tick wtr =
                        (pc.lastCasBg == a.bg) ? t_.tWTRL : t_.tWTRS;
                    if (pc.lastCas + wtr > at)
                        return kTickMax;
                }
            }
            // One range probe covers the whole fixed-cadence CAS stream.
            if (!pc.colBus.rangeFree(t0 + tpl.casFirstOffset,
                                     t0 + tpl.casLastOffset + kCmdSlot)) {
                return kTickMax;
            }
            break;
          }

          case CmdKind::Pre:
            // tRAS and CAS recovery involve only the template's own ACT
            // and CAS commands; only the row-bus slot can collide with
            // other operations' commands.
            if (pc.rowBus.nextFree(at) != at)
                return kTickMax;
            break;

          case CmdKind::RefPb: {
            if (bk.open())
                return kTickMax;
            if (bk.lastPre != kTickInvalid && bk.lastPre + t_.tRP > at)
                return kTickMax;
            if (bk.refUntil != kTickInvalid && bk.refUntil > at)
                return kTickMax;
            if (s.refAbUntil != kTickInvalid && s.refAbUntil > at)
                return kTickMax;
            if (n_ref[pi]++ == 0 && s.lastRefPb != kTickInvalid &&
                s.lastRefPb + t_.tRREFD > at) {
                return kTickMax;
            }
            if (pc.rowBus.nextFree(at) != at)
                return kTickMax;
            break;
          }

          default:
            return kTickMax; // no template form for this command kind
        }
    }
    return t0;
}

void
ChannelDevice::issueSequence(const CmdTemplate& tpl,
                             const SequenceBinding& bind, Tick t0)
{
#ifndef NDEBUG
    // Debug builds re-validate and commit per command — the exact scalar
    // transition sequence, including trace callbacks.
    for (const TemplateCmd& e : tpl.cmds) {
        const Tick at = t0 + e.offset;
        const Command cmd{e.kind, templateAddr(e, bind)};
        checkAddress(org_, cmd.addr);
        const Tick earliest = earliestIssue(cmd, at);
        if (earliest != at) {
            panic("template %s not issueable at its fixed offset "
                  "(%lld ns, earliest %lld ns)",
                  cmd.str().c_str(),
                  static_cast<long long>(at / kTicksPerNs),
                  static_cast<long long>(earliest / kTicksPerNs));
        }
        commit(cmd, at);
    }
    return;
#else
    if (trace_) {
        // A trace consumer observes every command: replay them through
        // the per-command committer.
        for (const TemplateCmd& e : tpl.cmds)
            commit({e.kind, templateAddr(e, bind)}, t0 + e.offset);
        return;
    }

    // Bulk path: row commands update their bank/SID records individually
    // (few per template); the column stream reserves its bus slots per
    // command but folds its record updates and counters into one
    // aggregate application — the end state is identical to the
    // per-command path because later CAS writes simply overwrite earlier
    // ones and counters commute.
    std::uint64_t n_act = 0;
    std::uint64_t n_pre = 0;
    std::uint64_t n_ref = 0;
    for (const std::uint32_t idx : tpl.rowIdx) {
        const TemplateCmd& e = tpl.cmds[idx];
        const Tick at = t0 + e.offset;
        PcRecord& pc = pcs_[static_cast<std::size_t>(e.pc)];
        const DramAddress a = templateAddr(e, bind);
        BankRecord& b = bank(a);
        switch (e.kind) {
          case CmdKind::Act: {
            SidRecord& s = sidRec(a.pc, a.sid);
            b.lastAct = at;
            b.openRow = a.row;
            s.lastActPerBg[static_cast<std::size_t>(a.bg)] = at;
            s.lastAct = at;
            s.actWindow[s.actWindowHead] = at;
            s.actWindowHead = (s.actWindowHead + 1) % s.actWindow.size();
            pc.rowBus.reserve(at);
            ++n_act;
            break;
          }
          case CmdKind::Pre:
            b.lastPre = at;
            b.openRow = -1;
            pc.rowBus.reserve(at);
            ++n_pre;
            break;
          case CmdKind::RefPb: {
            SidRecord& s = sidRec(a.pc, a.sid);
            b.refUntil = at + t_.tRFCpb;
            s.lastRefPb = at;
            pc.rowBus.reserve(at);
            ++n_ref;
            break;
          }
          default:
            panic("template %s has no bulk committer",
                  std::string(cmdName(e.kind)).c_str());
        }
    }
    counters_.acts.inc(n_act);
    counters_.pres.inc(n_pre);
    counters_.refPbs.inc(n_ref);
    counters_.rowCmds.inc(n_act + n_pre + n_ref);

    if (tpl.casPerPc > 0) {
        const auto cas_per_pc = static_cast<std::uint64_t>(tpl.casPerPc);
        const auto n_pcs = static_cast<std::uint64_t>(tpl.pcCount);
        // The column stream's bus slots march at the fixed cadence; every
        // PC sees the same offsets.
        for (int p = 0; p < tpl.pcCount; ++p) {
            SlotCalendar& bus = pcs_[static_cast<std::size_t>(p)].colBus;
            Tick at = t0 + tpl.casFirstOffset;
            for (int i = 0; i < tpl.casPerPc; ++i, at += tpl.casCadence)
                bus.reserve(at);
        }
        const Tick last_cas = t0 + tpl.casLastOffset;
        const Tick data_until =
            last_cas + (tpl.casIsWrite ? t_.tWL : t_.tCL) + t_.tBURST;
        for (int p = 0; p < tpl.pcCount; ++p) {
            PcRecord& pc = pcs_[static_cast<std::size_t>(p)];
            pc.lastCas = last_cas;
            pc.lastCasSid = bind.sid;
            pc.lastCasBg =
                bind.banks[static_cast<std::size_t>(tpl.lastCasSlot)].first;
            pc.lastCasWasWrite = tpl.casIsWrite;
            if (tpl.casIsWrite)
                pc.lastWrDataEnd = data_until;
            pc.busBusyUntil = data_until;
            for (int slot = 0; slot < bind.numBanks; ++slot) {
                const Tick off =
                    tpl.lastCasOffsetPerSlot[static_cast<std::size_t>(slot)];
                if (off == kTickInvalid)
                    continue;
                DramAddress a;
                a.pc = p;
                a.sid = bind.sid;
                a.bg = bind.banks[static_cast<std::size_t>(slot)].first;
                a.bank = bind.banks[static_cast<std::size_t>(slot)].second;
                BankRecord& b = bank(a);
                b.lastCas = t0 + off;
                b.lastCasWasWrite = tpl.casIsWrite;
            }
        }
        lastDataEnd_ = maxTick(lastDataEnd_, data_until);
        if (tpl.casIsWrite)
            counters_.writes.inc(cas_per_pc * n_pcs);
        else
            counters_.reads.inc(cas_per_pc * n_pcs);
        counters_.colCmds.inc(cas_per_pc * n_pcs);
        counters_.dataBusBusyTicks.inc(
            cas_per_pc * n_pcs * static_cast<std::uint64_t>(t_.tBURST));
        counters_.dataBytes.inc(cas_per_pc * n_pcs * org_.columnBytes);
    }
#endif
}

BankState
ChannelDevice::bankState(const DramAddress& a, Tick now) const
{
    const SidRecord& s = sidRec(a.pc, a.sid);
    if (s.refAbUntil != kTickInvalid && now < s.refAbUntil)
        return BankState::Refreshing;
    return bank(a).stateAt(now, t_);
}

int
ChannelDevice::openRow(const DramAddress& a) const
{
    return bank(a).openRow;
}

const BankRecord&
ChannelDevice::bankRecord(const DramAddress& a) const
{
    return bank(a);
}

void
ChannelDevice::saveState(CheckpointWriter& w) const
{
    w.putCount(banks_.size());
    for (const BankRecord& b : banks_) {
        w.putI32(b.openRow);
        w.putI64(b.lastAct);
        w.putI64(b.lastPre);
        w.putI64(b.lastCas);
        w.putBool(b.lastCasWasWrite);
        w.putI64(b.refUntil);
    }
    w.putCount(sids_.size());
    for (const SidRecord& s : sids_) {
        w.putCount(s.lastActPerBg.size());
        for (const Tick t : s.lastActPerBg)
            w.putI64(t);
        w.putI64(s.lastAct);
        w.putCount(s.actWindow.size());
        for (const Tick t : s.actWindow)
            w.putI64(t);
        w.putU64(s.actWindowHead);
        w.putI64(s.lastRefPb);
        w.putI64(s.refAbUntil);
    }
    w.putCount(pcs_.size());
    for (const PcRecord& p : pcs_) {
        w.putI64(p.lastCas);
        w.putI32(p.lastCasSid);
        w.putI32(p.lastCasBg);
        w.putBool(p.lastCasWasWrite);
        w.putI64(p.lastWrDataEnd);
        w.putI64(p.busBusyUntil);
        p.rowBus.saveState(w);
        p.colBus.saveState(w);
    }
    w.putI64(lastDataEnd_);
    counters_.acts.saveState(w);
    counters_.pres.saveState(w);
    counters_.reads.saveState(w);
    counters_.writes.saveState(w);
    counters_.refAbs.saveState(w);
    counters_.refPbs.saveState(w);
    counters_.dataBusBusyTicks.saveState(w);
    counters_.dataBytes.saveState(w);
    counters_.rowCmds.saveState(w);
    counters_.colCmds.saveState(w);
}

void
ChannelDevice::loadState(CheckpointReader& r)
{
    if (r.getCount() != banks_.size())
        fatal("device checkpoint bank count mismatch");
    for (BankRecord& b : banks_) {
        b.openRow = r.getI32();
        b.lastAct = r.getI64();
        b.lastPre = r.getI64();
        b.lastCas = r.getI64();
        b.lastCasWasWrite = r.getBool();
        b.refUntil = r.getI64();
    }
    if (r.getCount() != sids_.size())
        fatal("device checkpoint SID count mismatch");
    for (SidRecord& s : sids_) {
        if (r.getCount() != s.lastActPerBg.size())
            fatal("device checkpoint bank-group count mismatch");
        for (Tick& t : s.lastActPerBg)
            t = r.getI64();
        s.lastAct = r.getI64();
        if (r.getCount() != s.actWindow.size())
            fatal("device checkpoint ACT-window size mismatch");
        for (Tick& t : s.actWindow)
            t = r.getI64();
        s.actWindowHead = static_cast<std::size_t>(r.getU64());
        s.lastRefPb = r.getI64();
        s.refAbUntil = r.getI64();
    }
    if (r.getCount() != pcs_.size())
        fatal("device checkpoint PC count mismatch");
    for (PcRecord& p : pcs_) {
        p.lastCas = r.getI64();
        p.lastCasSid = r.getI32();
        p.lastCasBg = r.getI32();
        p.lastCasWasWrite = r.getBool();
        p.lastWrDataEnd = r.getI64();
        p.busBusyUntil = r.getI64();
        p.rowBus.loadState(r);
        p.colBus.loadState(r);
    }
    lastDataEnd_ = r.getI64();
    counters_.acts.loadState(r);
    counters_.pres.loadState(r);
    counters_.reads.loadState(r);
    counters_.writes.loadState(r);
    counters_.refAbs.loadState(r);
    counters_.refPbs.loadState(r);
    counters_.dataBusBusyTicks.loadState(r);
    counters_.dataBytes.loadState(r);
    counters_.rowCmds.loadState(r);
    counters_.colCmds.loadState(r);
}

} // namespace rome
