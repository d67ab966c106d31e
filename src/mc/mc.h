/**
 * @file
 * Conventional HBM4 memory controller (paper §II-D, Figure 4).
 *
 * Components: address mapping, CAM-style read/write request queues holding
 * cache-line-sized column operations, per-bank state logic, an FR-FCFS
 * command scheduler with open/close/adaptive page policies and age-based
 * QoS, and a per-bank refresh scheduler with bounded postponing.
 *
 * The scheduler queues column ops as *runs*: consecutive columns of one
 * request in one row, admitted back to back into one bank's queue. Each
 * run is one pooled node linked into its bank's per-queue FIFO list; an
 * admitted line that continues the list's tail run extends it in place.
 * Per-bank summaries (queued-op counts, open-row hit counts, cached
 * best-hit runs, oldest-arrival bounds) are maintained incrementally on
 * admit/issue/row-change and still count ops. Each bank with work also
 * caches its scheduling candidates — at most one ACT, or a RD-hit, a
 * WR-hit and a conflict PRE — with the run whose head op each serves or
 * is ranked by, and the device's bank-local timing terms. Only an event
 * on the bank re-derives them: an admitted op that changes them, a CAS
 * that empties its run, any other command to the bank, a spare-row
 * rewrite, a write-drain flip, or the first tick at which an op's aging
 * can change which op a conflict PRE is ranked by. A CAS that leaves ops
 * in its run patches the bank's candidates in place instead: the served
 * candidate takes the run's next op, and every candidate takes the bank
 * terms the CAS moved.
 *
 * Every device probe has the form bus.nextFree(max(now, bank term, shared
 * term)), and the shared term depends only on (PC, SID, bank group,
 * direction). The scheduler keeps the ACT terms in a table that only the
 * ACT moving them refreshes, one per bank group. A RD/WR's term is its
 * PC's last CAS tick plus a gap that depends only on its CAS class (same
 * SID and bank group as that CAS or not), its direction and whether that
 * CAS wrote: a 3 x 8 gap table built once from TimingParams, with a row of
 * zeros for a PC that has issued no CAS. Since the scheduler issues in
 * time order the bus slot is one more max term: the newest reservation's
 * end. A candidate's issue tick is then a max of cached values, with no
 * per-bank device probe.
 *
 * The cached candidates are split into one partition per (PC, command
 * bus): ACT/PRE on the row bus, RD/WR on the column bus. Each partition
 * owns its candidates in one array, each entry holding every input of
 * its issue tick and rank key (bank term, SID, bank group, refresh unit,
 * term index, rank words, run node, kind); a bank keeps only each
 * candidate's (partition, position), and rebuilds swap-remove, patches
 * rewrite and offers read the entry in place. Each partition caches its
 * min (issue tick, rank key) with the winner's run node and kind, so the
 * pick reads no entry, and a step takes the min over the partitions, the
 * refresh candidates and the idle PREs. Only these events re-walk a
 * partition, in one pass over its array:
 *   - a committed RD/WR re-walks its (PC, column): it moved the PC's CAS
 *     terms, last-CAS SID and bank group and column-bus floor;
 *   - an ACT, PRE or REFpb re-walks its (PC, row): it moved its (PC,
 *     SID)'s ACT terms and the row-bus floor;
 *   - a rebuilt bank swap-removes its old entries, which re-walks a
 *     partition only if one of them was the partition's best, and offers
 *     each new entry to the cached best;
 *   - a patched bank re-walks the partition of each entry that was its
 *     partition's best and offers the others to the cached best;
 *   - a refresh scan that changes any forced-refresh hold re-walks every
 *     partition;
 *   - a partition expires at the first tick at which a candidate that
 *     tied its best tick ages, since aging reorders ties;
 *   - the first step and a checkpoint restore start with every partition
 *     unwalked.
 * Between them a partition's best stands. now only advances to the last
 * winner's tick, which is at most every partition's best tick, or jumps
 * while no partition has a candidate, so max(now, ...) moves none of its
 * ticks. Rank keys are unique, so the min over the partition minima is
 * the min over every candidate; Debug builds check that on every step.
 *
 * A refresh unit's scan reads only its cursor bank, and only once the
 * unit is due. So the units are rescanned only at the next due tick or
 * forcing deadline, after a REFpb, or when an event touches the cursor
 * bank of a due unit: the bank gains its first queued op, loses its last
 * one, or precharges. No ACT or CAS reaches such a bank between scans: it
 * has no work, or it is held for its forced refresh.
 *
 * The caches are allocated by the first step; there is no heap
 * allocation in steady state.
 *
 * Its decisions are those of the seed's FR-FCFS loop, which rebuilt the
 * whole candidate set from flat queues every step, one op at a time. That
 * loop lives on as a test-only oracle (tests/oracle/): the parity tests
 * assert equal ControllerStats and equal command timelines between the
 * two.
 *
 * The controller drives one ChannelDevice; every command it emits is
 * re-validated by the device against the full timing rule set.
 *
 * Host-request admission, in-flight/completion accounting, and the
 * runUntil/drain loop live in ChannelControllerBase (sim/engine.h), which
 * the RoMe controller shares; this class supplies the column-granularity
 * scheduling.
 */

#ifndef ROME_MC_MC_H
#define ROME_MC_MC_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/device.h"
#include "dram/hbm4_config.h"
#include "mc/addrmap.h"
#include "mc/complexity.h"
#include "mc/request.h"
#include "sim/engine.h"

namespace rome
{

/** Row-buffer management policy (§II-D). */
enum class PagePolicy { Open, Close, Adaptive };

/** Scheduler knobs of the conventional MC. */
struct McConfig
{
    /**
     * Column-op entries in the read queue. The paper (like Ramulator,
     * which models each pseudo channel as an independent controller) uses
     * 64 per PC; this controller serves both PCs of a channel.
     */
    int readQueueDepth = 128;
    /**
     * Column-op entries in the write queue. Writes drain from 90%
     * occupancy, or whenever no read is queued, down to 5%.
     */
    int writeQueueDepth = 128;
    /** Row-buffer policy; adaptive precharges a row idle for 100 ns. */
    PagePolicy pagePolicy = PagePolicy::Open;
    /** Enable the refresh scheduler. */
    bool refreshEnabled = true;
    /** Ops older than this get absolute priority (QoS, §II-D). */
    Tick agePriorityThreshold = ticksFromNs(static_cast<std::int64_t>(5000));
    /**
     * Fault injection + ECC/recovery (sim/fault.h). The conventional
     * stack evaluates one SEC-DED codeword per 32 B line, so each read
     * CAS is classified independently. Disabled by default; when
     * disabled the scheduling path is bit-identical to a faultless
     * build.
     */
    FaultConfig faults;
    /**
     * Opt-in observability (sim/telemetry.h): stall-cause attribution,
     * latency breakdown, time-series sampling. Off (the default) keeps
     * the controller bit-identical and allocation-free.
     */
    TelemetryConfig telemetry;
};

/** Conventional column-granularity memory controller for one channel. */
class ConventionalMc : public ChannelControllerBase
{
  public:
    ConventionalMc(const DramConfig& cfg, AddressMapping mapping,
                   McConfig mc_cfg);

    std::string name() const override { return "hbm4"; }

    const ChannelDevice& device() const override { return dev_; }
    const AddressMapping& mapping() const { return map_; }
    const McConfig& config() const { return cfg_; }

    // ---- Statistics ----------------------------------------------------
    /** Achieved data bandwidth over [0, now] in bytes/ns. */
    double achievedBandwidth() const;
    /** Fraction of column ops that hit an open row. */
    double rowHitRate() const;

    /** Table IV introspection. */
    McComplexity complexity() const override;

    ControllerStats stats() const override;

    /**
     * Checkpoint the full mutable controller + device state (queues,
     * per-bank index, refresh rotations, retry/fault state, statistics).
     * The restore target must be constructed with the same DramConfig /
     * mapping / McConfig.
     */
    void saveCheckpoint(CheckpointWriter& w) const override;
    void restoreCheckpoint(CheckpointReader& r) override;

  private:
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& self);

    /** One cache-line-sized column operation. */
    struct Op
    {
        DramAddress addr;
        std::uint64_t reqId;
        ReqKind kind;
        Tick arrival;
        /** The request's in-flight slot; -1 when this is its only op. */
        int slot = -1;
        /** Re-read attempts already spent clearing a CE (fault path). */
        int attempt = 0;
        /** ECC retry backoff absorbed so far (telemetry breakdown). */
        Tick retryWait = 0;
        /** Upstream link delay of the parent request (telemetry). */
        Tick linkDelay = 0;
    };

    /** A deferred re-read waiting out its ECC retry backoff. */
    struct PendingRetry
    {
        Op op;
        Tick readyAt;
    };

    /** Per-(PC, SID) refresh rotation state (cursor walks the banks). */
    struct RefreshUnit
    {
        int pc;
        int sid;
        RefreshRotation rot;
    };

    // ---- incremental per-bank scheduling index -------------------------

    /** PCs per channel the scheduler supports. */
    static constexpr int kMaxPcs = 8;
    static constexpr int kRepNone = -1;    ///< no hit representative
    static constexpr int kRepUnknown = -2; ///< representative needs rescan
    /** A step's candidates are named by a ref: their bank times
     *  kRefSlots plus a cached-candidate slot, kRefRefresh or
     *  kRefIdlePre. */
    static constexpr int kRefSlots = 8;
    static constexpr int kRefRefresh = 3;
    static constexpr int kRefIdlePre = 4;

    /**
     * Pooled node of one run: consecutive columns of one request in one
     * row, adjacent in its bank's FIFO list. op is the run's head op; op
     * k of the run has column op.addr.col + k and admission sequence
     * seq + k * stride, and shares every other field with the head.
     */
    struct RunNode
    {
        Op op;
        std::uint64_t seq = 0;    ///< head op's admission order
        std::uint64_t stride = 1; ///< admission-order step between its ops
        int count = 1;            ///< queued ops in the run (>= 1)
        int bank = -1;            ///< flat bank index
        int prev = -1;
        int next = -1;
    };

    /** One bank's per-queue FIFO list of runs plus its incremental
     *  summary, which counts ops. */
    struct BankList
    {
        int head = -1;
        int tail = -1;
        int count = 0;
        /** Ops hitting the currently open row (meaningful while open). */
        int hitCount = 0;
        /** Run of the min-(arrival, seq) hit op — the bank's best CAS
         *  candidate, always a run's head op. */
        int hitRep = kRepNone;
        /** Arrivals never decrease along the list (a retry can break it). */
        bool sorted = true;
        /** Lower bound on the oldest arrival queued here (aged-QoS gate). */
        Tick minArrivalLb = kTickMax;
    };

    /** Per-bank index entry. */
    struct BankEntry
    {
        BankList read;
        BankList write;
        int activePos = -1; ///< position in activeBanks_, -1 when absent
        int openPos = -1;   ///< position in openBanks_, -1 when closed
        /** First tick at which an op's aging can change which op the
         *  bank's conflict PRE is ranked by (cache state, not saved). */
        Tick validUntil = kTickMax;
        DramAddress addr;   ///< bank coordinates (row/col unused)
    };

    /**
     * Tie-break key among candidates that issue on the same tick, in the
     * seed's collection order: priority, age, then category (refresh <
     * read op < write op < idle-PRE) and the in-category index
     * (refresh-unit index, op admission sequence, or flat bank index).
     * Unique per candidate, so the min-key selection reproduces the
     * seed's first-encountered-wins result exactly. Packed so that
     * (hi, lo) compares lexicographically: the priority sits above a
     * 60-bit age, the category above a 62-bit index.
     */
    struct RankKey
    {
        std::uint64_t hi = 0;
        std::uint64_t lo = 0;
    };
    static RankKey rankKey(int priority, Tick age, int rank_cat,
                           std::uint64_t rank_idx);

    /**
     * One cached candidate (48 bytes), stored in its partition's array
     * with every input of its issue tick and rank key. That tick at now is
     * max(now, bankTerm, its shared term, its bus floor); the shared term
     * is termBase + sharedTerm[termOff + sharedIdx + (class & classMask)]
     * of its partition, where a RD/WR's class says whether its bank shares
     * the SID and bank group of its PC's last CAS. Its rank key at now is
     * candKey(): (hi, rankLo), with hi's priority dropped to kPrioForced
     * from the tick aged on.
     */
    struct CachedCand
    {
        /** The device's bank-local timing term for the command. */
        Tick bankTerm = 0;
        /** RankKey::hi of the op the candidate serves or is ranked by,
         *  at its command's priority: the op's arrival below that. */
        std::uint64_t hi = 0;
        /** First tick at which that op is aged (agedAt). */
        Tick aged = kTickMax;
        /** RankKey::lo of that op: its queue category and sequence. */
        std::uint64_t rankLo = 0;
        /** Pool node of that op's run; the op is the run's head. */
        int node = -1;
        /** bank * kRefSlots + the candidate's slot in its BankCands. */
        int ref = -1;
        std::uint16_t sharedIdx = 0;
        std::int16_t unit = 0; ///< its bank's refresh unit
        std::int8_t sid = 0;
        std::int8_t bg = 0;
        /** -1 for RD/WR (column bus, classed term), 0 for ACT/PRE. */
        std::int8_t classMask = 0;
        std::uint8_t kind = 0; ///< CmdKind
    };

    /** Where a bank's cached candidates live, plus its constant
     *  coordinates. */
    struct BankCands
    {
        std::int8_t count = 0;
        /** An event on the bank invalidated the candidates. */
        bool stale = true;
        std::int8_t pc = 0;
        std::int8_t sid = 0;
        std::int8_t bg = 0;
        std::int16_t unit = 0;  ///< refresh unit ((PC, SID) index)
        std::int32_t group = 0; ///< flat (PC, SID, bank group) index
        /** Each candidate's partition and position in its array. */
        std::array<std::int8_t, 3> part{};
        std::array<std::int32_t, 3> pos{};
    };

    /** Running min of (issue tick, rank key hi, rank key lo), with a ref
     *  naming its candidate and the run node and command kind it stands
     *  for. */
    struct Best
    {
        Tick e = kTickMax;
        std::uint64_t hi = ~std::uint64_t{0};
        std::uint64_t lo = ~std::uint64_t{0};
        int ref = -1;
        /** Pool node of an op candidate's run, -1 for refresh and
         *  idle-PRE. */
        int node = -1;
        CmdKind kind = CmdKind::Act;

        void
        offer(Tick oe, std::uint64_t ohi, std::uint64_t olo, int oref,
              int onode, CmdKind okind)
        {
            if (oe < e ||
                (oe == e && (ohi < hi || (ohi == hi && olo < lo)))) {
                e = oe;
                hi = ohi;
                lo = olo;
                ref = oref;
                node = onode;
                kind = okind;
            }
        }
    };

    /**
     * The cached candidates of one (PC, command bus) and their cached
     * minimum.
     */
    struct Partition
    {
        std::vector<CachedCand> cands;
        /** Min over the candidates not held for a forced refresh. */
        Best best;
        /**
         * best stands before this tick: the first at which a candidate
         * that ties best.e ages, or 0 once an event moved it.
         */
        Tick expires = 0;
    };

    /** A refresh unit's live candidate (PRE or REFpb at its cursor). */
    struct RefreshCand
    {
        /** Bank-local and (PC, SID) terms; the row bus adds its floor. */
        Tick term = 0;
        RankKey key;
        int bank = 0;
        int pc = 0;
        CmdKind kind = CmdKind::RefPb; ///< PRE while the bank is open
    };

    bool admitOps() override;
    bool stepOnce(Tick until) override;

    /** Telemetry timeline: one span per committed device command. */
    void installCommandTrace() override { traceCommands(dev_); }

    // ---- shared helpers ------------------------------------------------
    void updateWriteDrain();
    void completeOp(const Op& op, Tick data_end);
    Tick idleWakeTick(Tick adaptive_next) const;
    /**
     * Fatal unless every restored index names an entry of the table it
     * indexes and every restored op a cell of the device and -1 or a live
     * in-flight slot (restore only).
     */
    void checkRestoredIndices() const;

    // ---- reliability (ECC classify / retry / scrub / sparing) -----------
    /**
     * Classify the read that just transferred and, on a correctable
     * error, defer its completion: schedule a bounded-backoff re-read
     * (or, past the CE sparing threshold, remap the row and replay the
     * op against the spare). True when the completion was deferred.
     */
    bool deferForFault(const Op& op, Tick data_end, bool& poisoned);
    /** Queue a deferred re-read and track the earliest wake tick. */
    void queueRetry(Op op, Tick ready_at);
    /** Re-admit retries whose backoff expired (queue space permitting). */
    void pumpRetries();
    /** Patrol-scrub step piggybacked on an issued refresh. */
    void runScrub();
    /** Rewrite queued + retrying ops of a spared row to its new home. */
    void applySpare(const SpareEvent& ev);

    // ---- scheduler -----------------------------------------------------
    /** Coordinates of column line @p line, its row remapped if spared. */
    DramAddress lineAddr(std::uint64_t line) const;
    /**
     * Queue the op of @p req (in-flight slot @p slot) at @p a. It extends
     * its bank list's tail run when it continues that run (next column,
     * same row and request, at the run's admission-order stride) and
     * starts a run otherwise; no Op is built for an extension.
     */
    void queueOp(const Request& req, int slot, const DramAddress& a);
    /** Queue @p op, admitted as @p seq, as a one-op run at its bank
     *  list's tail. */
    void insertRun(const Op& op, std::uint64_t seq);
    /** Unlink and free an emptied run. */
    void removeRun(int node);
    /** Dequeue the head op of run @p node, which a CAS just served. */
    void serveRunHead(int node);
    /** RankKey::lo of run @p n's head op. */
    static std::uint64_t headRankLo(const RunNode& n);
    /** Rebuild a bank's hit summaries after its open row changed. */
    void reindexBankRow(int bank);
    void rescanList(BankList& l, int open_row);
    int resolveHitRep(BankList& l, int open_row);
    /** First tick at which an op that arrived at @p arrival is aged. */
    Tick agedAt(Tick arrival) const;
    /**
     * First aged conflicting op in read-then-write seq order, or -1.
     * Lowers @p valid_until to the first tick a not-yet-aged op could
     * take that role.
     */
    int agedConflictRep(const BankEntry& e, bool any_write, int open_row,
                        Tick& valid_until);
    /** Rank key of a cached candidate at now_. */
    RankKey candKey(const CachedCand& cc) const;
    /** Issue tick at now_ of candidate @p cc of partition @p part. */
    Tick candTick(int part, const CachedCand& cc) const;
    /** The candidate's bank is held for its unit's forced refresh. */
    bool held(const CachedCand& cc) const;
    /** Allocate and fill the scheduling caches (first step, restore). */
    void initCaches();
    /**
     * Re-derive a bank's cached candidates at now_: swap-remove the old
     * entries from their partitions and offer the new ones to theirs.
     */
    void rebuildCands(int bank);
    /**
     * After a CAS that left ops in its run @p node: refresh every cached
     * candidate of @p bank in place with the bank terms the CAS moved and
     * the run's new head op, and re-offer each to its partition.
     */
    void patchCands(int bank, int node);
    /** Offer candidate @p cc of partition @p part to its cached best when
     *  that best stands. */
    void offerCand(int part, const CachedCand& cc);
    /** Recompute a partition's best and expiry at now_. */
    void walkPartition(int part);
    /** Queue a bank whose candidates an event invalidated. */
    void markStale(int bank);
    /**
     * Rescan the refresh units at the next step when @p bank, whose work
     * or open row just changed, is the cursor of a due unit: no other
     * bank's change moves a scan's result.
     */
    void wakeRefreshAt(int bank);
    /**
     * Shared-term table slots: the ACT term of a group; the first gap of
     * the CAS gap table.
     */
    int actTermIdx(int group) const { return 1 + group; }
    int casGapIdx() const { return 1 + sc_->numGroups; }
    /** Recompute every shared term and bus floor (construction, restore). */
    void fillSharedTerms();
    /** Point @p pc's RD/WR terms at its last CAS: its tick and the gap
     *  row of its direction. */
    void fillCasTerms(int pc);
    /** Recompute the shared terms and bus floor @p cmd (just committed)
     *  moved. */
    void updateSharedTerms(const Command& cmd);
    void noteBankOpened(int bank);
    void noteBankClosed(int bank);
    void applyRowCommand(const Command& cmd);
    /** The device command the winning candidate @p b stands for. */
    Command pickCommand(const Best& b) const;

    DramConfig dramCfg_;
    AddressMapping map_;
    McConfig cfg_;
    ChannelDevice dev_;

    // Scheduler state.
    std::vector<RunNode> pool_;
    std::vector<int> freeNodes_;
    std::vector<BankEntry> bankIx_;
    std::vector<int> activeBanks_; ///< banks with any queued op
    std::vector<int> openBanks_;   ///< banks the MC holds open
    /** Per refresh unit: cursor bank when its refresh is forced, else -1
     *  (meaningful when StepCache::heldAny). */
    std::vector<int> unitForcedBank_;
    std::uint64_t admitSeq_ = 0;
    int readCount_ = 0;
    int writeCount_ = 0;

    /**
     * State the step derives and caches, allocated by the first
     * step (initCaches) so that set-ups which never step pay nothing.
     */
    struct StepCache
    {
        std::vector<BankCands> cands; ///< per bank; never serialized
        /** Banks marked stale since the last walk, each once. */
        std::vector<int> staleBanks;
        /** No cache needs rebuilding for aging before this tick. */
        Tick nextAging = kTickMax;
        /** Per (PC, bus), at 2 * pc + (column bus), like busFloor. */
        std::vector<Partition> parts;
        int numGroups = 0; ///< (PC, SID, bank group) triples
        /**
         * The device's shared timing terms: slot 0 is the empty term of a
         * PRE, then one ACT term per group, refreshed only by the ACTs
         * that move them. Then the CAS gap table: a RD/WR's CAS-chain and
         * turnaround gap after its PC's last CAS, at casGapIdx() + 8 *
         * (that CAS read, wrote, or none issued yet) + 2 * CAS class +
         * (this one writes). ChannelDevice::casClassTerm is the last CAS's
         * tick plus that gap, or 0 before the first CAS.
         */
        std::vector<Tick> sharedTerm;
        /**
         * Per (PC, bus), like busFloor: the partition's shared terms are
         * termBase + sharedTerm[termOff + ...]. The row bus reads the ACT
         * and PRE terms as they stand (0, 0); the column bus its PC's last
         * CAS tick and gap row.
         */
        std::array<Tick, 2 * kMaxPcs> termBase{};
        std::array<int, 2 * kMaxPcs> termOff{};
        /** Per PC: SID at 2 * pc and bank group at 2 * pc + 1 of its
         *  last CAS (ChannelDevice::lastCasSid / lastCasBg). */
        std::array<int, 2 * kMaxPcs> lastCas{};
        /** Per PC: row-bus floor at 2 * pc, column-bus floor at
         *  2 * pc + 1 (ChannelDevice::rowBusFloor), refreshed as
         *  commands issue. */
        std::array<Tick, 2 * kMaxPcs> busFloor{};
        // Refresh units are rescanned only when their candidates can
        // change: at the next due tick or forcing deadline, after a
        // refresh, or when the cursor bank of a due unit gains or loses
        // work or precharges (wakeRefreshAt). In between the scan's
        // results stand.
        bool heldAny = false;
        /** Refresh candidates found by the last scan. */
        std::vector<RefreshCand> liveRefresh;
        /** First step tick at which the units must be rescanned. */
        Tick refreshWake = 0;
        /** Write-queue occupancies at which a drain starts (at or above)
         *  and stops (at or below). */
        int writeHigh = 0;
        int writeLow = 0;
    };
    std::unique_ptr<StepCache> sc_;

    /** CAM entries of issued-but-incomplete column ops (count against
     *  queue depth until their data transfers). */
    SortedTicks readOutstanding_;
    SortedTicks writeOutstanding_;
    bool drainingWrites_ = false;
    std::vector<RefreshUnit> refreshUnits_;

    /** Deferred re-reads waiting out their ECC retry backoff (FIFO). */
    std::vector<PendingRetry> retryQ_;
    /** Earliest retry readiness (kTickMax when none), for idle wake. */
    Tick nextRetryAt_ = kTickMax;
    /** Scratch for scrub-driven spare events (reused across calls). */
    std::vector<SpareEvent> scrubEvents_;

    std::uint64_t casIssued_ = 0;
};

} // namespace rome

#endif // ROME_MC_MC_H
