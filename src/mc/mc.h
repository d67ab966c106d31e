/**
 * @file
 * Conventional HBM4 memory controller (paper §II-D, Figure 4).
 *
 * Components: address mapping, CAM-style read/write request queues holding
 * cache-line-sized column operations, per-bank state logic, an FR-FCFS
 * command scheduler with open/close/adaptive page policies and age-based
 * QoS, and a per-bank refresh scheduler with bounded postponing.
 *
 * Two scheduler implementations produce bit-identical command streams:
 *
 *  - The *indexed* scheduler (default) keeps every queued column op in a
 *    pooled node linked into its bank's per-queue FIFO list, with per-bank
 *    summaries (queued-op counts, open-row hit counts, cached best-hit
 *    representatives, oldest-arrival bounds) maintained incrementally on
 *    admit/issue/row-change. Each bank with work also caches its
 *    scheduling candidates — at most one ACT, or a RD-hit, a WR-hit and a
 *    conflict PRE — with the op each serves and the device's bank-local
 *    timing terms. Only an event on the bank re-derives them: an admitted
 *    op that changes them, an issued op, any command to the bank, a
 *    spare-row rewrite, a write-drain flip, or the first tick at which an
 *    op's aging can change which op a conflict PRE is ranked by.
 *
 *    Every device probe has the form bus.nextFree(max(now, bank term,
 *    shared term)), and the shared term depends only on (PC, SID, bank
 *    group, direction). The scheduler keeps the shared terms in a table
 *    that only the command moving them refreshes (ACT terms per bank
 *    group, RD/WR terms per PC and CAS class), and since it issues in
 *    time order the bus slot is one more max term: the newest
 *    reservation's end. A candidate's issue tick is then a max of cached
 *    values, with no per-bank device probe.
 *
 *    The cached candidates are split into one partition per (PC,
 *    command bus): ACT/PRE on the row bus, RD/WR on the column bus. Each
 *    partition caches its min (issue tick, rank key), and a step takes
 *    the min over the partitions, the refresh candidates and the idle
 *    PREs. Only these events re-walk a partition:
 *      - a committed RD/WR re-walks its (PC, column): it moved the PC's
 *        CAS terms, last-CAS SID and bank group and column-bus floor;
 *      - an ACT, PRE or REFpb re-walks its (PC, row): it moved its
 *        (PC, SID)'s ACT terms and the row-bus floor;
 *      - a rebuilt bank swap-removes its old entries, which re-walks a
 *        partition only if one of them was the partition's best, and
 *        offers each new entry to the cached best;
 *      - a refresh scan that changes any forced-refresh hold re-walks
 *        every partition;
 *      - a partition expires at the first tick at which a candidate
 *        that tied its best tick ages, since aging reorders ties;
 *      - the first step and a checkpoint restore start with every
 *        partition unwalked.
 *    Between them a partition's best stands. now only advances to the
 *    last winner's tick, which is at most every partition's best tick,
 *    or jumps while no partition has a candidate, so max(now, ...) moves
 *    none of its ticks. Rank keys are unique, so the min over the
 *    partition minima is the min over every candidate; Debug builds
 *    check that on every step. Refresh units are rescanned only at
 *    their due and forcing deadlines or after an event that can move
 *    them. The caches are allocated by the first step; there is no heap
 *    allocation in steady state.
 *
 *  - The *legacy* scheduler (McConfig::legacyScheduler) is the seed
 *    FR-FCFS loop that rebuilds its whole candidate set from the flat
 *    queues every step. It is retained as the decision-order oracle: the
 *    parity tests assert ControllerStats equality between the two.
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
     * Use the seed's rescan-everything scheduler instead of the
     * incremental per-bank index. Decisions are bit-identical; this is
     * the reference the parity tests and bench_sched_hotpath compare
     * the indexed scheduler against.
     */
    bool legacyScheduler = false;
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

    /** A schedulable command candidate (legacy scheduler). */
    struct Candidate
    {
        Command cmd;
        Tick earliest;
        int priority;     // smaller = more urgent
        Tick age;         // older first among equals
        int opIndex = -1; ///< index into the flat queue
        bool isWrite = false;
        bool isRefresh = false;
        int refreshUnit = -1;
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

    /** Pooled node of one queued op, linked into its bank's FIFO list. */
    struct OpNode
    {
        Op op;
        std::uint64_t seq = 0; ///< admission order (== flat-queue position)
        int bank = -1;         ///< flat bank index
        int prev = -1;
        int next = -1;
    };

    /** One bank's per-queue FIFO list plus its incremental summary. */
    struct BankList
    {
        int head = -1;
        int tail = -1;
        int count = 0;
        /** Ops hitting the currently open row (meaningful while open). */
        int hitCount = 0;
        /** Min-(arrival, seq) hit op — the bank's best CAS candidate. */
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
     * legacy collection order: priority, age, then category (refresh <
     * read op < write op < idle-PRE) and the in-category index
     * (refresh-unit index, op admission sequence, or flat bank index).
     * Unique per candidate, so the min-key selection reproduces the
     * legacy first-encountered-wins result exactly. Packed so that
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
     * One cached candidate of a bank (32 bytes). Its issue tick at now is
     * max(now, bankTerm, sharedTerm[sharedIdx + (class & classMask)],
     * its bus floor), where a RD/WR's class says whether its bank shares
     * the SID and bank group of its PC's last CAS. Its rank key, taken
     * only when it ties for the earliest tick, is candKey(): the op's
     * arrival and (category, sequence) word with the priority at now.
     */
    struct CachedCand
    {
        /** The device's bank-local timing term for the command. */
        Tick bankTerm = 0;
        /** Arrival of the op the candidate serves or is ranked by. */
        Tick age = 0;
        /** RankKey::lo of that op: its queue category and sequence. */
        std::uint64_t rankLo = 0;
        /** Pool node of that op. */
        int node = -1;
        std::uint16_t sharedIdx = 0;
        /** -1 for RD/WR (column bus, classed term), 0 for ACT/PRE. */
        std::int8_t classMask = 0;
        std::uint8_t kind = 0; ///< CmdKind
    };

    /** A bank's cached candidates plus its constant coordinates. */
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
        /** Each candidate's index in its partition's ref list. */
        std::array<std::int32_t, 3> pos{};
        std::array<CachedCand, 3> cand{};
    };

    /** Running min of (issue tick, rank key hi, rank key lo), with a ref
     *  naming its candidate. */
    struct Best
    {
        Tick e = kTickMax;
        std::uint64_t hi = ~std::uint64_t{0};
        std::uint64_t lo = ~std::uint64_t{0};
        int ref = -1;

        void
        offer(Tick oe, std::uint64_t ohi, std::uint64_t olo, int oref)
        {
            if (oe < e ||
                (oe == e && (ohi < hi || (ohi == hi && olo < lo)))) {
                e = oe;
                hi = ohi;
                lo = olo;
                ref = oref;
            }
        }
    };

    /**
     * The cached candidates of one (PC, command bus) and their cached
     * minimum. A ref is bank * kRefSlots + the candidate's slot.
     */
    struct Partition
    {
        std::vector<int> refs;
        /** Min over the refs not held for a forced refresh. */
        Best best;
        /** First tick at which a candidate that ties best.e ages. */
        Tick expires = kTickMax;
        /** best and expires stand; cleared by the events that move them. */
        bool valid = false;
    };

    /** A refresh unit's live candidate (PRE or REFpb at its cursor). */
    struct RefreshCand
    {
        /** Bank-local and (PC, SID) terms; the row bus adds its floor. */
        Tick term = 0;
        RankKey key;
        int bank = 0;
        int pc = 0;
    };

    /** A step's winning candidate. */
    struct Pick
    {
        Tick earliest = kTickMax;
        CmdKind kind = CmdKind::Act;
        int bank = -1;
        /** Pool node (op candidates), -1 for refresh and idle-PRE. */
        int node = -1;
        int refreshUnit = -1;
    };

    bool admitOps() override;
    bool stepOnce(Tick until) override;

    /** Telemetry timeline: one span per committed device command. */
    void installCommandTrace() override;

    // ---- shared helpers ------------------------------------------------
    void updateWriteDrain();
    std::size_t readQueueSize() const;
    std::size_t writeQueueSize() const;
    void completeOp(const Op& op, Tick data_end);
    int pendingRefreshCount(const RefreshUnit& u) const;
    bool refreshBlocked(const DramAddress& a) const;
    Tick idleWakeTick(Tick adaptive_next) const;

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

    // ---- indexed scheduler ---------------------------------------------
    bool stepOnceIndexed(Tick until);
    void insertOpIndexed(Op op);
    void removeOpIndexed(int node);
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
    /** Issue tick at now_ of candidate @p cc of bank cands @p c. */
    Tick candTick(const BankCands& c, const CachedCand& cc) const;
    /** Partition of candidate @p cc of bank cands @p c. */
    static int
    partOf(const BankCands& c, const CachedCand& cc)
    {
        return 2 * c.pc + (cc.classMask & 1);
    }
    /** The bank is held for its unit's forced refresh. */
    bool held(const BankCands& c, int bank) const;
    /** Allocate and fill the scheduling caches (first step, restore). */
    void initCaches();
    /**
     * Re-derive a bank's cached candidates at now_: swap-remove the old
     * entries from their partitions and offer the new ones to theirs.
     */
    void rebuildCands(int bank);
    /** Recompute a partition's best and expiry at now_. */
    void walkPartition(int part);
    /** Queue a bank whose candidates an event invalidated. */
    void markStale(int bank);
    /**
     * Shared-term table slots: ACT per group; RD/WR per PC, CAS class
     * (2 * same SID + same bank group as the PC's last CAS) and way.
     */
    int actTermIdx(int group) const { return 1 + group; }
    int
    casTermIdx(int pc, int cas_class, bool is_write) const
    {
        return 1 + sc_->numGroups + 8 * pc + 2 * cas_class +
               (is_write ? 1 : 0);
    }
    /** Recompute every shared term and bus floor (construction, restore). */
    void fillSharedTerms();
    /** Recompute @p pc's RD/WR terms for every CAS class. */
    void fillCasTerms(int pc);
    /** Recompute the shared terms and bus floor @p cmd (just committed)
     *  moved. */
    void updateSharedTerms(const Command& cmd);
    void noteBankOpened(int bank);
    void noteBankClosed(int bank);
    void applyRowCommand(const Command& cmd);
    /** The device command a pick stands for. */
    Command pickCommand(const Pick& p) const;

    // ---- legacy scheduler (decision-order oracle) ----------------------
    bool stepOnceLegacy(Tick until);
    void collectRefreshCandidates(std::vector<Candidate>& out) const;
    void collectOpCandidates(std::vector<Candidate>& out) const;

    DramConfig dramCfg_;
    AddressMapping map_;
    McConfig cfg_;
    ChannelDevice dev_;

    // Legacy flat queues (used only when cfg_.legacyScheduler).
    std::vector<Op> readQ_;
    std::vector<Op> writeQ_;

    // Indexed scheduler state (used otherwise).
    std::vector<OpNode> pool_;
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
     * State the indexed step derives and caches, allocated by the first
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
        /** A partition walk's kept candidates: issue tick and ref of
         *  each. */
        std::vector<Tick> walkTick;
        std::vector<int> walkRef;
        int numGroups = 0; ///< (PC, SID, bank group) triples
        /**
         * The device's shared timing terms, refreshed only by the
         * commands that move them: slot 0 is the empty term of a PRE,
         * then one ACT term per group, then per PC one RD and one WR term
         * per CAS class.
         */
        std::vector<Tick> sharedTerm;
        /** Per PC: SID at 2 * pc and bank group at 2 * pc + 1 of its
         *  last CAS (ChannelDevice::lastCasSid / lastCasBg). */
        std::array<int, 2 * kMaxPcs> lastCas{};
        /** Per PC: row-bus floor at 2 * pc, column-bus floor at
         *  2 * pc + 1 (ChannelDevice::rowBusFloor), refreshed as
         *  commands issue. */
        std::array<Tick, 2 * kMaxPcs> busFloor{};
        // Refresh units are rescanned only when their candidates can
        // change: at the next due tick or forcing deadline, or after an
        // event that can move one (a bank joining or leaving the set with
        // work, a precharge, a refresh). In between the scan's results
        // stand.
        bool heldAny = false;
        /** Refresh candidates found by the last scan. */
        std::vector<RefreshCand> liveRefresh;
        /** First step tick at which the units must be rescanned. */
        Tick refreshWake = 0;
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
