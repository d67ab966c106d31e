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
 *    admit/issue/row-change. A scheduling step walks only the banks that
 *    have work, emits at most one ACT/PRE candidate per bank structurally
 *    (no per-step hash sets), consults a per-step refresh-block table, and
 *    tracks the running best candidate — zero heap allocation in steady
 *    state and O(active banks) device probes per step.
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

#include <cstdint>
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
    /** Column-op entries in the write queue. */
    int writeQueueDepth = 128;
    PagePolicy pagePolicy = PagePolicy::Open;
    /** Drain writes above this occupancy fraction. */
    double writeHighWatermark = 0.9;
    /** Stop draining below this occupancy fraction. */
    double writeLowWatermark = 0.05;
    /** Enable the refresh scheduler. */
    bool refreshEnabled = true;
    /** Ops older than this get absolute priority (QoS, §II-D). */
    Tick agePriorityThreshold = ticksFromNs(static_cast<std::int64_t>(5000));
    /** Adaptive policy: precharge an idle open row after this long. */
    Tick adaptiveIdleTimeout = ticksFromNs(static_cast<std::int64_t>(100));
    /**
     * Use the seed's rescan-everything scheduler instead of the
     * incremental per-bank index. Decisions are bit-identical; this exists
     * as the parity oracle and as the baseline of bench_sched_hotpath.
     * Test-only: builds configured with -DROME_ORACLES=OFF compile the
     * oracle out and reject this flag at construction.
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
    /** Read-queue occupancy sampled at each issued command. */
    const Accumulator& readQueueOccupancy() const { return readQOcc_; }

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
    /** One cache-line-sized column operation. */
    struct Op
    {
        DramAddress addr;
        std::uint64_t reqId;
        ReqKind kind;
        Tick arrival;
        /** The op is its request's only one (completion fast path). */
        bool singleOp = false;
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

    /** A schedulable command candidate. */
    struct Candidate
    {
        Command cmd;
        Tick earliest;
        /** Cheap lower bound on earliest (ChannelDevice::casFloor etc.);
         *  lets the indexed scheduler skip exact probes that cannot win. */
        Tick floor = 0;
        int priority;     // smaller = more urgent
        Tick age;         // older first among equals
        /** Legacy: index into the flat queue. Indexed: pool node id. */
        int opIndex = -1;
        bool isWrite = false;
        bool isRefresh = false;
        int refreshUnit = -1;
        /**
         * Final tie-break, encoding the legacy candidate collection order:
         * category (refresh < read op < write op < idle-PRE) then the
         * in-category index (refresh-unit index, op admission sequence, or
         * flat bank index). Unique per candidate, so the indexed
         * scheduler's running-best selection reproduces the legacy
         * first-encountered-wins result exactly.
         */
        int rankCat = 0;
        std::uint64_t rankIdx = 0;
    };

    // ---- incremental per-bank scheduling index -------------------------

    static constexpr int kRepNone = -1;    ///< no hit representative
    static constexpr int kRepUnknown = -2; ///< representative needs rescan

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
        /** Step stamp of an emitted conflict-PRE (dedupes idle-PRE). */
        std::uint64_t preStamp = 0;
        DramAddress addr;   ///< bank coordinates (row/col unused)
    };

    bool admitOps() override;
    std::uint64_t
    admissionChunkBytes() const override
    {
        return dramCfg_.org.columnBytes;
    }
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
    /** First aged conflicting op in read-then-write seq order, or -1. */
    int agedConflictRep(const BankEntry& e, bool any_write, int open_row,
                        bool& rep_is_write);
    void noteBankOpened(int bank);
    void noteBankClosed(int bank);
    void applyRowCommand(const Command& cmd);
    static bool candBeats(const Candidate& a, const Candidate& b);
    static bool candRankLess(const Candidate& a, const Candidate& b);

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
    /** Per refresh unit: cursor bank when its refresh is forced, else -1. */
    std::vector<int> unitForcedBank_;
    std::uint64_t admitSeq_ = 0;
    std::uint64_t stepStamp_ = 0;
    int readCount_ = 0;
    int writeCount_ = 0;

    /** CAM entries of issued-but-incomplete column ops (count against
     *  queue depth until their data transfers). */
    OutstandingOps readOutstanding_;
    OutstandingOps writeOutstanding_;
    bool drainingWrites_ = false;
    std::vector<RefreshUnit> refreshUnits_;

    /** Deferred re-reads waiting out their ECC retry backoff (FIFO). */
    std::vector<PendingRetry> retryQ_;
    /** Earliest retry readiness (kTickMax when none), for idle wake. */
    Tick nextRetryAt_ = kTickMax;
    /** Scratch for scrub-driven spare events (reused across calls). */
    std::vector<SpareEvent> scrubEvents_;

    std::uint64_t casIssued_ = 0;
    Accumulator readQOcc_;
};

} // namespace rome

#endif // ROME_MC_MC_H
