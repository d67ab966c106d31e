/**
 * @file
 * The RoMe memory controller (§V-A, Figure 11).
 *
 * Everything a conventional MC juggles collapses under the row-granularity
 * interface:
 *  - three row-level commands only (RD_row, WR_row, REF)
 *  - four VBA states (Idle, Reading, Writing, Refreshing)
 *  - ten timing parameters (Table III)
 *  - five bank FSMs: two for operating VBAs + three for refreshing VBAs
 *  - a two-to-four-entry request queue
 *  - an age-based scheduler whose only job is interleaving across VBAs
 *  - no page policy: rows precharge as part of every operation
 *  - writes are handled immediately on arrival (§V-B)
 *
 * Requests are split into effective-row-sized (4 KB) operations; partially
 * covered rows are transferred whole and counted as overfetch.
 *
 * Host-request admission, in-flight/completion accounting, and the
 * runUntil/drain loop live in ChannelControllerBase (sim/engine.h), shared
 * with the conventional controller.
 */

#ifndef ROME_ROME_ROME_MC_H
#define ROME_ROME_ROME_MC_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/device.h"
#include "dram/hbm4_config.h"
#include "mc/complexity.h"
#include "mc/request.h"
#include "rome/cmdgen.h"
#include "rome/rome_command.h"
#include "rome/rome_timing.h"
#include "rome/vba.h"
#include "sim/engine.h"

namespace rome
{

/** VBA states tracked by the RoMe MC (Figure 11(a); four states). */
enum class VbaState { Idle, Reading, Writing, Refreshing };

inline constexpr int kNumRomeVbaStates = 4;

/** RoMe MC configuration. */
struct RomeMcConfig
{
    /**
     * Row-request queue entries. 0 = derive as 16 KB of buffered rows:
     * four entries for the adopted 4 KB design (§VI-C; two already
     * saturate), proportionally more for smaller effective rows.
     */
    int queueDepth = 0;
    bool refreshEnabled = true;
    /**
     * Use the seed's scan-every-slot scheduler instead of the sorted
     * FSM-deadline buffers + per-VBA busy index. Decisions are
     * bit-identical; this is the reference the parity tests and
     * bench_sched_hotpath compare the indexed scheduler against.
     */
    bool legacyScheduler = false;
    /**
     * Lower every row op through the scalar per-command path instead of
     * the precomputed-template fast path. Results are bit-identical;
     * this is the lowering parity tests' reference. The scalar code
     * itself stays live either way: template misses fall back to it.
     */
    bool scalarLowering = false;
    /**
     * Reliability model (sim/fault.h). RoMe protects the whole effective
     * row with one SEC-DED codeword, so every row op is classified as one
     * ECC decode over all its lines.
     */
    FaultConfig faults;
    /**
     * Opt-in observability (sim/telemetry.h): stall-cause attribution,
     * per-request latency breakdown, time-series sampling. Off (the
     * default) keeps the controller bit-identical and allocation-free.
     */
    TelemetryConfig telemetry;
};

/** How channel-local addresses map onto (VBA, SID, row) chunks. */
enum class RomeMapOrder
{
    VbaSidRow, ///< consecutive rows rotate VBAs first (default)
    SidVbaRow, ///< consecutive rows rotate SIDs first
    RowVbaSid, ///< pathological: consecutive rows share a VBA
};

/** Row-granularity memory controller for one channel. */
class RomeMc : public ChannelControllerBase
{
  public:
    RomeMc(const DramConfig& base, VbaDesign design, RomeMcConfig cfg,
           RomeMapOrder map_order = RomeMapOrder::VbaSidRow);

    std::string name() const override { return "rome"; }

    const ChannelDevice& device() const override { return dev_; }
    const VbaMap& vbaMap() const { return map_; }
    const CommandGenerator& generator() const { return gen_; }
    const RomeMcConfig& config() const { return cfg_; }
    /**
     * FSMs for concurrently operating VBAs: ceil(tRD_row / tR2RS). The
     * adopted design needs exactly two (§V-A); design points with
     * shorter transfers need proportionally more.
     */
    int operateFsms() const { return operateFsms_; }
    /**
     * FSMs for concurrently refreshing VBAs, from the refresh duty (VBA
     * count × stall / tREFI). The adopted design needs exactly three
     * (§V-A); designs with more, smaller VBAs need more.
     */
    int refreshFsms() const { return refreshFsms_; }

    /** Decode a channel-local byte address into its VBA row. */
    VbaAddress decodeRow(std::uint64_t addr) const;

    /** Observable state of a VBA at time @p at. */
    VbaState vbaState(const VbaAddress& a, Tick at) const;

    // ---- Statistics -------------------------------------------------------
    /** Bytes moved beyond what requests asked for (row-granularity cost). */
    std::uint64_t overfetchBytes() const { return overfetch_; }
    double achievedBandwidth() const;
    /** Bandwidth counting only requested (useful) bytes. */
    double effectiveBandwidth() const;
    /** Highest number of simultaneously operating VBAs observed. */
    int operateFsmHighWater() const { return opHighWater_; }
    /** Highest number of simultaneously refreshing VBAs observed. */
    int refreshFsmHighWater() const { return refHighWater_; }

    /** Table IV introspection. */
    McComplexity complexity() const override;

    ControllerStats stats() const override;

    /**
     * Checkpoint the full mutable controller + device + generator state.
     * The restore target must be constructed with the same DramConfig /
     * VbaDesign / RomeMcConfig / map order.
     */
    void saveCheckpoint(CheckpointWriter& w) const override;
    void restoreCheckpoint(CheckpointReader& r) override;

  private:
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& self);

    /** One queued row operation. */
    struct RowOp
    {
        RowCommand cmd;
        std::uint64_t reqId;
        Tick arrival;
        std::uint64_t usefulBytes;
        /** The request's in-flight slot; -1 when this is its only op. */
        int slot = -1;
        /** Fault-retry attempt count (0 = first issue). */
        int attempt = 0;
        /** Accumulated retry backoff (telemetry breakdown component). */
        Tick retryWait = 0;
        /** Upstream link transit inherited from the request (telemetry). */
        Tick linkDelay = 0;
    };

    /** A row op awaiting its fault-retry backoff before re-entering the
     *  queue. */
    struct PendingRetry
    {
        RowOp op;
        Tick readyAt;
    };

    /** An FSM slot tracking an in-flight row operation or refresh. */
    struct FsmSlot
    {
        VbaAddress vba;
        Tick busyUntil = kTickInvalid;
        VbaState state = VbaState::Idle;
    };

    bool admitOps() override;
    bool stepOnce(Tick until) override;
    bool stepOnceLegacy(Tick until);
    bool stepOnceIndexed(Tick until);
    void installCommandTrace() override;

    bool vbaBusy(const VbaAddress& a, Tick at) const;
    int busyCount(const std::vector<FsmSlot>& slots, Tick at) const;
    void retireSlots(Tick at);
    Tick nextRefreshDue() const;

    // ---- reliability (sim/fault.h) --------------------------------------
    /** Classify a completed read against the fault model; returns true if
     *  the completion was deferred (retry or spare-replay queued). */
    bool deferForFault(const RowOp& op, Tick data_end, bool& poisoned);
    void queueRetry(RowOp op, Tick ready_at);
    /** Move backoff-expired retries back into the request queue. */
    void pumpRetries();
    /** Run the patrol-scrub slice that rides on an issued refresh. */
    void runScrub();
    /** Rewrite queued and retrying ops after a row got spared. */
    void applySpare(const SpareEvent& ev);

    // ---- FSM-deadline slot accounting (indexed scheduler) ---------------
    int vbaKey(const VbaAddress& a) const
    {
        return a.sid * map_.vbasPerSid() + a.vba;
    }

    DramConfig baseCfg_;
    VbaMap map_;
    RomeMcConfig cfg_;
    /**
     * Row-level timing (Table III): the paper's Table V values for the
     * adopted design; other VBA design points derive theirs from first
     * principles (their transfer lengths differ).
     */
    RomeTimingParams timing_;
    int operateFsms_ = 0;
    int refreshFsms_ = 0;
    /** (SID, VBA) pairs of the channel: the refresh rotation's targets. */
    int totalVbas_ = 0;
    RomeMapOrder mapOrder_;
    ChannelDevice dev_;
    CommandGenerator gen_;

    std::vector<RowOp> queue_;
    /** CAM entries of issued-but-incomplete row ops (count against
     *  queueDepth until their data transfers). */
    SortedTicks outstanding_;
    /** Legacy scheduler: flat FSM-slot arrays, rescanned per step. */
    std::vector<FsmSlot> opSlots_;
    std::vector<FsmSlot> refSlots_;
    /**
     * Indexed scheduler: FSM occupancy as buffers sorted by retire
     * deadline (SortedTicks: retirement advances a cursor past the
     * expired prefix instead of scanning slots; a window that ends before
     * an earlier one moves back a few places on push) plus a per-VBA busy
     * table indexed by (sid, vba) key, so vbaBusy and the per-op
     * ready-time query are O(1) lookups.
     */
    SortedTicks opBusy_;
    SortedTicks refBusy_;
    std::vector<Tick> vbaBusyUntil_;
    std::vector<VbaState> vbaBusyState_;

    /** Last issued data command, for Table III gap bookkeeping. */
    Tick lastRowCmdAt_ = kTickInvalid;
    bool lastRowCmdWasWrite_ = false;
    int lastRowCmdSid_ = -1;
    std::optional<VbaAddress> lastRowCmdVba_;

    /** Refresh rotation across all (SID, VBA) pairs of the channel. */
    RefreshRotation refresh_;

    /** Fault retries waiting out their backoff (unordered; scanned). */
    std::vector<PendingRetry> retryQ_;
    Tick nextRetryAt_ = kTickMax;
    std::vector<SpareEvent> scrubEvents_;

    std::uint64_t overfetch_ = 0;
    int opHighWater_ = 0;
    int refHighWater_ = 0;
};

} // namespace rome

#endif // ROME_ROME_ROME_MC_H
