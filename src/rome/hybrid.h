/**
 * @file
 * Hybrid RoMe + HBM4 system (Discussion §VII).
 *
 * RoMe is optimized for coarse sequential access; workloads with frequent
 * fine-grained requests (e.g. DeepSeek Sparse Attention picking top-2048
 * tokens) overfetch badly at 4 KB granularity. The paper sketches a
 * heterogeneous system that keeps some conventional HBM4 channels and
 * routes fine-grained requests there. This router implements that split:
 * requests at or above the row threshold go to the RoMe partition,
 * sub-row requests to the conventional partition, each modeled by its own
 * channel controller.
 *
 * The router itself implements IMemoryController, so hybrid systems run
 * through the same ChannelSimEngine harnesses as the homogeneous ones.
 */

#ifndef ROME_ROME_HYBRID_H
#define ROME_ROME_HYBRID_H

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/source.h"

namespace rome
{

/** Configuration of the heterogeneous channel split. */
struct HybridConfig
{
    /**
     * Reliability model applied to both partitions (sim/fault.h). Each
     * partition classifies at its own ECC granularity — 32 B lines on the
     * fine side, whole effective rows on the coarse side — and the merged
     * stats() carry both partitions' CE/DUE/retry/scrub/spare counters.
     */
    FaultConfig faults;
    /**
     * Opt-in observability, applied to both partitions; their stall
     * tables, breakdown histograms and time series merge through the
     * ordinary ControllerStats::merge in stats().
     */
    TelemetryConfig telemetry;
};

/** One RoMe channel + one conventional channel behind a size router. */
class HybridMc : public IMemoryController
{
  public:
    /** Requests of at least this many bytes go to the RoMe partition. */
    static constexpr std::uint64_t kCoarseThreshold = 4096;

    HybridMc(const DramConfig& base, HybridConfig cfg);

    std::string name() const override { return "hybrid"; }

    /** Route a request by size (addresses are partition-local). */
    void enqueue(const Request& req) override;

    /**
     * Native streaming: each partition pulls its own subsequence of the
     * bound source on demand through a per-partition feed — nothing is
     * drained upfront. A feed that encounters requests routed to the
     * sibling stages them in the router (FIFO), so both partitions see
     * exactly the request sequence the eager fallback would have
     * delivered and results stay bit-identical. The drain drive is a
     * bounded lock-step (both partitions advance through shared time
     * windows), so each window's staged sibling share is consumed
     * almost immediately: staging peaks at one window's pull span, not
     * at a partition's whole share of the workload — truly O(window)
     * memory, where the eager fallback buffered everything.
     */
    void bindSource(RequestSource* src) override;

    /**
     * Advance both partitions to @p until (RoMe first, a fixed order).
     * Idle partitions keep honoring their refresh calendar like any
     * channel, so any slicing of [0, until] is bit-identical to one
     * runUntil(until) window.
     */
    void runUntil(Tick until) override;

    /** Drain both partitions in bounded lock-step windows; returns the
     *  later finish time. */
    Tick drain() override;

    bool idle() const override;

    /** Later of the two partitions' clocks. */
    Tick now() const override;

    /**
     * Completions of both partitions merged in finish order. Append-only
     * like the single-partition controllers: each call merges only the
     * partitions' new tail entries onto the cached vector.
     */
    const std::vector<Completion>& completions() const override;

    /** Merged latency statistics of both partitions. */
    const Accumulator& latencyNs() const override;

    /** Merged latency distribution of both partitions (exact merge). */
    const LatencyHistogram& latencyHistogramNs() const override;

    /** Forward to both partitions (their logs feed completions()). */
    void
    setRetainCompletions(bool retain) override
    {
        rome_.setRetainCompletions(retain);
        fine_.setRetainCompletions(retain);
    }

    /** Combined structures of the two partition controllers. */
    McComplexity complexity() const override;

    ControllerStats stats() const override;

    const RomeMc& romePartition() const { return rome_; }
    const ConventionalMc& finePartition() const { return fine_; }
    const HybridConfig& config() const { return cfg_; }

    std::uint64_t
    bytesCoarse() const
    {
        return rome_.bytesRead() + rome_.bytesWritten();
    }

    std::uint64_t
    bytesFine() const
    {
        return fine_.bytesRead() + fine_.bytesWritten();
    }

    /**
     * Useful bytes per ns delivered by the busier partition's finish time
     * — the pessimistic (serialized-phase) view of mixed workloads.
     */
    double effectiveBandwidth() const;

    /**
     * High-water mark of the router's staging buffers: how far the
     * stream's partition interleaving forced one partition's requests to
     * queue while the other pulled (bounded-memory evidence).
     */
    std::size_t stagingPeak() const { return stagingPeak_; }

    /**
     * Checkpoint both partitions plus the router state: the staging
     * deques, the shared-source pull count, and each partition feed's
     * lookahead buffer (a feed routinely holds a peeked request because
     * refill probes exhausted() through the shared stream). A streaming
     * checkpoint must be resumed with resumeSource() before running.
     */
    void saveCheckpoint(CheckpointWriter& w) const override;
    void restoreCheckpoint(CheckpointReader& r) override;

    /**
     * Re-attach a fresh instance of the originally bound source after
     * restoreCheckpoint: skips the checkpointed number of shared-stream
     * pulls (sources replay identically per the reset() contract), then
     * reconnects both partitions to their feeds without re-priming —
     * the restored host windows already hold every pulled request.
     */
    void resumeSource(RequestSource* src) override;

  private:
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& self);

    /** One partition's demand-driven view of the shared bound source. */
    class PartitionFeed final : public RequestSource
    {
      public:
        void
        attach(HybridMc* owner, int which)
        {
            owner_ = owner;
            which_ = which;
        }

      protected:
        bool
        produce(Request& out) override
        {
            return owner_->feedNext(which_, out);
        }

        void rewind() override; // feeds cannot replay (fatals)

      private:
        HybridMc* owner_ = nullptr;
        int which_ = 0;
    };

    /** 0 = RoMe (coarse) partition, 1 = conventional (fine). */
    int
    partitionOf(const Request& r) const
    {
        return r.size >= kCoarseThreshold ? 0 : 1;
    }

    /**
     * Next request of partition @p which: staged requests first, then
     * pulls from the shared source, staging the sibling's requests met
     * on the way. False only when the shared stream is exhausted.
     */
    bool feedNext(int which, Request& out);


    HybridConfig cfg_;
    RomeMc rome_;
    ConventionalMc fine_;
    RequestSource* source_ = nullptr;
    std::array<PartitionFeed, 2> feeds_;
    /** Requests pulled past one feed, awaiting the other partition. */
    std::array<std::deque<Request>, 2> staging_;
    std::size_t stagingPeak_ = 0;
    /** Successful pulls off the shared source (checkpoint resume skip). */
    std::uint64_t pulledFromSource_ = 0;
    mutable std::vector<Completion> mergedCompletions_;
    /** How many entries of each partition are already merged. */
    mutable std::size_t romeMerged_ = 0;
    mutable std::size_t fineMerged_ = 0;
    mutable Accumulator mergedLatency_;
    mutable LatencyHistogram mergedLatencyHist_;
};

} // namespace rome

#endif // ROME_ROME_HYBRID_H
