/**
 * @file
 * Serving harness: multi-channel open-loop driver with tail-latency
 * histograms and latency–throughput curves.
 *
 * This is the system-level layer above the channel engine. Where
 * runSweep drives *one* controller per design point to completion, the
 * serving harness asks the question real inference serving asks: at a
 * given *offered* request rate, what latency distribution does a whole
 * cube (all N channels) deliver, and where does it saturate?
 *
 *  - ServingDriver: takes one system-wide RequestSource (a recorded
 *    serving trace or a generator — payloads only), re-times it with an
 *    open-loop ArrivalProcess at the offered rate, deals it across all
 *    N channels of a cube from one producer (StreamFanOut), drives the
 *    channels on a ChannelSimEngine thread pool, and returns per-channel
 *    + aggregate stats. Aggregate tail latency is exact: the per-channel
 *    LatencyHistograms merge bucket-wise (ControllerStats::merge), so
 *    the cube's p99/p99.9 are identical to a histogram that watched
 *    every channel's completions.
 *  - runRateSweep: walks an offered-rate grid, producing one
 *    latency–throughput point per rate and flagging the saturation knee
 *    (first rate whose achieved throughput falls short of offered by
 *    more than a tolerance) — the open-loop serving curve of Fig. 12/13
 *    -style comparisons.
 *  - ratePointJson: one sweep point in the BENCH_*.json row schema
 *    shared by bench_serving_curves and the CI bench differ.
 *
 * Determinism: the system stream is read once and dealt in stream
 * order, so each channel sees the same request sequence whichever engine
 * thread pulls it; channels share no other state, the windowed drive is
 * bit-identical to independent drains (slice invariance), and results
 * are merged in channel order. A run's outcome — including every
 * histogram bucket — is independent of the engine's thread count.
 */

#ifndef ROME_SIM_SERVING_H
#define ROME_SIM_SERVING_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "sim/engine.h"
#include "sim/source.h"

namespace rome
{

class JsonWriter; // common/json_writer.h

/** Configuration of a multi-channel open-loop serving run. */
struct ServingConfig
{
    /** Fresh per-channel controller (the cube's channel type). */
    ControllerFactory makeController;
    /**
     * Fresh instance of the system-wide request stream. Only payloads
     * (id, kind, addr, size) are used — arrival ticks are replaced by
     * the offered-rate arrival process.
     */
    SourceFactory makeSystemSource;
    /** Channels the system stream shards across (32 = one HBM cube). */
    int numChannels = 32;
    /** Address-stripe shard granularity (0 = round-robin by index). */
    std::uint64_t stripeBytes = 0;
    /** Inter-arrival model of the offered load. */
    ArrivalModel arrivalModel = ArrivalModel::Poisson;
    /** Seed of the arrival process draws. */
    std::uint64_t arrivalSeed = 9;
    /** Worker threads driving the channels (never changes results). */
    int threads = defaultSimThreads();
    /**
     * Keep per-request completion logs. Off by default: serving traces
     * run to millions of requests and the histograms already carry the
     * full latency distribution.
     */
    bool retainCompletions = false;
};

/** Outcome of one offered-rate point. */
struct ServingResult
{
    /**
     * Offered request rate actually driven (requests / second). Arrival
     * gaps quantize to whole ticks, so this is the tick-rounded rate —
     * it can differ from the requested rate by up to half a tick per
     * gap, and it is what achieved throughput is compared against.
     */
    double offeredRps = 0.0;
    /** Completed requests over the cube's finish span. */
    double achievedRps = 0.0;
    /** Latest channel finish tick. */
    Tick finishedAt = 0;
    /** Cube-level stats; latencyHistNs percentiles are exact. */
    ControllerStats aggregate;
    /** Per-channel snapshots, indexed by channel. */
    std::vector<ControllerStats> perChannel;
    /** Requests the stream fan-out held at most (bounded-memory
     *  evidence; StreamFanOut::bufferedPeak). */
    std::uint64_t fanOutPeak = 0;
};

/**
 * A mid-flight snapshot of one offered-rate run: every channel's
 * controller + device + source-cursor state as an enveloped blob
 * (saveControllerCheckpoint), plus the arrival parameters needed to
 * rebuild the offered load bit-identically on resume.
 */
struct CubeCheckpoint
{
    /** Tick-rounded offered rate the snapshot was driven at. */
    double offeredRps = 0.0;
    /** Arrival mean gap in ticks (rebuilds the exact arrival process). */
    Tick meanGap = 0;
    /** Simulation tick the snapshot was taken at. */
    Tick takenAt = 0;
    /** One enveloped checkpoint blob per channel, in channel order. */
    std::vector<std::vector<std::uint8_t>> channels;
};

/**
 * Drives one cube configuration at arbitrary offered rates. The driver
 * is stateless between runs — every run() builds fresh controllers and
 * sources, so points of a sweep are independent and reproducible.
 */
class ServingDriver
{
  public:
    explicit ServingDriver(ServingConfig cfg);

    /** Serve the full system stream at @p offered_rps requests/s. */
    ServingResult run(double offered_rps) const;

    /**
     * Drive a fresh cube at @p offered_rps up to tick @p at, then
     * snapshot every channel. resume() continues the run to completion
     * with results bit-identical to an uninterrupted run() — provided
     * @p at lands while every channel still has work in flight (past a
     * channel's natural finish, the timed window would add refresh
     * catch-up a straight drain never performs).
     */
    CubeCheckpoint runToCheckpoint(double offered_rps, Tick at) const;

    /**
     * Rebuild the cube from @p ck — fresh controllers restored from the
     * blobs, fed by a fresh fan-out whose views skip each channel's
     * consumed prefix — and drain it to completion.
     */
    ServingResult resume(const CubeCheckpoint& ck) const;

    const ServingConfig& config() const { return cfg_; }

  private:
    /**
     * Fill @p engine with the cube's channels — fresh, or restored from
     * @p ck when given — fed by one fan-out of the system stream re-timed
     * at @p mean_gap. Returns the fan-out (owned by @p engine).
     */
    const StreamFanOut& buildCube(ChannelSimEngine& engine, Tick mean_gap,
                                  const CubeCheckpoint* ck) const;
    /** Drain @p engine and assemble per-channel + aggregate results. */
    ServingResult finishRun(ChannelSimEngine& engine, const StreamFanOut& fan,
                            double actual_rps) const;

    ServingConfig cfg_;
};

/** One latency–throughput point of an offered-rate sweep. */
struct RatePoint
{
    double offeredRps = 0.0;
    double achievedRps = 0.0;
    std::uint64_t completedRequests = 0;
    /** Cube-aggregate request latency percentiles (ns, exact merge). */
    double p50Ns = 0.0;
    double p90Ns = 0.0;
    double p99Ns = 0.0;
    double p999Ns = 0.0;
    double maxNs = 0.0;
    double meanNs = 0.0;
    /** Cube useful bytes / ns over the finish span. */
    double effectiveBandwidth = 0.0;
    /** Achieved fell short of offered by more than the tolerance. */
    bool saturated = false;
    /** Stream fan-out high-water (requests; ServingResult::fanOutPeak). */
    std::uint64_t fanOutPeak = 0;
    // ---- reliability counters (zero with fault injection disabled) ----
    std::uint64_t ceCount = 0;
    std::uint64_t dueCount = 0;
    std::uint64_t retryCount = 0;
    std::uint64_t scrubCount = 0;
    std::uint64_t sparedRows = 0;
    /** Requests that completed carrying poisoned (DUE) data. */
    std::uint64_t poisonedRequests = 0;
    /** Scheduling steps executed across all channels (host cost). */
    std::uint64_t schedSteps = 0;
    // ---- telemetry (sim/telemetry.h; populated only when the run's
    // controllers enabled TelemetryConfig::counters) ---------------------
    /** Any stall/breakdown accounting present at this point. */
    bool telemetry = false;
    /** Cube-total idle ticks by cause (sums to the channels' spans). */
    StallTicks stallTicks{};
    /** Per-request latency decomposition (means + tail, ns). */
    double queueMeanNs = 0.0;
    double queueP99Ns = 0.0;
    double serviceMeanNs = 0.0;
    double serviceP99Ns = 0.0;
    double retryMeanNs = 0.0;
    double linkMeanNs = 0.0;
    /** Cube-merged occupancy/bandwidth/stall-mix time series. */
    TimeSeries timeSeries;
};

/** An offered-rate sweep: the latency–throughput curve plus its knee. */
struct RateSweep
{
    std::vector<RatePoint> points;
    /** Index of the first saturated point, -1 when none saturates. */
    int kneeIndex = -1;

    const RatePoint* knee() const
    {
        return kneeIndex >= 0
                   ? &points[static_cast<std::size_t>(kneeIndex)]
                   : nullptr;
    }
};

/**
 * Walk @p offered_rps (ascending rates) through the driver and assemble
 * the latency–throughput curve. A point saturates when achieved <
 * offered * (1 - saturation_tolerance): below the knee an open-loop
 * system keeps up and latency percentiles grow slowly; past it the
 * backlog grows without bound and the achieved rate pins at capacity.
 *
 * @p workers > 1 shards the rate points across that many threads. Every
 * point is an independent self-contained run (fresh controllers and
 * sources), so the merged curve — points, knee, every histogram-derived
 * percentile — is bit-identical to the serial walk regardless of worker
 * count. Sharding composes with the driver's own per-run channel
 * threading; callers sharding across points usually set
 * ServingConfig::threads = 1 so the two levels don't oversubscribe.
 */
RateSweep runRateSweep(const ServingDriver& driver,
                       const std::vector<double>& offered_rps,
                       double saturation_tolerance = 0.05,
                       int workers = 1);

/**
 * Assemble one latency–throughput point from an aggregate stats
 * snapshot. Shared by runRateSweep and the node-level sweep
 * (sim/node.h), so cube- and node-level curves report the same schema —
 * percentiles from the exact merged histogram, reliability counters,
 * and scheduling steps.
 */
RatePoint makeRatePoint(double offered_rps, double achieved_rps,
                        const ControllerStats& aggregate,
                        double saturation_tolerance);

/**
 * Emit @p pt's key/value pairs (offeredRps, achievedRps, latencyP50Ns,
 * latencyP90Ns, latencyP99Ns, latencyP999Ns, ...) into the JSON object
 * currently open on @p w — the row schema BENCH_serving.json and
 * scripts/bench_diff.py agree on. The caller brackets the object and
 * adds its identity keys (label/system/workload) beside them.
 */
void ratePointJson(JsonWriter& w, const RatePoint& pt);

} // namespace rome

#endif // ROME_SIM_SERVING_H
