/**
 * @file
 * The serving driver: open-loop offered load through one cube or a
 * multi-cube node, with tail-latency histograms, latency–throughput
 * curves and mid-run checkpoints.
 *
 * This is the system-level layer above the channel engine. Where
 * runSweep drives *one* controller per design point to completion, the
 * serving driver asks the question real inference serving asks: at a
 * given *offered* request rate, what latency distribution do all the
 * channels of a cube — or of every cube of a node — deliver, and where
 * do they saturate?
 *
 *  - NodeDriver: takes one system-wide RequestSource (a recorded
 *    serving trace or a generator — payloads only), re-times it with an
 *    open-loop ArrivalProcess at the offered rate, routes and deals it
 *    to numCubes x channelsPerCube channels from one producer
 *    (NodeFanOut, sim/node.h), drives the channels on a
 *    ChannelSimEngine thread pool, and returns aggregate + per-cube
 *    stats. A cube is the node with numCubes = 1 and
 *    LinkConfig::idealLink(): routing then passes every request through
 *    unchanged. Aggregate tail latency is exact: the per-channel
 *    LatencyHistograms merge bucket-wise (ControllerStats::merge) in
 *    cube/channel order, so p99/p99.9 are identical to a histogram that
 *    watched every channel's completions.
 *  - runToCheckpoint / resume: stop a run at a tick as one blob per
 *    channel and continue it bit-identically later. Routing is a pure
 *    function of the request sequence, so the checkpoint holds no
 *    router or link state: the resumed run re-routes the stream from the
 *    start and each channel skips its consumed prefix.
 *  - runRateSweep: walks an offered-rate grid, producing one
 *    latency–throughput point per rate and flagging the saturation knee
 *    (first rate whose achieved throughput falls short of offered by
 *    more than a tolerance) — the open-loop serving curve of Fig. 12/13
 *    -style comparisons.
 *  - ratePointJson: one sweep point in the BENCH_*.json row schema.
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
#include "sim/node.h"
#include "sim/source.h"

namespace rome
{

class JsonWriter; // common/json_writer.h

/** Configuration of an open-loop serving run over one or more cubes. */
struct NodeConfig
{
    /** Fresh per-channel controller (every cube's channel type). */
    ControllerFactory makeController;
    /**
     * Fresh instance of the system-wide request stream. Only payloads
     * (id, kind, addr, size) are used — arrival ticks are replaced by
     * the offered-rate arrival process.
     */
    SourceFactory makeSystemSource;
    int numCubes = 1;
    /** Channels per cube (32 = one HBM cube). */
    int channelsPerCube = 32;
    /** Intra-cube shard granularity (0 = round-robin by slice index). */
    std::uint64_t stripeBytes = 0;
    /** Inter-arrival model of the offered load. */
    ArrivalModel arrivalModel = ArrivalModel::Poisson;
    /** Seed of the arrival process draws. */
    std::uint64_t arrivalSeed = 9;
    /** Worker threads driving the channels (never changes results). */
    int threads = defaultSimThreads();
    RouterPolicy policy = RouterPolicy::RoundRobin;
    NodePlacement placement;
    /** Every host→cube link; LinkConfig::idealLink() for a plain cube. */
    LinkConfig link;
    std::uint64_t affinityBytes = 1ull << 20;
    std::uint64_t spanBytes = 1ull << 30;
};

/** One cube's share of a run. */
struct CubeResult
{
    /** Cube-aggregate stats (its channels merged in channel order). */
    ControllerStats stats;
    /** Completions / node finish span (comparable across cubes). */
    double achievedRps = 0.0;
    /** Slices the router delivered to this cube. */
    std::uint64_t routedRequests = 0;
    std::uint64_t routedBytes = 0;

    bool operator==(const CubeResult&) const = default;
};

/** Outcome of one offered-rate point. */
struct NodeResult
{
    /**
     * Offered request rate actually driven (requests / second). Arrival
     * gaps quantize to whole ticks, so this is the tick-rounded rate —
     * it can differ from the requested rate by up to half a tick per
     * gap, and it is what achieved throughput is compared against.
     */
    double offeredRps = 0.0;
    /** Completed requests over the finish span. */
    double achievedRps = 0.0;
    /** Latest channel finish tick across all cubes. */
    Tick finishedAt = 0;
    /** Node-aggregate stats; histogram percentiles are exact. */
    ControllerStats aggregate;
    /** Indexed by cube. */
    std::vector<CubeResult> perCube;
    /** Link queuing delay (start - inject) across all links, ns. */
    LatencyHistogram linkQueueDelayNs;
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
struct NodeCheckpoint
{
    /** Tick-rounded offered rate the snapshot was driven at. */
    double offeredRps = 0.0;
    /** Arrival mean gap in ticks (rebuilds the exact arrival process). */
    Tick meanGap = 0;
    /** Simulation tick the snapshot was taken at. */
    Tick takenAt = 0;
    /** One enveloped checkpoint blob per channel, cube-major. */
    std::vector<std::vector<std::uint8_t>> channels;
};

/**
 * Drives one cube or node configuration at arbitrary offered rates. The
 * driver is stateless between runs — every run() builds fresh
 * controllers and one fresh NodeFanOut, so points of a sweep are
 * independent and reproducible.
 */
class NodeDriver
{
  public:
    explicit NodeDriver(NodeConfig cfg);

    /** Serve the full system stream at @p offered_rps requests/s. */
    NodeResult run(double offered_rps) const;

    /**
     * Drive a fresh run at @p offered_rps up to tick @p at, then
     * snapshot every channel. resume() continues the run to completion
     * with results bit-identical to an uninterrupted run(). That needs
     * every channel to still have work at @p at — past a channel's
     * natural finish, the timed window adds refresh catch-up a straight
     * drain never performs — so a cut that finds a channel idle is
     * fatal.
     */
    NodeCheckpoint runToCheckpoint(double offered_rps, Tick at) const;

    /**
     * Rebuild the run from @p ck — fresh controllers restored from the
     * blobs, fed by a fresh fan-out whose views skip each channel's
     * consumed prefix — and drain it to completion. fanOutPeak counts
     * the prefix the fan-out buffers while the views skip it.
     */
    NodeResult resume(const NodeCheckpoint& ck) const;

    const NodeConfig& config() const { return cfg_; }

  private:
    NodeRouterConfig routerConfig() const;
    /**
     * Fill @p engine with every cube's channels — fresh, or restored
     * from @p ck when given — fed by one NodeFanOut of the system stream
     * re-timed at @p mean_gap. Returns the fan-out (owned by @p engine).
     */
    const NodeFanOut& build(ChannelSimEngine& engine, Tick mean_gap,
                            const NodeCheckpoint* ck) const;
    /** Drain @p engine and assemble per-cube + aggregate results. */
    NodeResult finish(ChannelSimEngine& engine, const NodeFanOut& fan,
                      double actual_rps) const;

    NodeConfig cfg_;
};

/** One latency–throughput point of an offered-rate sweep. */
struct RatePoint
{
    double offeredRps = 0.0;
    double achievedRps = 0.0;
    std::uint64_t completedRequests = 0;
    /** Aggregate request latency percentiles (ns, exact merge). */
    double p50Ns = 0.0;
    double p90Ns = 0.0;
    double p99Ns = 0.0;
    double p999Ns = 0.0;
    double maxNs = 0.0;
    double meanNs = 0.0;
    /** Aggregate useful bytes / ns over the finish span. */
    double effectiveBandwidth = 0.0;
    /** Achieved fell short of offered by more than the tolerance. */
    bool saturated = false;
    /** Stream fan-out high-water (requests; NodeResult::fanOutPeak). */
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
    /** Total idle ticks by cause (sums to the channels' spans). */
    StallTicks stallTicks{};
    /** Per-request latency decomposition (means + tail, ns). */
    double queueMeanNs = 0.0;
    double queueP99Ns = 0.0;
    double serviceMeanNs = 0.0;
    double serviceP99Ns = 0.0;
    double retryMeanNs = 0.0;
    double linkMeanNs = 0.0;
    /** Merged occupancy/bandwidth/stall-mix time series. */
    TimeSeries timeSeries;
    // ---- node links (populated only for a run over a non-ideal link) --
    /** The run's cubes sat behind a non-ideal LinkConfig. */
    bool linked = false;
    double linkQueueDelayMeanNs = 0.0;
    double linkQueueDelayP99Ns = 0.0;
    /** Per-cube achieved rps over the node finish span. */
    std::vector<double> perCubeAchievedRps;
    /** Per-cube routed slice counts (router balance evidence). */
    std::vector<std::uint64_t> perCubeRouted;

    bool operator==(const RatePoint&) const = default;
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
 * NodeConfig::threads = 1 so the two levels don't oversubscribe.
 */
RateSweep runRateSweep(const NodeDriver& driver,
                       const std::vector<double>& offered_rps,
                       double saturation_tolerance = 0.05,
                       int workers = 1);

/**
 * Assemble the latency–throughput point of @p res, a run of @p cfg:
 * percentiles from the exact merged histogram, reliability counters,
 * scheduling steps, telemetry when the controllers counted it, and the
 * link delay and per-cube split when @p cfg's link is not ideal.
 */
RatePoint makeRatePoint(const NodeConfig& cfg, const NodeResult& res,
                        double saturation_tolerance);

/**
 * Emit @p pt's key/value pairs (offeredRps, achievedRps, latencyP50Ns,
 * latencyP90Ns, latencyP99Ns, latencyP999Ns, ...) into the JSON object
 * currently open on @p w — the row schema of BENCH_serving.json and
 * the other sweep artifacts. Telemetry keys follow only when
 * pt.telemetry is set, the four link keys only when pt.linked is. The
 * caller brackets the object and adds its identity keys
 * (label/system/workload/...) beside them.
 */
void ratePointJson(JsonWriter& w, const RatePoint& pt);

// ---------------------------------------------------------------------------
// Cube-only spelling of the driver, kept for perfbench/src/workloads.cc
// until the next benchmark change
// ---------------------------------------------------------------------------

/** A one-cube NodeConfig under its old field names. */
struct ServingConfig
{
    ControllerFactory makeController;
    SourceFactory makeSystemSource;
    /** channelsPerCube of the one cube. */
    int numChannels = 32;
    std::uint64_t stripeBytes = 0;
    ArrivalModel arrivalModel = ArrivalModel::Poisson;
    std::uint64_t arrivalSeed = 9;
    int threads = defaultSimThreads();
};

using ServingResult = NodeResult;

/** A NodeDriver over one cube and LinkConfig::idealLink(). */
class ServingDriver
{
  public:
    explicit ServingDriver(const ServingConfig& cfg);

    NodeResult run(double offered_rps) const { return node_.run(offered_rps); }

  private:
    NodeDriver node_;
};

} // namespace rome

#endif // ROME_SIM_SERVING_H
