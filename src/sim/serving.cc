#include "sim/serving.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/json_writer.h"
#include "common/log.h"
#include "common/types.h"

namespace rome
{

NodeDriver::NodeDriver(NodeConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.makeController)
        fatal("node driver needs a controller factory");
    if (!cfg_.makeSystemSource)
        fatal("node driver needs a system source factory");
    if (cfg_.numCubes < 1)
        fatal("node driver needs at least one cube");
    if (cfg_.channelsPerCube < 1)
        fatal("node driver needs at least one channel per cube");
    // Validate placement/topology eagerly (the router ctor checks).
    NodeRouter probe(routerConfig());
    (void)probe;
}

NodeRouterConfig
NodeDriver::routerConfig() const
{
    NodeRouterConfig rc;
    rc.numCubes = cfg_.numCubes;
    rc.policy = cfg_.policy;
    rc.placement = cfg_.placement;
    rc.link = cfg_.link;
    rc.affinityBytes = cfg_.affinityBytes;
    rc.spanBytes = cfg_.spanBytes;
    return rc;
}

namespace
{

/** Arrival mean gap for @p offered_rps, quantized to whole ticks. */
Tick
meanGapFor(double offered_rps)
{
    if (offered_rps <= 0.0)
        fatal("offered rate must be positive (got %g rps)", offered_rps);
    return std::max<Tick>(ticksFromNs(1e9 / offered_rps), 1);
}

/**
 * The rate a whole-tick mean gap actually offers. Runs report it so the
 * saturation test compares achieved throughput against what the arrival
 * process really offered, not the pre-rounding request.
 */
double
rpsFor(Tick mean_gap)
{
    return 1e9 / nsFromTicks(mean_gap);
}

/**
 * The controllers ran with telemetry counters: @p s holds stall,
 * latency-breakdown or time-series accounting.
 */
bool
countedTelemetry(const ControllerStats& s)
{
    std::uint64_t stalled = 0;
    for (const std::uint64_t t : s.stallTicks)
        stalled += t;
    return stalled > 0 || s.queueNsHist.count() > 0 ||
           s.timeSeries.enabled();
}

/** Completions per second over a @p span-tick finish span. */
double
rateOver(std::uint64_t completed, Tick span)
{
    return span > 0 ? static_cast<double>(completed) / nsFromTicks(span) * 1e9
                    : 0.0;
}

} // namespace

const NodeFanOut&
NodeDriver::build(ChannelSimEngine& engine, Tick mean_gap,
                  const NodeCheckpoint* ck) const
{
    const int channels = cfg_.numCubes * cfg_.channelsPerCube;
    if (ck != nullptr && static_cast<int>(ck->channels.size()) != channels) {
        fatal("checkpoint has %zu channels, this driver drives %d",
              ck->channels.size(), channels);
    }
    // The arrival process re-times the *system* stream before the deal,
    // so every channel sees its subset with globally assigned arrival
    // ticks — one open-loop load, not N independent ones.
    ArrivalSpec spec;
    spec.model = cfg_.arrivalModel;
    spec.seed = cfg_.arrivalSeed;
    spec.meanGap = mean_gap;
    auto fan = std::make_unique<NodeFanOut>(
        std::make_unique<ArrivalProcess>(cfg_.makeSystemSource(), spec),
        routerConfig(), cfg_.channelsPerCube, cfg_.stripeBytes);
    const NodeFanOut& out = *fan;
    for (int ch = 0; ch < channels; ++ch) {
        auto mc = cfg_.makeController();
        if (!mc)
            fatal("node controller factory produced no controller");
        // Serving traces run to millions of requests, and the histograms
        // already carry the full latency distribution: no completion log.
        mc->setRetainCompletions(false);
        if (ck != nullptr) {
            restoreControllerCheckpoint(
                *mc, ck->channels[static_cast<std::size_t>(ch)]);
        }
        engine.addChannel(std::move(mc));
    }
    if (ck != nullptr)
        engine.resumeFanOut(std::move(fan));
    else
        engine.bindFanOut(std::move(fan));
    return out;
}

NodeResult
NodeDriver::finish(ChannelSimEngine& engine, const NodeFanOut& fan,
                   double actual_rps) const
{
    NodeResult res;
    res.offeredRps = actual_rps;
    res.finishedAt = engine.drainAll();
    res.fanOutPeak = fan.bufferedPeak();
    res.perCube.resize(static_cast<std::size_t>(cfg_.numCubes));
    // Aggregate merges every channel snapshot in ascending cube/channel
    // order; per-cube stats merge the same snapshots.
    std::uint64_t credit_stall = 0;
    for (int cube = 0; cube < cfg_.numCubes; ++cube) {
        CubeResult& cr = res.perCube[static_cast<std::size_t>(cube)];
        for (int ch = 0; ch < cfg_.channelsPerCube; ++ch) {
            const ControllerStats s =
                engine.channel(cube * cfg_.channelsPerCube + ch).stats();
            res.aggregate.merge(s);
            cr.stats.merge(s);
        }
        cr.stats.deriveBandwidths();
        cr.achievedRps = rateOver(cr.stats.completedRequests, res.finishedAt);
        // Routing statistics come from the fan-out's one router: every
        // slice it dealt to this cube crossed this link once.
        const LinkModel& link = fan.router().link(cube);
        cr.routedRequests = link.injectedMessages();
        cr.routedBytes = link.injectedBytes();
        res.linkQueueDelayNs.merge(link.queueDelayHistNs());
        credit_stall += link.creditStallTicks();
    }
    res.aggregate.deriveBandwidths();
    res.achievedRps =
        rateOver(res.aggregate.completedRequests, res.finishedAt);

    // Telemetry: credit-exhaustion waits happen at the links, outside any
    // controller. Fold them into the aggregate's LinkCredit stall bucket
    // — but only when the controllers themselves ran with telemetry, so
    // a telemetry-off result stays bit-identical.
    if (countedTelemetry(res.aggregate)) {
        res.aggregate.stallTicks[static_cast<std::size_t>(
            StallCause::LinkCredit)] += credit_stall;
    }
    return res;
}

NodeResult
NodeDriver::run(double offered_rps) const
{
    const Tick gap = meanGapFor(offered_rps);
    ChannelSimEngine engine(cfg_.threads);
    const NodeFanOut& fan = build(engine, gap, nullptr);
    return finish(engine, fan, rpsFor(gap));
}

NodeCheckpoint
NodeDriver::runToCheckpoint(double offered_rps, Tick at) const
{
    if (at <= 0)
        fatal("checkpoint tick must be positive (got %lld)",
              static_cast<long long>(at));
    const Tick gap = meanGapFor(offered_rps);
    ChannelSimEngine engine(cfg_.threads);
    build(engine, gap, nullptr);
    engine.runAllUntil(at);

    NodeCheckpoint ck;
    ck.offeredRps = rpsFor(gap);
    ck.meanGap = gap;
    ck.takenAt = at;
    ck.channels.reserve(static_cast<std::size_t>(engine.numChannels()));
    for (int ch = 0; ch < engine.numChannels(); ++ch) {
        if (engine.channel(ch).idle()) {
            fatal("checkpoint at tick %lld falls past channel %d's natural "
                  "finish; a resumed run would not match the straight one",
                  static_cast<long long>(at), ch);
        }
        ck.channels.push_back(saveControllerCheckpoint(engine.channel(ch)));
    }
    return ck;
}

NodeResult
NodeDriver::resume(const NodeCheckpoint& ck) const
{
    ChannelSimEngine engine(cfg_.threads);
    const NodeFanOut& fan = build(engine, ck.meanGap, &ck);
    return finish(engine, fan, ck.offeredRps);
}

RatePoint
makeRatePoint(const NodeConfig& cfg, const NodeResult& res,
              double saturation_tolerance)
{
    const ControllerStats& aggregate = res.aggregate;
    RatePoint pt;
    pt.offeredRps = res.offeredRps;
    pt.achievedRps = res.achievedRps;
    pt.completedRequests = aggregate.completedRequests;
    pt.p50Ns = aggregate.latencyPercentileNs(50.0);
    pt.p90Ns = aggregate.latencyPercentileNs(90.0);
    pt.p99Ns = aggregate.latencyPercentileNs(99.0);
    pt.p999Ns = aggregate.latencyPercentileNs(99.9);
    pt.maxNs = aggregate.latencyHistNs.maxNs();
    pt.meanNs = aggregate.latencyHistNs.meanNs();
    pt.effectiveBandwidth = aggregate.effectiveBandwidth;
    pt.fanOutPeak = res.fanOutPeak;
    pt.ceCount = aggregate.ceCount;
    pt.dueCount = aggregate.dueCount;
    pt.retryCount = aggregate.retryCount;
    pt.scrubCount = aggregate.scrubCount;
    pt.sparedRows = aggregate.sparedRows;
    pt.poisonedRequests = aggregate.poisonedRequests;
    pt.schedSteps = aggregate.schedSteps;
    pt.telemetry = countedTelemetry(aggregate);
    if (pt.telemetry) {
        pt.stallTicks = aggregate.stallTicks;
        pt.queueMeanNs = aggregate.queueNsHist.meanNs();
        pt.queueP99Ns = aggregate.queueNsHist.percentileNs(99.0);
        pt.serviceMeanNs = aggregate.serviceNsHist.meanNs();
        pt.serviceP99Ns = aggregate.serviceNsHist.percentileNs(99.0);
        pt.retryMeanNs = aggregate.retryNsHist.meanNs();
        pt.linkMeanNs = aggregate.linkNsHist.meanNs();
        pt.timeSeries = aggregate.timeSeries;
    }
    pt.linked = !cfg.link.ideal();
    if (pt.linked) {
        pt.linkQueueDelayMeanNs = res.linkQueueDelayNs.meanNs();
        pt.linkQueueDelayP99Ns = res.linkQueueDelayNs.percentileNs(99.0);
        for (const CubeResult& cr : res.perCube) {
            pt.perCubeAchievedRps.push_back(cr.achievedRps);
            pt.perCubeRouted.push_back(cr.routedRequests);
        }
    }
    pt.saturated =
        pt.achievedRps < pt.offeredRps * (1.0 - saturation_tolerance);
    return pt;
}

RateSweep
runRateSweep(const NodeDriver& driver,
             const std::vector<double>& offered_rps,
             double saturation_tolerance, int workers)
{
    RateSweep sweep;
    sweep.points.resize(offered_rps.size());
    // Every point is a self-contained run into its own slot, so the
    // sharded walk merges to exactly the serial result; the knee scan
    // below runs in rate order either way.
    parallelFor(static_cast<int>(offered_rps.size()), workers, [&](int i) {
        const auto idx = static_cast<std::size_t>(i);
        sweep.points[idx] =
            makeRatePoint(driver.config(), driver.run(offered_rps[idx]),
                          saturation_tolerance);
    });
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        if (sweep.points[i].saturated) {
            sweep.kneeIndex = static_cast<int>(i);
            break;
        }
    }
    return sweep;
}

void
ratePointJson(JsonWriter& w, const RatePoint& pt)
{
    w.key("offeredRps").value(pt.offeredRps);
    w.key("achievedRps").value(pt.achievedRps);
    w.key("completedRequests").value(pt.completedRequests);
    w.key("latencyP50Ns").value(pt.p50Ns);
    w.key("latencyP90Ns").value(pt.p90Ns);
    w.key("latencyP99Ns").value(pt.p99Ns);
    w.key("latencyP999Ns").value(pt.p999Ns);
    w.key("latencyMaxNs").value(pt.maxNs);
    w.key("latencyMeanNs").value(pt.meanNs);
    w.key("effectiveBandwidth").value(pt.effectiveBandwidth);
    w.key("saturated").value(pt.saturated);
    w.key("fanOutPeak").value(pt.fanOutPeak);
    w.key("ceCount").value(pt.ceCount);
    w.key("dueCount").value(pt.dueCount);
    w.key("retryCount").value(pt.retryCount);
    w.key("scrubCount").value(pt.scrubCount);
    w.key("sparedRows").value(pt.sparedRows);
    w.key("poisonedRequests").value(pt.poisonedRequests);
    w.key("schedSteps").value(pt.schedSteps);
    // Telemetry keys appear only when the run enabled counters, so rows
    // of a telemetry-off bench keep the pre-telemetry schema.
    if (pt.telemetry) {
        w.key("telemetry").value(true);
        w.key("stallTicks").beginObject();
        for (std::size_t i = 0; i < kNumStallCauses; ++i) {
            w.key(stallCauseName(static_cast<StallCause>(i)))
                .value(pt.stallTicks[i]);
        }
        w.endObject();
        w.key("queueMeanNs").value(pt.queueMeanNs);
        w.key("queueP99Ns").value(pt.queueP99Ns);
        w.key("serviceMeanNs").value(pt.serviceMeanNs);
        w.key("serviceP99Ns").value(pt.serviceP99Ns);
        w.key("retryMeanNs").value(pt.retryMeanNs);
        w.key("linkMeanNs").value(pt.linkMeanNs);
        if (pt.timeSeries.enabled() && !pt.timeSeries.samples().empty()) {
            w.key("timeSeries").beginObject();
            w.key("periodNs").value(nsFromTicks(pt.timeSeries.period()));
            w.key("samples").beginArray();
            for (const TimeSample& s : pt.timeSeries.samples()) {
                std::uint64_t stalled = 0;
                for (const std::uint64_t t : s.stall)
                    stalled += t;
                w.beginObject();
                w.key("completed").value(s.completed);
                w.key("bytes").value(s.bytes);
                w.key("occupancy").value(s.occupancy);
                w.key("stallTicks").value(stalled);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
    }
    // Link keys likewise appear only for a run over a non-ideal link.
    if (pt.linked) {
        w.key("linkQueueDelayMeanNs").value(pt.linkQueueDelayMeanNs);
        w.key("linkQueueDelayP99Ns").value(pt.linkQueueDelayP99Ns);
        w.key("perCubeAchievedRps").beginArray();
        for (const double v : pt.perCubeAchievedRps)
            w.value(v);
        w.endArray();
        w.key("perCubeRouted").beginArray();
        for (const std::uint64_t v : pt.perCubeRouted)
            w.value(v);
        w.endArray();
    }
}

namespace
{

NodeConfig
oneCube(const ServingConfig& cfg)
{
    NodeConfig node;
    node.makeController = cfg.makeController;
    node.makeSystemSource = cfg.makeSystemSource;
    node.channelsPerCube = cfg.numChannels;
    node.stripeBytes = cfg.stripeBytes;
    node.arrivalModel = cfg.arrivalModel;
    node.arrivalSeed = cfg.arrivalSeed;
    node.threads = cfg.threads;
    node.link = LinkConfig::idealLink();
    return node;
}

} // namespace

ServingDriver::ServingDriver(const ServingConfig& cfg) : node_(oneCube(cfg))
{
}

} // namespace rome
