#include "sim/serving.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/json_writer.h"
#include "common/log.h"
#include "common/types.h"

namespace rome
{

ServingDriver::ServingDriver(ServingConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.makeController)
        fatal("serving driver needs a controller factory");
    if (!cfg_.makeSystemSource)
        fatal("serving driver needs a system source factory");
    if (cfg_.numChannels < 1)
        fatal("serving driver needs at least one channel");
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

} // namespace

const StreamFanOut&
ServingDriver::buildCube(ChannelSimEngine& engine, Tick mean_gap,
                         const CubeCheckpoint* ck) const
{
    if (ck != nullptr &&
        static_cast<int>(ck->channels.size()) != cfg_.numChannels) {
        fatal("cube checkpoint has %zu channels, this driver drives %d",
              ck->channels.size(), cfg_.numChannels);
    }
    // The arrival process re-times the *system* stream before the deal,
    // so every channel sees its subset with globally assigned arrival
    // ticks — one cube-wide open-loop load, not N independent ones.
    ArrivalSpec spec;
    spec.model = cfg_.arrivalModel;
    spec.seed = cfg_.arrivalSeed;
    spec.meanGap = mean_gap;
    auto fan = std::make_unique<StreamFanOut>(
        std::make_unique<ArrivalProcess>(cfg_.makeSystemSource(), spec), 1,
        cfg_.numChannels, cfg_.stripeBytes);
    const StreamFanOut& out = *fan;
    for (int ch = 0; ch < cfg_.numChannels; ++ch) {
        auto mc = cfg_.makeController();
        if (!mc)
            fatal("serving controller factory produced no controller");
        if (!cfg_.retainCompletions)
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

ServingResult
ServingDriver::finishRun(ChannelSimEngine& engine, const StreamFanOut& fan,
                         double actual_rps) const
{
    ServingResult res;
    res.offeredRps = actual_rps;
    res.finishedAt = engine.drainAll();
    res.fanOutPeak = fan.bufferedPeak();
    res.perChannel.reserve(static_cast<std::size_t>(cfg_.numChannels));
    for (int ch = 0; ch < cfg_.numChannels; ++ch)
        res.perChannel.push_back(engine.channel(ch).stats());
    for (const auto& s : res.perChannel)
        res.aggregate.merge(s);
    res.aggregate.deriveBandwidths();
    if (res.finishedAt > 0) {
        res.achievedRps =
            static_cast<double>(res.aggregate.completedRequests) /
            nsFromTicks(res.finishedAt) * 1e9;
    }
    return res;
}

ServingResult
ServingDriver::run(double offered_rps) const
{
    const Tick gap = meanGapFor(offered_rps);
    ChannelSimEngine engine(cfg_.threads);
    const StreamFanOut& fan = buildCube(engine, gap, nullptr);
    return finishRun(engine, fan, rpsFor(gap));
}

CubeCheckpoint
ServingDriver::runToCheckpoint(double offered_rps, Tick at) const
{
    if (at <= 0)
        fatal("checkpoint tick must be positive (got %lld)",
              static_cast<long long>(at));
    const Tick gap = meanGapFor(offered_rps);
    ChannelSimEngine engine(cfg_.threads);
    buildCube(engine, gap, nullptr);
    engine.runAllUntil(at);

    CubeCheckpoint ck;
    ck.offeredRps = rpsFor(gap);
    ck.meanGap = gap;
    ck.takenAt = at;
    ck.channels.reserve(static_cast<std::size_t>(cfg_.numChannels));
    for (int ch = 0; ch < cfg_.numChannels; ++ch)
        ck.channels.push_back(saveControllerCheckpoint(engine.channel(ch)));
    return ck;
}

ServingResult
ServingDriver::resume(const CubeCheckpoint& ck) const
{
    ChannelSimEngine engine(cfg_.threads);
    const StreamFanOut& fan = buildCube(engine, ck.meanGap, &ck);
    return finishRun(engine, fan, ck.offeredRps);
}

RatePoint
makeRatePoint(double offered_rps, double achieved_rps,
              const ControllerStats& aggregate,
              double saturation_tolerance)
{
    RatePoint pt;
    pt.offeredRps = offered_rps;
    pt.achievedRps = achieved_rps;
    pt.completedRequests = aggregate.completedRequests;
    pt.p50Ns = aggregate.latencyPercentileNs(50.0);
    pt.p90Ns = aggregate.latencyPercentileNs(90.0);
    pt.p99Ns = aggregate.latencyPercentileNs(99.0);
    pt.p999Ns = aggregate.latencyPercentileNs(99.9);
    pt.maxNs = aggregate.latencyHistNs.maxNs();
    pt.meanNs = aggregate.latencyHistNs.meanNs();
    pt.effectiveBandwidth = aggregate.effectiveBandwidth;
    pt.ceCount = aggregate.ceCount;
    pt.dueCount = aggregate.dueCount;
    pt.retryCount = aggregate.retryCount;
    pt.scrubCount = aggregate.scrubCount;
    pt.sparedRows = aggregate.sparedRows;
    pt.poisonedRequests = aggregate.poisonedRequests;
    pt.schedSteps = aggregate.schedSteps;
    std::uint64_t stall_total = 0;
    for (const std::uint64_t t : aggregate.stallTicks)
        stall_total += t;
    pt.telemetry = stall_total > 0 || aggregate.queueNsHist.count() > 0 ||
                   aggregate.timeSeries.enabled();
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
    pt.saturated =
        pt.achievedRps < pt.offeredRps * (1.0 - saturation_tolerance);
    return pt;
}

RateSweep
runRateSweep(const ServingDriver& driver,
             const std::vector<double>& offered_rps,
             double saturation_tolerance, int workers)
{
    RateSweep sweep;
    sweep.points.resize(offered_rps.size());
    // Every point is a self-contained run into its own slot, so the
    // sharded walk merges to exactly the serial result; the knee scan
    // below runs in rate order either way.
    parallelFor(static_cast<int>(offered_rps.size()), workers, [&](int i) {
        const ServingResult res =
            driver.run(offered_rps[static_cast<std::size_t>(i)]);
        RatePoint& pt = sweep.points[static_cast<std::size_t>(i)];
        pt = makeRatePoint(res.offeredRps, res.achievedRps, res.aggregate,
                           saturation_tolerance);
        pt.fanOutPeak = res.fanOutPeak;
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
    // of a telemetry-off bench are byte-identical to the pre-telemetry
    // schema. The nested objects/arrays are informational — the bench
    // differ only compares scalar top-level values.
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
}

} // namespace rome
