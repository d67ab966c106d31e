/**
 * @file
 * Telemetry tests: stall-cause attribution summing to the drained clock
 * on both controller stacks (invariant under runUntil slicing),
 * per-request latency-breakdown exactness, exact breakdown
 * histogram merging at the cube level, Chrome trace-event JSON
 * byte-identity across engine thread counts and slicings, telemetry-off
 * bit-identity with telemetry-on (ControllerStats::operator== excludes
 * the diagnostics by design), time-series compaction/merge semantics,
 * node-level link-credit stall surfacing, and checkpoint round-trips of
 * the full telemetry state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/addrmap.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/telemetry.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

TelemetryConfig
countersOn()
{
    TelemetryConfig t;
    t.counters = true;
    return t;
}

std::uint64_t
sumStalls(const StallTicks& s)
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : s)
        total += v;
    return total;
}

/** Distribution equality: bucket counts and extremes (not double sums). */
bool
sameDistribution(const LatencyHistogram& a, const LatencyHistogram& b)
{
    if (a.count() != b.count() || a.minNs() != b.minNs() ||
        a.maxNs() != b.maxNs())
        return false;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        if (a.bucketCount(i) != b.bucketCount(i))
            return false;
    }
    return true;
}

std::vector<Request>
mixedWorkload(std::uint64_t total_bytes)
{
    RandomPattern p;
    p.totalBytes = total_bytes;
    p.requestBytes = 2_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.25;
    p.seed = 7;
    return randomRequests(p);
}

// ---------------------------------------------------------------------------
// StallTable / TimeSeries units
// ---------------------------------------------------------------------------

TEST(StallTable, ChargesPerBankAndChannel)
{
    StallTable t;
    EXPECT_FALSE(t.enabled());
    t.init(4);
    EXPECT_TRUE(t.enabled());
    t.charge(StallCause::Refresh, 10, 2);
    t.charge(StallCause::Refresh, 5, 2);
    t.charge(StallCause::NoRequest, 7); // channel-level only
    EXPECT_EQ(t.totals()[static_cast<std::size_t>(StallCause::Refresh)],
              15u);
    EXPECT_EQ(t.bank(2)[static_cast<std::size_t>(StallCause::Refresh)],
              15u);
    EXPECT_EQ(t.bank(0)[static_cast<std::size_t>(StallCause::Refresh)],
              0u);
    EXPECT_EQ(t.totalTicks(), 22u);
}

TEST(TimeSeries, CompactionHalvesResolutionAndKeepsTheTail)
{
    TimeSeries s;
    s.init(10, 4);
    ASSERT_TRUE(s.enabled());
    // Cross 9 boundaries: the ring must compact (10 -> 20 -> 40 ticks)
    // rather than grow past capacity.
    for (Tick at = 10; at <= 90; at += 10) {
        TimeSample cur;
        cur.completed = static_cast<std::uint64_t>(at);
        s.observe(at, cur);
    }
    EXPECT_LE(static_cast<int>(s.samples().size()), 4);
    EXPECT_GT(s.period(), 10);
    EXPECT_EQ(s.period() % 10, 0);
    // Cumulative samples: the last retained snapshot is from the last
    // boundary at or below 90 on the compacted grid.
    ASSERT_FALSE(s.samples().empty());
    EXPECT_EQ(s.samples().back().completed % 10, 0u);
    EXPECT_GT(s.samples().back().completed, 0u);
}

TEST(TimeSeries, MergeAlignsPeriodsAndPadsTheShorterSide)
{
    TimeSeries a;
    TimeSeries b;
    a.init(10, 64);
    b.init(10, 64);
    for (Tick at = 10; at <= 60; at += 10) {
        TimeSample cur;
        cur.completed = static_cast<std::uint64_t>(at / 10);
        a.observe(at, cur);
    }
    for (Tick at = 10; at <= 30; at += 10) {
        TimeSample cur;
        cur.completed = 100;
        b.observe(at, cur);
    }
    a.merge(b);
    ASSERT_EQ(a.samples().size(), 6u);
    // b's final cumulative snapshot pads its missing tail.
    EXPECT_EQ(a.samples()[2].completed, 3u + 100u);
    EXPECT_EQ(a.samples()[5].completed, 6u + 100u);
}

// ---------------------------------------------------------------------------
// Stall attribution: sums to the drained clock, slicing-proof
// ---------------------------------------------------------------------------

TEST(Telemetry, ConventionalStallCausesSumToDrainedClock)
{
    McConfig cfg;
    cfg.telemetry = countersOn();
    ConventionalMc mc(hbm4Config(), bestBaselineMapping(hbm4Config().org),
                      cfg);
    for (const auto& r : mixedWorkload(2_MiB))
        mc.enqueue(r);
    mc.drain();
    EXPECT_EQ(mc.stallTable().totalTicks(),
              static_cast<std::uint64_t>(mc.now()));
    // Per-bank rows only cover bank-attributable causes; each row's sum
    // is bounded by the channel total.
    for (int b = 0; b < mc.stallTable().numBanks(); ++b)
        EXPECT_LE(sumStalls(mc.stallTable().bank(b)),
                  mc.stallTable().totalTicks());
}

TEST(Telemetry, ConventionalStallAttributionIsSlicingInvariant)
{
    const auto reqs = mixedWorkload(1_MiB);
    McConfig cfg;
    cfg.telemetry = countersOn();

    ConventionalMc whole(hbm4Config(),
                         bestBaselineMapping(hbm4Config().org), cfg);
    for (const auto& r : reqs)
        whole.enqueue(r);
    whole.drain();

    ConventionalMc sliced(hbm4Config(),
                          bestBaselineMapping(hbm4Config().org), cfg);
    for (const auto& r : reqs)
        sliced.enqueue(r);
    for (Tick t = 500; t < whole.now(); t += 500)
        sliced.runUntil(t);
    sliced.drain();

    EXPECT_EQ(whole.stallTable().totals(), sliced.stallTable().totals());
    for (int b = 0; b < whole.stallTable().numBanks(); ++b)
        EXPECT_EQ(whole.stallTable().bank(b), sliced.stallTable().bank(b));
    EXPECT_TRUE(whole.stats() == sliced.stats());
}

TEST(Telemetry, RomeStallCausesSumToDrainedClock)
{
    RomeMcConfig cfg;
    cfg.telemetry = countersOn();
    RomeMc mc(hbm4Config(), VbaDesign::adopted(), cfg);
    StreamPattern p;
    p.totalBytes = 2_MiB;
    p.writeEveryNth = 4;
    for (const auto& r : streamRequests(p))
        mc.enqueue(r);
    mc.drain();
    EXPECT_EQ(mc.stallTable().totalTicks(),
              static_cast<std::uint64_t>(mc.now()));
}

TEST(Telemetry, RomeStallAttributionIsSlicingInvariant)
{
    StreamPattern p;
    p.totalBytes = 1_MiB;
    const auto reqs = streamRequests(p);
    RomeMcConfig cfg;
    cfg.telemetry = countersOn();

    RomeMc whole(hbm4Config(), VbaDesign::adopted(), cfg);
    for (const auto& r : reqs)
        whole.enqueue(r);
    whole.drain();

    RomeMc sliced(hbm4Config(), VbaDesign::adopted(), cfg);
    for (const auto& r : reqs)
        sliced.enqueue(r);
    for (Tick t = 700; t < whole.now(); t += 700)
        sliced.runUntil(t);
    sliced.drain();

    EXPECT_EQ(whole.stallTable().totals(), sliced.stallTable().totals());
    EXPECT_TRUE(whole.stats() == sliced.stats());
}

// ---------------------------------------------------------------------------
// Latency breakdown
// ---------------------------------------------------------------------------

TEST(Telemetry, BreakdownComponentsSumToRequestLatency)
{
    McConfig cfg;
    cfg.telemetry = countersOn();
    ConventionalMc mc(hbm4Config(), bestBaselineMapping(hbm4Config().org),
                      cfg);
    const auto reqs = mixedWorkload(1_MiB);
    std::map<std::uint64_t, Tick> arrival;
    for (const auto& r : reqs) {
        arrival[r.id] = r.arrival;
        mc.enqueue(r);
    }
    mc.drain();
    ASSERT_EQ(mc.completions().size(), reqs.size());
    for (const Completion& c : mc.completions()) {
        const double total_ns =
            nsFromTicks(c.finished - arrival.at(c.id));
        // queue + service + retry decompose the controller-side latency
        // exactly; each component is a multiple of a quarter-ns, so the
        // double sum is exact. The link component is additive upstream
        // time and zero without a node link.
        EXPECT_DOUBLE_EQ(c.queueNs + c.serviceNs + c.retryNs, total_ns);
        EXPECT_DOUBLE_EQ(c.linkNs, 0.0);
    }
    // And the histograms saw every completion.
    const ControllerStats s = mc.stats();
    EXPECT_EQ(s.queueNsHist.count(), reqs.size());
    EXPECT_EQ(s.serviceNsHist.count(), reqs.size());
}

TEST(Telemetry, BreakdownCarriesUpstreamLinkDelay)
{
    McConfig cfg;
    cfg.telemetry = countersOn();
    ConventionalMc mc(hbm4Config(), bestBaselineMapping(hbm4Config().org),
                      cfg);
    Request r;
    r.id = 1;
    r.kind = ReqKind::Read;
    r.addr = 0;
    r.size = 4_KiB;
    r.arrival = 100;
    r.linkDelay = 60;
    mc.enqueue(r);
    mc.drain();
    ASSERT_EQ(mc.completions().size(), 1u);
    EXPECT_DOUBLE_EQ(mc.completions()[0].linkNs, nsFromTicks(60));
    EXPECT_DOUBLE_EQ(mc.stats().linkNsHist.meanNs(), nsFromTicks(60));
}

// ---------------------------------------------------------------------------
// Telemetry-off bit-identity
// ---------------------------------------------------------------------------

TEST(Telemetry, CountersDoNotPerturbTheModeledRun)
{
    const auto reqs = mixedWorkload(1_MiB);

    McConfig off_cfg;
    McConfig on_cfg;
    on_cfg.telemetry = countersOn();
    ConventionalMc off(hbm4Config(),
                       bestBaselineMapping(hbm4Config().org), off_cfg);
    ConventionalMc on(hbm4Config(), bestBaselineMapping(hbm4Config().org),
                      on_cfg);
    for (const auto& r : reqs) {
        off.enqueue(r);
        on.enqueue(r);
    }
    off.drain();
    on.drain();
    // Same decisions tick for tick: the clock, every completion, and the
    // full stats snapshot (operator== excludes the diagnostics).
    EXPECT_EQ(off.now(), on.now());
    EXPECT_TRUE(off.stats() == on.stats());
    ASSERT_EQ(off.completions().size(), on.completions().size());
    for (std::size_t i = 0; i < off.completions().size(); ++i) {
        EXPECT_EQ(off.completions()[i].id, on.completions()[i].id);
        EXPECT_EQ(off.completions()[i].finished,
                  on.completions()[i].finished);
    }
    // Off-side stats carry no telemetry.
    EXPECT_EQ(sumStalls(off.stats().stallTicks), 0u);
    EXPECT_EQ(off.stats().queueNsHist.count(), 0u);
    // On-side stats do.
    EXPECT_GT(sumStalls(on.stats().stallTicks), 0u);
}

// ---------------------------------------------------------------------------
// Cube-level merging (serving) and the hybrid router
// ---------------------------------------------------------------------------

TEST(Telemetry, ServingAggregateMergesBreakdownExactly)
{
    // Two one-channel cubes over the ideal link: the aggregate is the
    // merge of the cubes', and no link stall joins it.
    NodeConfig cfg;
    cfg.numCubes = 2;
    cfg.channelsPerCube = 1;
    cfg.link = LinkConfig::idealLink();
    cfg.threads = 1;
    cfg.makeController = [] {
        McConfig mc;
        mc.telemetry = countersOn();
        return std::make_unique<ConventionalMc>(
            hbm4Config(), bestBaselineMapping(hbm4Config().org), mc);
    };
    cfg.makeSystemSource = [] {
        StreamPattern p;
        p.totalBytes = 1_MiB;
        return std::make_unique<StreamSource>(p);
    };
    const NodeResult res = NodeDriver(cfg).run(2.0e7);

    // The aggregate histograms are the bucket-wise sums of the cubes'.
    LatencyHistogram queue;
    LatencyHistogram service;
    StallTicks stalls{};
    TimeSeries series;
    for (const CubeResult& cube : res.perCube) {
        const ControllerStats& s = cube.stats;
        queue.merge(s.queueNsHist);
        service.merge(s.serviceNsHist);
        for (std::size_t i = 0; i < kNumStallCauses; ++i)
            stalls[i] += s.stallTicks[i];
        series.merge(s.timeSeries);
    }
    EXPECT_TRUE(sameDistribution(queue, res.aggregate.queueNsHist));
    EXPECT_TRUE(sameDistribution(service, res.aggregate.serviceNsHist));
    EXPECT_EQ(stalls, res.aggregate.stallTicks);
    EXPECT_TRUE(series == res.aggregate.timeSeries);
    EXPECT_EQ(res.aggregate.queueNsHist.count(),
              res.aggregate.completedRequests);

    // The rate-point schema surfaces the telemetry block.
    const RatePoint pt = makeRatePoint(cfg, res, 0.05);
    EXPECT_TRUE(pt.telemetry);
    EXPECT_EQ(sumStalls(pt.stallTicks), sumStalls(stalls));
    EXPECT_GT(pt.serviceMeanNs, 0.0);
}

TEST(Telemetry, ServingRunIsThreadCountInvariantWithTelemetry)
{
    auto run = [](int threads) {
        NodeConfig cfg;
        cfg.channelsPerCube = 4;
        cfg.link = LinkConfig::idealLink();
        cfg.threads = threads;
        cfg.makeController = [] {
            McConfig mc;
            mc.telemetry = countersOn();
            return std::make_unique<ConventionalMc>(
                hbm4Config(), bestBaselineMapping(hbm4Config().org), mc);
        };
        cfg.makeSystemSource = [] {
            StreamPattern p;
            p.totalBytes = 1_MiB;
            return std::make_unique<StreamSource>(p);
        };
        return NodeDriver(cfg).run(2.0e7);
    };
    const NodeResult serial = run(1);
    const NodeResult threaded = run(4);
    EXPECT_EQ(serial.finishedAt, threaded.finishedAt);
    EXPECT_EQ(serial.aggregate.stallTicks, threaded.aggregate.stallTicks);
    EXPECT_TRUE(sameDistribution(serial.aggregate.queueNsHist,
                                 threaded.aggregate.queueNsHist));
    EXPECT_TRUE(serial.aggregate.timeSeries ==
                threaded.aggregate.timeSeries);
}

TEST(Telemetry, HybridMergesBothPartitions)
{
    HybridConfig hc;
    hc.telemetry = countersOn();
    HybridMc mc(hbm4Config(), hc);
    // Mixed sizes: half coarse (>= 4 KiB -> RoMe), half fine (-> HBM4).
    std::uint64_t id = 1;
    for (int i = 0; i < 64; ++i) {
        const bool coarse = (i % 2) == 0;
        Request r;
        r.id = id++;
        r.kind = ReqKind::Read;
        r.addr = static_cast<std::uint64_t>(i) * 8_KiB;
        r.size = coarse ? 8_KiB : 256;
        r.arrival = 0;
        mc.enqueue(r);
    }
    mc.drain();
    const ControllerStats s = mc.stats();
    EXPECT_EQ(sumStalls(s.stallTicks),
              mc.romePartition().stallTable().totalTicks() +
                  mc.finePartition().stallTable().totalTicks());
    EXPECT_EQ(s.queueNsHist.count(), s.completedRequests);
}

// ---------------------------------------------------------------------------
// Perfetto / Chrome trace export
// ---------------------------------------------------------------------------

TEST(Telemetry, TraceJsonIsByteIdenticalAcrossThreadCounts)
{
    const auto reqs = mixedWorkload(256_KiB);
    auto record = [&](int threads) {
        ChannelSimEngine engine(threads);
        std::vector<std::unique_ptr<TelemetrySink>> sinks;
        std::vector<ConventionalMc*> mcs;
        for (int ch = 0; ch < 2; ++ch) {
            McConfig cfg;
            cfg.telemetry = countersOn();
            auto mc = std::make_unique<ConventionalMc>(
                hbm4Config(), bestBaselineMapping(hbm4Config().org), cfg);
            sinks.push_back(std::make_unique<TelemetrySink>(ch));
            mc->attachTelemetrySink(sinks.back().get(),
                                    /*trace_commands=*/true);
            mcs.push_back(mc.get());
            engine.addChannel(std::move(mc));
        }
        for (std::size_t i = 0; i < reqs.size(); ++i)
            mcs[i % 2]->enqueue(reqs[i]);
        engine.drainAll();
        std::vector<const TelemetrySink*> ptrs;
        for (const auto& s : sinks)
            ptrs.push_back(s.get());
        return chromeTraceJson(ptrs);
    };
    const std::string serial = record(1);
    const std::string threaded = record(2);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, threaded);
}

TEST(Telemetry, TraceJsonIsByteIdenticalAcrossRunUntilSlicings)
{
    // RoMe with the command trace installed: the recorded timeline is
    // identical however the drive is sliced.
    StreamPattern p;
    p.totalBytes = 512_KiB;
    const auto reqs = streamRequests(p);
    // Slices stay below the natural finish tick: past it a timed window
    // would add refresh catch-up a straight drain never performs.
    auto record = [&](Tick slice, Tick finish) {
        RomeMcConfig cfg;
        cfg.telemetry = countersOn();
        RomeMc mc(hbm4Config(), VbaDesign::adopted(), cfg);
        TelemetrySink sink(0);
        mc.attachTelemetrySink(&sink, /*trace_commands=*/true);
        for (const auto& r : reqs)
            mc.enqueue(r);
        if (slice > 0) {
            for (Tick t = slice; t < finish; t += slice)
                mc.runUntil(t);
        }
        const Tick done = mc.drain();
        return std::make_pair(chromeTraceJson({&sink}), done);
    };
    const auto [whole, finish] = record(0, 0);
    const auto [sliced, finish2] = record(1300, finish);
    EXPECT_EQ(finish, finish2);
    EXPECT_FALSE(whole.empty());
    EXPECT_EQ(whole, sliced);
}

TEST(Telemetry, TraceJsonCarriesMetadataSpansAndInstants)
{
    TelemetrySink sink(3);
    sink.span("RD", 2, 40, 8);
    sink.instant("retry", TelemetrySink::kChannelTrack, 100);
    const std::string json = chromeTraceJson({&sink});
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"RD\""), std::string::npos);
    EXPECT_NE(json.find("\"retry\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Node layer: link-credit stalls and the link breakdown component
// ---------------------------------------------------------------------------

TEST(Telemetry, NodeSurfacesLinkCreditStallsAndLinkDelay)
{
    NodeConfig cfg;
    cfg.numCubes = 2;
    cfg.channelsPerCube = 1;
    cfg.threads = 1;
    cfg.makeController = [] {
        McConfig mc;
        mc.telemetry = countersOn();
        return std::make_unique<ConventionalMc>(
            hbm4Config(), bestBaselineMapping(hbm4Config().org), mc);
    };
    cfg.makeSystemSource = [] {
        StreamPattern p;
        p.totalBytes = 2_MiB;
        return std::make_unique<StreamSource>(p);
    };
    // A deliberately starved link: two credits force back-to-back
    // requests to wait for acks.
    cfg.link.credits = 2;
    cfg.link.bytesPerNs = 64.0;

    NodeDriver driver(cfg);
    const NodeResult res = driver.run(5.0e7);
    EXPECT_GT(res.aggregate.stallTicks[static_cast<std::size_t>(
                  StallCause::LinkCredit)],
              0u);
    // Every routed request crossed a non-ideal link, so the breakdown's
    // link component is populated.
    EXPECT_GT(res.aggregate.linkNsHist.count(), 0u);
    EXPECT_GT(res.aggregate.linkNsHist.meanNs(), 0.0);
}

TEST(Telemetry, NodeWithoutTelemetryStaysSilent)
{
    NodeConfig cfg;
    cfg.numCubes = 1;
    cfg.channelsPerCube = 1;
    cfg.threads = 1;
    cfg.makeController = [] {
        return std::make_unique<ConventionalMc>(
            hbm4Config(), bestBaselineMapping(hbm4Config().org),
            McConfig{});
    };
    cfg.makeSystemSource = [] {
        StreamPattern p;
        p.totalBytes = 256_KiB;
        return std::make_unique<StreamSource>(p);
    };
    cfg.link.credits = 1; // starved, but telemetry is off
    NodeDriver driver(cfg);
    const NodeResult res = driver.run(2.0e7);
    EXPECT_EQ(sumStalls(res.aggregate.stallTicks), 0u);
    const RatePoint pt = makeRatePoint(cfg, res, 0.05);
    EXPECT_FALSE(pt.telemetry);
}

// ---------------------------------------------------------------------------
// Checkpoint round-trip
// ---------------------------------------------------------------------------

TEST(Telemetry, CheckpointRoundTripPreservesTelemetryState)
{
    const auto reqs = mixedWorkload(1_MiB);
    McConfig cfg;
    cfg.telemetry = countersOn();

    ConventionalMc whole(hbm4Config(),
                         bestBaselineMapping(hbm4Config().org), cfg);
    for (const auto& r : reqs)
        whole.enqueue(r);
    whole.drain();

    ConventionalMc first(hbm4Config(),
                         bestBaselineMapping(hbm4Config().org), cfg);
    for (const auto& r : reqs)
        first.enqueue(r);
    first.runUntil(whole.now() / 2);
    const auto blob = saveControllerCheckpoint(first);

    ConventionalMc resumed(hbm4Config(),
                           bestBaselineMapping(hbm4Config().org), cfg);
    restoreControllerCheckpoint(resumed, blob);
    resumed.drain();

    EXPECT_EQ(resumed.now(), whole.now());
    EXPECT_EQ(resumed.stallTable().totals(), whole.stallTable().totals());
    for (int b = 0; b < whole.stallTable().numBanks(); ++b)
        EXPECT_EQ(resumed.stallTable().bank(b),
                  whole.stallTable().bank(b));
    const ControllerStats a = whole.stats();
    const ControllerStats c = resumed.stats();
    EXPECT_TRUE(a == c);
    EXPECT_TRUE(sameDistribution(a.queueNsHist, c.queueNsHist));
    EXPECT_TRUE(sameDistribution(a.serviceNsHist, c.serviceNsHist));
    EXPECT_TRUE(sameDistribution(a.retryNsHist, c.retryNsHist));
    EXPECT_TRUE(a.timeSeries == c.timeSeries);
}

} // namespace
} // namespace rome
