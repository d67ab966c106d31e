/**
 * @file
 * Node-model and serving-driver tests: link serialization/credit/queuing
 * semantics and determinism, router-policy semantics (round-robin,
 * cache-affinity, load-aware), TP/PP slice coverage and the zero-size
 * request check, the node fan-out dealing the system stream to its
 * channels exactly once, and the one serving driver (sim/serving.h) in
 * both shapes — a cube (one cube, ideal link) and a multi-cube node:
 * the fan-out drive against independent per-channel drains over an
 * independently routed stream (a cube on both stacks, every policy,
 * TP/PP, a credit-limited link, 1/2/4 engine threads), a drain-only
 * controller wrapper, its bounded buffer, exact histogram merging,
 * thread-count bit-invariance, saturation-knee detection, the row
 * schema, the cube-only forwarding shim, and per-DUE request poisoning
 * surfaced through completions and the RatePoint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "llm/parallelism.h"
#include "mc/addrmap.h"
#include "mc/mc.h"
#include "sim/memsim.h"
#include "sim/node.h"
#include "sim/serving.h"
#include "sim/source.h"

namespace rome
{
namespace
{

using namespace rome::literals;

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

// ---------------------------------------------------------------------------
// LinkModel
// ---------------------------------------------------------------------------

TEST(LinkModel, IdealLinkDeliversAtInjectionTick)
{
    LinkModel link(LinkConfig::idealLink());
    EXPECT_EQ(link.inject(0, 4_KiB), 0);
    EXPECT_EQ(link.inject(17, 64_KiB), 17);
    EXPECT_EQ(link.inject(17, 1), 17);
    EXPECT_EQ(link.injectedMessages(), 3u);
}

TEST(LinkModel, SerializationLatencyAndCreditsComposeExactly)
{
    // 4 B/ns at 4 ticks/ns = 1 tick/B serialization; 10-tick latency;
    // one credit. Every stall below is hand-computable.
    LinkConfig cfg;
    cfg.latencyTicks = 10;
    cfg.bytesPerNs = 4.0;
    cfg.credits = 1;
    LinkModel link(cfg);

    // First message: starts at 0, serializes 8 ticks, +10 propagation.
    EXPECT_EQ(link.inject(0, 8), 18);
    // The credit returns at deliver + latency = 28. A message injected
    // at tick 1 must wait for it, then serialize 4 ticks: 28 + 4 + 10.
    EXPECT_EQ(link.inject(1, 4), 42);
    // Credit of the second frees at 52; a message injected later than
    // that sees an idle link: start at its own arrival.
    EXPECT_EQ(link.inject(100, 4), 114);
    EXPECT_EQ(link.injectedBytes(), 16u);
    // Queue-delay histogram saw exactly the two stall-free injections
    // (0 ns) and one 27-tick credit stall.
    EXPECT_EQ(link.queueDelayHistNs().count(), 3u);
    EXPECT_EQ(link.queueDelayHistNs().maxNs(), nsFromTicks(27));
}

TEST(LinkModel, DeliveriesAreNondecreasingAndReplayIdentically)
{
    LinkConfig cfg;
    cfg.latencyTicks = ticksFromNs(static_cast<std::int64_t>(50));
    cfg.bytesPerNs = 32.0;
    cfg.credits = 4;
    LinkModel link(cfg);

    // Bursty injections with mixed sizes: delivery order must follow
    // injection order (the RequestSource contract of routed streams).
    std::vector<Tick> first;
    Tick at = 0;
    for (int i = 0; i < 200; ++i) {
        at += (i % 7 == 0) ? 0 : static_cast<Tick>(i % 13);
        first.push_back(link.inject(at, 1u + 512u * (i % 9)));
    }
    for (std::size_t i = 1; i < first.size(); ++i)
        EXPECT_GE(first[i], first[i - 1]) << i;

    // reset() restarts the link as new: the same injection sequence
    // reproduces the same deliveries bit for bit.
    link.reset();
    at = 0;
    for (int i = 0; i < 200; ++i) {
        at += (i % 7 == 0) ? 0 : static_cast<Tick>(i % 13);
        EXPECT_EQ(link.inject(at, 1u + 512u * (i % 9)), first[i]) << i;
    }
}

// ---------------------------------------------------------------------------
// Placement and routing
// ---------------------------------------------------------------------------

NodeRouterConfig
routerConfig(int cubes, RouterPolicy policy, int tp = 1, int pp = 1)
{
    NodeRouterConfig rc;
    rc.numCubes = cubes;
    rc.policy = policy;
    rc.placement.tpDegree = tp;
    rc.placement.ppStages = pp;
    rc.link = LinkConfig::idealLink();
    return rc;
}

Request
readReq(std::uint64_t id, std::uint64_t addr, std::uint64_t size,
        Tick arrival = 0)
{
    Request r;
    r.id = id;
    r.kind = ReqKind::Read;
    r.addr = addr;
    r.size = size;
    r.arrival = arrival;
    return r;
}

TEST(NodePlacement, FromParallelismClampsToDivisors)
{
    // The paper's prefill descriptor is TP 8: on 8 cubes that is one
    // replica of 8; on 4 cubes it clamps to 4; on 6 the largest divisor
    // of 6 not exceeding 8 is 6.
    const Parallelism p = paperParallelism(deepseekV3(), Stage::Prefill);
    EXPECT_EQ(NodePlacement::fromParallelism(p, 8).tpDegree, 8);
    EXPECT_EQ(NodePlacement::fromParallelism(p, 4).tpDegree, 4);
    EXPECT_EQ(NodePlacement::fromParallelism(p, 6).tpDegree, 6);

    Parallelism staged = p;
    staged.ppStages = 2;
    const NodePlacement pl = NodePlacement::fromParallelism(staged, 8);
    EXPECT_EQ(pl.ppStages, 2);
    EXPECT_EQ(pl.tpDegree, 4); // 8 cubes / 2 stages = 4 per stage

    // DeepSeek decode attention is data-parallel (TP 1): each cube is
    // its own replica.
    const Parallelism dp = paperParallelism(deepseekV3(), Stage::Decode);
    EXPECT_EQ(NodePlacement::fromParallelism(dp, 4).tpDegree, 1);
}

TEST(NodeRouter, RoundRobinCyclesThroughReplicas)
{
    NodeRouter router(routerConfig(3, RouterPolicy::RoundRobin));
    std::vector<RoutedSlice> out;
    for (int i = 0; i < 9; ++i) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(i + 1), 0, 4_KiB),
                     out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].cube, i % 3);
    }
}

TEST(NodeRouter, CacheAffinityPinsRegionsAndSpreadsLoad)
{
    NodeRouterConfig rc = routerConfig(4, RouterPolicy::CacheAffinity);
    rc.affinityBytes = 1_MiB;
    NodeRouter router(rc);
    std::vector<RoutedSlice> out;

    // Same affinity region (any offset within 1 MiB) → same cube, every
    // time: the KV-cache owner.
    out.clear();
    router.route(readReq(1, 5 * 1_MiB + 100, 4_KiB), out);
    const int owner = out[0].cube;
    for (int i = 0; i < 10; ++i) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(i + 2),
                             5 * 1_MiB + 777u * static_cast<unsigned>(i),
                             4_KiB),
                     out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].cube, owner);
    }

    // Across many regions, the hash uses every cube.
    std::vector<bool> hit(4, false);
    for (int rg = 0; rg < 64; ++rg) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(rg + 100),
                             static_cast<std::uint64_t>(rg) * 1_MiB,
                             4_KiB),
                     out);
        hit[static_cast<std::size_t>(out[0].cube)] = true;
    }
    EXPECT_TRUE(std::all_of(hit.begin(), hit.end(),
                            [](bool b) { return b; }));
}

TEST(NodeRouter, LoadAwarePicksFewestOutstandingCredits)
{
    NodeRouterConfig rc = routerConfig(2, RouterPolicy::LoadAware);
    rc.link.latencyTicks = ticksFromNs(static_cast<std::int64_t>(100));
    rc.link.bytesPerNs = 64.0;
    rc.link.credits = 8;
    NodeRouter router(rc);
    std::vector<RoutedSlice> out;

    // All injections at tick 0: ties break to cube 0, each injection
    // raises that cube's outstanding count, so assignment alternates.
    for (int i = 0; i < 6; ++i) {
        out.clear();
        router.route(readReq(static_cast<std::uint64_t>(i + 1), 0, 4_KiB),
                     out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].cube, i % 2) << i;
    }
}

TEST(NodeRouter, TpPpSlicingIsDisjointContiguousAndStageLocal)
{
    // 4 cubes, 2 pipeline stages × TP 2: stage 0 owns the lower half of
    // the span on cubes {0,1}, stage 1 the upper half on cubes {2,3}.
    NodeRouterConfig rc = routerConfig(4, RouterPolicy::RoundRobin, 2, 2);
    rc.spanBytes = 1ull << 30;
    NodeRouter router(rc);
    EXPECT_EQ(router.cubesPerStage(), 2);
    EXPECT_EQ(router.replicasPerStage(), 1);

    std::vector<RoutedSlice> out;
    router.route(readReq(1, 0, 4_KiB + 1), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].cube, 0);
    EXPECT_EQ(out[1].cube, 1);
    // Contiguous split, remainder on the first slice: 2049 + 2048.
    EXPECT_EQ(out[0].req.size + out[1].req.size, 4_KiB + 1);
    EXPECT_EQ(out[0].req.size, 2049u);
    EXPECT_EQ(out[1].req.addr, out[0].req.addr + out[0].req.size);

    out.clear();
    router.route(readReq(2, (1ull << 29) + 4_KiB, 4_KiB), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].cube, 2);
    EXPECT_EQ(out[1].cube, 3);

    // A 1-byte request yields a single slice (no zero-size slices).
    out.clear();
    router.route(readReq(3, 0, 1), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].req.size, 1u);
}

TEST(NodeFanOut, ChannelStreamsCoverSystemStreamExactlyOnce)
{
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = 500 * p.requestBytes;
    p.capacity = 1ull << 30;
    RandomSource whole(p);
    const std::vector<Request> all = collectRequests(whole);

    // Round-robin over 3 cubes: request i goes to cube i % 3 and is that
    // cube's (i / 3)-th slice, dealt round-robin over its 2 channels.
    const int per_cube = 2;
    NodeFanOut fan(std::make_unique<RandomSource>(p),
                   routerConfig(3, RouterPolicy::RoundRobin), per_cube);
    ASSERT_EQ(fan.numViews(), 3 * per_cube);
    std::vector<int> owner(all.size(), -1);
    for (int v = 0; v < fan.numViews(); ++v) {
        const auto view = fan.makeView(v);
        Request r;
        while (view->next(r)) {
            const std::size_t idx = static_cast<std::size_t>(r.id - 1);
            ASSERT_LT(idx, all.size());
            EXPECT_EQ(owner[idx], -1); // disjoint across channels
            owner[idx] = v;
            EXPECT_EQ(r.addr, all[idx].addr);
            EXPECT_EQ(r.size, all[idx].size);
            EXPECT_EQ(v / per_cube, static_cast<int>(idx % 3));
            EXPECT_EQ(v % per_cube, static_cast<int>(idx / 3 % per_cube));
        }
    }
    for (const int v : owner)
        EXPECT_NE(v, -1); // complete
    for (int cube = 0; cube < 3; ++cube) {
        EXPECT_EQ(fan.router().link(cube).injectedMessages(),
                  cube < 2 ? 167u : 166u);
    }
}

// ---------------------------------------------------------------------------
// The serving driver: cubes and nodes
// ---------------------------------------------------------------------------

NodeConfig
smallNodeConfig(const DramConfig& dram, int cubes, int channels,
                std::uint64_t requests)
{
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = requests * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    NodeConfig cfg;
    cfg.makeController = [dram] {
        return makeChannelController(MemorySystem::RoMe, dram);
    };
    cfg.makeSystemSource = [p] {
        return std::make_unique<RandomSource>(p);
    };
    cfg.numCubes = cubes;
    cfg.channelsPerCube = channels;
    return cfg;
}

/** A cube: the one-cube node over the ideal link. */
NodeConfig
smallCubeConfig(const DramConfig& dram, int channels, std::uint64_t requests)
{
    NodeConfig cfg = smallNodeConfig(dram, 1, channels, requests);
    cfg.link = LinkConfig::idealLink();
    return cfg;
}

TEST(NodeDriver, SingleCubeIdealLinkIsBitIdenticalToServingDriver)
{
    // ServingDriver is the cube-only spelling kept for perfbench: it must
    // forward to the one driver unchanged.
    const DramConfig dram = hbm4Config();
    const double rps = 2e7;

    const NodeConfig ncfg = smallCubeConfig(dram, 4, 1500);
    const NodeResult node = NodeDriver(ncfg).run(rps);

    ServingConfig scfg;
    scfg.makeController = ncfg.makeController;
    scfg.makeSystemSource = ncfg.makeSystemSource;
    scfg.numChannels = 4;
    const ServingResult serving = ServingDriver(scfg).run(rps);

    // Same arrivals, same sharding, same merge order: every compared
    // field — histogram buckets included — must match bit for bit.
    EXPECT_TRUE(node.aggregate == serving.aggregate);
    EXPECT_EQ(node.finishedAt, serving.finishedAt);
    EXPECT_EQ(node.offeredRps, serving.offeredRps);
    EXPECT_EQ(node.achievedRps, serving.achievedRps);
    EXPECT_TRUE(node.perCube == serving.perCube);
    ASSERT_EQ(node.perCube.size(), 1u);
    EXPECT_EQ(node.perCube[0].routedRequests, 1500u);
    // The ideal link never queues.
    EXPECT_EQ(node.linkQueueDelayNs.maxNs(), 0.0);
}

TEST(NodeDriver, ResultsAreThreadCountInvariantForCubesAndNodes)
{
    const DramConfig dram = hbm4Config();
    const NodeConfig cube = smallCubeConfig(dram, 4, 2000);
    NodeConfig node = smallNodeConfig(dram, 2, 2, 2000);
    node.policy = RouterPolicy::CacheAffinity;
    for (NodeConfig cfg : {cube, node}) {
        SCOPED_TRACE(std::to_string(cfg.numCubes) + " cubes");
        const double rps = 2e7;
        cfg.threads = 1;
        const NodeResult serial = NodeDriver(cfg).run(rps);
        cfg.threads = 4;
        const NodeResult pooled = NodeDriver(cfg).run(rps);

        // Bit-identical per cube and in aggregate — histograms included.
        EXPECT_TRUE(serial.aggregate == pooled.aggregate);
        EXPECT_TRUE(serial.perCube == pooled.perCube);
        EXPECT_TRUE(serial.linkQueueDelayNs == pooled.linkQueueDelayNs);
        EXPECT_EQ(serial.finishedAt, pooled.finishedAt);
        EXPECT_EQ(serial.aggregate.completedRequests, 2000u);
        EXPECT_EQ(serial.aggregate.latencyHistNs.count(), 2000u);
    }
}

TEST(NodeRouter, ZeroSizeRequestIsFatal)
{
    // Eight 4 KiB reads, the fourth of size 0: a channel controller would
    // reject it, and so must the router in front of any number of cubes.
    std::vector<Request> reqs;
    for (std::uint64_t i = 0; i < 8; ++i)
        reqs.push_back(readReq(i + 1, i * 4_KiB, i == 3 ? 0 : 4_KiB));
    const DramConfig dram = hbm4Config();
    for (NodeConfig cfg :
         {smallCubeConfig(dram, 2, 0), smallNodeConfig(dram, 2, 1, 0)}) {
        SCOPED_TRACE(std::to_string(cfg.numCubes) + " cubes");
        cfg.makeSystemSource = [reqs] {
            return std::make_unique<ReplaySource>(reqs);
        };
        cfg.threads = 1; // the fatal throws on the calling thread
        EXPECT_THROW(NodeDriver(cfg).run(1e7), std::runtime_error);
    }
}

/** The oracle's view of a node run: each channel's dealt stream and the
 *  router that routed them (its links hold the routing statistics). */
struct DealtNode
{
    std::vector<std::vector<Request>> channels;
    NodeRouter router;
};

/** The system stream as NodeDriver::run re-times it for @p rps. */
std::unique_ptr<RequestSource>
timedStream(const NodeConfig& cfg, double rps)
{
    ArrivalSpec spec;
    spec.model = cfg.arrivalModel;
    spec.seed = cfg.arrivalSeed;
    spec.meanGap = std::max<Tick>(ticksFromNs(1e9 / rps), 1);
    return std::make_unique<ArrivalProcess>(cfg.makeSystemSource(), spec);
}

/**
 * Route timedStream through a standalone router and deal each cube's
 * slices over its channels by the cube's own running slice index or
 * address stripe — written out here, independently of NodeFanOut.
 */
DealtNode
dealNode(const NodeConfig& cfg, double rps)
{
    NodeRouterConfig rc;
    rc.numCubes = cfg.numCubes;
    rc.policy = cfg.policy;
    rc.placement = cfg.placement;
    rc.link = cfg.link;
    rc.affinityBytes = cfg.affinityBytes;
    rc.spanBytes = cfg.spanBytes;
    DealtNode out{std::vector<std::vector<Request>>(static_cast<std::size_t>(
                      cfg.numCubes * cfg.channelsPerCube)),
                  NodeRouter(rc)};
    const auto timed = timedStream(cfg, rps);
    std::vector<std::uint64_t> cube_index(
        static_cast<std::size_t>(cfg.numCubes), 0);
    const auto per_cube = static_cast<std::uint64_t>(cfg.channelsPerCube);
    std::vector<RoutedSlice> slices;
    Request r;
    while (timed->next(r)) {
        slices.clear();
        out.router.route(r, slices);
        for (const RoutedSlice& s : slices) {
            const std::uint64_t key =
                cfg.stripeBytes ? s.req.addr / cfg.stripeBytes
                                : cube_index[static_cast<std::size_t>(
                                      s.cube)]++;
            const std::uint64_t ch =
                static_cast<std::uint64_t>(s.cube) * per_cube +
                key % per_cube;
            out.channels[ch].push_back(s.req);
        }
    }
    return out;
}

/**
 * Check the fan-out drive of @p cfg at @p rps against independent
 * per-channel drains of the oracle's dealt streams: per channel through
 * the engine, per cube (stats, routed counts and bytes), link queue
 * delay and aggregate through NodeDriver, at 1, 2 and 4 engine threads.
 */
void
expectMatchesIndependentDrains(NodeConfig cfg, double rps)
{
    const DealtNode dealt = dealNode(cfg, rps);
    std::vector<ControllerStats> oracle;
    for (const std::vector<Request>& stream : dealt.channels) {
        const auto mc = cfg.makeController();
        oracle.push_back(runWorkload(*mc, stream));
    }
    std::uint64_t peak = 0;
    for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        // Channel by channel, through the engine the driver uses.
        ChannelSimEngine engine(threads);
        for (std::size_t ch = 0; ch < oracle.size(); ++ch)
            engine.addChannel(cfg.makeController());
        engine.bindFanOut(std::make_unique<NodeFanOut>(
            timedStream(cfg, rps), dealt.router.config(),
            cfg.channelsPerCube, cfg.stripeBytes));
        engine.drainAll();
        for (std::size_t ch = 0; ch < oracle.size(); ++ch) {
            EXPECT_TRUE(engine.channel(static_cast<int>(ch)).stats() ==
                        oracle[ch])
                << "channel " << ch;
        }

        // Cube by cube, through the driver.
        cfg.threads = threads;
        const NodeResult res = NodeDriver(cfg).run(rps);
        ASSERT_EQ(res.perCube.size(), static_cast<std::size_t>(cfg.numCubes));
        ControllerStats aggregate;
        LatencyHistogram link_delay;
        for (int cube = 0; cube < cfg.numCubes; ++cube) {
            ControllerStats merged;
            std::uint64_t routed = 0;
            std::uint64_t bytes = 0;
            for (int c = 0; c < cfg.channelsPerCube; ++c) {
                const auto ch =
                    static_cast<std::size_t>(cube * cfg.channelsPerCube + c);
                merged.merge(oracle[ch]);
                aggregate.merge(oracle[ch]);
                routed += dealt.channels[ch].size();
                for (const Request& r : dealt.channels[ch])
                    bytes += r.size;
            }
            merged.deriveBandwidths();
            const CubeResult& cr =
                res.perCube[static_cast<std::size_t>(cube)];
            EXPECT_TRUE(cr.stats == merged) << "cube " << cube;
            EXPECT_EQ(cr.routedRequests, routed) << "cube " << cube;
            EXPECT_EQ(cr.routedBytes, bytes) << "cube " << cube;
            link_delay.merge(dealt.router.link(cube).queueDelayHistNs());
        }
        aggregate.deriveBandwidths();
        EXPECT_TRUE(res.aggregate == aggregate);
        EXPECT_TRUE(sameDistribution(res.linkQueueDelayNs, link_delay));
        // The high-water is counted per window, so it is as thread-count
        // invariant as the results.
        EXPECT_GT(res.fanOutPeak, 0u);
        if (threads == 1)
            peak = res.fanOutPeak;
        EXPECT_EQ(res.fanOutPeak, peak);
    }
}

/** A stream spanning several ChannelSimEngine::kFanOutWindow windows. */
constexpr std::uint64_t kWindowedRequests =
    5 * ChannelSimEngine::kFanOutWindow;

TEST(NodeFanOut, CubeDriveMatchesIndependentDrainsOnBothStacks)
{
    // One cube over the ideal link, by slice index and by address
    // stripe. Half the channels' peak: queues build, and the stream
    // spans two full windows of ChannelSimEngine::kFanOutWindow requests.
    const DramConfig dram = hbm4Config();
    RandomPattern p;
    p.requestBytes = 1_KiB;
    p.totalBytes = 5000 * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    p.writeFraction = 0.25;
    const int channels = 4;
    const double rps = 0.5 * channels *
                       dram.org.channelBandwidthBytesPerNs() * 1e9 /
                       static_cast<double>(p.requestBytes);
    for (const MemorySystem sys : {MemorySystem::Hbm4, MemorySystem::RoMe}) {
        for (const std::uint64_t stripe : {std::uint64_t{0}, 4_KiB}) {
            SCOPED_TRACE(std::string(sys == MemorySystem::Hbm4 ? "hbm4"
                                                               : "rome") +
                         " stripe " + std::to_string(stripe));
            NodeConfig cfg = smallCubeConfig(dram, channels, 0);
            cfg.makeController = [dram, sys] {
                return makeChannelController(sys, dram);
            };
            cfg.makeSystemSource = [p] {
                return std::make_unique<RandomSource>(p);
            };
            cfg.stripeBytes = stripe;
            expectMatchesIndependentDrains(cfg, rps);
        }
    }
}

TEST(NodeFanOut, DriveMatchesIndependentDrainsUnderEveryPolicy)
{
    const DramConfig dram = hbm4Config();
    for (const RouterPolicy policy :
         {RouterPolicy::RoundRobin, RouterPolicy::CacheAffinity,
          RouterPolicy::LoadAware}) {
        SCOPED_TRACE(routerPolicyName(policy));
        NodeConfig cfg = smallNodeConfig(dram, 2, 2, kWindowedRequests);
        cfg.policy = policy;
        cfg.affinityBytes = 64_KiB;
        expectMatchesIndependentDrains(cfg, 4e7);
    }
}

TEST(NodeFanOut, DriveMatchesIndependentDrainsWithTpPpAndStripes)
{
    // 4 cubes as 2 pipeline stages x TP 2: every request splits into two
    // 2 KiB slices on the cubes of its stage; channels interleave by
    // 4 KiB address stripe.
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallNodeConfig(dram, 4, 2, kWindowedRequests);
    cfg.placement.tpDegree = 2;
    cfg.placement.ppStages = 2;
    cfg.spanBytes = dram.org.channelCapacity();
    cfg.stripeBytes = 4_KiB;
    expectMatchesIndependentDrains(cfg, 4e7);
}

TEST(NodeFanOut, DriveMatchesIndependentDrainsOnCreditLimitedLink)
{
    // Two credits and a narrow link: injections queue and stall on
    // credits, so arrivals at the cubes differ from the offered ones.
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallNodeConfig(dram, 2, 2, kWindowedRequests);
    cfg.policy = RouterPolicy::LoadAware;
    cfg.link.latencyTicks = ticksFromNs(static_cast<std::int64_t>(100));
    cfg.link.bytesPerNs = 64.0;
    cfg.link.credits = 2;
    const DealtNode dealt = dealNode(cfg, 4e7);
    EXPECT_GT(dealt.router.link(0).creditStallTicks(), 0u);
    expectMatchesIndependentDrains(cfg, 4e7);
}

/**
 * A controller wrapper that forwards only the calls a wrapper written
 * before drainUntil existed knows — bindSource, runUntil, drain — and
 * counts its drains; drainUntil stays at the interface default.
 */
class DrainCountingController final : public IMemoryController
{
  public:
    DrainCountingController(std::unique_ptr<IMemoryController> inner,
                            int* drains)
        : inner_(std::move(inner)), drains_(drains)
    {
    }

    std::string name() const override { return inner_->name(); }
    void enqueue(const Request& req) override { inner_->enqueue(req); }
    void bindSource(RequestSource* src) override { inner_->bindSource(src); }
    void runUntil(Tick until) override { inner_->runUntil(until); }

    Tick
    drain() override
    {
        ++*drains_;
        return inner_->drain();
    }

    bool idle() const override { return inner_->idle(); }
    Tick now() const override { return inner_->now(); }
    const std::vector<Completion>&
    completions() const override
    {
        return inner_->completions();
    }
    void
    setRetainCompletions(bool retain) override
    {
        inner_->setRetainCompletions(retain);
    }
    const Accumulator& latencyNs() const override
    {
        return inner_->latencyNs();
    }
    const LatencyHistogram&
    latencyHistogramNs() const override
    {
        return inner_->latencyHistogramNs();
    }
    McComplexity complexity() const override { return inner_->complexity(); }
    ControllerStats stats() const override { return inner_->stats(); }

  private:
    std::unique_ptr<IMemoryController> inner_;
    int* drains_;
};

TEST(NodeFanOut, DrainOnlyWrapperIsDrainedOnceAndMatches)
{
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallCubeConfig(dram, 4, 8000);
    cfg.threads = 2;
    const double rps = 2e7;
    const NodeResult plain = NodeDriver(cfg).run(rps);

    std::deque<int> drains; // stable addresses, one counter per channel
    NodeConfig wrapped = cfg;
    wrapped.makeController = [&drains, make = cfg.makeController] {
        drains.push_back(0);
        return std::make_unique<DrainCountingController>(make(),
                                                         &drains.back());
    };
    const NodeResult res = NodeDriver(wrapped).run(rps);

    ASSERT_EQ(drains.size(), 4u);
    for (const int n : drains)
        EXPECT_EQ(n, 1);
    EXPECT_TRUE(res.perCube == plain.perCube);
    EXPECT_TRUE(res.aggregate == plain.aggregate);
    EXPECT_EQ(res.finishedAt, plain.finishedAt);
    // The default drains a channel whole in the first window, so the
    // fan-out holds the other channels' shares meanwhile.
    EXPECT_GT(res.fanOutPeak, plain.fanOutPeak);
}

TEST(NodeDriver, FanOutBufferStaysFarBelowTheStream)
{
    // Four 8-channel cubes at 0.7 of node peak: the producer runs one
    // window plus the channels' lookahead ahead of them, so its buffer
    // is set by the window, not by the stream's length.
    const DramConfig dram = hbm4Config();
    const double rps = 0.7 * 4 * 8 * dram.org.channelBandwidthBytesPerNs() *
                       1e9 / 4096.0;
    for (const std::uint64_t requests : {20000u, 80000u}) {
        NodeConfig cfg = smallNodeConfig(dram, 4, 8, requests);
        cfg.policy = RouterPolicy::CacheAffinity;
        cfg.threads = 2;
        const NodeResult res = NodeDriver(cfg).run(rps);
        EXPECT_EQ(res.aggregate.completedRequests, requests);
        EXPECT_GT(res.fanOutPeak, ChannelSimEngine::kFanOutWindow);
        EXPECT_LT(res.fanOutPeak, 2 * ChannelSimEngine::kFanOutWindow);
        EXPECT_LT(res.fanOutPeak, requests / 5);
    }
}

TEST(NodeDriver, AggregateHistogramIsExactMergeOfCubeHistograms)
{
    const DramConfig dram = hbm4Config();
    NodeConfig cfg = smallNodeConfig(dram, 2, 2, 1000);
    cfg.policy = RouterPolicy::RoundRobin;
    const NodeResult res = NodeDriver(cfg).run(2e7);

    // Every request completed on some cube, and the node histogram is
    // the exact bucket-wise merge of the per-cube histograms.
    LatencyHistogram merged;
    std::uint64_t completed = 0;
    for (const CubeResult& cr : res.perCube) {
        merged.merge(cr.stats.latencyHistNs);
        completed += cr.stats.completedRequests;
        EXPECT_GT(cr.stats.completedRequests, 0u);
    }
    EXPECT_EQ(completed, 1000u);
    EXPECT_TRUE(sameDistribution(res.aggregate.latencyHistNs, merged));
    for (const double p : {50.0, 99.0, 99.9}) {
        EXPECT_EQ(res.aggregate.latencyPercentileNs(p),
                  merged.percentileNs(p));
    }
}

TEST(NodeDriver, RateSweepFlagsSaturationKneeForCubesAndNodes)
{
    // Two channels in either shape — one cube of two, or two one-channel
    // cubes behind the default link — deliver at most 2 x channel peak;
    // 4 KiB requests put 100% load at peak / 4096 rps. The grid
    // straddles that capacity.
    const DramConfig dram = hbm4Config();
    const double base_rps = 2.0 * dram.org.channelBandwidthBytesPerNs() *
                            1e9 / 4096.0;
    const std::vector<double> loads{0.25, 0.5, 3.0, 5.0};
    std::vector<double> rates;
    for (const double l : loads)
        rates.push_back(l * base_rps);
    const NodeConfig cube = smallCubeConfig(dram, 2, 4000);
    const NodeConfig node = smallNodeConfig(dram, 2, 1, 4000);
    for (const NodeConfig& cfg : {cube, node}) {
        SCOPED_TRACE(std::to_string(cfg.numCubes) + " cubes");
        const RateSweep sweep = runRateSweep(NodeDriver(cfg), rates);

        ASSERT_EQ(sweep.points.size(), loads.size());
        // Below capacity the open loop keeps up...
        EXPECT_FALSE(sweep.points[0].saturated);
        EXPECT_FALSE(sweep.points[1].saturated);
        // ...and a 3x overload cannot: achieved pins at capacity.
        EXPECT_TRUE(sweep.points[2].saturated);
        EXPECT_TRUE(sweep.points[3].saturated);
        EXPECT_EQ(sweep.kneeIndex, 2);
        ASSERT_NE(sweep.knee(), nullptr);
        EXPECT_LT(sweep.points[2].achievedRps, rates[2]);
        // Tail latency is monotone along the grid and explodes past the
        // knee (the backlog grows with the whole stream length).
        for (std::size_t i = 1; i < sweep.points.size(); ++i)
            EXPECT_GE(sweep.points[i].p99Ns, sweep.points[i - 1].p99Ns);
        EXPECT_GT(sweep.points[2].p99Ns, 10.0 * sweep.points[1].p99Ns);
        // Every point carries its scheduling steps; a point over a
        // non-ideal link also carries the per-cube split.
        for (const RatePoint& pt : sweep.points) {
            EXPECT_EQ(pt.completedRequests, 4000u);
            EXPECT_GT(pt.schedSteps, 0u);
            EXPECT_EQ(pt.linked, !cfg.link.ideal());
            const std::size_t cubes = pt.linked ? 2 : 0;
            ASSERT_EQ(pt.perCubeAchievedRps.size(), cubes);
            ASSERT_EQ(pt.perCubeRouted.size(), cubes);
            if (pt.linked) {
                EXPECT_EQ(pt.perCubeRouted[0] + pt.perCubeRouted[1], 4000u);
            }
        }
    }
}

/** The top-level keys of the one JSON object in @p json, in order. */
std::vector<std::string>
topLevelKeys(const std::string& json)
{
    std::vector<std::string> keys;
    int depth = 0;
    char prev = 0; // the last character outside a string
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (c == '"') {
            // The row writer's keys and values carry no escapes.
            const std::size_t end = json.find('"', i + 1);
            if (depth == 1 && (prev == '{' || prev == ','))
                keys.push_back(json.substr(i + 1, end - i - 1));
            i = end;
            prev = '"';
            continue;
        }
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        prev = c;
    }
    return keys;
}

TEST(RatePointJson, RowKeysFollowThePointsOwnData)
{
    // The BENCH_serving.json row schema after the identity keys.
    const std::vector<std::string> base{
        "offeredRps",      "achievedRps",   "completedRequests",
        "latencyP50Ns",    "latencyP90Ns",  "latencyP99Ns",
        "latencyP999Ns",   "latencyMaxNs",  "latencyMeanNs",
        "effectiveBandwidth", "saturated",  "fanOutPeak",
        "ceCount",         "dueCount",      "retryCount",
        "scrubCount",      "sparedRows",    "poisonedRequests",
        "schedSteps"};
    const std::vector<std::string> telemetry{
        "telemetry",     "stallTicks",    "queueMeanNs", "queueP99Ns",
        "serviceMeanNs", "serviceP99Ns",  "retryMeanNs", "linkMeanNs",
        "timeSeries"};
    const std::vector<std::string> link{
        "linkQueueDelayMeanNs", "linkQueueDelayP99Ns", "perCubeAchievedRps",
        "perCubeRouted"};

    const DramConfig dram = hbm4Config();
    const NodeConfig cube = smallCubeConfig(dram, 2, 200);
    const NodeConfig node = smallNodeConfig(dram, 2, 1, 200);
    for (const bool counters : {false, true}) {
        for (NodeConfig cfg : {cube, node}) {
            SCOPED_TRACE(std::to_string(cfg.numCubes) + " cubes, counters " +
                         std::to_string(counters));
            cfg.makeController = [dram, counters] {
                McConfig mc;
                mc.telemetry.counters = counters;
                return std::make_unique<ConventionalMc>(
                    dram, bestBaselineMapping(dram.org), mc);
            };
            const RatePoint pt =
                runRateSweep(NodeDriver(cfg), {2e7}).points[0];
            JsonWriter w;
            w.beginObject();
            ratePointJson(w, pt);
            w.endObject();

            std::vector<std::string> expected = base;
            if (counters)
                expected.insert(expected.end(), telemetry.begin(),
                                telemetry.end());
            if (cfg.numCubes > 1)
                expected.insert(expected.end(), link.begin(), link.end());
            EXPECT_EQ(topLevelKeys(w.str()), expected) << w.str();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-DUE request poisoning
// ---------------------------------------------------------------------------

TEST(Poisoning, DuePoisonsCompletionsAndReachesTheRatePoint)
{
    // Every data row carries a stuck fault and every stuck fault is a
    // DUE: each read request must complete exactly once, poisoned.
    const DramConfig dram = hbm4Config();
    McConfig mcfg;
    mcfg.faults.enabled = true;
    mcfg.faults.seed = 5;
    mcfg.faults.stuckRowFraction = 1.0;
    mcfg.faults.stuckDueFraction = 1.0;
    mcfg.faults.scrubEnabled = false;

    ConventionalMc mc(dram, bestBaselineMapping(dram.org), mcfg);
    for (int i = 0; i < 16; ++i)
        mc.enqueue(readReq(static_cast<std::uint64_t>(i + 1),
                           static_cast<std::uint64_t>(i) * 8_KiB, 8_KiB));
    mc.drain();
    const ControllerStats s = mc.stats();
    EXPECT_EQ(s.completedRequests, 16u);
    EXPECT_GT(s.dueCount, 0u);
    EXPECT_EQ(s.poisonedRequests, 16u);
    ASSERT_EQ(mc.completions().size(), 16u);
    for (const Completion& done : mc.completions())
        EXPECT_TRUE(done.poisoned);

    // Clean runs stay clean.
    ConventionalMc clean(dram, bestBaselineMapping(dram.org), McConfig{});
    clean.enqueue(readReq(1, 0, 8_KiB));
    clean.drain();
    EXPECT_EQ(clean.stats().poisonedRequests, 0u);
    EXPECT_FALSE(clean.completions().at(0).poisoned);

    // And the flag reaches the serving layer's RatePoint.
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = 400 * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    p.writeFraction = 0.0;
    NodeConfig cfg = smallCubeConfig(dram, 2, 0);
    cfg.makeController = [dram, mcfg] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), mcfg);
    };
    cfg.makeSystemSource = [p] {
        return std::make_unique<RandomSource>(p);
    };
    const RateSweep sweep = runRateSweep(NodeDriver(cfg), {1e7});
    ASSERT_EQ(sweep.points.size(), 1u);
    EXPECT_EQ(sweep.points[0].completedRequests, 400u);
    // Requests landing in the clean spare-row region at the top of each
    // bank are not poisoned; everything else is.
    EXPECT_GE(sweep.points[0].poisonedRequests, 380u);
    EXPECT_LE(sweep.points[0].poisonedRequests, 400u);
}

} // namespace
} // namespace rome
