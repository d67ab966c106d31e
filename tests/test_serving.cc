/**
 * @file
 * Serving-harness tests: LatencyHistogram percentiles against a
 * sorted-vector oracle, exact/associative merging, histogram plumbing
 * through ControllerStats::merge and the hybrid router, the stream
 * fan-out's per-channel deal (coverage, ShardSource equality) and its
 * windowed drive (bit-identical to independent per-channel drains on
 * both stacks at 1/2/4 engine threads, a drain-only wrapper drained
 * once), ServingDriver thread-count determinism, and saturation-knee
 * detection of the rate sweep on a synthetic overload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/memsim.h"
#include "sim/serving.h"
#include "sim/source.h"

namespace rome
{
namespace
{

using namespace rome::literals;

/** Nearest-rank percentile of a sorted sample vector. */
double
oraclePercentile(const std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    if (p >= 100.0)
        return sorted.back();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
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

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, SmallIntegerValuesAreExact)
{
    // Everything below 2 * kSubBuckets = 64 lands in unit-wide buckets,
    // so percentiles match the oracle exactly.
    LatencyHistogram h;
    std::vector<double> samples;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const double v = static_cast<double>(rng.below(64));
        samples.push_back(v);
        h.sample(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(h.percentileNs(p), oraclePercentile(samples, p)) << p;
    EXPECT_EQ(h.minNs(), samples.front());
    EXPECT_EQ(h.maxNs(), samples.back());
    EXPECT_EQ(h.count(), samples.size());
}

TEST(LatencyHistogram, PercentilesTrackSortedOracleWithinBucketError)
{
    // Heavy-tailed latencies spanning ~100 ns to ~10 ms: every percentile
    // must stay within the log-bucket resolution (1/32 ≈ 3.1%; allow 5%
    // for rank-vs-boundary effects) of the exact nearest-rank value.
    LatencyHistogram h;
    std::vector<double> samples;
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        const double v = 100.0 * std::exp(6.0 * u * u);
        samples.push_back(v);
        h.sample(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double oracle = oraclePercentile(samples, p);
        EXPECT_NEAR(h.percentileNs(p), oracle, 0.05 * oracle) << p;
    }
    EXPECT_EQ(h.percentileNs(100.0), samples.back());
    EXPECT_NEAR(h.meanNs(),
                std::accumulate(samples.begin(), samples.end(), 0.0) /
                    static_cast<double>(samples.size()),
                1e-6);
}

TEST(LatencyHistogram, MergeIsExactAndAssociative)
{
    // Bucket counts add, so merging per-part histograms must reproduce
    // the whole-stream histogram bit-for-bit, in any grouping.
    Rng rng(23);
    LatencyHistogram whole, a, b, c;
    for (int i = 0; i < 9000; ++i) {
        const double v = 50.0 + static_cast<double>(rng.below(1 << 20));
        whole.sample(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).sample(v);
    }
    LatencyHistogram left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    LatencyHistogram bc = b; // a + (b + c)
    bc.merge(c);
    LatencyHistogram right = a;
    right.merge(bc);
    EXPECT_TRUE(sameDistribution(left, whole));
    EXPECT_TRUE(sameDistribution(right, whole));
    EXPECT_TRUE(sameDistribution(left, right));
    for (const double p : {50.0, 99.0, 99.9}) {
        EXPECT_EQ(left.percentileNs(p), whole.percentileNs(p));
        EXPECT_EQ(right.percentileNs(p), whole.percentileNs(p));
    }
}

// ---------------------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------------------

TEST(ServingStats, ControllerStatsMergeCarriesHistogramState)
{
    // Cube-level percentiles must come from merged bucket counts — not
    // from per-channel means — so merging two channel snapshots has to
    // reproduce the distribution of all completions of both channels.
    const DramConfig dram = hbm4Config();
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = 600 * p.requestBytes;
    p.capacity = dram.org.channelCapacity();

    RomeMc mc_a(dram, VbaDesign::adopted(), RomeMcConfig{});
    RandomSource src_a(p);
    const ControllerStats a = runWorkload(mc_a, src_a);

    p.seed = 99; // a different stream for the second channel
    RomeMc mc_b(dram, VbaDesign::adopted(), RomeMcConfig{});
    RandomSource src_b(p);
    const ControllerStats b = runWorkload(mc_b, src_b);

    ControllerStats merged = a;
    merged.merge(b);
    ASSERT_EQ(merged.latencyHistNs.count(),
              a.completedRequests + b.completedRequests);

    // Oracle: one histogram fed every per-request latency of both
    // channels (arrivals are 0, so latency is the finish time).
    LatencyHistogram oracle;
    for (const auto* mc : {&mc_a, &mc_b}) {
        for (const Completion& done : mc->completions())
            oracle.sample(nsFromTicks(done.finished));
    }
    EXPECT_TRUE(sameDistribution(merged.latencyHistNs, oracle));
    for (const double p_ : {50.0, 90.0, 99.0, 99.9}) {
        EXPECT_EQ(merged.latencyPercentileNs(p_),
                  oracle.percentileNs(p_));
    }
    // The old scalar fields cannot express this: the merged p99 differs
    // from both inputs' p99 in general, while max/mean still agree.
    EXPECT_EQ(merged.latencyMaxNs, std::max(a.latencyMaxNs,
                                            b.latencyMaxNs));
}

TEST(ServingStats, HybridRouterMergesPartitionHistograms)
{
    const DramConfig dram = hbm4Config();
    SparseMixPattern p;
    p.totalBytes = 4_MiB;
    p.capacity = dram.org.channelCapacity();
    HybridMc mc(dram, HybridConfig{});
    SparseMixSource src(p);
    const ControllerStats s = runWorkload(mc, src);
    ASSERT_GT(s.completedRequests, 0u);
    EXPECT_EQ(s.latencyHistNs.count(), s.completedRequests);
    EXPECT_TRUE(sameDistribution(s.latencyHistNs,
                                 mc.latencyHistogramNs()));
    EXPECT_EQ(mc.latencyHistogramNs().count(),
              mc.romePartition().latencyHistogramNs().count() +
                  mc.finePartition().latencyHistogramNs().count());
}

// ---------------------------------------------------------------------------
// Shard-by-channel coverage
// ---------------------------------------------------------------------------

TEST(ServingShards, EveryRequestLandsOnExactlyOneChannel)
{
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = 999 * p.requestBytes;
    p.capacity = 1ull << 30;
    RandomSource whole(p);
    const std::vector<Request> all = collectRequests(whole);

    for (const std::uint64_t stripe : {std::uint64_t{0}, 8_KiB}) {
        const int n = 5;
        StreamFanOut fan(std::make_unique<RandomSource>(p), 1, n, stripe);
        ASSERT_EQ(fan.numViews(), n);
        std::vector<int> owner(all.size(), -1);
        for (int ch = 0; ch < n; ++ch) {
            // Each view yields exactly the sequence a ShardSource over
            // its own copy of the stream would.
            const auto view = fan.makeView(ch);
            ShardSource shard(std::make_unique<RandomSource>(p), ch, n,
                              stripe);
            Request r;
            while (view->next(r)) {
                Request expect;
                ASSERT_TRUE(shard.next(expect));
                EXPECT_EQ(r.id, expect.id);
                ASSERT_GE(r.id, 1u);
                ASSERT_LE(r.id, all.size());
                const std::size_t idx = static_cast<std::size_t>(r.id - 1);
                // Disjoint: no request appears on two channels.
                EXPECT_EQ(owner[idx], -1);
                owner[idx] = ch;
                EXPECT_EQ(r.addr, all[idx].addr);
                // Assignment rule: round-robin by index or by stripe.
                const std::uint64_t key =
                    stripe ? all[idx].addr / stripe : idx;
                EXPECT_EQ(static_cast<int>(
                              key % static_cast<std::uint64_t>(n)),
                          ch);
            }
            EXPECT_TRUE(shard.exhausted());
        }
        // Complete: every request was yielded by some shard.
        for (const int ch : owner)
            EXPECT_NE(ch, -1);
    }
}

TEST(ServingShards, RepeatAndTakeCombinators)
{
    StreamPattern p{16_KiB, 4_KiB, 0, 0, 0.0, 1};
    auto repeat = std::make_unique<RepeatSource>(
        std::make_unique<StreamSource>(p), 3);
    const std::vector<Request> reqs = collectRequests(*repeat);
    ASSERT_EQ(reqs.size(), 12u); // 4 requests x 3 rounds
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(reqs[i].id, i + 1); // ids stay unique across rounds
        EXPECT_EQ(reqs[i].addr, (i % 4) * 4_KiB);
        if (i > 0) {
            EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
        }
    }
    repeat->reset();
    const std::vector<Request> replayed = collectRequests(*repeat);
    ASSERT_EQ(replayed.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(replayed[i].id, reqs[i].id);
        EXPECT_EQ(replayed[i].addr, reqs[i].addr);
        EXPECT_EQ(replayed[i].arrival, reqs[i].arrival);
    }

    TakeSource take(std::make_unique<StreamSource>(p), 2);
    EXPECT_EQ(collectRequests(take).size(), 2u);
    take.reset();
    EXPECT_EQ(collectRequests(take).size(), 2u);
}

// ---------------------------------------------------------------------------
// ServingDriver
// ---------------------------------------------------------------------------

ServingConfig
smallCubeConfig(const DramConfig& dram, int channels,
                std::uint64_t requests)
{
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = requests * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    ServingConfig cfg;
    cfg.makeController = [dram] {
        return makeChannelController(MemorySystem::RoMe, dram);
    };
    cfg.makeSystemSource = [p] {
        return std::make_unique<RandomSource>(p);
    };
    cfg.numChannels = channels;
    return cfg;
}

TEST(ServingDriver, ResultsAreThreadCountInvariant)
{
    const DramConfig dram = hbm4Config();
    ServingConfig cfg = smallCubeConfig(dram, 4, 2000);
    const double rps = 2e7;
    cfg.threads = 1;
    const ServingResult serial = ServingDriver(cfg).run(rps);
    cfg.threads = 4;
    const ServingResult pooled = ServingDriver(cfg).run(rps);

    ASSERT_EQ(serial.perChannel.size(), pooled.perChannel.size());
    // Bit-identical per channel and in aggregate — histograms included.
    EXPECT_TRUE(serial.perChannel == pooled.perChannel);
    EXPECT_TRUE(serial.aggregate == pooled.aggregate);
    EXPECT_EQ(serial.finishedAt, pooled.finishedAt);
    EXPECT_EQ(serial.aggregate.completedRequests, 2000u);
    EXPECT_EQ(serial.aggregate.latencyHistNs.count(), 2000u);
}

// ---------------------------------------------------------------------------
// Stream fan-out drive
// ---------------------------------------------------------------------------

/**
 * The oracle for a fan-out drive: every channel drained on its own over
 * a ShardSource of the stream re-timed as ServingDriver::run re-times it
 * (whole-tick mean gap for @p rps).
 */
std::vector<ControllerStats>
independentDrains(const ServingConfig& cfg, double rps)
{
    ArrivalSpec spec;
    spec.model = cfg.arrivalModel;
    spec.seed = cfg.arrivalSeed;
    spec.meanGap = std::max<Tick>(ticksFromNs(1e9 / rps), 1);
    std::vector<ControllerStats> out;
    for (int ch = 0; ch < cfg.numChannels; ++ch) {
        ShardSource dealt(
            std::make_unique<ArrivalProcess>(cfg.makeSystemSource(), spec),
            ch, cfg.numChannels, cfg.stripeBytes);
        const auto mc = cfg.makeController();
        out.push_back(runWorkload(*mc, dealt));
    }
    return out;
}

TEST(StreamFanOut, WindowedDriveMatchesIndependentDrainsOnBothStacks)
{
    const DramConfig dram = hbm4Config();
    RandomPattern p;
    p.requestBytes = 1_KiB;
    p.totalBytes = 5000 * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    p.writeFraction = 0.25;
    const int channels = 4;
    // Half the channels' peak: queues build, and the stream spans two
    // full windows of ChannelSimEngine::kFanOutWindow requests.
    const double rps = 0.5 * channels *
                       dram.org.channelBandwidthBytesPerNs() * 1e9 /
                       static_cast<double>(p.requestBytes);
    for (const MemorySystem sys : {MemorySystem::Hbm4, MemorySystem::RoMe}) {
        for (const std::uint64_t stripe : {std::uint64_t{0}, 4_KiB}) {
            ServingConfig cfg;
            cfg.makeController = [dram, sys] {
                return makeChannelController(sys, dram);
            };
            cfg.makeSystemSource = [p] {
                return std::make_unique<RandomSource>(p);
            };
            cfg.numChannels = channels;
            cfg.stripeBytes = stripe;
            const std::vector<ControllerStats> oracle =
                independentDrains(cfg, rps);
            std::uint64_t peak = 0;
            for (const int threads : {1, 2, 4}) {
                SCOPED_TRACE(std::string(sys == MemorySystem::Hbm4 ? "hbm4"
                                                                   : "rome") +
                             " stripe " + std::to_string(stripe) +
                             " threads " + std::to_string(threads));
                cfg.threads = threads;
                const ServingResult res = ServingDriver(cfg).run(rps);
                ASSERT_EQ(res.perChannel.size(), oracle.size());
                for (std::size_t ch = 0; ch < oracle.size(); ++ch)
                    EXPECT_TRUE(res.perChannel[ch] == oracle[ch]) << ch;
                EXPECT_EQ(res.aggregate.completedRequests, 5000u);
                // The high-water is counted per window, so it is as
                // thread-count invariant as the results.
                EXPECT_GT(res.fanOutPeak, 0u);
                if (threads == 1)
                    peak = res.fanOutPeak;
                EXPECT_EQ(res.fanOutPeak, peak);
            }
        }
    }
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

TEST(StreamFanOut, DrainOnlyWrapperIsDrainedOnceAndMatches)
{
    const DramConfig dram = hbm4Config();
    ServingConfig cfg = smallCubeConfig(dram, 4, 8000);
    cfg.threads = 2;
    const double rps = 2e7;
    const ServingResult plain = ServingDriver(cfg).run(rps);

    std::deque<int> drains; // stable addresses, one counter per channel
    ServingConfig wrapped = cfg;
    wrapped.makeController = [&drains, make = cfg.makeController] {
        drains.push_back(0);
        return std::make_unique<DrainCountingController>(make(),
                                                         &drains.back());
    };
    const ServingResult res = ServingDriver(wrapped).run(rps);

    ASSERT_EQ(drains.size(), 4u);
    for (const int n : drains)
        EXPECT_EQ(n, 1);
    EXPECT_TRUE(res.perChannel == plain.perChannel);
    EXPECT_TRUE(res.aggregate == plain.aggregate);
    EXPECT_EQ(res.finishedAt, plain.finishedAt);
    // The default drains a channel whole in the first window, so the
    // fan-out holds the other channels' shares meanwhile.
    EXPECT_GT(res.fanOutPeak, plain.fanOutPeak);
}

TEST(ServingDriver, RateSweepFlagsSaturationKneeOnOverload)
{
    const DramConfig dram = hbm4Config();
    const ServingConfig cfg = smallCubeConfig(dram, 2, 4000);
    // Two channels deliver at most 2 x channel peak; 4 KiB requests put
    // 100% load at peak / 4096 rps. The grid straddles that capacity.
    const double base_rps = 2.0 * dram.org.channelBandwidthBytesPerNs() *
                            1e9 / 4096.0;
    const std::vector<double> loads{0.25, 0.5, 3.0, 5.0};
    std::vector<double> rates;
    for (const double l : loads)
        rates.push_back(l * base_rps);
    const RateSweep sweep = runRateSweep(ServingDriver(cfg), rates);

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
}

} // namespace
} // namespace rome
