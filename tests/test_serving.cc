/**
 * @file
 * Serving-harness building blocks: LatencyHistogram percentiles against
 * a sorted-vector oracle, exact/associative merging, histogram plumbing
 * through ControllerStats::merge and the hybrid router, and the stream
 * fan-out's per-channel deal (coverage, ShardSource equality). The
 * serving driver itself, in its cube and node shapes, is tested in
 * test_node.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
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

} // namespace
} // namespace rome
