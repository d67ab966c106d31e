/**
 * @file
 * Unit tests for the common substrate: tick arithmetic, stats primitives,
 * deterministic RNG, table rendering, and the sorted-tick buffer against a
 * multiset reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/log.h"
#include "common/random.h"
#include "common/sorted_ticks.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace rome
{
namespace
{

using namespace rome::literals;

TEST(Types, TickLiteralsAreExact)
{
    EXPECT_EQ(1_ns, kTicksPerNs);
    EXPECT_EQ(16_ns, 16 * kTicksPerNs);
    EXPECT_EQ(ticksFromNs(0.25), 1);
    EXPECT_EQ(ticksFromNs(0.5), 2);
    EXPECT_EQ(ticksFromNs(static_cast<std::int64_t>(45)), 45_ns);
    EXPECT_DOUBLE_EQ(nsFromTicks(45_ns), 45.0);
    EXPECT_EQ(1_us, 1000_ns);
    EXPECT_EQ(3.9_us, ticksFromNs(3900.0));
    EXPECT_EQ(32_ms, 32'000'000 * kTicksPerNs);
}

TEST(Types, ByteLiterals)
{
    EXPECT_EQ(32_B, 32u);
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(32_GiB, 32ull << 30);
}

TEST(Types, BandwidthHelper)
{
    // 8 Gbps pin -> 1 B/ns.
    EXPECT_DOUBLE_EQ(gbpsToBytesPerNs(8.0), 1.0);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AccumulatorMoments)
{
    Accumulator a;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_NEAR(a.variance(), 4.0, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Random, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Random, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(37), 37u);
}

TEST(Random, UniformCoversUnitInterval)
{
    Rng r(11);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Random, BetweenInclusive)
{
    Rng r(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto v = r.between(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Table, RendersAlignedCells)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    const std::string s = t.render();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("| alpha |"), std::string::npos);
    EXPECT_NE(s.find("| 22222 |"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::bytes(512), "512 B");
    EXPECT_EQ(Table::bytes(4096), "4.00 KiB");
    EXPECT_EQ(Table::bytes(12ull << 20), "12.00 MiB");
    EXPECT_EQ(Table::percent(0.125), "12.5 %");
}

TEST(Log, FatalAndPanicThrow)
{
    EXPECT_THROW(fatal("bad config %d", 1), std::runtime_error);
    EXPECT_THROW(panic("bug %d", 2), std::logic_error);
}

/**
 * Release every @p ref entry at or before @p now alongside @p ops, then
 * check the two hold the same live entries: size and first release after
 * a few probe ticks.
 */
void
releaseAndCompare(SortedTicks& ops, std::multiset<Tick>& ref, Tick now)
{
    ops.release(now);
    ref.erase(ref.begin(), ref.upper_bound(now));
    ASSERT_EQ(ops.size(), ref.size()) << "at " << now;
    for (const Tick probe : {now, now + 1, now + 7, now + 40}) {
        const auto it = ref.upper_bound(probe);
        ASSERT_EQ(ops.firstAfter(probe), it == ref.end() ? kTickMax : *it)
            << "probe " << probe << " at " << now;
    }
}

TEST(SortedTicks, SortedBufferSemantics)
{
    SortedTicks ops;
    EXPECT_EQ(ops.size(), 0u);
    EXPECT_EQ(ops.firstAfter(0), kTickMax);

    // Out-of-order pushes: the earliest entry always surfaces first.
    ops.push(500);
    ops.push(100);
    ops.push(300);
    ops.push(100);
    EXPECT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops.firstAfter(0), 100);
    EXPECT_EQ(ops.firstAfter(100), 300);
    EXPECT_EQ(ops.firstAfter(499), 500);
    EXPECT_EQ(ops.firstAfter(500), kTickMax);

    // release() drops everything at or before now, nothing else.
    ops.release(100);
    EXPECT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops.firstAfter(0), 300);
    ops.release(299);
    EXPECT_EQ(ops.size(), 2u);
    ops.release(500);
    EXPECT_EQ(ops.size(), 0u);
    EXPECT_EQ(ops.firstAfter(0), kTickMax);
}

TEST(SortedTicks, InOrderRunCrossesPrefixReclaim)
{
    // The conventional CAMs push each direction's data ends in issue
    // order. A long run whose live count rises and falls erases the
    // released prefix many times; a multiset is the reference.
    SortedTicks ops;
    std::multiset<Tick> ref;
    Tick now = 0;
    Tick last_end = 0;
    for (int i = 0; i < 20000; ++i) {
        now += i % 9;
        for (int k = 0; k < i % 5; ++k) {
            last_end = std::max(last_end, now + 20) + (i + k) % 3;
            ops.push(last_end);
            ref.insert(last_end);
        }
        ASSERT_NO_FATAL_FAILURE(releaseAndCompare(ops, ref, now));
    }
    releaseAndCompare(ops, ref, last_end);
    EXPECT_EQ(ops.size(), 0u);
}

TEST(SortedTicks, OutOfOrderPushesLandBehindNewest)
{
    // RoMe's FSM windows can end before ones pushed earlier: each push
    // lands up to 60 ticks behind the newest entry.
    SortedTicks ops;
    std::multiset<Tick> ref;
    Tick now = 0;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 20000; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        now += static_cast<Tick>((lcg >> 33) % 7);
        const int pushes = static_cast<int>((lcg >> 40) % 4);
        for (int k = 0; k < pushes; ++k) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            const Tick end = now + 1 + static_cast<Tick>((lcg >> 33) % 60);
            ops.push(end);
            ref.insert(end);
        }
        ASSERT_NO_FATAL_FAILURE(releaseAndCompare(ops, ref, now));
    }
}

TEST(SortedTicks, CheckpointKeepsReleaseOrder)
{
    SortedTicks ops;
    for (const Tick t : {700, 200, 900, 400, 200, 600})
        ops.push(t);
    ops.release(200); // a released prefix is not part of the state

    CheckpointWriter w;
    ops.saveState(w);
    const std::vector<std::uint8_t> blob = w.take();
    {
        // The live entries, earliest release first.
        CheckpointReader r(blob);
        ASSERT_EQ(r.getCount(), 4u);
        for (const Tick want : {400, 600, 700, 900})
            EXPECT_EQ(r.getI64(), want);
        r.finish();
    }

    SortedTicks twin;
    CheckpointReader r(blob);
    twin.loadState(r);
    r.finish();
    CheckpointWriter again;
    twin.saveState(again);
    EXPECT_EQ(again.take(), blob) << "a restored CAM re-saves identically";

    // Both continue alike, out-of-order pushes included.
    for (SortedTicks* o : {&ops, &twin}) {
        o->push(500);
        o->push(1000);
    }
    for (const Tick now : {450, 550, 650, 950, 1000}) {
        ops.release(now);
        twin.release(now);
        EXPECT_EQ(twin.size(), ops.size()) << now;
        EXPECT_EQ(twin.firstAfter(now), ops.firstAfter(now)) << now;
    }
    EXPECT_EQ(ops.size(), 0u);
}

} // namespace
} // namespace rome
