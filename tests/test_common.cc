/**
 * @file
 * Unit tests for the common substrate: tick arithmetic, stats primitives,
 * deterministic RNG, and table rendering.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/log.h"
#include "common/random.h"
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

} // namespace
} // namespace rome
