/**
 * @file
 * Parameterized property sweeps (TEST_P):
 *  - over every VBA design: random row-op sequences at random cadences are
 *    always timing-legal (the device panics otherwise), conserve bytes,
 *    and never exceed peak bandwidth;
 *  - over conventional-MC configurations (page policy × queue depth):
 *    every request completes exactly once, latency is positive and
 *    bounded, bandwidth never exceeds peak;
 *  - over RoMe map orders and queue depths: conservation and FSM bounds.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/random.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/cmdgen.h"
#include "rome/rome_mc.h"
#include "rome/rome_timing.h"

namespace rome
{
namespace
{

using namespace rome::literals;

// ---------------------------------------------------------------------
// Property 1: command-generator legality under random schedules.
// ---------------------------------------------------------------------

class CmdGenProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CmdGenProperty, RandomRowOpsAreAlwaysTimingLegal)
{
    const VbaDesign design =
        VbaDesign::all()[static_cast<std::size_t>(GetParam())];
    const DramConfig cfg = hbm4Config();
    const VbaMap map(cfg.org, cfg.timing, design);
    ChannelDevice dev(map.deviceOrganization(), map.deviceTiming());
    CommandGenerator gen(map, dev);
    const RomeTimingParams rt = deriveRomeTiming(cfg.timing, map);

    Rng rng(1234 + static_cast<std::uint64_t>(GetParam()));
    Tick issue = 0;
    std::uint64_t bytes = 0;
    Tick last_data = 0;
    Tick first_data = kTickMax;
    for (int i = 0; i < 200; ++i) {
        VbaAddress a;
        a.sid = static_cast<int>(rng.below(4));
        a.vba = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(map.vbasPerSid())));
        a.row = static_cast<int>(rng.below(64));
        const RowCmdKind kind = rng.uniform() < 0.1 ? RowCmdKind::Ref
            : rng.uniform() < 0.3 ? RowCmdKind::WrRow : RowCmdKind::RdRow;
        // Random cadence between aggressive (tR2RS) and relaxed.
        issue += rt.tR2RS + static_cast<Tick>(rng.below(400));
        // The device panics on any timing violation: no throw = legal.
        const auto res = gen.execute({kind, a}, issue);
        ASSERT_GE(res.vbaReadyAt, res.start);
        if (kind != RowCmdKind::Ref) {
            ASSERT_GT(res.dataUntil, res.dataFrom);
            bytes += res.bytes;
            first_data = std::min(first_data, res.dataFrom);
            last_data = std::max(last_data, res.dataUntil);
        }
    }
    // Conservation and the physical bandwidth bound.
    EXPECT_EQ(dev.counters().dataBytes.value(), bytes);
    const double bw = static_cast<double>(bytes) /
                      nsFromTicks(last_data - first_data);
    EXPECT_LE(bw, 64.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllVbaDesigns, CmdGenProperty,
                         ::testing::Range(0, 6),
                         [](const auto& info) {
                             return VbaDesign::all()
                                 [static_cast<std::size_t>(info.param)]
                                     .name()
                                     .substr(0, 2) +
                                 (info.param % 2 ? "a" : "b") +
                                 std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Property 2: conventional-MC invariants across configurations.
// ---------------------------------------------------------------------

using McParam = std::tuple<PagePolicy, int>; // policy, queue depth per PC

class McProperty : public ::testing::TestWithParam<McParam>
{
};

TEST_P(McProperty, RequestsCompleteOnceBandwidthBounded)
{
    const auto [policy, depth] = GetParam();
    const DramConfig dram = hbm4Config();
    McConfig cfg;
    cfg.pagePolicy = policy;
    cfg.readQueueDepth = depth * dram.org.pcsPerChannel;
    cfg.writeQueueDepth = cfg.readQueueDepth;
    ConventionalMc mc(dram, bestBaselineMapping(dram.org), cfg);

    Rng rng(99);
    std::uint64_t id = 1;
    std::uint64_t expect_bytes = 0;
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t size = 32ull << rng.below(8); // 32 B .. 4 KB
        const std::uint64_t addr =
            rng.below(dram.org.channelCapacity() - size) / 32 * 32;
        const bool wr = rng.uniform() < 0.25;
        mc.enqueue({id++, wr ? ReqKind::Write : ReqKind::Read, addr, size,
                    0});
        expect_bytes += (addr + size - 1) / 32 - addr / 32 + 1;
    }
    mc.drain();

    std::set<std::uint64_t> ids;
    for (const auto& c : mc.completions()) {
        EXPECT_TRUE(ids.insert(c.id).second) << "duplicate completion";
        EXPECT_GT(c.finished, 0);
    }
    EXPECT_EQ(ids.size(), 200u);
    EXPECT_EQ(mc.bytesRead() + mc.bytesWritten(), expect_bytes * 32);
    EXPECT_LE(mc.achievedBandwidth(), 64.0 + 1e-9);
    EXPECT_GT(mc.latencyNs().min(), 0.0);
    EXPECT_TRUE(mc.idle());
}

INSTANTIATE_TEST_SUITE_P(
    PolicyDepthSweep, McProperty,
    ::testing::Combine(::testing::Values(PagePolicy::Open,
                                         PagePolicy::Close,
                                         PagePolicy::Adaptive),
                       ::testing::Values(8, 32, 64)));

// ---------------------------------------------------------------------
// Property 3: RoMe-MC invariants across map orders and queue depths.
// ---------------------------------------------------------------------

using RomeParam = std::tuple<RomeMapOrder, int>;

class RomeProperty : public ::testing::TestWithParam<RomeParam>
{
};

TEST_P(RomeProperty, ConservationAndFsmBounds)
{
    const auto [order, depth] = GetParam();
    RomeMcConfig cfg;
    cfg.queueDepth = depth;
    RomeMc mc(hbm4Config(), VbaDesign::adopted(), cfg, order);

    Rng rng(7);
    std::uint64_t id = 1;
    std::uint64_t useful = 0;
    for (int i = 0; i < 150; ++i) {
        const std::uint64_t size = 512ull << rng.below(6); // 512 B .. 16 KB
        const std::uint64_t addr =
            rng.below((1ull << 30) - size);
        const bool wr = rng.uniform() < 0.2;
        mc.enqueue({id++, wr ? ReqKind::Write : ReqKind::Read, addr, size,
                    0});
        useful += size;
    }
    mc.drain();

    EXPECT_EQ(mc.completions().size(), 150u);
    EXPECT_EQ(mc.bytesRead() + mc.bytesWritten(), useful);
    // Transfers happen in whole rows: raw bytes are row multiples.
    EXPECT_EQ((mc.bytesRead() + mc.bytesWritten() + mc.overfetchBytes()) %
                  mc.vbaMap().effectiveRowBytes(),
              0u);
    EXPECT_LE(mc.operateFsmHighWater(), mc.operateFsms());
    EXPECT_LE(mc.refreshFsmHighWater(), mc.refreshFsms());
    EXPECT_LE(mc.effectiveBandwidth(), 64.0 + 1e-9);
    EXPECT_TRUE(mc.idle());
}

INSTANTIATE_TEST_SUITE_P(
    OrderDepthSweep, RomeProperty,
    ::testing::Combine(::testing::Values(RomeMapOrder::VbaSidRow,
                                         RomeMapOrder::SidVbaRow,
                                         RomeMapOrder::RowVbaSid),
                       ::testing::Values(2, 4, 8)));

} // namespace
} // namespace rome
