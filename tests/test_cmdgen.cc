/**
 * @file
 * Command generator tests (§IV-C, Figure 9): exact lowering offsets for the
 * adopted design, timing legality on every design point (the device
 * re-validates each command), steady-state fixed intervals, stretch
 * behaviour on same-VBA back-to-back, refresh pairing (§V-B), and the
 * derived row-level timing parameters against Table V.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/hbm4_config.h"
#include "rome/cmdgen.h"
#include "rome/rome_timing.h"
#include "rome/vba.h"

namespace rome
{
namespace
{

using namespace rome::literals;

struct Lowered
{
    Tick at;
    CmdKind kind;
    DramAddress addr;
};

class CmdGenTest : public ::testing::Test
{
  protected:
    CmdGenTest()
        : cfg_(hbm4Config()),
          map_(cfg_.org, cfg_.timing, VbaDesign::adopted()),
          dev_(map_.deviceOrganization(), map_.deviceTiming()),
          gen_(map_, dev_)
    {
        dev_.setTrace([this](Tick at, const Command& c) {
            trace_.push_back(Lowered{at, c.kind, c.addr});
        });
    }

    DramConfig cfg_;
    VbaMap map_;
    ChannelDevice dev_;
    CommandGenerator gen_;
    std::vector<Lowered> trace_;
};

TEST_F(CmdGenTest, RdRowLowersToFigure9Sequence)
{
    const auto res = gen_.execute({RowCmdKind::RdRow, {0, 0, 7}}, 0);

    EXPECT_EQ(res.acts, 2);
    EXPECT_EQ(res.cass, 64); // 32 per bank, interleaved
    EXPECT_EQ(res.pres, 2);
    EXPECT_EQ(res.bytes, 4096u);

    // Figure 9 offsets: delay tRRDS - tCCDS = 1 ns before ACT A; ACT B at
    // +tRRDS; CAS stream anchored at ACT_B + tRCDRD - tCCDS = 18 ns.
    EXPECT_EQ(res.start, 1_ns);
    EXPECT_EQ(res.dataFrom, 18_ns + cfg_.timing.tCL);
    EXPECT_EQ(res.dataUntil, res.dataFrom + 64_ns); // 4 KB at 64 B/ns
    // Bank A precharges at last-CAS_A + tRTP = 82, ready 98; bank B at 83,
    // ready 99.
    EXPECT_EQ(res.vbaReadyAt, 99_ns);

    // Trace structure: both PCs receive every command at the same tick.
    ASSERT_EQ(trace_.size(), 2u * (2 + 64 + 2));
    EXPECT_EQ(trace_[0].kind, CmdKind::Act);
    EXPECT_EQ(trace_[0].at, 1_ns);
    EXPECT_EQ(trace_[1].at, trace_[0].at);
    EXPECT_NE(trace_[0].addr.pc, trace_[1].addr.pc);
    EXPECT_EQ(trace_[2].kind, CmdKind::Act);
    EXPECT_EQ(trace_[2].at, 3_ns);
}

TEST_F(CmdGenTest, CasStreamInterleavesBanksAtTccds)
{
    gen_.execute({RowCmdKind::RdRow, {0, 0, 7}}, 0);
    std::vector<Lowered> cas;
    for (const auto& l : trace_) {
        if (l.kind == CmdKind::Rd && l.addr.pc == 0)
            cas.push_back(l);
    }
    ASSERT_EQ(cas.size(), 64u);
    for (std::size_t i = 1; i < cas.size(); ++i) {
        EXPECT_EQ(cas[i].at - cas[i - 1].at, cfg_.timing.tCCDS);
        EXPECT_NE(cas[i].addr.bg, cas[i - 1].addr.bg); // alternating banks
    }
}

TEST_F(CmdGenTest, BackToBackDifferentVbaKeepsBusSaturated)
{
    const RomeTimingParams rt = romeTableVTiming();
    const auto a = gen_.execute({RowCmdKind::RdRow, {0, 0, 1}}, 0);
    const auto b = gen_.execute({RowCmdKind::RdRow, {0, 1, 1}},
                                rt.tR2RS);
    // The second operation's data follows the first with no bubble.
    EXPECT_EQ(b.dataFrom, a.dataUntil);
    EXPECT_EQ(b.dataUntil - a.dataFrom, 128_ns);
    // In steady state the sequence offsets are fixed (static generator).
    EXPECT_EQ(b.start - rt.tR2RS, a.start);
}

TEST_F(CmdGenTest, SameVbaBackToBackStretchesInsteadOfViolating)
{
    const RomeTimingParams rt = romeTableVTiming();
    const auto a = gen_.execute({RowCmdKind::RdRow, {0, 0, 1}}, 0);
    // Table V spacing (95 ns) is 2 ns tighter than the tRTP-accurate
    // round-trip; the generator must absorb the difference, not violate.
    const auto b = gen_.execute({RowCmdKind::RdRow, {0, 0, 2}}, rt.tRDrow);
    // Bank A (the first activated) gates the restart: it precharges at
    // last-CAS_A + tRTP = 82 and is ready at 98 — 2 ns past the Table V
    // nominal of 95 + 1 (alignment delay).
    EXPECT_EQ(b.start, 98_ns);
    EXPECT_EQ(a.vbaReadyAt, 99_ns); // bank B, reached at b.start + tRRDS
}

TEST_F(CmdGenTest, WrRowRecoveryAndReadiness)
{
    const auto res = gen_.execute({RowCmdKind::WrRow, {1, 3, 42}}, 0);
    EXPECT_EQ(res.acts, 2);
    EXPECT_EQ(res.cass, 64);
    EXPECT_EQ(res.bytes, 4096u);
    EXPECT_EQ(res.dataFrom, 18_ns + cfg_.timing.tWL);
    EXPECT_EQ(res.dataUntil, res.dataFrom + 64_ns);
    // Write recovery: PRE_A at lastWR_A + tWR = 96, ready 112; bank B 113.
    EXPECT_EQ(res.vbaReadyAt, 113_ns);
}

TEST_F(CmdGenTest, RefPairsBanksWithTrrefd)
{
    const auto res = gen_.execute({RowCmdKind::Ref, {0, 2, 0}}, 0);
    EXPECT_EQ(res.refPbs, 2);
    // §V-B: the VBA stalls tRFCpb + tRREFD instead of 2 × tRFCpb.
    EXPECT_EQ(res.vbaReadyAt - res.start,
              cfg_.timing.tRFCpb + cfg_.timing.tRREFD);

    std::vector<Tick> refs;
    for (const auto& l : trace_) {
        if (l.kind == CmdKind::RefPb && l.addr.pc == 0)
            refs.push_back(l.at);
    }
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_EQ(refs[1] - refs[0], cfg_.timing.tRREFD);
}

TEST_F(CmdGenTest, RowOpAfterRefreshWaits)
{
    const auto ref = gen_.execute({RowCmdKind::Ref, {0, 0, 0}}, 0);
    const auto rd = gen_.execute({RowCmdKind::RdRow, {0, 0, 5}}, 10_ns);
    // Bank A frees at tRFCpb; bank B (refreshed tRREFD later) stretches
    // the second ACT but not the sequence start.
    EXPECT_GE(rd.start, cfg_.timing.tRFCpb);
    EXPECT_GE(rd.dataUntil, ref.vbaReadyAt);
}

TEST(CmdGenAllDesigns, EveryDesignLowersLegallyAndSaturates)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        ChannelDevice dev(map.deviceOrganization(), map.deviceTiming());
        CommandGenerator gen(map, dev);
        const RomeTimingParams rt = deriveRomeTiming(cfg.timing, map);

        // Stream 16 row reads across VBAs at the derived cadence; the data
        // bus must stay saturated (every command passes device checking).
        Tick issue = 0;
        Tick first_data = kTickMax;
        Tick last_data = 0;
        std::uint64_t bytes = 0;
        for (int i = 0; i < 16; ++i) {
            const VbaAddress a{0, i % map.vbasPerSid(), i};
            const auto res = gen.execute({RowCmdKind::RdRow, a}, issue);
            issue += rt.tR2RS;
            first_data = std::min(first_data, res.dataFrom);
            last_data = std::max(last_data, res.dataUntil);
            bytes += res.bytes;
        }
        const double bw = static_cast<double>(bytes) /
                          nsFromTicks(last_data - first_data);
        // Within 1 % of peak: short-row designs can hit a one-off 1 ns
        // row-bus slot collision between a PRE and a later op's ACT.
        EXPECT_NEAR(bw, 64.0, 0.64) << d.name();
    }
}

TEST(RomeTiming, TableVValuesAreExact)
{
    const RomeTimingParams p = romeTableVTiming();
    EXPECT_EQ(p.tR2RS, 64_ns);
    EXPECT_EQ(p.tR2RR, 68_ns);
    EXPECT_EQ(p.tR2WS, 69_ns);
    EXPECT_EQ(p.tR2WR, 73_ns);
    EXPECT_EQ(p.tW2RS, 71_ns);
    EXPECT_EQ(p.tW2RR, 75_ns);
    EXPECT_EQ(p.tW2WS, 64_ns);
    EXPECT_EQ(p.tW2WR, 68_ns);
    EXPECT_EQ(p.tRDrow, 95_ns);
    EXPECT_EQ(p.tWRrow, 115_ns);
    EXPECT_EQ(RomeTimingParams::kNumMcVisibleParams, 10);
}

TEST(RomeTiming, DerivationReproducesTableVGaps)
{
    const DramConfig cfg = hbm4Config();
    const VbaMap map(cfg.org, cfg.timing, VbaDesign::adopted());
    const RomeTimingParams d = deriveRomeTiming(cfg.timing, map);
    const RomeTimingParams p = romeTableVTiming();

    // Inter-VBA gaps derive exactly.
    EXPECT_EQ(d.tR2RS, p.tR2RS);
    EXPECT_EQ(d.tR2WS, p.tR2WS);
    EXPECT_EQ(d.tW2RS, p.tW2RS);
    EXPECT_EQ(d.tW2WS, p.tW2WS);
    EXPECT_EQ(d.tR2RR, p.tR2RR);
    EXPECT_EQ(d.tW2RR, p.tW2RR);

    // Same-VBA busy, a model sanity bound: the derivation lies within
    // 2.1 ns of Table V's tRDrow and within 5 ns below its tWRrow. The
    // exact comparison with the paper (97 vs 95 ns, 111 vs 115 ns) is the
    // gap rows tRD_row and tWR_row of bench/paper_claims.cc.
    EXPECT_NEAR(nsFromTicks(d.tRDrow), nsFromTicks(p.tRDrow), 2.1);
    EXPECT_LE(d.tWRrow, p.tWRrow);
    EXPECT_NEAR(nsFromTicks(d.tWRrow), nsFromTicks(p.tWRrow), 5.0);
}

TEST(RomeTiming, GapLookupSelectsTheRightParameter)
{
    const RomeTimingParams p = romeTableVTiming();
    EXPECT_EQ(p.gap(false, false, true), p.tR2RS);
    EXPECT_EQ(p.gap(false, false, false), p.tR2RR);
    EXPECT_EQ(p.gap(false, true, true), p.tR2WS);
    EXPECT_EQ(p.gap(true, false, true), p.tW2RS);
    EXPECT_EQ(p.gap(true, true, false), p.tW2WR);
}

} // namespace
} // namespace rome
