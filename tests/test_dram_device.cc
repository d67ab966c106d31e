/**
 * @file
 * Timing-rule tests for the HBM channel device: every JEDEC-style constraint
 * the paper's Table II lists is exercised, plus bank FSM observability,
 * refresh windows, command-bus serialization (the row bus's slot calendar
 * and the column bus's floor, which binds only under a CAS gap shorter
 * than one slot), and event counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/checkpoint.h"
#include "dram/device.h"
#include "dram/hbm4_config.h"
#include "dram/hbm_generations.h"

namespace rome
{
namespace
{

using namespace rome::literals;

class DeviceTest : public ::testing::Test
{
  protected:
    DeviceTest() : cfg_(hbm4Config()), dev_(cfg_.org, cfg_.timing) {}

    static DramAddress
    addr(int pc, int sid, int bg, int bank, int row = 0, int col = 0)
    {
        return DramAddress{pc, sid, bg, bank, row, col};
    }

    DramConfig cfg_;
    ChannelDevice dev_;
};

TEST_F(DeviceTest, OrganizationMatchesTableV)
{
    const Organization& o = cfg_.org;
    EXPECT_EQ(o.channelsPerCube, 32);
    EXPECT_EQ(o.banksPerChannel(), 128);
    EXPECT_EQ(o.channelCapacity(), 1_GiB);
    EXPECT_EQ(o.cubeCapacity(), 32_GiB);
    EXPECT_EQ(o.columnsPerRow(), 32);
    // 64 GB/s per channel, 2 TB/s per cube.
    EXPECT_DOUBLE_EQ(o.channelBandwidthBytesPerNs(), 64.0);
    EXPECT_DOUBLE_EQ(o.channelBandwidthBytesPerNs() * 32, 2048.0);
    EXPECT_DOUBLE_EQ(o.burstNs(), 1.0);
}

TEST_F(DeviceTest, TimingPresetMatchesTableV)
{
    const TimingParams& t = cfg_.timing;
    EXPECT_EQ(t.tRC, 45_ns);
    EXPECT_EQ(t.tRP, 16_ns);
    EXPECT_EQ(t.tRAS, 29_ns);
    EXPECT_EQ(t.tCL, 16_ns);
    EXPECT_EQ(t.tRCDRD, 16_ns);
    EXPECT_EQ(t.tRCDWR, 16_ns);
    EXPECT_EQ(t.tWR, 16_ns);
    EXPECT_EQ(t.tFAW, 12_ns);
    EXPECT_EQ(t.tCCDL, 2_ns);
    EXPECT_EQ(t.tCCDS, 1_ns);
    EXPECT_EQ(t.tCCDR, 2_ns);
    EXPECT_EQ(t.tRRDS, 2_ns);
    EXPECT_EQ(t.tRC, t.tRAS + t.tRP);
}

TEST_F(DeviceTest, ReadRequiresActivationDelay)
{
    const auto a = addr(0, 0, 0, 0, /*row=*/7);
    dev_.issue({CmdKind::Act, a}, 0);
    Command rd{CmdKind::Rd, a};
    EXPECT_EQ(dev_.earliestIssue(rd, 0), cfg_.timing.tRCDRD);
    // Issuing early panics (device-side verification).
    EXPECT_THROW(dev_.issue(rd, cfg_.timing.tRCDRD - 1_ns), std::logic_error);
    auto res = dev_.issue(rd, cfg_.timing.tRCDRD);
    EXPECT_EQ(res.dataFrom, cfg_.timing.tRCDRD + cfg_.timing.tCL);
    EXPECT_EQ(res.dataUntil, res.dataFrom + cfg_.timing.tBURST);
}

TEST_F(DeviceTest, ReadToWrongRowIsStructurallyIllegal)
{
    const auto a = addr(0, 0, 0, 0, 7);
    dev_.issue({CmdKind::Act, a}, 0);
    auto wrong = a;
    wrong.row = 8;
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, wrong}, 0), kTickMax);
}

TEST_F(DeviceTest, ActToOpenBankIsStructurallyIllegal)
{
    const auto a = addr(0, 0, 0, 0, 7);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, a}, 100_ns), kTickMax);
}

TEST_F(DeviceTest, SameBankActToActIsTrc)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    const Tick pre_at = dev_.earliestIssue({CmdKind::Pre, a}, 0);
    EXPECT_EQ(pre_at, cfg_.timing.tRAS);
    dev_.issue({CmdKind::Pre, a}, pre_at);
    auto next = a;
    next.row = 2;
    // tRC (45) dominates tRAS + tRP here (29 + 16 = 45): equal by design.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, next}, 0), cfg_.timing.tRC);
}

TEST_F(DeviceTest, ActToActSpacingAcrossBanks)
{
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    // Same bank group: tRRDL.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 0, 1, 1)}, 0),
              cfg_.timing.tRRDL);
    // Different bank group: tRRDS.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 1, 0, 1)}, 0),
              cfg_.timing.tRRDS);
}

TEST_F(DeviceTest, FourActivateWindow)
{
    // Four ACTs at the tRRDS cadence, then the fifth must respect tFAW.
    Tick when = 0;
    for (int i = 0; i < 4; ++i) {
        dev_.issue({CmdKind::Act, addr(0, 0, i % 4, i / 4, 1)}, when);
        when += cfg_.timing.tRRDS;
    }
    const Tick fifth =
        dev_.earliestIssue({CmdKind::Act, addr(0, 0, 0, 2, 1)}, 0);
    EXPECT_EQ(fifth, cfg_.timing.tFAW); // 12 ns > 4 * tRRDS
}

TEST_F(DeviceTest, FawDoesNotCrossSids)
{
    Tick when = 0;
    for (int i = 0; i < 4; ++i) {
        dev_.issue({CmdKind::Act, addr(0, 0, i, 0, 1)}, when);
        when += cfg_.timing.tRRDS;
    }
    // A different SID has its own tFAW window; only the row-bus slot and no
    // ACT-to-ACT constraint applies across SIDs in our model.
    const Tick other_sid =
        dev_.earliestIssue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 0);
    EXPECT_LT(other_sid, cfg_.timing.tFAW);
}

TEST_F(DeviceTest, CasToCasSpacing)
{
    // Open rows in three banks: same BG, different BG, different SID.
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 1, 1)}, 2_ns);
    dev_.issue({CmdKind::Act, addr(0, 0, 1, 0, 1)}, 4_ns);
    dev_.issue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 6_ns);

    const Tick t0 = 30_ns;
    dev_.issue({CmdKind::Rd, addr(0, 0, 0, 0, 1)}, t0);
    // Same bank group: tCCDL.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(0, 0, 0, 1, 1)}, 0),
              t0 + cfg_.timing.tCCDL);
    // Different bank group: tCCDS.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(0, 0, 1, 0, 1)}, 0),
              t0 + cfg_.timing.tCCDS);
    // Different SID: tCCDR.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(0, 1, 0, 0, 1)}, 0),
              t0 + cfg_.timing.tCCDR);
}

TEST_F(DeviceTest, PseudoChannelsHaveIndependentCasStreams)
{
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    dev_.issue({CmdKind::Act, addr(1, 0, 0, 0, 1)}, 2_ns);
    const Tick t0 = 30_ns;
    dev_.issue({CmdKind::Rd, addr(0, 0, 0, 0, 1)}, t0);
    // The other PC's CAS stream is unconstrained by tCCD; the C/A pins can
    // issue RD/WR to both PCs every tCCDS (§IV-D).
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, addr(1, 0, 0, 0, 1)}, t0),
              t0);
}

TEST_F(DeviceTest, ReadToPrechargeIsTrtp)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    const Tick rd_at = cfg_.timing.tRCDRD + 20_ns; // past tRAS shadow
    dev_.issue({CmdKind::Rd, a}, rd_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Pre, a}, 0),
              rd_at + cfg_.timing.tRTP);
}

TEST_F(DeviceTest, WriteRecoveryBeforePrecharge)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    const Tick wr_at = cfg_.timing.tRAS; // past the tRAS shadow
    dev_.issue({CmdKind::Wr, a}, wr_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Pre, a}, 0),
              wr_at + cfg_.timing.tWR);
}

TEST_F(DeviceTest, PrechargeAndRefreshTermsMatchTheExactProbes)
{
    // PRE's bank term: tRAS after the ACT, then write recovery (tWR).
    // With the row bus free, the exact probe lands on the term.
    const auto a = addr(0, 0, 0, 0, 1);
    const BankRecord& rec = dev_.bankRecord(a);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.preBankTerm(rec), cfg_.timing.tRAS);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Pre, a}, 0), cfg_.timing.tRAS);

    const Tick wr_at = cfg_.timing.tRAS;
    dev_.issue({CmdKind::Wr, a}, wr_at);
    EXPECT_EQ(dev_.preBankTerm(rec), wr_at + cfg_.timing.tWR);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Pre, a}, 0),
              wr_at + cfg_.timing.tWR);

    // REFpb: the precharge completion is the bank term; a refresh
    // elsewhere in the (PC, SID) sets the tRREFD shared term.
    const Tick pre_at = dev_.earliestIssue({CmdKind::Pre, a}, 0);
    dev_.issue({CmdKind::Pre, a}, pre_at);
    EXPECT_EQ(dev_.refPbBankTerm(rec), pre_at + cfg_.timing.tRP);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::RefPb, a}, pre_at),
              pre_at + cfg_.timing.tRP);

    const auto other = addr(0, 0, 1, 0);
    const Tick ref_at = dev_.earliestIssue({CmdKind::RefPb, other}, pre_at);
    dev_.issue({CmdKind::RefPb, other}, ref_at);
    EXPECT_EQ(dev_.refPbSharedTerm(a.pc, a.sid),
              ref_at + cfg_.timing.tRREFD);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::RefPb, a}, ref_at),
              std::max(pre_at + cfg_.timing.tRP,
                       ref_at + cfg_.timing.tRREFD));
}

TEST_F(DeviceTest, ReadToWriteTurnaround)
{
    const auto a = addr(0, 0, 0, 0, 1);
    const auto b = addr(0, 0, 1, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Act, b}, 2_ns);
    const Tick rd_at = 30_ns;
    dev_.issue({CmdKind::Rd, a}, rd_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Wr, b}, 0),
              rd_at + cfg_.timing.tRTW);
}

TEST_F(DeviceTest, WriteToReadTurnaround)
{
    const auto a = addr(0, 0, 0, 0, 1);
    const auto b = addr(0, 0, 1, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Act, b}, 2_ns);
    const Tick wr_at = 30_ns;
    dev_.issue({CmdKind::Wr, a}, wr_at);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Rd, b}, 0),
              wr_at + cfg_.timing.tWTRS);
}

TEST_F(DeviceTest, PrechargeToActivateIsTrp)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Pre, a}, cfg_.timing.tRAS);
    auto next = a;
    next.row = 5;
    // tRC == tRAS + tRP for the Table V values, so both bounds agree.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, next}, 0),
              cfg_.timing.tRAS + cfg_.timing.tRP);
    dev_.issue({CmdKind::Act, next}, cfg_.timing.tRAS + cfg_.timing.tRP);
    EXPECT_EQ(dev_.openRow(next), 5);
}

TEST_F(DeviceTest, PerBankRefreshBlocksBankAndSpacing)
{
    const auto a = addr(0, 0, 0, 0);
    const auto b = addr(0, 0, 0, 1);
    dev_.issue({CmdKind::RefPb, a}, 0);
    EXPECT_EQ(dev_.bankState(a, 1_ns), BankState::Refreshing);
    EXPECT_EQ(dev_.bankState(a, cfg_.timing.tRFCpb), BankState::Idle);
    // Same-(PC,SID) REFpb spacing: tRREFD.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::RefPb, b}, 0), cfg_.timing.tRREFD);
    // ACT to the refreshing bank waits for tRFCpb.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 0, 0, 3)}, 0),
              cfg_.timing.tRFCpb);
    // Another bank can activate immediately (row-bus slot only).
    EXPECT_LE(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 2, 0, 3)}, 0),
              1_ns);
}

TEST_F(DeviceTest, RefreshRequiresIdleBank)
{
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::RefPb, a}, 0), kTickMax);
}

TEST_F(DeviceTest, AllBankRefreshBlocksSid)
{
    const auto a = addr(0, 0, 0, 0);
    dev_.issue({CmdKind::RefAb, a}, 0);
    EXPECT_EQ(dev_.bankState(addr(0, 0, 3, 3), 1_ns), BankState::Refreshing);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 0, 2, 1, 1)}, 0),
              cfg_.timing.tRFCab);
    // Other SIDs are unaffected.
    EXPECT_LE(dev_.earliestIssue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 0),
              1_ns);
}

TEST_F(DeviceTest, RowBusSlotsArePerPc)
{
    // The C/A pins can feed both PCs each slot (§IV-D): an ACT to the other
    // PC may issue in the same nanosecond...
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(1, 0, 0, 0, 1)}, 0), 0);
    // ...but a second row command on the same PC (different SID, so no
    // tRRD constraint) waits for the next slot.
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(0, 1, 0, 0, 1)}, 0),
              1_ns);
}

TEST_F(DeviceTest, BankStateLifecycle)
{
    const auto a = addr(0, 0, 0, 0, 1);
    EXPECT_EQ(dev_.bankState(a, 0), BankState::Idle);
    dev_.issue({CmdKind::Act, a}, 0);
    EXPECT_EQ(dev_.bankState(a, 1_ns), BankState::Activating);
    EXPECT_EQ(dev_.bankState(a, cfg_.timing.tRCDRD), BankState::Active);
    const Tick rd_at = 30_ns;
    dev_.issue({CmdKind::Rd, a}, rd_at);
    EXPECT_EQ(dev_.bankState(a, rd_at + cfg_.timing.tCL),
              BankState::Reading);
    const Tick idle_again = rd_at + cfg_.timing.tCL + cfg_.timing.tBURST;
    EXPECT_EQ(dev_.bankState(a, idle_again), BankState::Active);
    const Tick pre_at = dev_.earliestIssue({CmdKind::Pre, a}, idle_again);
    dev_.issue({CmdKind::Pre, a}, pre_at);
    EXPECT_EQ(dev_.bankState(a, pre_at + 1_ns), BankState::Precharging);
    EXPECT_EQ(dev_.bankState(a, pre_at + cfg_.timing.tRP), BankState::Idle);
}

TEST_F(DeviceTest, CountersTrackCommandsAndData)
{
    const auto a = addr(0, 0, 0, 0, 1);
    const auto b = addr(0, 0, 1, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Act, b}, 2_ns);
    Tick when = 30_ns;
    for (int i = 0; i < 8; ++i) {
        const auto& target = (i % 2) ? b : a;
        Command rd{CmdKind::Rd, target};
        when = dev_.earliestIssue(rd, when);
        dev_.issue(rd, when);
    }
    EXPECT_EQ(dev_.counters().acts.value(), 2u);
    EXPECT_EQ(dev_.counters().reads.value(), 8u);
    EXPECT_EQ(dev_.counters().dataBytes.value(), 8u * 32u);
    EXPECT_EQ(dev_.counters().dataBusBusyTicks.value(),
              8u * static_cast<std::uint64_t>(cfg_.timing.tBURST));
    EXPECT_EQ(dev_.counters().rowCmds.value(), 2u);
    EXPECT_EQ(dev_.counters().colCmds.value(), 8u);
}

TEST_F(DeviceTest, InterleavedReadsSaturateBus)
{
    // Alternating bank groups at tCCDS saturates one PC's data bus: the
    // bus-busy time equals the span between first and last data beat.
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 0);
    dev_.issue({CmdKind::Act, addr(0, 0, 1, 0, 1)}, 2_ns);
    Tick when = 30_ns;
    const Tick first = when;
    const int n = 64;
    for (int i = 0; i < n; ++i) {
        Command rd{CmdKind::Rd, addr(0, 0, i % 2, 0, 1)};
        const Tick at = dev_.earliestIssue(rd, when);
        ASSERT_EQ(at, when) << "bubble at read " << i;
        dev_.issue(rd, at);
        when += cfg_.timing.tCCDS;
    }
    EXPECT_EQ(dev_.lastDataEnd(),
              first + (n - 1) * cfg_.timing.tCCDS + cfg_.timing.tCL +
              cfg_.timing.tBURST);
}

TEST_F(DeviceTest, TraceCallbackSeesCommands)
{
    std::vector<std::pair<Tick, CmdKind>> trace;
    dev_.setTrace([&](Tick at, const Command& c) {
        trace.emplace_back(at, c.kind);
    });
    const auto a = addr(0, 0, 0, 0, 1);
    dev_.issue({CmdKind::Act, a}, 0);
    dev_.issue({CmdKind::Rd, a}, 30_ns);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].second, CmdKind::Act);
    EXPECT_EQ(trace[1].second, CmdKind::Rd);
}

TEST_F(DeviceTest, RowBusTakesAnEarlierGapFromAnotherSid)
{
    // RoMe lowers whole row operations, so a later operation may claim a
    // row-bus slot before commands already committed (§IV-C).
    dev_.issue({CmdKind::Act, addr(0, 0, 0, 0, 1)}, 10_ns);
    const Command early{CmdKind::Act, addr(0, 1, 0, 0, 1)};
    EXPECT_EQ(dev_.earliestIssue(early, 4_ns), 4_ns);
    dev_.issue(early, 4_ns);
    // A third SID finds both slots taken and the gap between them free.
    const Command probe{CmdKind::Act, addr(0, 2, 0, 0, 1)};
    EXPECT_EQ(dev_.earliestIssue(probe, 4_ns), 5_ns);
    EXPECT_EQ(dev_.earliestIssue(probe, 9_ns), 9_ns);
    EXPECT_EQ(dev_.earliestIssue(probe, 9_ns + 1), 11_ns);
    EXPECT_EQ(dev_.earliestIssue(probe, 10_ns), 11_ns);
    EXPECT_EQ(dev_.earliestIssue({CmdKind::Act, addr(1, 2, 0, 0, 1)}, 4_ns),
              4_ns);
}

TEST_F(DeviceTest, RowBusProbeStepsOverAdjacentSlots)
{
    for (int sid = 0; sid < 3; ++sid)
        dev_.issue({CmdKind::Act, addr(0, sid, 0, 0, 1)}, (20 + sid) * 1_ns);
    // A refresh probe in the fourth SID waits on the row bus alone.
    const Command probe{CmdKind::RefPb, addr(0, 3, 0, 0)};
    EXPECT_EQ(dev_.earliestIssue(probe, 19_ns), 19_ns);
    EXPECT_EQ(dev_.earliestIssue(probe, 19_ns + 1), 23_ns);
    EXPECT_EQ(dev_.earliestIssue(probe, 20_ns), 23_ns);
    EXPECT_EQ(dev_.earliestIssue(probe, 22_ns + 1), 23_ns);
    EXPECT_EQ(dev_.earliestIssue(probe, 23_ns), 23_ns);
}

TEST_F(DeviceTest, ColumnBusHoldsCasGapsShorterThanASlot)
{
    // Under HBM4's 1 ns tCCDS the CAS chain always clears the 1 ns column
    // slot; a half-slot tCCDS is the only timing where the bus binds.
    TimingParams timing = cfg_.timing;
    timing.tCCDS = kTicksPerNs / 2;
    ChannelDevice dev(cfg_.org, timing);
    const auto a = addr(0, 0, 0, 0, 1);
    const auto b = addr(0, 0, 1, 0, 1);
    dev.issue({CmdKind::Act, a}, 0);
    dev.issue({CmdKind::Act, b}, 2_ns);
    dev.issue({CmdKind::Rd, a}, 30_ns);
    // tCCDS alone would allow the other bank group at 30.5 ns.
    EXPECT_EQ(dev.earliestIssue({CmdKind::Rd, b}, 0), 31_ns);

    // A one-RD template to bank group 1, shaped as the recorder shapes it.
    CmdTemplate tpl;
    tpl.cmds.push_back({CmdKind::Rd, 0, 0, 0, 0});
    tpl.probeIdx = {0};
    tpl.hasCas = true;
    tpl.casPerPc = 1;
    tpl.pcCount = 1;
    tpl.casCadence = timing.tCCDS;
    tpl.lastCasOffsetPerSlot[0] = 0;
    SequenceBinding bind;
    bind.row = 1;
    bind.banks[0] = {1, 0};
    bind.numBanks = 1;
    EXPECT_EQ(dev.earliestSequence(tpl, bind, 31_ns - 1), kTickMax);
    EXPECT_EQ(dev.earliestSequence(tpl, bind, 31_ns), 31_ns);
    dev.issueSequence(tpl, bind, 31_ns);
    // The template's RD holds [31, 32) ns; tCCDS alone would allow 31.5 ns.
    EXPECT_EQ(dev.earliestIssue({CmdKind::Rd, a}, 0), 32_ns);
}

std::vector<std::uint8_t>
saved(const ChannelDevice& dev)
{
    CheckpointWriter w;
    dev.saveState(w);
    return w.take();
}

TEST_F(DeviceTest, ClockReleasesOnlySlotsNoLaterProbeSees)
{
    // Both devices get the same commands; only dev_ learns the clock.
    ChannelDevice kept(cfg_.org, cfg_.timing);
    const auto issue = [&](CmdKind k, const DramAddress& a, Tick at) {
        dev_.issue({k, a}, at);
        kept.issue({k, a}, at);
    };
    issue(CmdKind::Act, addr(0, 0, 0, 0, 1), 10_ns);
    issue(CmdKind::Act, addr(0, 1, 0, 0, 1), 4_ns);
    issue(CmdKind::Act, addr(0, 2, 0, 0, 1), 12_ns);
    issue(CmdKind::Rd, addr(0, 1, 0, 0, 1), 20_ns);
    issue(CmdKind::Rd, addr(0, 1, 0, 0, 1), 22_ns);
    issue(CmdKind::Rd, addr(0, 0, 0, 0, 1), 26_ns);
    issue(CmdKind::Rd, addr(0, 2, 0, 0, 1), 39_ns);
    issue(CmdKind::Rd, addr(0, 2, 0, 0, 1), 45_ns);
    issue(CmdKind::Act, addr(0, 3, 0, 0, 1), 39_ns + 1);

    const Tick clock = 40_ns;
    dev_.setClock(clock);
    // The row bus releases on its next reservation: the slots at 4, 10
    // and 12 ns go, and the one that straddles the clock stays. The column
    // bus keeps one tick on both devices.
    issue(CmdKind::Act, addr(0, 0, 1, 0, 2), 41_ns);
    issue(CmdKind::Rd, addr(0, 2, 0, 0, 1), 47_ns);
    const std::vector<std::uint8_t> blob = saved(dev_);
    EXPECT_EQ(saved(kept).size() - blob.size(), 3 * sizeof(std::int64_t));

    ChannelDevice restored(cfg_.org, cfg_.timing);
    CheckpointReader r(blob);
    restored.loadState(r);
    r.finish();
    EXPECT_EQ(saved(restored), blob);

    const Command probes[] = {
        {CmdKind::Act, addr(0, 3, 1, 0, 1)},
        {CmdKind::RefPb, addr(0, 2, 3, 3)},
        {CmdKind::Rd, addr(0, 0, 1, 0, 2)},
        {CmdKind::Wr, addr(0, 2, 0, 0, 1)},
        {CmdKind::Pre, addr(0, 1, 0, 0)},
    };
    for (const Command& c : probes) {
        for (Tick t = clock; t < 60_ns; ++t) {
            const Tick want = kept.earliestIssue(c, t);
            ASSERT_EQ(dev_.earliestIssue(c, t), want) << c.str() << " " << t;
            ASSERT_EQ(restored.earliestIssue(c, t), want)
                << c.str() << " " << t;
        }
    }
}

TEST(HbmGenerations, TrendsMatchFigure2)
{
    const auto& gens = hbmGenerations();
    ASSERT_EQ(gens.size(), 6u);
    EXPECT_EQ(gens.front().name, "HBM1");
    EXPECT_EQ(gens.back().name, "HBM4");

    // Channel width halves HBM2E→HBM3, channel count doubles; HBM4 doubles
    // channels again without altering width (§II-B).
    EXPECT_EQ(gens[2].channelWidthBits, 128);
    EXPECT_EQ(gens[3].channelWidthBits, 64);
    EXPECT_EQ(gens[5].channelWidthBits, 64);
    EXPECT_EQ(gens[5].channelsPerCube, 2 * gens[4].channelsPerCube);

    // C/A-to-DQ pin ratio roughly doubles HBM1 → HBM3 and keeps rising.
    EXPECT_NEAR(gens[3].caPerDqRatio() / gens[0].caPerDqRatio(), 2.0, 0.1);
    EXPECT_GT(gens[5].caPerDqRatio(), gens[3].caPerDqRatio());

    // Data bandwidth grows monotonically; HBM4 reaches 2 TB/s.
    for (std::size_t i = 1; i < gens.size(); ++i)
        EXPECT_GT(gens[i].dataBandwidthGBs(), gens[i - 1].dataBandwidthGBs());
    EXPECT_DOUBLE_EQ(gens[5].dataBandwidthGBs(), 2048.0);

    // C/A bandwidth demand rises across generations (Fig 2(b)).
    EXPECT_GT(gens[5].caBandwidthGBs(), 4 * gens[0].caBandwidthGBs());
}

TEST(DeviceDeathTest, IssueTooEarlyPanics)
{
    const DramConfig cfg = hbm4Config();
    ChannelDevice dev(cfg.org, cfg.timing);
    DramAddress a{0, 0, 0, 0, 1, 0};
    dev.issue({CmdKind::Act, a}, 0);
    EXPECT_THROW(dev.issue({CmdKind::Act, a}, 0), std::logic_error);
}

#ifndef NDEBUG
TEST(DeviceDeathTest, ProbeBeforeTheClockPanics)
{
    // The row-bus calendars may have released any slot that ended by the
    // clock, so an earlier probe could be answered wrongly.
    const DramConfig cfg = hbm4Config();
    ChannelDevice dev(cfg.org, cfg.timing);
    dev.setClock(100_ns);
    const Command act{CmdKind::Act, DramAddress{0, 0, 0, 0, 1, 0}};
    EXPECT_EQ(dev.earliestIssue(act, 100_ns), 100_ns);
    EXPECT_THROW(dev.earliestIssue(act, 100_ns - 1), std::logic_error);
    CmdTemplate tpl;
    tpl.cmds.push_back({CmdKind::Act, 0, 0, 0, 0});
    tpl.probeIdx = {0};
    SequenceBinding b;
    b.row = 1;
    b.numBanks = 1;
    EXPECT_EQ(dev.earliestSequence(tpl, b, 100_ns), 100_ns);
    EXPECT_THROW(dev.earliestSequence(tpl, b, 100_ns - 1), std::logic_error);
}
#endif

} // namespace
} // namespace rome
