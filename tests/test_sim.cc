/**
 * @file
 * System-simulation tests: channel-load/LBR model, channel calibration on
 * both memory systems, TPOT evaluation sanity (absolute scale, RoMe gain,
 * prefill insensitivity), overfetch accounting, and the energy/area models
 * against the §VI-C constants.
 */

#include <gtest/gtest.h>

#include "area/area_model.h"
#include "energy/energy_model.h"
#include "llm/kv_cache.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/memsim.h"
#include "sim/tpot.h"
#include "sim/traffic.h"

namespace rome
{
namespace
{

TEST(ChannelLoadModel, LargeExtentsBalancePerfectly)
{
    ChannelLoadModel m(256, 4096);
    m.addExtent(256ull * 4096 * 100); // exactly 100 chunks per channel
    EXPECT_DOUBLE_EQ(m.lbr(), 1.0);
}

TEST(ChannelLoadModel, SmallExtentsImbalance)
{
    // One chunk on one channel only.
    ChannelLoadModel m(256, 4096);
    m.addExtent(4096);
    EXPECT_NEAR(m.lbr(), 1.0 / 256.0, 1e-9);
}

TEST(ChannelLoadModel, TailsRotateAcrossChannels)
{
    // Many equal small extents rotate their start channel, so loads level
    // out.
    ChannelLoadModel m(16, 4096);
    for (int i = 0; i < 160; ++i)
        m.addExtent(4096 * 3);
    EXPECT_GT(m.lbr(), 0.9);
}

TEST(ChannelLoadModel, FinerGranularityBalancesBetter)
{
    ChannelLoadModel coarse(256, 4096);
    ChannelLoadModel fine(256, 256);
    const std::uint64_t tensor = 9ull * 1024 * 1024 + 1234;
    coarse.addExtent(tensor);
    fine.addExtent(tensor);
    EXPECT_GE(fine.lbr(), coarse.lbr());
    EXPECT_GT(fine.lbr(), 0.99);
}

TEST(CategoryLbr, BaselineNearOneRomeBelow)
{
    const LlmConfig model = grok1();
    const auto ops = buildOpGraph(model, Workload{Stage::Decode, 64, 8192,
                                                  1},
                                  paperParallelism(model, Stage::Decode));
    const double base = categoryLbr(ops, OpCategory::Attention, 256, 256);
    const double rm = categoryLbr(ops, OpCategory::Attention, 288, 4096);
    EXPECT_GT(base, 0.99);
    EXPECT_LE(rm, base + 1e-12);
    EXPECT_GT(rm, 0.7);
}

TEST(Calibration, BaselineStreamsRunNearPeak)
{
    ChannelWorkloadProfile p = profileFor(llama3_405b());
    p.totalBytes = 4 * 1024 * 1024;
    const auto c = calibrateChannel(MemorySystem::Hbm4, p);
    EXPECT_GT(c.utilization, 0.80);
    EXPECT_LE(c.utilization, 1.0);
    // Streaming needs ~1 ACT per 1 KiB row.
    EXPECT_GT(c.actsPerKib, 0.9);
    EXPECT_LT(c.actsPerKib, 1.6);
    // 32 column commands per KiB.
    EXPECT_NEAR(c.casPerKib, 32.0, 1.0);
}

TEST(Calibration, RomeUsesMinimalActivationsAndCommands)
{
    ChannelWorkloadProfile p = profileFor(llama3_405b());
    p.totalBytes = 4 * 1024 * 1024;
    const auto c = calibrateChannel(MemorySystem::RoMe, p);
    EXPECT_GT(c.utilization, 0.85);
    // One ACT per bank-row KiB is the minimum.
    EXPECT_NEAR(c.actsPerKib, 1.0, 0.1);
    // One row command per 4 KiB crosses the interface (plus refreshes).
    EXPECT_LT(c.interfaceCmdsPerKib, 0.5);
}

TEST(Calibration, BaselineActsInflateWithFragmentedStreams)
{
    ChannelWorkloadProfile frag = profileFor(deepseekV3());
    ChannelWorkloadProfile smooth = profileFor(llama3_405b());
    frag.totalBytes = 4 * 1024 * 1024;
    smooth.totalBytes = 4 * 1024 * 1024;
    const auto c_frag = calibrateChannel(MemorySystem::Hbm4, frag);
    const auto c_smooth = calibrateChannel(MemorySystem::Hbm4, smooth);
    // DeepSeek-style interleaved small pieces cost extra row activations
    // (the Fig 14 ACT-energy mechanism); RoMe stays minimal for both.
    EXPECT_GT(c_frag.actsPerKib, 1.3 * c_smooth.actsPerKib);
    const auto r_frag = calibrateChannel(MemorySystem::RoMe, frag);
    EXPECT_NEAR(r_frag.actsPerKib, 1.0, 0.15);
}

TEST(Tpot, LlamaDecodeMatchesPaperScale)
{
    // Fig 12 annotates Llama 3 batch 8 at ~6.7 ms on HBM4.
    const LlmConfig model = llama3_405b();
    const auto par = paperParallelism(model, Stage::Decode);
    ChannelWorkloadProfile p = profileFor(model);
    p.totalBytes = 2 * 1024 * 1024;
    const auto calib = calibrateChannel(MemorySystem::Hbm4, p);
    const auto sys = SystemEvalConfig::forSystem(MemorySystem::Hbm4, calib);
    const auto r = evaluateStep(model, Workload{Stage::Decode, 8, 8192, 1},
                                par, sys);
    EXPECT_GT(r.totalMs, 5.0);
    EXPECT_LT(r.totalMs, 9.0);
    EXPECT_GT(r.memBoundFraction, 0.9); // decode is memory-bound
}

TEST(Tpot, RomeImprovesDecodeByRoughlyTenPercent)
{
    for (const auto& model : evaluatedModels()) {
        const auto par = paperParallelism(model, Stage::Decode);
        ChannelWorkloadProfile p = profileFor(model);
        p.totalBytes = 2 * 1024 * 1024;
        const auto cb = calibrateChannel(MemorySystem::Hbm4, p);
        const auto cr = calibrateChannel(MemorySystem::RoMe, p);
        const Workload wl{Stage::Decode, 64, 8192, 1};
        const auto base = evaluateStep(
            model, wl, par, SystemEvalConfig::forSystem(MemorySystem::Hbm4,
                                                        cb));
        const auto rm = evaluateStep(
            model, wl, par, SystemEvalConfig::forSystem(MemorySystem::RoMe,
                                                        cr));
        const double gain = 1.0 - rm.totalMs / base.totalMs;
        EXPECT_GT(gain, 0.04) << model.name; // RoMe wins
        EXPECT_LT(gain, 0.15) << model.name; // bounded by +12.5 % BW
    }
}

TEST(Tpot, PrefillIsInsensitiveToTheMemorySystem)
{
    // A model sanity bound: compute-bound prefill differs by < 2 % between
    // the systems. The paper's < 0.1 % (§VI-B) is the gap row
    // prefill_diff.grok1 of bench/paper_claims.cc.
    const LlmConfig model = grok1();
    const auto par = paperParallelism(model, Stage::Prefill);
    ChannelWorkloadProfile p = profileFor(model);
    p.totalBytes = 2 * 1024 * 1024;
    const auto cb = calibrateChannel(MemorySystem::Hbm4, p);
    const auto cr = calibrateChannel(MemorySystem::RoMe, p);
    const Workload wl{Stage::Prefill, 1, 8192, 1};
    const auto base = evaluateStep(
        model, wl, par, SystemEvalConfig::forSystem(MemorySystem::Hbm4,
                                                    cb));
    const auto rm = evaluateStep(
        model, wl, par, SystemEvalConfig::forSystem(MemorySystem::RoMe,
                                                    cr));
    EXPECT_LT(std::abs(1.0 - rm.totalMs / base.totalMs), 0.02);
    EXPECT_LT(base.memBoundFraction, 0.3); // compute-bound
}

TEST(Tpot, OverfetchFactorRoundsExtentsToRows)
{
    LlmOp op;
    op.weightBytes = 6144;
    op.readExtents = {6144}; // 1.5 rows -> 2 rows
    EXPECT_NEAR(overfetchFactor(op, 4096), 8192.0 / 6144.0, 1e-9);
    LlmOp aligned;
    aligned.weightBytes = 8192;
    aligned.readExtents = {8192};
    EXPECT_DOUBLE_EQ(overfetchFactor(aligned, 4096), 1.0);
}

TEST(Energy, RomeSavesOnActsAndInterfaceCommands)
{
    ChannelWorkloadProfile p = profileFor(deepseekV3());
    p.totalBytes = 4 * 1024 * 1024;
    const auto cb = calibrateChannel(MemorySystem::Hbm4, p);
    const auto cr = calibrateChannel(MemorySystem::RoMe, p);
    const EnergyParams params;
    const std::uint64_t bytes = 1ull << 30;
    const auto eb = computeEnergy(params, MemorySystem::Hbm4, cb, bytes);
    const auto er = computeEnergy(params, MemorySystem::RoMe, cr, bytes);
    EXPECT_LT(er.actJ, eb.actJ);   // fewer activations
    EXPECT_LT(er.caJ, eb.caJ);     // one row command instead of dozens
    EXPECT_LT(er.totalJ(), eb.totalJ());
    // The paper's savings are small single-digit percentages.
    EXPECT_GT(er.totalJ(), 0.9 * eb.totalJ());
    // A model sanity bound: the command generator takes < 0.5 % of RoMe's
    // energy. The paper's ~0.06 % (§VI-C) is the gap row
    // cmdgen_energy.deepseek of bench/paper_claims.cc.
    EXPECT_LT(er.cmdgenJ / er.totalJ(), 0.005);
}

TEST(Area, SchedulerRatioMatchesSectionVIC)
{
    const DramConfig dram = hbm4Config();
    ConventionalMc conv(dram, bestBaselineMapping(dram.org), McConfig{});
    RomeMc rm(dram, VbaDesign::adopted(), RomeMcConfig{});
    const McAreaModel area;
    const double ratio = area.schedulerAreaUm2(rm.complexity()) /
                         area.schedulerAreaUm2(conv.complexity());
    EXPECT_NEAR(ratio, 0.091, 0.01);
}

TEST(Area, CommandGeneratorAndChannelExpansion)
{
    const HbmAreaModel m;
    // §VI-C: 4268.8 µm² ~= 0.003 % of the logic die.
    EXPECT_NEAR(m.cmdgenLogicDieFraction(), 3.5e-5, 1e-5);
    // 48 extra µbumps ~= 0.14 mm².
    EXPECT_NEAR(m.addedUbumpAreaMm2(), 0.14, 0.01);
    // DRAM die grows ~12 % for the ninth channel.
    EXPECT_NEAR(m.dramDieGrowthFraction(), 0.12, 0.01);
    // Total overhead ~0.10 %.
    EXPECT_NEAR(m.totalOverheadFraction(), 0.001, 0.0004);
}

TEST(AccelConfig, MatchesSectionVIA)
{
    const AcceleratorConfig a;
    const Organization base = memOrganization(MemorySystem::Hbm4);
    const Organization rm = memOrganization(MemorySystem::RoMe);
    EXPECT_DOUBLE_EQ(a.memBandwidthBytesPerNs(base), 16384.0); // 16 TB/s
    EXPECT_DOUBLE_EQ(a.memBandwidthBytesPerNs(rm), 18432.0);   // 18 TB/s
    EXPECT_NEAR(a.arithmeticIntensity(base), 280.0, 10.0);
    EXPECT_EQ(a.memCapacityBytes(base), 256ull << 30);
}

} // namespace
} // namespace rome
