/**
 * @file
 * Engine tests: the polymorphic controller interface reproduces the exact
 * stats of direct controller invocation for both MC stacks, multi-channel
 * aggregation is a faithful sum, the threaded sweep is bit-identical
 * to the single-threaded one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/memsim.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

std::vector<Request>
mixedWorkload(std::uint64_t seed)
{
    RandomPattern p;
    p.seed = seed;
    p.requestBytes = 2_KiB;
    p.totalBytes = 512_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.25;
    return randomRequests(p);
}

TEST(EngineParity, ConventionalMatchesDirectDrive)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(11);

    // Direct, pre-refactor-style drive loop on the concrete class.
    ConventionalMc direct(dram, bestBaselineMapping(dram.org), McConfig{});
    for (const auto& r : reqs)
        direct.enqueue(r);
    direct.drain();

    // The same controller configuration through the engine interface.
    ChannelSimEngine engine;
    const int ch = engine.addChannel(std::make_unique<ConventionalMc>(
        dram, bestBaselineMapping(dram.org), McConfig{}));
    engine.enqueue(ch, reqs);
    engine.drainAll();

    EXPECT_TRUE(direct.stats() == engine.channel(ch).stats());
    EXPECT_EQ(direct.completions().size(),
              engine.channel(ch).completions().size());
    EXPECT_EQ(direct.bytesRead(),
              engine.channel(ch).stats().bytesRead);
    EXPECT_DOUBLE_EQ(direct.achievedBandwidth(),
                     engine.channel(ch).stats().achievedBandwidth);
    EXPECT_DOUBLE_EQ(direct.rowHitRate(),
                     engine.channel(ch).stats().rowHitRate);
    EXPECT_EQ(direct.device().counters().acts.value(),
              engine.channel(ch).stats().acts);
}

TEST(EngineParity, RomeMatchesDirectDrive)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(13);

    RomeMc direct(dram, VbaDesign::adopted(), RomeMcConfig{});
    for (const auto& r : reqs)
        direct.enqueue(r);
    direct.drain();

    ChannelSimEngine engine;
    const int ch = engine.addChannel(std::make_unique<RomeMc>(
        dram, VbaDesign::adopted(), RomeMcConfig{}));
    engine.enqueue(ch, reqs);
    engine.drainAll();

    const ControllerStats s = engine.channel(ch).stats();
    EXPECT_TRUE(direct.stats() == s);
    EXPECT_EQ(direct.overfetchBytes(), s.overfetchBytes);
    EXPECT_EQ(direct.generator().rowCommandsAccepted(),
              s.interfaceCommands);
    EXPECT_DOUBLE_EQ(direct.effectiveBandwidth(), s.effectiveBandwidth);
}

TEST(EngineParity, FactoryControllersMatchConcreteConstruction)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(17);
    for (const MemorySystem sys :
         {MemorySystem::Hbm4, MemorySystem::RoMe}) {
        auto a = makeChannelController(sys, dram);
        auto b = makeChannelController(sys, dram);
        EXPECT_TRUE(runWorkload(*a, reqs) == runWorkload(*b, reqs));
    }
}

TEST(EngineParity, HybridRunsThroughInterface)
{
    const DramConfig dram = hbm4Config();
    SparseMixPattern p;
    p.fineFraction = 0.3;
    p.totalBytes = 1_MiB;
    p.coarseBytes = 6_KiB; // not a row multiple -> coarse side overfetches
    const auto reqs = sparseMixRequests(p);

    HybridMc direct(dram, HybridConfig{});
    for (const auto& r : reqs)
        direct.enqueue(r);
    direct.drain();

    ChannelSimEngine engine;
    const int ch = engine.addChannel(
        std::make_unique<HybridMc>(dram, HybridConfig{}));
    engine.enqueue(ch, reqs);
    engine.drainAll();

    const ControllerStats s = engine.channel(ch).stats();
    EXPECT_TRUE(direct.stats() == s);
    EXPECT_EQ(s.completedRequests, reqs.size());
    EXPECT_EQ(engine.channel(ch).completions().size(), reqs.size());
    EXPECT_GT(s.overfetchBytes, 0u); // coarse partition overfetches
    EXPECT_GT(s.colCmds, 0u);        // fine partition issued CAS commands
}

TEST(Engine, MultiChannelTotalsAreFaithfulSums)
{
    const DramConfig dram = hbm4Config();
    ChannelSimEngine engine(4);
    const int n = 4;
    for (int i = 0; i < n; ++i) {
        engine.addChannel(makeChannelController(
            i % 2 == 0 ? MemorySystem::Hbm4 : MemorySystem::RoMe, dram));
        engine.enqueue(i, mixedWorkload(100 + static_cast<std::uint64_t>(i)));
    }
    EXPECT_FALSE(engine.idle());
    const Tick end = engine.drainAll();
    EXPECT_TRUE(engine.idle());

    ControllerStats expect;
    Tick max_end = 0;
    for (int i = 0; i < n; ++i) {
        const ControllerStats s = engine.channel(i).stats();
        expect.bytesRead += s.bytesRead;
        expect.bytesWritten += s.bytesWritten;
        expect.acts += s.acts;
        expect.completedRequests += s.completedRequests;
        max_end = std::max(max_end, s.finishedAt);
    }
    const ControllerStats total = engine.totals();
    EXPECT_EQ(total.bytesRead, expect.bytesRead);
    EXPECT_EQ(total.bytesWritten, expect.bytesWritten);
    EXPECT_EQ(total.acts, expect.acts);
    EXPECT_EQ(total.completedRequests, expect.completedRequests);
    EXPECT_EQ(total.finishedAt, max_end);
    EXPECT_EQ(end, max_end);
}

TEST(Engine, RunAllUntilAdvancesEveryChannel)
{
    const DramConfig dram = hbm4Config();
    ChannelSimEngine engine(2);
    for (int i = 0; i < 2; ++i) {
        engine.addChannel(makeChannelController(MemorySystem::Hbm4, dram));
        engine.enqueue(i, mixedWorkload(7 + static_cast<std::uint64_t>(i)));
    }
    engine.runAllUntil(50_us);
    for (int i = 0; i < 2; ++i) {
        // Decisions land only on event ticks: the clock advances through
        // the window but never past it (and never between events).
        EXPECT_GT(engine.channel(i).now(), 0);
        EXPECT_LE(engine.channel(i).now(), 50_us);
    }
}

/** An 8-channel design-space sweep must not depend on the thread count. */
TEST(EngineDeterminism, ThreadedSweepEqualsSingleThreaded)
{
    const DramConfig dram = hbm4Config();
    const auto build_jobs = [&] {
        std::vector<SweepJob> jobs;
        for (int i = 0; i < 8; ++i) {
            const MemorySystem sys = i % 2 == 0 ? MemorySystem::Hbm4
                                                : MemorySystem::RoMe;
            jobs.push_back(SweepJob{
                "ch" + std::to_string(i),
                [sys, dram] { return makeChannelController(sys, dram); },
                mixedWorkload(1 + static_cast<std::uint64_t>(i))});
        }
        return jobs;
    };

    const auto serial = runSweep(build_jobs(), 1);
    const auto threaded = runSweep(build_jobs(), 8);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, threaded[i].label);
        EXPECT_TRUE(serial[i].stats == threaded[i].stats)
            << "channel " << i << " diverged under threading";
        EXPECT_GT(serial[i].stats.completedRequests, 0u);
    }
}

TEST(EngineDeterminism, RepeatedThreadedSweepsAgree)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = shareRequests(mixedWorkload(23));
    const auto make_jobs = [&] {
        std::vector<SweepJob> jobs;
        for (int i = 0; i < 4; ++i) {
            // Appended, not "j" + to_string(i): GCC 12 flags that
            // operator+ with a false -Wrestrict positive.
            std::string label = "j";
            label += std::to_string(i);
            jobs.push_back(SweepJob{
                std::move(label),
                [dram] {
                    return makeChannelController(MemorySystem::RoMe, dram);
                },
                reqs});
        }
        return jobs;
    };
    const auto a = runSweep(make_jobs(), 8);
    const auto b = runSweep(make_jobs(), 3);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].stats == b[i].stats);
    // Same workload on the same design point: stats identical across jobs.
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_TRUE(a[0].stats == a[i].stats);
}

TEST(Engine, ParallelForCoversEveryIndexOnce)
{
    std::vector<int> hits(257, 0);
    parallelFor(257, 8, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Engine, StepCounterAdvancesWithWork)
{
    const DramConfig dram = hbm4Config();
    auto mc = makeChannelController(MemorySystem::Hbm4, dram);
    auto* base = dynamic_cast<ChannelControllerBase*>(mc.get());
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base->stepsExecuted(), 0u);
    mc->enqueue({1, ReqKind::Read, 0, 4096, 0});
    mc->drain();
    EXPECT_GT(base->stepsExecuted(), 0u);
}

} // namespace
} // namespace rome
