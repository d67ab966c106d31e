/**
 * @file
 * Engine tests: the polymorphic controller interface reproduces the exact
 * stats of direct controller invocation for both MC stacks, multi-channel
 * aggregation is a faithful sum, the threaded sweep is bit-identical
 * to the single-threaded one, and the outstanding-op CAM agrees with a
 * multiset reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/checkpoint.h"
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

/**
 * Release every @p ref entry at or before @p now alongside @p ops, then
 * check the two hold the same live entries: size and first release after
 * a few probe ticks.
 */
void
releaseAndCompare(OutstandingOps& ops, std::multiset<Tick>& ref, Tick now)
{
    ops.release(now);
    ref.erase(ref.begin(), ref.upper_bound(now));
    ASSERT_EQ(ops.size(), ref.size()) << "at " << now;
    for (const Tick probe : {now, now + 1, now + 7, now + 40}) {
        const auto it = ref.upper_bound(probe);
        ASSERT_EQ(ops.firstFreeAfter(probe),
                  it == ref.end() ? kTickMax : *it)
            << "probe " << probe << " at " << now;
    }
}

TEST(Engine, OutstandingOpsSortedBufferSemantics)
{
    OutstandingOps ops;
    EXPECT_EQ(ops.size(), 0u);
    EXPECT_EQ(ops.firstFreeAfter(0), kTickMax);

    // Out-of-order pushes: the earliest entry always surfaces first.
    ops.push(500);
    ops.push(100);
    ops.push(300);
    ops.push(100);
    EXPECT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops.firstFreeAfter(0), 100);
    EXPECT_EQ(ops.firstFreeAfter(100), 300);
    EXPECT_EQ(ops.firstFreeAfter(499), 500);
    EXPECT_EQ(ops.firstFreeAfter(500), kTickMax);

    // release() drops everything at or before now, nothing else.
    ops.release(100);
    EXPECT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops.firstFreeAfter(0), 300);
    ops.release(299);
    EXPECT_EQ(ops.size(), 2u);
    ops.release(500);
    EXPECT_EQ(ops.size(), 0u);
    EXPECT_EQ(ops.firstFreeAfter(0), kTickMax);
}

TEST(Engine, OutstandingOpsInOrderRunCrossesPrefixReclaim)
{
    // The conventional CAMs push each direction's data ends in issue
    // order. A long run whose live count rises and falls erases the
    // released prefix many times; a multiset is the reference.
    OutstandingOps ops;
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

TEST(Engine, OutstandingOpsOutOfOrderPushesLandBehindNewest)
{
    // RoMe's FSM windows can end before ones pushed earlier: each push
    // lands up to 60 ticks behind the newest entry.
    OutstandingOps ops;
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

TEST(Engine, OutstandingOpsCheckpointKeepsReleaseOrder)
{
    OutstandingOps ops;
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

    OutstandingOps twin;
    CheckpointReader r(blob);
    twin.loadState(r);
    r.finish();
    CheckpointWriter again;
    twin.saveState(again);
    EXPECT_EQ(again.take(), blob) << "a restored CAM re-saves identically";

    // Both continue alike, out-of-order pushes included.
    for (OutstandingOps* o : {&ops, &twin}) {
        o->push(500);
        o->push(1000);
    }
    for (const Tick now : {450, 550, 650, 950, 1000}) {
        ops.release(now);
        twin.release(now);
        EXPECT_EQ(twin.size(), ops.size()) << now;
        EXPECT_EQ(twin.firstFreeAfter(now), ops.firstFreeAfter(now)) << now;
    }
    EXPECT_EQ(ops.size(), 0u);
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
