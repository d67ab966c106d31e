/**
 * @file
 * Checkpoint round-trip property tests: saving a controller mid-run and
 * restoring it into a freshly constructed twin must continue to a
 * bit-identical end state — full ControllerStats equality (histogram
 * included) against an uninterrupted single-window oracle.
 *
 * The property is exercised at several mid-run points on both stacks and
 * the hybrid router, with faults on and off, in both drive modes
 * (pre-enqueued requests and streaming bindSource). The streaming
 * variants restore the source cursor through resumeSource on a
 * fresh source instance — the mechanism ServingDriver::resume relies on —
 * and the serving test closes the loop: snapshot a mid-flight cube sweep
 * point, resume it, and compare against the straight run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

/** Spread arrivals so admission pumps fire mid-run, not only at t=0. */
std::vector<Request>
spaced(std::vector<Request> reqs, std::int64_t gap_ns)
{
    Tick t = 0;
    for (auto& r : reqs) {
        r.arrival = t;
        t += ticksFromNs(gap_ns);
    }
    return reqs;
}

std::vector<Request>
mixedWorkload(std::uint64_t seed, double write_fraction)
{
    RandomPattern p;
    p.seed = seed;
    p.requestBytes = 2_KiB;
    p.totalBytes = 256_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = write_fraction;
    return spaced(randomRequests(p), 40);
}

std::vector<Request>
hybridWorkload()
{
    SparseMixPattern p;
    p.fineFraction = 0.3;
    p.totalBytes = 512_KiB;
    p.coarseBytes = 6_KiB;
    return spaced(sparseMixRequests(p), 40);
}

template <typename Mc>
void
enqueueAll(Mc& mc, const std::vector<Request>& reqs)
{
    for (const auto& r : reqs)
        mc.enqueue(r);
}

/**
 * Round-trip property, pre-enqueued drive: run to a mid point, save,
 * restore into a fresh twin, run both to the horizon — the twin, the
 * original, and the uninterrupted oracle must agree on every stat.
 */
template <typename MakeMc>
void
expectCheckpointRoundTrip(MakeMc make, const std::vector<Request>& reqs,
                          const std::string& label)
{
    Tick end = 0;
    {
        auto probe = make();
        enqueueAll(*probe, reqs);
        probe->drain();
        end = probe->now();
    }

    auto oracle = make();
    enqueueAll(*oracle, reqs);
    oracle->runUntil(end);
    ASSERT_TRUE(oracle->idle()) << label;
    const ControllerStats want = oracle->stats();
    EXPECT_EQ(want.completedRequests, reqs.size()) << label;

    for (const Tick mid : {end / 3, (7 * end) / 10}) {
        auto a = make();
        enqueueAll(*a, reqs);
        a->runUntil(mid);
        const auto blob = saveControllerCheckpoint(*a);

        auto b = make();
        restoreControllerCheckpoint(*b, blob);
        EXPECT_EQ(b->now(), a->now()) << label;
        b->runUntil(end);
        EXPECT_TRUE(want == b->stats())
            << label << ": restored twin diverged (mid=" << mid << ")";

        // The original, saved from non-destructively, continues too.
        a->runUntil(end);
        EXPECT_TRUE(want == a->stats())
            << label << ": original diverged after save (mid=" << mid
            << ")";
    }
}

/**
 * Round-trip property, streaming drive: the controller pulls from a
 * bound source; restore hands a fresh source instance to resumeSource,
 * which fast-forwards past the checkpointed pull count.
 */
template <typename MakeMc>
void
expectStreamingCheckpointRoundTrip(MakeMc make,
                                   const std::vector<Request>& reqs,
                                   const std::string& label)
{
    Tick end = 0;
    {
        auto probe = make();
        ReplaySource src(reqs);
        probe->bindSource(&src);
        probe->drain();
        end = probe->now();
    }

    auto oracle = make();
    ReplaySource oracle_src(reqs);
    oracle->bindSource(&oracle_src);
    oracle->runUntil(end);
    ASSERT_TRUE(oracle->idle()) << label;
    const ControllerStats want = oracle->stats();
    EXPECT_EQ(want.completedRequests, reqs.size()) << label;

    for (const Tick mid : {end / 3, (7 * end) / 10}) {
        auto a = make();
        ReplaySource a_src(reqs);
        a->bindSource(&a_src);
        a->runUntil(mid);
        const auto blob = saveControllerCheckpoint(*a);

        auto b = make();
        restoreControllerCheckpoint(*b, blob);
        ReplaySource b_src(reqs);
        b->resumeSource(&b_src);
        b->runUntil(end);
        EXPECT_TRUE(want == b->stats())
            << label << ": streaming restore diverged (mid=" << mid << ")";
    }
}

McConfig
faultyMcConfig()
{
    McConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.transientLineRate = 2e-4;
    cfg.faults.stuckRowFraction = 0.01;
    cfg.faults.weakRowFraction = 0.02;
    return cfg;
}

RomeMcConfig
faultyRomeConfig()
{
    RomeMcConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.transientLineRate = 2e-5;
    cfg.faults.stuckRowFraction = 0.01;
    cfg.faults.weakRowFraction = 0.02;
    return cfg;
}

TEST(Checkpoint, ConventionalRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(301, 0.3);
    struct Case
    {
        const char* label;
        McConfig cfg;
    };
    for (const Case& c : {Case{"hbm4", McConfig{}},
                          Case{"hbm4 faults", faultyMcConfig()}}) {
        const auto make = [&] {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), c.cfg);
        };
        expectCheckpointRoundTrip(make, reqs, c.label);
        expectStreamingCheckpointRoundTrip(make, reqs,
                                           std::string(c.label) +
                                               " streaming");
    }
}

TEST(Checkpoint, RomeRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(311, 0.3);
    struct Case
    {
        const char* label;
        RomeMcConfig cfg;
    };
    for (const Case& c : {Case{"rome", RomeMcConfig{}},
                          Case{"rome faults", faultyRomeConfig()}}) {
        const auto make = [&] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                            c.cfg);
        };
        expectCheckpointRoundTrip(make, reqs, c.label);
        expectStreamingCheckpointRoundTrip(make, reqs,
                                           std::string(c.label) +
                                               " streaming");
    }
}

TEST(Checkpoint, RomeNonAdoptedDesignRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(313, 0.25);
    // A non-adopted VBA design exercises different geometry (slot
    // counts, VBA tables) through the size-checked restore path.
    const VbaDesign design = VbaDesign::all().front();
    const auto make = [&] {
        return std::make_unique<RomeMc>(dram, design, RomeMcConfig{});
    };
    expectCheckpointRoundTrip(make, reqs, "rome non-adopted");
}

TEST(Checkpoint, HybridRoundTrip)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = hybridWorkload();
    HybridConfig faulty;
    faulty.faults.enabled = true;
    faulty.faults.transientLineRate = 2e-5;
    faulty.faults.stuckRowFraction = 0.01;
    struct Case
    {
        const char* label;
        HybridConfig cfg;
    };
    for (const Case& c :
         {Case{"hybrid", HybridConfig{}}, Case{"hybrid faults", faulty}}) {
        const auto make = [&] {
            return std::make_unique<HybridMc>(dram, c.cfg);
        };
        expectCheckpointRoundTrip(make, reqs, c.label);
        // Streaming restore re-attaches both partition feeds and
        // fast-forwards the shared stream — the router-specific path.
        expectStreamingCheckpointRoundTrip(make, reqs,
                                           std::string(c.label) +
                                               " streaming");
    }
}

TEST(Checkpoint, MismatchedRestoreIsFatal)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(331, 0.2);

    ConventionalMc src_mc(dram, bestBaselineMapping(dram.org), McConfig{});
    enqueueAll(src_mc, reqs);
    src_mc.runUntil(ticksFromNs(static_cast<std::int64_t>(2000)));
    const auto blob = saveControllerCheckpoint(src_mc);

    // Wrong controller type: the envelope name check rejects it.
    RomeMc wrong(dram, VbaDesign::adopted(), RomeMcConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(wrong, blob),
                 std::runtime_error);

    // Not a checkpoint blob at all.
    ConventionalMc fresh(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(
        restoreControllerCheckpoint(fresh, {0x01, 0x02, 0x03, 0x04}),
        std::runtime_error);

    // Truncated blob: the bounds-checked reader refuses to run past it.
    auto cut = blob;
    cut.resize(cut.size() / 2);
    ConventionalMc fresh2(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(fresh2, cut),
                 std::runtime_error);

    // An older format version: the envelope's version check rejects it
    // (v2 streams still carried fields v3 dropped). The little-endian
    // version field follows the 4-byte magic.
    ASSERT_EQ(blob[4], static_cast<std::uint8_t>(kCheckpointVersion));
    auto old = blob;
    const std::uint32_t v2 = 2;
    for (std::size_t i = 0; i < 4; ++i)
        old[4 + i] = static_cast<std::uint8_t>(v2 >> (8 * i));
    ConventionalMc fresh3(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(fresh3, old),
                 std::runtime_error);
    ConventionalMc fresh4(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_NO_THROW(restoreControllerCheckpoint(fresh4, blob));
}

TEST(Checkpoint, ResumedSourceMustReplayTheStream)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(337, 0.2);

    ConventionalMc mc(dram, bestBaselineMapping(dram.org), McConfig{});
    ReplaySource src(reqs);
    mc.bindSource(&src);
    mc.runUntil(ticksFromNs(static_cast<std::int64_t>(2000)));
    const auto blob = saveControllerCheckpoint(mc);

    ConventionalMc restored(dram, bestBaselineMapping(dram.org),
                            McConfig{});
    restoreControllerCheckpoint(restored, blob);
    // A source shorter than the checkpointed pull count cannot be the
    // stream the checkpoint was taken over.
    std::vector<Request> stub(reqs.begin(), reqs.begin() + 2);
    ReplaySource too_short(stub);
    EXPECT_THROW(restored.resumeSource(&too_short), std::runtime_error);
}

TEST(Checkpoint, ServingResumeMatchesStraightRun)
{
    const DramConfig dram = hbm4Config();
    ServingConfig cfg;
    cfg.numChannels = 4;
    cfg.threads = 2;
    cfg.makeController = [&dram] {
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), McConfig{});
    };
    cfg.makeSystemSource = [] {
        RandomPattern p;
        p.seed = 77;
        p.requestBytes = 2_KiB;
        p.totalBytes = 512_KiB;
        p.capacity = hbm4Config().org.channelCapacity();
        p.writeFraction = 0.25;
        return std::make_unique<RandomSource>(p);
    };
    const ServingDriver driver(cfg);
    const double rps = 2.0e6;

    const ServingResult straight = driver.run(rps);
    ASSERT_GT(straight.finishedAt, 0);

    // A third of the way in, every channel still has arrivals ahead of
    // it, so the timed prefix is a pure slice of the straight drain.
    const CubeCheckpoint ck =
        driver.runToCheckpoint(rps, straight.finishedAt / 3);
    EXPECT_EQ(ck.channels.size(), 4u);
    const ServingResult resumed = driver.resume(ck);

    EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
    EXPECT_EQ(resumed.offeredRps, straight.offeredRps);
    EXPECT_EQ(resumed.achievedRps, straight.achievedRps);
    EXPECT_TRUE(resumed.aggregate == straight.aggregate)
        << "resumed cube aggregate diverged from the straight run";
    ASSERT_EQ(resumed.perChannel.size(), straight.perChannel.size());
    for (std::size_t ch = 0; ch < straight.perChannel.size(); ++ch) {
        EXPECT_TRUE(resumed.perChannel[ch] == straight.perChannel[ch])
            << "channel " << ch << " diverged across save/restore";
    }
}

TEST(Checkpoint, ServingResumeWithRomeCube)
{
    const DramConfig dram = hbm4Config();
    ServingConfig cfg;
    cfg.numChannels = 4;
    cfg.threads = 2;
    cfg.makeController = [&dram] {
        return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                        RomeMcConfig{});
    };
    cfg.makeSystemSource = [] {
        RandomPattern p;
        p.seed = 79;
        p.requestBytes = 4_KiB;
        p.totalBytes = 1_MiB;
        p.capacity = hbm4Config().org.channelCapacity();
        return std::make_unique<RandomSource>(p);
    };
    const ServingDriver driver(cfg);
    const double rps = 2.0e6;

    const ServingResult straight = driver.run(rps);
    ASSERT_GT(straight.finishedAt, 0);
    const CubeCheckpoint ck =
        driver.runToCheckpoint(rps, straight.finishedAt / 3);
    const ServingResult resumed = driver.resume(ck);

    EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
    EXPECT_TRUE(resumed.aggregate == straight.aggregate)
        << "rome cube resume diverged from the straight run";
}

TEST(Checkpoint, ReaderRejectsTrailingBytes)
{
    CheckpointWriter w;
    w.putU64(7);
    w.putStr("abc");
    auto blob = w.take();
    {
        CheckpointReader r(blob);
        EXPECT_EQ(r.getU64(), 7u);
        EXPECT_EQ(r.getStr(), "abc");
        r.finish(); // exact consumption: fine
    }
    {
        CheckpointReader r(blob);
        EXPECT_EQ(r.getU64(), 7u);
        EXPECT_THROW(r.finish(), std::runtime_error);
    }
}

} // namespace
} // namespace rome
