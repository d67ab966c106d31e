/**
 * @file
 * Checkpoint round-trip property tests: saving a controller mid-run and
 * restoring it into a freshly constructed twin must continue to a
 * bit-identical end state — full ControllerStats equality (histogram
 * included) against an uninterrupted single-window oracle.
 *
 * The property is exercised at several mid-run points on both stacks and
 * the hybrid router, with faults on and off, in both drive modes
 * (pre-enqueued requests and streaming bindSource). A restored twin must
 * also re-save byte-identically, and a table pins the size and FNV-1a of
 * 18 blobs, so the format cannot move between builds unnoticed. The
 * streaming variants restore the source cursor through resumeSource on a
 * fresh source instance — the mechanism ServingDriver::resume relies on —
 * and the serving test closes the loop: snapshot a mid-flight cube sweep
 * point, resume it, and compare against the straight run. Foreign,
 * truncated, padded and seeded-mutant blobs must fatal or restore, never
 * crash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
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
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/workloads.h"

#include "mutate.h"

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
        // Every field the format carries was restored as saved.
        EXPECT_TRUE(saveControllerCheckpoint(*b) == blob)
            << label << ": restored twin re-saves differently (mid=" << mid
            << ")";
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
        // Only after the resume: the hybrid saves whether a source is
        // attached.
        EXPECT_TRUE(saveControllerCheckpoint(*b) == blob)
            << label << ": resumed twin re-saves differently (mid=" << mid
            << ")";
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
    // Each non-adopted VBA design exercises different geometry (slot
    // counts, VBA tables) through the size-checked restore path.
    const std::string adopted = VbaDesign::adopted().name();
    int designs = 0;
    for (const VbaDesign& design : VbaDesign::all()) {
        if (design.name() == adopted)
            continue;
        const auto make = [&] {
            return std::make_unique<RomeMc>(dram, design, RomeMcConfig{});
        };
        expectCheckpointRoundTrip(make, reqs, design.name());
        ++designs;
    }
    EXPECT_EQ(designs, 5);
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

/** FNV-1a over a blob's bytes. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t>& blob)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : blob) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * The blob a controller saves a third of the way through @p reqs, driven
 * pre-enqueued or from a bound source.
 */
template <typename MakeMc>
std::vector<std::uint8_t>
blobAtThird(MakeMc make, const std::vector<Request>& reqs, bool streaming)
{
    ReplaySource probe_src(reqs);
    ReplaySource src(reqs);
    auto probe = make();
    auto mc = make();
    if (streaming) {
        probe->bindSource(&probe_src);
        mc->bindSource(&src);
    } else {
        enqueueAll(*probe, reqs);
        enqueueAll(*mc, reqs);
    }
    probe->drain();
    mc->runUntil(probe->now() / 3);
    return saveControllerCheckpoint(*mc);
}

/** A labelled controller factory for the blob corpus. */
struct BlobCase
{
    std::string label;
    std::function<std::unique_ptr<IMemoryController>()> make;
    std::vector<Request> reqs;
};

/**
 * One case per checkpointed configuration: both conventional schedulers,
 * both RoMe lowerings, a non-adopted VBA design and the hybrid router,
 * with faults and telemetry counters on and off.
 */
std::vector<BlobCase>
blobCorpus()
{
    const DramConfig dram = hbm4Config();
    McConfig legacy;
    legacy.legacyScheduler = true;
    McConfig mc_faults = faultyMcConfig();
    mc_faults.telemetry.counters = true;
    RomeMcConfig scalar;
    scalar.legacyScheduler = true;
    scalar.scalarLowering = true;
    RomeMcConfig rome_faults = faultyRomeConfig();
    rome_faults.telemetry.counters = true;
    HybridConfig hybrid_faults;
    hybrid_faults.faults = faultyRomeConfig().faults;
    hybrid_faults.telemetry.counters = true;

    const auto hbm4 = [dram](McConfig cfg) {
        return [dram, cfg]() -> std::unique_ptr<IMemoryController> {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), cfg);
        };
    };
    const auto rome = [dram](VbaDesign design, RomeMcConfig cfg) {
        return [dram, design, cfg]() -> std::unique_ptr<IMemoryController> {
            return std::make_unique<RomeMc>(dram, design, cfg);
        };
    };
    const auto hybrid = [dram](HybridConfig cfg) {
        return [dram, cfg]() -> std::unique_ptr<IMemoryController> {
            return std::make_unique<HybridMc>(dram, cfg);
        };
    };
    const auto mixed = mixedWorkload(341, 0.3);
    return {
        {"hbm4", hbm4(McConfig{}), mixed},
        {"hbm4 legacy", hbm4(legacy), mixed},
        {"hbm4 faults telemetry", hbm4(mc_faults), mixed},
        {"rome", rome(VbaDesign::adopted(), RomeMcConfig{}), mixed},
        {"rome legacy scalar", rome(VbaDesign::adopted(), scalar), mixed},
        {"rome faults telemetry", rome(VbaDesign::adopted(), rome_faults),
         mixed},
        {"rome 7b x 8a", rome(VbaDesign::all().back(), RomeMcConfig{}),
         mixed},
        {"hybrid", hybrid(HybridConfig{}), hybridWorkload()},
        {"hybrid faults telemetry", hybrid(hybrid_faults),
         hybridWorkload()},
    };
}

struct PinnedBlob
{
    const char* label;
    std::size_t size;
    std::uint64_t fnv;
};

/**
 * Size and FNV-1a of every corpus blob, pre-enqueued then streaming.
 * These bytes are the checkpoint format: a change that moves any of them
 * must bump kCheckpointVersion and regenerate this table from the
 * failure messages below.
 */
constexpr PinnedBlob kPinnedBlobs[] = {
    {"hbm4", 42830, 0x1de60fed4b231775ull},
    {"hbm4 streaming", 39714, 0x312d1a5e9355da03ull},
    {"hbm4 legacy", 20069, 0x4528673eeaaf41adull},
    {"hbm4 legacy streaming", 16953, 0x23df3af46a789e8full},
    {"hbm4 faults telemetry", 59188, 0x0fce602cebb80f20ull},
    {"hbm4 faults telemetry streaming", 56072, 0xd4582123a0570353ull},
    {"rome", 13287, 0xd7a42bc844ce4f9aull},
    {"rome streaming", 10212, 0x6d2b87317c6ad618ull},
    {"rome legacy scalar", 13247, 0x44785c4b2bfb9641ull},
    {"rome legacy scalar streaming", 10172, 0xb54dab5a87fee797ull},
    {"rome faults telemetry", 16915, 0x341081a097f10f60ull},
    {"rome faults telemetry streaming", 13799, 0x3f9d9852e50b81b2ull},
    {"rome 7b x 8a", 13799, 0x0782fe09124a8211ull},
    {"rome 7b x 8a streaming", 10683, 0xbe9cace98d0c75d3ull},
    {"hybrid", 38076, 0xead9a4508698c87full},
    {"hybrid streaming", 38035, 0x60ca3135e3121fa4ull},
    {"hybrid faults telemetry", 58253, 0xd614a0b15260f833ull},
    {"hybrid faults telemetry streaming", 58212, 0xe69ba79ce0c9fb9cull},
};

TEST(Checkpoint, BlobBytesArePinned)
{
    std::size_t i = 0;
    std::size_t moved = 0;
    std::string regenerated;
    for (const BlobCase& c : blobCorpus()) {
        for (const bool streaming : {false, true}) {
            const std::string label =
                c.label + (streaming ? " streaming" : "");
            const auto blob = blobAtThird(c.make, c.reqs, streaming);
            char row[160];
            std::snprintf(row, sizeof(row),
                          "    {\"%s\", %zu, 0x%016llxull},\n",
                          label.c_str(), blob.size(),
                          static_cast<unsigned long long>(fnv1a(blob)));
            regenerated += row;
            const bool pinned = i < std::size(kPinnedBlobs) &&
                                kPinnedBlobs[i].label == label &&
                                kPinnedBlobs[i].size == blob.size() &&
                                kPinnedBlobs[i].fnv == fnv1a(blob);
            EXPECT_TRUE(pinned) << "blob " << i << " moved: " << row;
            moved += !pinned;
            ++i;
        }
    }
    EXPECT_TRUE(moved == 0 && i == std::size(kPinnedBlobs))
        << "regenerated table rows:\n" << regenerated;
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

    // Older format versions: the envelope's version check rejects both
    // an old one and the one the current version retired (each carries
    // fields a later version dropped). The little-endian version field
    // follows the 4-byte magic.
    ASSERT_EQ(blob[4], static_cast<std::uint8_t>(kCheckpointVersion));
    for (const std::uint32_t version : {2u, kCheckpointVersion - 1}) {
        SCOPED_TRACE(version);
        auto old = blob;
        for (std::size_t i = 0; i < 4; ++i)
            old[4 + i] = static_cast<std::uint8_t>(version >> (8 * i));
        ConventionalMc fresh3(dram, bestBaselineMapping(dram.org),
                              McConfig{});
        EXPECT_THROW(restoreControllerCheckpoint(fresh3, old),
                     std::runtime_error);
    }
    ConventionalMc fresh4(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_NO_THROW(restoreControllerCheckpoint(fresh4, blob));

    // One byte past the field list: finish() rejects it.
    auto longer = blob;
    longer.push_back(0);
    ConventionalMc fresh5(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(fresh5, longer),
                 std::runtime_error);

    // A name length of 2^64 - 5: the reader's bound must not wrap.
    CheckpointWriter huge;
    huge.putU32(kCheckpointMagic);
    huge.putU32(kCheckpointVersion);
    huge.putU64(~std::uint64_t{0} - 4);
    huge.putU64(0);
    ConventionalMc fresh6(dram, bestBaselineMapping(dram.org), McConfig{});
    EXPECT_THROW(restoreControllerCheckpoint(fresh6, huge.take()),
                 std::runtime_error);
}

/** The message a restore of @p blob into @p mc fatals with, or "". */
std::string
restoreError(IMemoryController& mc, const std::vector<std::uint8_t>& blob)
{
    try {
        restoreControllerCheckpoint(mc, blob);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(Checkpoint, ForeignGeometryIsFatal)
{
    // A blob restores only into the geometry it was saved from: each
    // configured-count check names the first structure that differs.
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(347, 0.3);
    const auto blob_of = [&](IMemoryController& mc) {
        enqueueAll(mc, reqs);
        mc.runUntil(ticksFromNs(static_cast<std::int64_t>(2000)));
        return saveControllerCheckpoint(mc);
    };
    const auto hbm4 = [](const DramConfig& d, const McConfig& cfg) {
        return ConventionalMc(d, bestBaselineMapping(d.org), cfg);
    };
    struct Org
    {
        const char* what;
        int pcs, sids, bgs, banks;
    };
    for (const Org& o : {Org{"device bank", 2, 4, 4, 8},
                         Org{"device SID", 2, 8, 2, 4},
                         Org{"device bank-group", 2, 4, 8, 2},
                         Org{"device PC", 4, 2, 4, 4}}) {
        DramConfig other = dram;
        other.org.pcsPerChannel = o.pcs;
        other.org.sidsPerChannel = o.sids;
        other.org.bankGroupsPerSid = o.bgs;
        other.org.banksPerGroup = o.banks;
        ConventionalMc saved = hbm4(dram, McConfig{});
        ConventionalMc target = hbm4(other, McConfig{});
        EXPECT_NE(restoreError(target, blob_of(saved)).find(o.what),
                  std::string::npos)
            << o.what;
    }

    // Banks doubled: the base state's per-bank tables come first.
    DramConfig wide = dram;
    wide.org.banksPerGroup *= 2;
    McConfig telemetry;
    telemetry.telemetry.counters = true;
    for (const auto& [what, cfg] :
         {std::pair{"stall-table row", telemetry},
          std::pair{"fault-injector bank", faultyMcConfig()}}) {
        ConventionalMc saved = hbm4(dram, cfg);
        ConventionalMc target = hbm4(wide, cfg);
        EXPECT_NE(restoreError(target, blob_of(saved)).find(what),
                  std::string::npos)
            << what;
    }

    McConfig no_refresh;
    no_refresh.refreshEnabled = false;
    ConventionalMc refreshing = hbm4(dram, McConfig{});
    ConventionalMc idle = hbm4(dram, no_refresh);
    EXPECT_NE(restoreError(idle, blob_of(refreshing)).find("refresh-unit"),
              std::string::npos);

    // The 7b widened-bank design runs more refresh FSMs than the adopted.
    RomeMc adopted(dram, VbaDesign::adopted(), RomeMcConfig{});
    RomeMc widened(dram,
                   VbaDesign{BankMode::Widened, PcMode::LockstepPcs},
                   RomeMcConfig{});
    EXPECT_NE(restoreError(widened, blob_of(adopted)).find("refresh-FSM"),
              std::string::npos);
}

TEST(Checkpoint, MutatedBlobsRestoreOrFailCleanly)
{
    // Byte flips, 0xFF runs and truncations of blobs that carry every
    // optional section: each must restore or fatal, never crash or throw
    // anything else.
    std::uint64_t seed = 1;
    for (const BlobCase& c : blobCorpus()) {
        if (c.label.find("faults telemetry") == std::string::npos)
            continue;
        for (const bool streaming : {false, true}) {
            const auto blob = blobAtThird(c.make, c.reqs, streaming);
            int restored = 0;
            int rejected = 0;
            forEachMutant(blob, seed++, 150,
                          [&](const std::vector<std::uint8_t>& m) {
                auto mc = c.make();
                try {
                    restoreControllerCheckpoint(*mc, m);
                    ++restored;
                } catch (const std::runtime_error&) {
                    ++rejected;
                } catch (const std::exception& e) {
                    ADD_FAILURE() << c.label << " case "
                                  << restored + rejected << ": " << e.what();
                }
            });
            EXPECT_GT(restored, 0) << c.label;
            EXPECT_GT(rejected, 0) << c.label;
        }
    }
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

TEST(Checkpoint, FieldListsEncodeEachTypeAtItsWidth)
{
    struct Fields
    {
        bool flag = true;
        std::uint8_t byte = 0xab;
        int count = -3;
        std::uint32_t u32 = 7;
        Tick tick = -5;
        std::size_t size = 9;
        double ratio = 0.25;
        ReqKind kind = ReqKind::Write;
        std::vector<int> list{1, 2, 3};
        std::vector<Tick> fixed{4, 5};
    };
    const auto fields = [](auto& ar, auto& f) {
        ar(f.flag, f.byte, f.count, f.u32, f.tick, f.size, f.ratio, f.kind);
        ar.seq(f.list);
        ar.fixed(f.fixed, "test tick");
    };
    Fields saved;
    CheckpointWriter w;
    fields(w, saved);
    const auto blob = w.take();
    // 1 + 1 + 4 + 4 + 8 + 8 + 8 + 1 bytes, then 8 + 3 * 4 and 8 + 2 * 8.
    EXPECT_EQ(blob.size(), 35u + 20u + 24u);

    Fields loaded{false, 0, 0, 0, 0, 0, 0.0, ReqKind::Read, {}, {0, 0}};
    CheckpointReader r(blob);
    fields(r, loaded);
    r.finish();
    EXPECT_EQ(loaded.flag, saved.flag);
    EXPECT_EQ(loaded.byte, saved.byte);
    EXPECT_EQ(loaded.count, saved.count);
    EXPECT_EQ(loaded.u32, saved.u32);
    EXPECT_EQ(loaded.tick, saved.tick);
    EXPECT_EQ(loaded.size, saved.size);
    EXPECT_EQ(loaded.ratio, saved.ratio);
    EXPECT_EQ(loaded.kind, saved.kind);
    EXPECT_EQ(loaded.list, saved.list);
    EXPECT_EQ(loaded.fixed, saved.fixed);

    // fixed() restores only into its configured size.
    Fields smaller;
    smaller.fixed.resize(1);
    CheckpointReader again(blob);
    EXPECT_THROW(fields(again, smaller), std::runtime_error);
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
