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
 * 16 blobs, so the format cannot move between builds unnoticed. The
 * streaming variants restore the source cursor through resumeSource on a
 * fresh source instance — the mechanism NodeDriver::resume relies on —
 * and the serving tests close the loop: snapshot a mid-flight cube or
 * multi-cube node point, resume it, and compare against the straight
 * run; a cut past a channel's natural finish is fatal. Foreign,
 * truncated, padded and seeded-mutant blobs must fatal or restore, never
 * crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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
 * One case per checkpointed configuration: the conventional stack, both
 * RoMe lowerings, a non-adopted VBA design and the hybrid router, with
 * faults and telemetry counters on and off.
 */
std::vector<BlobCase>
blobCorpus()
{
    const DramConfig dram = hbm4Config();
    McConfig mc_faults = faultyMcConfig();
    mc_faults.telemetry.counters = true;
    RomeMcConfig scalar;
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
        {"hbm4 faults telemetry", hbm4(mc_faults), mixed},
        {"rome", rome(VbaDesign::adopted(), RomeMcConfig{}), mixed},
        {"rome scalar", rome(VbaDesign::adopted(), scalar), mixed},
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
    {"hbm4", 28360, 0xb7cbe85b0e036218ull},
    {"hbm4 streaming", 25244, 0x3a21f3c1b39660f2ull},
    {"hbm4 faults telemetry", 45356, 0x016cb1de641ab997ull},
    {"hbm4 faults telemetry streaming", 42240, 0x7d4af7091e04b27cull},
    {"rome", 13102, 0x7e8fdec2c4f1fe97ull},
    {"rome streaming", 10027, 0xfa3ceee8c5d8db27ull},
    {"rome scalar", 13102, 0xb87a4c8f5f030a68ull},
    {"rome scalar streaming", 10027, 0x57ee16069f4aa438ull},
    {"rome faults telemetry", 16730, 0x602854c1d1af54cdull},
    {"rome faults telemetry streaming", 13614, 0xd6bcc7fc81b6eb33ull},
    {"rome 7b x 8a", 13436, 0x6af4dd0f7ad0e10cull},
    {"rome 7b x 8a streaming", 10320, 0xf285c846a0e75fb6ull},
    {"hybrid", 35262, 0x3e501585a16ba711ull},
    {"hybrid streaming", 35221, 0x27dafede4e8f97c0ull},
    {"hybrid faults telemetry", 55439, 0x0423adb5131aa75eull},
    {"hybrid faults telemetry streaming", 55398, 0x845b52772bb9ba0dull},
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

TEST(Checkpoint, MalformedRunsAreFatal)
{
    // One 4 KiB read, admitted before its first CAS, queues 8 runs of 16
    // columns from column 0 at admission stride 8 (two PCs times four
    // bank groups lie below the column bits). Patching the run whose head
    // sequence is 3 must trip each restore check of the runs.
    const DramConfig dram = hbm4Config();
    McConfig cfg;
    cfg.refreshEnabled = false;
    ConventionalMc mc(dram, bestBaselineMapping(dram.org), cfg);
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.runUntil(1);
    const auto blob = saveControllerCheckpoint(mc);

    // The run's sequence, stride and count fields, in field-list order.
    CheckpointWriter w;
    w(std::uint64_t{3}, std::uint64_t{8}, 16);
    const std::vector<std::uint8_t> run = w.take();
    const auto at = std::search(blob.begin(), blob.end(), run.begin(),
                                run.end());
    ASSERT_NE(at, blob.end());
    ASSERT_EQ(std::search(at + 1, blob.end(), run.begin(), run.end()),
              blob.end());
    const auto off = static_cast<std::size_t>(at - blob.begin());
    const auto patched = [&](std::uint64_t stride, int count) {
        CheckpointWriter p;
        p(std::uint64_t{3}, stride, count);
        auto m = blob;
        std::copy(p.data().begin(), p.data().end(),
                  m.begin() + static_cast<std::ptrdiff_t>(off));
        return m;
    };
    const auto cols = static_cast<int>(dram.org.columnsPerRow());
    const std::pair<std::vector<std::uint8_t>, const char*> cases[] = {
        {patched(8, 0), "run holds 0 ops"},
        {patched(0, 16), "admission stride 0"},
        {patched(8, cols + 1), "leaves its"},
        {patched(8, 15), "its runs hold"},
    };
    for (const auto& [m, what] : cases) {
        ConventionalMc target(dram, bestBaselineMapping(dram.org), cfg);
        EXPECT_NE(restoreError(target, m).find(what), std::string::npos)
            << what;
    }
    ConventionalMc intact(dram, bestBaselineMapping(dram.org), cfg);
    EXPECT_EQ(restoreError(intact, patched(8, 16)), "");
}

/** The checkpoint encoding of @p fields. */
template <class... T>
std::vector<std::uint8_t>
encoded(const T&... fields)
{
    CheckpointWriter w;
    w(fields...);
    return w.take();
}

/** Offset of the only copy of @p bytes in @p blob; npos if none or
 *  several. */
std::size_t
onlyOffset(const std::vector<std::uint8_t>& blob,
           const std::vector<std::uint8_t>& bytes)
{
    const auto at = std::search(blob.begin(), blob.end(), bytes.begin(),
                                bytes.end());
    if (at == blob.end() ||
        std::search(at + 1, blob.end(), bytes.begin(), bytes.end()) !=
            blob.end())
        return std::string::npos;
    return static_cast<std::size_t>(at - blob.begin());
}

/** @p blob with @p fields encoded over its bytes from @p off. */
template <class... T>
std::vector<std::uint8_t>
patched(std::vector<std::uint8_t> blob, std::size_t off, const T&... fields)
{
    const auto bytes = encoded(fields...);
    std::copy(bytes.begin(), bytes.end(),
              blob.begin() + static_cast<std::ptrdiff_t>(off));
    return blob;
}

/** The little-endian @p bytes-byte field at @p off of @p blob. */
std::uint64_t
fieldAt(const std::vector<std::uint8_t>& blob, std::size_t off,
        std::size_t bytes)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(blob[off + i]) << (8 * i);
    return v;
}

TEST(Checkpoint, MalformedIndicesAreFatal)
{
    // The blob of MalformedRunsAreFatal: runs 0-7 in pool order, one per
    // bank, run k admitted as sequence k. A run is its 65-byte head op
    // (coordinates, reqId, kind, arrival, slot, ...), then seq, stride,
    // count, bank, prev and next. Patching one field per restore check
    // must trip that check.
    const DramConfig dram = hbm4Config();
    const Organization& org = dram.org;
    const AddressMapping mapping = bestBaselineMapping(org);
    const auto make = [&](const McConfig& c) {
        return ConventionalMc(dram, mapping, c);
    };
    McConfig cfg;
    cfg.refreshEnabled = false;
    ConventionalMc mc = make(cfg);
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.runUntil(1);
    const auto blob = saveControllerCheckpoint(mc);

    constexpr std::size_t kOpBytes = 65;
    constexpr std::size_t kRunBytes = kOpBytes + 32;
    const std::size_t run3 =
        onlyOffset(blob, encoded(std::uint64_t{3}, std::uint64_t{8}, 16));
    ASSERT_NE(run3, std::string::npos);
    const std::size_t op3 = run3 - kOpBytes;
    const auto bank3 = static_cast<int>(fieldAt(blob, run3 + 20, 4));
    // Run 3's read list: head, tail, count, hitCount, hitRep.
    const std::size_t list3 = onlyOffset(blob, encoded(3, 3, 16));
    ASSERT_NE(list3, std::string::npos);
    // The empty freeNodes follows the pool's last run.
    const std::size_t free_nodes = op3 + 5 * kRunBytes;
    ASSERT_EQ(fieldAt(blob, free_nodes, 8), 0u);
    auto one_free = patched(blob, free_nodes, std::uint64_t{1});
    const auto entry = encoded(3);
    one_free.insert(one_free.begin() +
                        static_cast<std::ptrdiff_t>(free_nodes + 8),
                    entry.begin(), entry.end());
    // activeBanks lists the runs' banks in admission order; openBanks
    // follows it.
    CheckpointWriter active;
    active.putCount(8);
    const int idle_bank = org.banksPerChannel() - 1;
    for (std::uint64_t k = 0; k < 8; ++k) {
        const int b = flatBankIndex(org, mapping.decode(k * org.columnBytes));
        ASSERT_NE(b, idle_bank);
        active(b);
    }
    const std::size_t active_at = onlyOffset(blob, active.data());
    ASSERT_NE(active_at, std::string::npos);
    const std::size_t open_at = active_at + active.data().size();
    ASSERT_GE(fieldAt(blob, open_at, 8), 1u);

    // An idle refreshing controller: unit 7 is not due yet and keeps its
    // interval, due tick and cursor 0.
    ConventionalMc refreshing = make(McConfig{});
    refreshing.runUntil(1);
    const auto ref_blob = saveControllerCheckpoint(refreshing);
    const Tick interval = dram.timing.tREFIbank / org.banksPerSid();
    const std::size_t unit7 =
        onlyOffset(ref_blob, encoded(interval, interval * 7 / 8, 0));
    ASSERT_NE(unit7, std::string::npos);

    // Every read hits a stuck row: the first CAS queues a retry, which
    // the blob ends with, before its ready tick, nextRetryAt and
    // casIssued.
    McConfig faulty = cfg;
    faulty.faults.enabled = true;
    faulty.faults.stuckRowFraction = 1.0;
    faulty.faults.stuckDueFraction = 0.0;
    ConventionalMc retrying = make(faulty);
    retrying.enqueue({1, ReqKind::Read, 0, 32, 0});
    retrying.runUntil(100_ns);
    const auto retry_blob = saveControllerCheckpoint(retrying);
    const std::size_t retry_op = retry_blob.size() - 24 - kOpBytes;
    ASSERT_EQ(fieldAt(retry_blob, retry_op - 8, 8), 1u);

    struct Case
    {
        std::vector<std::uint8_t> blob;
        McConfig cfg;
        const char* what;
    };
    const Case cases[] = {
        {patched(blob, run3 + 20, (bank3 + 1) % org.banksPerChannel()), cfg,
         "has bank"},
        {patched(blob, run3 + 24, 0), cfg, "has prev"},
        {patched(blob, op3 + 32, ReqKind::Write), cfg, "kind-1 op"},
        {patched(blob, op3 + 16, org.rowsPerBank), cfg, "pooled op at"},
        {patched(blob, op3 + 41, 1000), cfg, "slot 1000, not a live"},
        {patched(blob, list3 + 4, 2), cfg, "list tail 2"},
        {patched(blob, list3 + 16, 2), cfg, "hitRep 2"},
        {one_free, cfg, "freeNodes entry 3"},
        {patched(blob, active_at + 8, idle_bank), cfg, "activeBanks entry 0"},
        {patched(blob, open_at + 8, idle_bank), cfg, "openBanks entry 0"},
        {patched(ref_blob, unit7 + 16, org.banksPerSid()), McConfig{},
         "has cursor"},
        {patched(retry_blob, retry_op + 16, org.rowsPerBank), faulty,
         "retrying op at"},
    };
    for (const Case& c : cases) {
        ConventionalMc target = make(c.cfg);
        EXPECT_NE(restoreError(target, c.blob).find(c.what),
                  std::string::npos)
            << c.what;
    }
    for (const auto& [intact, c] :
         {std::pair{blob, cfg}, std::pair{ref_blob, McConfig{}},
          std::pair{retry_blob, faulty}}) {
        ConventionalMc target = make(c);
        EXPECT_EQ(restoreError(target, intact), "");
    }
}

TEST(Checkpoint, MalformedRomeOpsAreFatal)
{
    // One 16 KiB read queues row ops for VBAs 0-3 of SID 0, and the
    // first issues at tick 0. A row op is its kind, (SID, VBA, row),
    // reqId, arrival, useful bytes, slot and the rest; patching one field
    // per check must trip it.
    const DramConfig dram = hbm4Config();
    RomeMcConfig cfg;
    cfg.refreshEnabled = false;
    const auto make = [&](const RomeMcConfig& c) {
        return RomeMc(dram, VbaDesign::adopted(), c);
    };
    RomeMc mc = make(cfg);
    mc.enqueue({1, ReqKind::Read, 0, 16_KiB, 0});
    mc.runUntil(1);
    const auto blob = saveControllerCheckpoint(mc);
    const std::size_t vba2 =
        onlyOffset(blob, encoded(RowCmdKind::RdRow, 0, 2, 0, std::uint64_t{1},
                                 Tick{0}, std::uint64_t{4_KiB}));
    ASSERT_NE(vba2, std::string::npos);

    // Every read hits a stuck row: the first op queues a retry, which the
    // blob ends with, before its ready tick, nextRetryAt, overfetch and
    // the two FSM high-water marks.
    RomeMcConfig faulty = cfg;
    faulty.faults.enabled = true;
    faulty.faults.stuckRowFraction = 1.0;
    faulty.faults.stuckDueFraction = 0.0;
    RomeMc retrying = make(faulty);
    retrying.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    retrying.runUntil(1);
    const auto retry_blob = saveControllerCheckpoint(retrying);
    constexpr std::size_t kRowOpBytes = 61;
    const std::size_t retry_op = retry_blob.size() - 32 - kRowOpBytes;
    ASSERT_EQ(fieldAt(retry_blob, retry_op - 8, 8), 1u);

    const VbaMap& map = mc.vbaMap();
    struct Case
    {
        std::vector<std::uint8_t> blob;
        RomeMcConfig cfg;
        const char* what;
    };
    const Case cases[] = {
        {patched(blob, vba2, RowCmdKind::Ref), cfg, "queued op has kind"},
        {patched(blob, vba2 + 1, map.deviceOrganization().sidsPerChannel),
         cfg, "queued op has SID"},
        {patched(blob, vba2 + 5, map.vbasPerSid()), cfg, "queued op has VBA"},
        {patched(blob, vba2 + 9, map.rowsPerVba()), cfg, "queued op has row"},
        {patched(blob, vba2 + 37, 1000), cfg, "queued op has slot 1000"},
        {patched(retry_blob, retry_op + 9, -1), faulty,
         "retrying op has row"},
    };
    for (const Case& c : cases) {
        RomeMc target = make(c.cfg);
        EXPECT_NE(restoreError(target, c.blob).find(c.what),
                  std::string::npos)
            << c.what;
    }
    for (const auto& [intact, c] :
         {std::pair{blob, cfg}, std::pair{retry_blob, faulty}}) {
        RomeMc target = make(c);
        EXPECT_EQ(restoreError(target, intact), "");
    }
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
    NodeConfig cfg;
    cfg.channelsPerCube = 4;
    cfg.link = LinkConfig::idealLink();
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
    const NodeDriver driver(cfg);
    const double rps = 2.0e6;

    const NodeResult straight = driver.run(rps);
    ASSERT_GT(straight.finishedAt, 0);

    // A third of the way in, every channel still has arrivals ahead of
    // it, so the timed prefix is a pure slice of the straight drain.
    const NodeCheckpoint ck =
        driver.runToCheckpoint(rps, straight.finishedAt / 3);
    EXPECT_EQ(ck.channels.size(), 4u);
    const NodeResult resumed = driver.resume(ck);

    EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
    EXPECT_EQ(resumed.offeredRps, straight.offeredRps);
    EXPECT_EQ(resumed.achievedRps, straight.achievedRps);
    EXPECT_TRUE(resumed.aggregate == straight.aggregate)
        << "resumed cube aggregate diverged from the straight run";
    EXPECT_TRUE(resumed.perCube == straight.perCube);
}

TEST(Checkpoint, ServingResumeWithRomeCube)
{
    const DramConfig dram = hbm4Config();
    NodeConfig cfg;
    cfg.channelsPerCube = 4;
    cfg.link = LinkConfig::idealLink();
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
    const NodeDriver driver(cfg);
    const double rps = 2.0e6;

    const NodeResult straight = driver.run(rps);
    ASSERT_GT(straight.finishedAt, 0);
    const NodeCheckpoint ck =
        driver.runToCheckpoint(rps, straight.finishedAt / 3);
    const NodeResult resumed = driver.resume(ck);

    EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
    EXPECT_TRUE(resumed.aggregate == straight.aggregate)
        << "rome cube resume diverged from the straight run";
}

/**
 * Two 2-channel RoMe cubes under load-aware routing behind a narrow
 * two-credit link: the router sends most requests to one cube, so the
 * other cube's channels finish long before the node does.
 */
NodeConfig
skewedNode()
{
    NodeConfig cfg;
    cfg.numCubes = 2;
    cfg.channelsPerCube = 2;
    cfg.policy = RouterPolicy::LoadAware;
    cfg.link.latencyTicks = ticksFromNs(static_cast<std::int64_t>(100));
    cfg.link.bytesPerNs = 64.0;
    cfg.link.credits = 2;
    cfg.makeController = [] {
        return std::make_unique<RomeMc>(hbm4Config(), VbaDesign::adopted(),
                                        RomeMcConfig{});
    };
    cfg.makeSystemSource = [] {
        RandomPattern p;
        p.requestBytes = 4_KiB;
        p.totalBytes = 10240 * p.requestBytes;
        p.capacity = hbm4Config().org.channelCapacity();
        return std::make_unique<RandomSource>(p);
    };
    return cfg;
}

TEST(Checkpoint, NodeResumeMatchesStraightRun)
{
    // Routing is a pure function of the request sequence, so the blobs
    // need no router or link state: the resumed run re-routes the stream
    // from the start. Cut at a tenth, every channel still has work.
    const double rps = 4e7;
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        NodeConfig cfg = skewedNode();
        cfg.threads = threads;
        const NodeDriver driver(cfg);
        const NodeResult straight = driver.run(rps);
        const NodeCheckpoint ck =
            driver.runToCheckpoint(rps, straight.finishedAt / 10);
        EXPECT_EQ(ck.channels.size(), 4u);
        const NodeResult resumed = driver.resume(ck);

        EXPECT_EQ(resumed.finishedAt, straight.finishedAt);
        EXPECT_EQ(resumed.achievedRps, straight.achievedRps);
        EXPECT_TRUE(resumed.aggregate == straight.aggregate);
        EXPECT_TRUE(resumed.perCube == straight.perCube);
        EXPECT_TRUE(resumed.linkQueueDelayNs == straight.linkQueueDelayNs);
        EXPECT_GT(straight.linkQueueDelayNs.maxNs(), 0.0);
    }
}

TEST(Checkpoint, CutPastAChannelsFinishIsFatal)
{
    // A third of the way in, the lightly routed cube's channels have
    // drained: a timed window would fire refreshes a straight drain
    // never does, so the cut is refused rather than resumed wrongly.
    const NodeDriver driver(skewedNode());
    const double rps = 4e7;
    const Tick end = driver.run(rps).finishedAt;
    EXPECT_THROW(driver.runToCheckpoint(rps, end / 3), std::runtime_error);
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
