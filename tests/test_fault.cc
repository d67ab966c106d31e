/**
 * @file
 * Reliability subsystem tests (sim/fault.h): deterministic fault sites
 * and verdicts, the CE retry path, CE-threshold row sparing with
 * in-flight replay, DUE accounting, scrub/refresh interleaving, and
 * bit-determinism across engine thread counts and runUntil slicing — for
 * both controller stacks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

std::vector<Request>
readWorkload(std::uint64_t seed, std::uint64_t total = 2_MiB)
{
    RandomPattern p;
    p.seed = seed;
    p.requestBytes = 2_KiB;
    p.totalBytes = total;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.0;
    return randomRequests(p);
}

/** N back-to-back reads of the same address (row hammering). */
std::vector<Request>
hammerWorkload(std::uint64_t addr, int n, std::uint64_t size)
{
    std::vector<Request> v;
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = static_cast<std::uint64_t>(i + 1);
        r.kind = ReqKind::Read;
        r.addr = addr;
        r.size = size;
        v.push_back(r);
    }
    return v;
}

ControllerStats
runConventional(const std::vector<Request>& reqs, const McConfig& cfg)
{
    const DramConfig dram = hbm4Config();
    ConventionalMc mc(dram, bestBaselineMapping(dram.org), cfg);
    for (const auto& r : reqs)
        mc.enqueue(r);
    mc.drain();
    return mc.stats();
}

ControllerStats
runRome(const std::vector<Request>& reqs, const RomeMcConfig& cfg)
{
    RomeMc mc(hbm4Config(), VbaDesign::adopted(), cfg);
    for (const auto& r : reqs)
        mc.enqueue(r);
    mc.drain();
    return mc.stats();
}

// ---------------------------------------------------------------------------
// FaultInjector unit level
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameSitesAndVerdicts)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = 7;
    cfg.transientLineRate = 1e-3;
    cfg.weakRowFraction = 0.1;
    cfg.stuckRowFraction = 0.05;

    FaultInjector a;
    FaultInjector b;
    a.configure(cfg, 16, 256, 32, 1);
    b.configure(cfg, 16, 256, 32, 1);

    for (int bank = 0; bank < 16; ++bank) {
        for (int row = 0; row < 256; ++row) {
            EXPECT_EQ(a.weakRow(bank, row), b.weakRow(bank, row));
            EXPECT_EQ(a.stuckRow(bank, row), b.stuckRow(bank, row));
        }
    }
    for (int i = 0; i < 2000; ++i) {
        const int bank = i % 16;
        const int row = (i * 7) % 256;
        EXPECT_EQ(a.classifyRead(bank, row, i % 32, 1),
                  b.classifyRead(bank, row, i % 32, 1));
    }
    EXPECT_EQ(a.ceCount(), b.ceCount());
    EXPECT_EQ(a.dueCount(), b.dueCount());
}

TEST(FaultInjector, DifferentSeedMovesSites)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = 7;
    cfg.weakRowFraction = 0.2;
    cfg.stuckRowFraction = 0.2;

    FaultInjector a;
    a.configure(cfg, 8, 512, 32, 1);
    cfg.seed = 8;
    FaultInjector b;
    b.configure(cfg, 8, 512, 32, 1);

    int differing = 0;
    for (int bank = 0; bank < 8; ++bank) {
        for (int row = 0; row < 512; ++row) {
            differing += a.weakRow(bank, row) != b.weakRow(bank, row);
            differing += a.stuckRow(bank, row) != b.stuckRow(bank, row);
        }
    }
    EXPECT_GT(differing, 0);
}

TEST(FaultInjector, TransientRetryRedrawsButSiteFaultsPersist)
{
    // A stuck row faults on every attempt; the access counter only keys
    // the transient draw. The stuck verdict must repeat verbatim.
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = 3;
    cfg.stuckRowFraction = 1.0;
    cfg.stuckDueFraction = 0.0;

    FaultInjector inj;
    inj.configure(cfg, 4, 64, 32, 1);
    for (int attempt = 0; attempt < 5; ++attempt)
        EXPECT_EQ(inj.classifyRead(0, 1, 0, 1),
                  EccVerdict::CorrectedError);
    EXPECT_EQ(inj.ceCount(), 5u);
}

TEST(FaultInjector, ScrubResetsRetentionClock)
{
    // Tiny geometry so one scrub pass covers every row: a weak row CEs
    // once enough reads piled up, and a scrub pass resets the clock.
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = 5;
    cfg.weakRowFraction = 1.0;
    cfg.weakRowOnset = 4;
    cfg.spareRowsPerBank = 0;
    cfg.scrubRowsPerRefresh = 8;

    FaultInjector inj;
    inj.configure(cfg, 1, 8, 4, 4);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(inj.classifyRead(0, 2, 0, 4), EccVerdict::Clean);
    EXPECT_EQ(inj.classifyRead(0, 2, 0, 4), EccVerdict::CorrectedError);

    std::vector<SpareEvent> events;
    inj.scrub(events); // covers all 8 rows of the single bank
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(inj.scrubCount(), 8u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(inj.classifyRead(0, 2, 0, 4), EccVerdict::Clean);
}

TEST(FaultInjector, SparedRowReadsCleanOfSiteFaults)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.seed = 11;
    cfg.stuckRowFraction = 1.0;
    cfg.stuckDueFraction = 0.0;
    cfg.ceSpareThreshold = 1;
    cfg.spareRowsPerBank = 4;

    FaultInjector inj;
    inj.configure(cfg, 2, 64, 32, 1);
    EXPECT_EQ(inj.classifyRead(0, 5, 0, 1), EccVerdict::CorrectedError);
    EXPECT_TRUE(inj.noteCorrectable(0, 5));
    const SpareEvent ev = inj.spareRow(0, 5);
    ASSERT_GE(ev.newRow, 60); // the spare region is the top of the bank
    EXPECT_EQ(inj.remappedRow(0, 5), ev.newRow);
    EXPECT_EQ(inj.sparedRows(), 1u);
    // The spare region holds no site faults by construction.
    EXPECT_EQ(inj.classifyRead(0, ev.newRow, 0, 1), EccVerdict::Clean);
}

// ---------------------------------------------------------------------------
// Controller integration: retry, sparing, DUE, scrub
// ---------------------------------------------------------------------------

TEST(FaultRecovery, TransientCeRetriesAndCompletes)
{
    const auto reqs = readWorkload(21);

    McConfig clean;
    const ControllerStats base = runConventional(reqs, clean);

    McConfig faulty;
    faulty.faults.enabled = true;
    faulty.faults.seed = 21;
    faulty.faults.transientLineRate = 1e-3;
    const ControllerStats s = runConventional(reqs, faulty);

    EXPECT_GT(s.ceCount, 0u);
    EXPECT_GT(s.retryCount, 0u);
    EXPECT_EQ(s.completedRequests, base.completedRequests);
    EXPECT_EQ(s.bytesRead, base.bytesRead);
    // Re-reads only ever push the finish time (and the tail) out.
    EXPECT_GE(s.finishedAt, base.finishedAt);
}

TEST(FaultRecovery, RomeTransientCeRetriesAndCompletes)
{
    const auto reqs = readWorkload(22);

    RomeMcConfig clean;
    const ControllerStats base = runRome(reqs, clean);

    RomeMcConfig faulty;
    faulty.faults.enabled = true;
    faulty.faults.seed = 22;
    faulty.faults.transientLineRate = 1e-4;
    const ControllerStats s = runRome(reqs, faulty);

    EXPECT_GT(s.ceCount, 0u);
    EXPECT_GT(s.retryCount, 0u);
    EXPECT_EQ(s.completedRequests, base.completedRequests);
    EXPECT_EQ(s.bytesRead, base.bytesRead);
    EXPECT_GE(s.finishedAt, base.finishedAt);
}

TEST(FaultRecovery, CeThresholdSparesRowAndReplaysInFlight)
{
    // Every data row is a stuck CE site and retries are exhausted fast,
    // so hammered rows cross the strike threshold while later ops on the
    // same rows are still queued or retrying — those must be rewritten
    // to the spare row and complete (late), never assert.
    const auto reqs = hammerWorkload(0, 24, 2_KiB);

    McConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = 9;
    cfg.faults.stuckRowFraction = 1.0;
    cfg.faults.stuckDueFraction = 0.0;
    cfg.faults.retryLimit = 1;
    cfg.faults.ceSpareThreshold = 2;
    cfg.faults.scrubEnabled = false;
    const ControllerStats s = runConventional(reqs, cfg);

    EXPECT_GE(s.sparedRows, 1u);
    EXPECT_GT(s.ceCount, 0u);
    EXPECT_EQ(s.dueCount, 0u);
    EXPECT_EQ(s.completedRequests, static_cast<std::uint64_t>(24));

    RomeMcConfig rcfg;
    rcfg.faults = cfg.faults;
    const ControllerStats r = runRome(reqs, rcfg);
    EXPECT_GE(r.sparedRows, 1u);
    EXPECT_EQ(r.completedRequests, static_cast<std::uint64_t>(24));
}

TEST(FaultRecovery, DueCompletesPoisonedWithoutTimingChange)
{
    // Detected-uncorrectable reads complete immediately (poisoned data is
    // the host's problem): with every read a DUE, the schedule — finish
    // time and latency distribution — must be bit-identical to the
    // faults-off run, and only the counters differ.
    const auto reqs = readWorkload(23, 512_KiB);

    McConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = 4;
    cfg.faults.stuckRowFraction = 1.0;
    cfg.faults.stuckDueFraction = 1.0;
    cfg.faults.scrubEnabled = false;
    const ControllerStats s = runConventional(reqs, cfg);
    const ControllerStats base = runConventional(reqs, McConfig{});

    EXPECT_GT(s.dueCount, 0u);
    EXPECT_EQ(s.ceCount, 0u);
    EXPECT_EQ(s.retryCount, 0u);
    EXPECT_EQ(s.sparedRows, 0u);
    EXPECT_EQ(s.finishedAt, base.finishedAt);
    EXPECT_EQ(s.completedRequests, base.completedRequests);
    EXPECT_TRUE(s.latencyHistNs == base.latencyHistNs);
}

TEST(FaultRecovery, ScrubRidesTheRefreshCalendar)
{
    // Scrub slices run only when a refresh actually issues, so a run
    // long enough to refresh must scrub, and a scrub-disabled (or
    // refresh-disabled) run must not.
    const auto reqs = readWorkload(25, 4_MiB);

    RomeMcConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = 2;
    cfg.faults.transientLineRate = 1e-6;
    const ControllerStats with_scrub = runRome(reqs, cfg);
    EXPECT_GT(with_scrub.scrubCount, 0u);

    cfg.faults.scrubEnabled = false;
    EXPECT_EQ(runRome(reqs, cfg).scrubCount, 0u);

    cfg.faults.scrubEnabled = true;
    cfg.refreshEnabled = false;
    EXPECT_EQ(runRome(reqs, cfg).scrubCount, 0u);
}

// ---------------------------------------------------------------------------
// Zero-cost when disabled
// ---------------------------------------------------------------------------

TEST(FaultsOff, ConfiguredButDisabledIsBitIdentical)
{
    const auto reqs = readWorkload(31);

    McConfig armed; // rates set but enabled=false: must change nothing
    armed.faults.transientLineRate = 0.5;
    armed.faults.stuckRowFraction = 0.5;
    EXPECT_TRUE(runConventional(reqs, McConfig{}) ==
                runConventional(reqs, armed));

    RomeMcConfig rarmed;
    rarmed.faults.transientLineRate = 0.5;
    rarmed.faults.stuckRowFraction = 0.5;
    EXPECT_TRUE(runRome(reqs, RomeMcConfig{}) == runRome(reqs, rarmed));
}

// ---------------------------------------------------------------------------
// Determinism across thread counts and runUntil slicing
// ---------------------------------------------------------------------------

std::vector<ControllerStats>
runFaultyCube(int threads, bool rome_stack)
{
    const DramConfig dram = hbm4Config();
    FaultConfig faults;
    faults.enabled = true;
    faults.seed = 41;
    faults.transientLineRate = 1e-4;
    faults.stuckRowFraction = 1e-3;

    ChannelSimEngine engine(threads);
    const int channels = 8;
    for (int ch = 0; ch < channels; ++ch) {
        std::unique_ptr<IMemoryController> mc;
        if (rome_stack) {
            RomeMcConfig cfg;
            cfg.faults = faults;
            mc = std::make_unique<RomeMc>(dram, VbaDesign::adopted(), cfg);
        } else {
            McConfig cfg;
            cfg.faults = faults;
            mc = std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), cfg);
        }
        const int idx = engine.addChannel(std::move(mc));
        engine.enqueue(idx,
                       readWorkload(100 + static_cast<std::uint64_t>(ch),
                                    512_KiB));
    }
    engine.drainAll();
    std::vector<ControllerStats> out;
    for (int ch = 0; ch < channels; ++ch)
        out.push_back(engine.channel(ch).stats());
    return out;
}

TEST(FaultDeterminism, ThreadCountInvariant)
{
    for (const bool rome_stack : {false, true}) {
        const auto one = runFaultyCube(1, rome_stack);
        const auto two = runFaultyCube(2, rome_stack);
        const auto eight = runFaultyCube(8, rome_stack);
        EXPECT_TRUE(one == two);
        EXPECT_TRUE(one == eight);
    }
}

TEST(FaultDeterminism, RunUntilSlicingInvariant)
{
    // Both stacks anchor every decision (refresh firing, age priority,
    // write-drain flips, retry re-admission) to event ticks, so a sliced
    // drive — refresh, scrub and retries all enabled — must reproduce the
    // unsliced drain bit for bit, full stats and histograms included.
    const auto reqs = readWorkload(51, 1_MiB);
    FaultConfig faults;
    faults.enabled = true;
    faults.seed = 51;
    faults.transientLineRate = 2e-4;
    faults.stuckRowFraction = 1e-3;

    {
        McConfig cfg;
        cfg.faults = faults;
        const ControllerStats whole = runConventional(reqs, cfg);

        const DramConfig dram = hbm4Config();
        ConventionalMc sliced(dram, bestBaselineMapping(dram.org), cfg);
        for (const auto& r : reqs)
            sliced.enqueue(r);
        for (Tick t = ticksFromNs(static_cast<std::int64_t>(777));
             t < whole.finishedAt && !sliced.idle();
             t += ticksFromNs(static_cast<std::int64_t>(777)))
            sliced.runUntil(t);
        sliced.drain();
        EXPECT_TRUE(whole == sliced.stats());
    }
    {
        RomeMcConfig cfg;
        cfg.faults = faults;
        const ControllerStats whole = runRome(reqs, cfg);

        RomeMc sliced(hbm4Config(), VbaDesign::adopted(), cfg);
        for (const auto& r : reqs)
            sliced.enqueue(r);
        for (Tick t = ticksFromNs(static_cast<std::int64_t>(777));
             t < whole.finishedAt && !sliced.idle();
             t += ticksFromNs(static_cast<std::int64_t>(777)))
            sliced.runUntil(t);
        sliced.drain();
        EXPECT_TRUE(whole == sliced.stats());
    }
}

} // namespace
} // namespace rome
