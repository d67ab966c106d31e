/**
 * @file
 * RoMe memory controller tests (§V-A/§V-B): streaming bandwidth with a
 * two-entry queue, FSM high-water marks (2 operating + 3 refreshing),
 * overfetch accounting, immediate writes, address-map orders, latency, and
 * the Table IV complexity claims.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "dram/hbm4_config.h"
#include "oracle/legacy_rome_mc.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/telemetry.h"
#include "sim/workloads.h"
#include "timeline.h"

namespace rome
{
namespace
{

using namespace rome::literals;

RomeMc
makeMc(RomeMcConfig cfg = {},
       RomeMapOrder order = RomeMapOrder::VbaSidRow)
{
    return RomeMc(hbm4Config(), VbaDesign::adopted(), cfg, order);
}

void
streamReads(ChannelControllerBase& mc, std::uint64_t total,
            std::uint64_t chunk, std::uint64_t base = 0)
{
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < total; off += chunk)
        mc.enqueue({id++, ReqKind::Read, base + off, chunk, 0});
}

RomeMcConfig
noRefresh()
{
    RomeMcConfig c;
    c.refreshEnabled = false;
    return c;
}

TEST(RomeMc, StreamingReadsSaturateTheChannel)
{
    auto mc = makeMc(noRefresh());
    streamReads(mc, 1_MiB, 4_KiB);
    mc.drain();
    EXPECT_EQ(mc.bytesRead(), 1_MiB);
    EXPECT_EQ(mc.overfetchBytes(), 0u); // aligned 4 KB requests
    // Back-to-back RD_row at tR2RS = 64 ns moves 4 KB each: ~64 B/ns.
    EXPECT_GT(mc.effectiveBandwidth(), 62.0);
    EXPECT_LE(mc.effectiveBandwidth(), 64.01);
}

TEST(RomeMc, TwoEntryQueueAlreadySaturates)
{
    // §V-A: RoMe reaches peak throughput with a queue depth of just two.
    auto run = [](int depth) {
        RomeMcConfig cfg = noRefresh();
        cfg.queueDepth = depth;
        auto mc = makeMc(cfg);
        streamReads(mc, 1_MiB, 4_KiB);
        mc.drain();
        return mc.effectiveBandwidth();
    };
    const double bw1 = run(1);
    const double bw2 = run(2);
    const double bw8 = run(8);
    EXPECT_GT(bw2, 0.99 * bw8); // two entries = peak
    EXPECT_LT(bw1, 0.75 * bw2); // one entry cannot overlap operations
}

TEST(RomeMc, RefreshCostMatchesDutyCycle)
{
    auto with_ref = makeMc();
    auto without = makeMc(noRefresh());
    streamReads(with_ref, 2_MiB, 4_KiB);
    streamReads(without, 2_MiB, 4_KiB);
    with_ref.drain();
    without.drain();
    EXPECT_LT(with_ref.effectiveBandwidth(), without.effectiveBandwidth());
    // Pair-refresh duty: (tRFCpb + tRREFD) per VBA per tREFIbank ≈ 7.4 %.
    EXPECT_GT(with_ref.effectiveBandwidth(),
              0.88 * without.effectiveBandwidth());
}

TEST(RomeMc, FsmHighWatersMatchPaperClaims)
{
    auto mc = makeMc();
    streamReads(mc, 4_MiB, 4_KiB);
    mc.drain();
    // §V-A: at most two VBAs operate and up to three refresh concurrently,
    // so five bank FSMs suffice.
    EXPECT_LE(mc.operateFsmHighWater(), 2);
    EXPECT_GE(mc.operateFsmHighWater(), 2); // streaming does overlap two
    EXPECT_LE(mc.refreshFsmHighWater(), 3);
}

TEST(RomeMc, UnalignedRequestsCountOverfetch)
{
    auto mc = makeMc(noRefresh());
    // 1 KB request inside one 4 KB row: the whole row is transferred.
    mc.enqueue({1, ReqKind::Read, 512, 1024, 0});
    mc.drain();
    EXPECT_EQ(mc.bytesRead(), 1024u);
    EXPECT_EQ(mc.overfetchBytes(), 3072u);
}

TEST(RomeMc, SpanningRequestTouchesBothRows)
{
    auto mc = makeMc(noRefresh());
    // 6 KB starting 2 KB into a row: touches two rows, 8 KB transferred.
    mc.enqueue({1, ReqKind::Read, 2_KiB, 6_KiB, 0});
    mc.drain();
    EXPECT_EQ(mc.bytesRead(), 6_KiB);
    EXPECT_EQ(mc.overfetchBytes(), 2_KiB);
    ASSERT_EQ(mc.completions().size(), 1u);
}

TEST(RomeMc, WritesAreHandledImmediately)
{
    // §V-B: writes are processed on arrival (no write-drain watermark).
    auto mc = makeMc(noRefresh());
    mc.enqueue({1, ReqKind::Write, 0, 4_KiB, 0});
    mc.enqueue({2, ReqKind::Read, 4_KiB, 4_KiB, 0});
    mc.drain();
    ASSERT_EQ(mc.completions().size(), 2u);
    EXPECT_EQ(mc.completions()[0].id, 1u); // write first, in arrival order
    EXPECT_EQ(mc.bytesWritten(), 4_KiB);
}

TEST(RomeMc, MixedReadWriteTurnaroundCost)
{
    auto mixed = makeMc(noRefresh());
    auto pure = makeMc(noRefresh());
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < 1_MiB; off += 4_KiB) {
        const bool wr = (off / 4_KiB) % 4 == 3;
        mixed.enqueue({id++, wr ? ReqKind::Write : ReqKind::Read, off,
                       4_KiB, 0});
        pure.enqueue({id++, ReqKind::Read, off, 4_KiB, 0});
    }
    mixed.drain();
    pure.drain();
    EXPECT_LT(mixed.effectiveBandwidth(), pure.effectiveBandwidth());
    // Turnaround penalties are a few ns per 64 ns: small.
    EXPECT_GT(mixed.effectiveBandwidth(),
              0.9 * pure.effectiveBandwidth());
}

TEST(RomeMc, SingleReadLatency)
{
    auto mc = makeMc(noRefresh());
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.drain();
    ASSERT_EQ(mc.completions().size(), 1u);
    // ACT alignment (1) + tRRDS (2) + tRCDRD - tCCDS (15) + tCL (16)
    // + 64 ns data = 98 ns.
    EXPECT_DOUBLE_EQ(mc.latencyNs().mean(), 98.0);
}

TEST(RomeMc, AllRequestsCompleteExactlyOnce)
{
    auto mc = makeMc();
    streamReads(mc, 1_MiB, 8_KiB);
    mc.drain();
    EXPECT_EQ(mc.completions().size(), 1_MiB / 8_KiB);
    std::set<std::uint64_t> ids;
    for (const auto& c : mc.completions())
        EXPECT_TRUE(ids.insert(c.id).second);
    EXPECT_TRUE(mc.idle());
}

TEST(RomeMc, RejectsRequestsTheInFlightAccountingCannotHold)
{
    RomeMc mc = makeMc();
    // The last byte of the address space is addressable, but a request
    // whose end, addr + size, wraps 2^64 is not.
    mc.enqueue({1, ReqKind::Read, ~0ull - 64, 64, 0});
    mc.drain();
    EXPECT_EQ(mc.stats().completedRequests, 1u);
    for (const std::uint64_t addr : {~0ull - 63, ~0ull - 31}) {
        EXPECT_THROW(mc.enqueue({2, ReqKind::Read, addr, 64, 0}),
                     std::runtime_error);
    }
    // 2^31 4 KiB row ops overflow the in-flight slot's op counter.
    RomeMc big = makeMc();
    big.enqueue({3, ReqKind::Read, 0, 8192_GiB, 0});
    EXPECT_THROW(big.drain(), std::runtime_error);
}

TEST(RomeMc, TopRowCountsUsefulBytesLikeAnyOther)
{
    // A 64 B read in the last effective row of the address space moves
    // the whole row and counts the same useful and overfetch bytes as
    // the same read 8 KiB lower, whose row end does not wrap 2^64.
    for (const std::uint64_t addr : {~0ull - 64, ~0ull - 64 - 8_KiB}) {
        RomeMc mc = makeMc(noRefresh());
        mc.enqueue({1, ReqKind::Read, addr, 64, 0});
        mc.drain();
        EXPECT_EQ(mc.bytesRead(), 64u) << addr;
        EXPECT_EQ(mc.overfetchBytes(), 4032u) << addr;
    }
}

TEST(RomeMc, DefaultMappingRotatesVbasFirst)
{
    auto mc = makeMc();
    EXPECT_EQ(mc.decodeRow(0).vba, 0);
    EXPECT_EQ(mc.decodeRow(4_KiB).vba, 1);
    EXPECT_EQ(mc.decodeRow(7 * 4_KiB).vba, 7);
    EXPECT_EQ(mc.decodeRow(8 * 4_KiB).vba, 0);
    EXPECT_EQ(mc.decodeRow(8 * 4_KiB).sid, 1);
    EXPECT_EQ(mc.decodeRow(32 * 4_KiB).row, 1);
}

TEST(RomeMc, PathologicalMappingSerializesOnOneVba)
{
    auto good = makeMc(noRefresh());
    auto bad = RomeMc(hbm4Config(), VbaDesign::adopted(), noRefresh(),
                      RomeMapOrder::RowVbaSid);
    streamReads(good, 512_KiB, 4_KiB);
    streamReads(bad, 512_KiB, 4_KiB);
    good.drain();
    bad.drain();
    // Same-VBA back-to-back pays tRD_row (~97 ns) per 64 ns of data.
    EXPECT_LT(bad.effectiveBandwidth(), 0.75 * good.effectiveBandwidth());
}

TEST(RomeMc, VbaStateTracking)
{
    auto mc = makeMc(noRefresh());
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.runUntil(50_ns);
    EXPECT_EQ(mc.vbaState(VbaAddress{0, 0, 0}, mc.now()),
              VbaState::Reading);
    mc.drain();
    EXPECT_EQ(mc.vbaState(VbaAddress{0, 0, 0}, 1_us), VbaState::Idle);
}

TEST(RomeMc, ComplexityMatchesTableIV)
{
    auto mc = makeMc();
    const McComplexity c = mc.complexity();
    EXPECT_EQ(c.numTimingParams, 10);
    EXPECT_EQ(c.numBankFsms, 5);
    EXPECT_EQ(c.numBankStates, 4);
    EXPECT_EQ(c.pagePolicy, "-");
    EXPECT_EQ(c.schedulingConcerns,
              (std::vector<std::string>{"VBA interleaving"}));
    EXPECT_EQ(c.requestQueueDepth, 4);
}

TEST(RomeMc, RefreshesKeepEveryVbaWithinPeriod)
{
    auto mc = makeMc();
    mc.runUntil(10_us);
    // 32 VBAs × (10 us / 3.9 us) ≈ 82 refresh events, 2 REFpb each, on
    // both PCs.
    const auto refpbs = mc.device().counters().refPbs.value();
    const double events = 10000.0 / 3900.0 * 32.0;
    EXPECT_NEAR(static_cast<double>(refpbs), events * 2 * 2, events);
}

TEST(RomeMc, WorksAcrossAllVbaDesigns)
{
    for (const auto& d : VbaDesign::all()) {
        RomeMcConfig cfg;
        cfg.refreshEnabled = false;
        RomeMc mc(hbm4Config(), d, cfg);
        streamReads(mc, 256_KiB, 4_KiB);
        mc.drain();
        EXPECT_GT(mc.effectiveBandwidth(), 58.0) << d.name();
        EXPECT_EQ(mc.bytesRead(), 256_KiB) << d.name();
    }
}

// ---------------------------------------------------------------------------
// Scheduler parity: the deadline-buffer + per-VBA-index scheduler must make
// bit-identical decisions to the seed's slot-rescan scheduler, kept as the
// test-only oracle LegacyRomeMc (tests/oracle/).
// ---------------------------------------------------------------------------

TEST(RomeSchedulerParity, AllDesignsAndMapOrders)
{
    RandomPattern p;
    p.totalBytes = 512_KiB;
    p.requestBytes = 4_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.3;
    p.seed = 21;
    const auto reqs = randomRequests(p);

    for (const auto& d : VbaDesign::all()) {
        RomeMc a(hbm4Config(), d, RomeMcConfig{});
        LegacyRomeMc b(hbm4Config(), d, RomeMcConfig{});
        EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs))
            << d.name();
        EXPECT_EQ(a.operateFsmHighWater(), b.operateFsmHighWater());
        EXPECT_EQ(a.refreshFsmHighWater(), b.refreshFsmHighWater());
    }
    for (const RomeMapOrder order :
         {RomeMapOrder::VbaSidRow, RomeMapOrder::SidVbaRow,
          RomeMapOrder::RowVbaSid}) {
        auto a = makeMc({}, order);
        LegacyRomeMc b(hbm4Config(), VbaDesign::adopted(), RomeMcConfig{},
                       order);
        EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs));
    }
}

/** A drained run's stats, command timeline and FSM high-water marks. */
struct RomeRun
{
    ControllerStats stats;
    std::vector<TelemetrySink::Event> events;
    int opHighWater = 0;
    int refHighWater = 0;
};

/** Drain @p reqs through an @p Mc built from @p cfg, tracing commands. */
template <class Mc>
RomeRun
runRome(const RomeMcConfig& cfg, VbaDesign design,
        const std::vector<Request>& reqs)
{
    Mc mc(hbm4Config(), design, cfg);
    TelemetrySink sink;
    mc.attachTelemetrySink(&sink, true);
    RomeRun run;
    run.stats = runWorkload(mc, reqs);
    run.events = sink.events();
    run.opHighWater = mc.operateFsmHighWater();
    run.refHighWater = mc.refreshFsmHighWater();
    return run;
}

/**
 * RomeMc and the oracle agree on @p reqs under @p cfg: equal stats, equal
 * FSM high-water marks and equal timelines, so every device command has
 * the same kind, bank, issue tick and span, and every retry and spare the
 * same tick. The production run's stats land in @p stats when given.
 */
::testing::AssertionResult
romeSchedulersAgree(const RomeMcConfig& cfg, VbaDesign design,
                    const std::vector<Request>& reqs,
                    ControllerStats* stats = nullptr)
{
    const RomeRun indexed = runRome<RomeMc>(cfg, design, reqs);
    const RomeRun legacy = runRome<LegacyRomeMc>(cfg, design, reqs);
    if (stats != nullptr)
        *stats = indexed.stats;
    if (!(indexed.stats == legacy.stats))
        return ::testing::AssertionFailure() << "stats differ";
    if (indexed.opHighWater != legacy.opHighWater ||
        indexed.refHighWater != legacy.refHighWater) {
        return ::testing::AssertionFailure()
               << "FSM high-water marks " << indexed.opHighWater << "/"
               << indexed.refHighWater << " and " << legacy.opHighWater
               << "/" << legacy.refHighWater;
    }
    return sameTimeline(indexed.events, legacy.events);
}

TEST(RomeSchedulerParity, FaultRetriesAndSparing)
{
    // Transient, weak and stuck rows on 4 KiB requests, with one retry
    // and one strike before a row is spared: re-reads re-enter the queue
    // and persistent errors replay on spare rows, on every design, at the
    // derived depth and at 16.
    RandomPattern p;
    p.totalBytes = 512_KiB;
    p.requestBytes = 4_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.2;
    p.seed = 5;
    const auto reqs = randomRequests(p);
    for (const auto& d : VbaDesign::all()) {
        for (const int depth : {0, 16}) {
            RomeMcConfig cfg;
            cfg.queueDepth = depth;
            cfg.faults.enabled = true;
            cfg.faults.seed = 7;
            cfg.faults.transientLineRate = 2e-5;
            cfg.faults.weakRowFraction = 0.3;
            cfg.faults.weakRowOnset = 4;
            cfg.faults.stuckRowFraction = 0.2;
            cfg.faults.stuckDueFraction = 0.0;
            cfg.faults.retryLimit = 1;
            cfg.faults.ceSpareThreshold = 1;
            ControllerStats s;
            EXPECT_TRUE(romeSchedulersAgree(cfg, d, reqs, &s))
                << d.name() << " depth " << depth;
            EXPECT_GT(s.retryCount, 0u) << d.name() << " depth " << depth;
            EXPECT_GT(s.sparedRows, 0u) << d.name() << " depth " << depth;
        }
    }
}

TEST(RomeSchedulerParity, ScrubDrivenSparing)
{
    // Half of all rows are stuck CE sites and one strike spares a row, so
    // both the stream's re-reads and the patrol scrub that rides each
    // refresh remap rows.
    StreamPattern p;
    p.totalBytes = 512_KiB;
    p.requestBytes = 4_KiB;
    const auto reqs = streamRequests(p);
    RomeMcConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.stuckRowFraction = 0.5;
    cfg.faults.stuckDueFraction = 0.0;
    cfg.faults.ceSpareThreshold = 1;
    cfg.faults.scrubRowsPerRefresh = 64;
    ControllerStats s;
    EXPECT_TRUE(romeSchedulersAgree(cfg, VbaDesign::adopted(), reqs, &s));
    EXPECT_GT(s.sparedRows, 0u);
    EXPECT_GT(s.retryCount, 0u);
}

TEST(RomeSchedulerParity, FullQueueRetries)
{
    // Every row is stuck, so every read re-reads once. With one queue
    // entry the entry is in flight whenever a re-read waits, so the
    // retry's wake is bound by that entry's release.
    StreamPattern p;
    p.totalBytes = 128_KiB;
    p.requestBytes = 4_KiB;
    const auto reqs = streamRequests(p);
    RomeMcConfig cfg;
    cfg.queueDepth = 1;
    cfg.faults.enabled = true;
    cfg.faults.stuckRowFraction = 1.0;
    cfg.faults.stuckDueFraction = 0.0;
    cfg.faults.retryLimit = 1;
    ControllerStats s;
    EXPECT_TRUE(romeSchedulersAgree(cfg, VbaDesign::adopted(), reqs, &s));
    EXPECT_GT(s.retryCount, 0u);
}

TEST(RomeSchedulerParity, SparesRewriteQueuedOps)
{
    // Every row is stuck and one strike spares it, while a stream that
    // revisits the same 16 rows keeps later ops to a row queued (or
    // retrying) when its first read spares it: the spare rewrites them.
    StreamPattern p;
    p.totalBytes = 64_KiB;
    p.requestBytes = 4_KiB;
    const auto rows = streamRequests(p);
    std::vector<Request> reqs;
    for (std::uint64_t id = 0; reqs.size() < 8 * rows.size(); ++id) {
        Request r = rows[id % rows.size()];
        r.id = id;
        reqs.push_back(r);
    }
    RomeMcConfig cfg;
    cfg.queueDepth = 32;
    cfg.faults.enabled = true;
    cfg.faults.stuckRowFraction = 1.0;
    cfg.faults.stuckDueFraction = 0.0;
    cfg.faults.retryLimit = 0;
    cfg.faults.ceSpareThreshold = 1;
    ControllerStats s;
    EXPECT_TRUE(romeSchedulersAgree(cfg, VbaDesign::adopted(), reqs, &s));
    EXPECT_GT(s.sparedRows, 0u);
}

TEST(RomeSchedulerParity, ArrivalGaps)
{
    // Bursts of four random requests every 300 ns drain before the next
    // burst, so both schedulers advance idle time to the next arrival,
    // refresh due tick or FSM release.
    RandomPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 512;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.3;
    p.seed = 11;
    auto reqs = randomRequests(p);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        reqs[i].arrival = static_cast<Tick>(i / 4) * 300_ns;
    for (const bool refresh : {false, true}) {
        RomeMcConfig cfg;
        cfg.refreshEnabled = refresh;
        EXPECT_TRUE(romeSchedulersAgree(cfg, VbaDesign::adopted(), reqs))
            << "refresh " << refresh;
    }
}

TEST(RomeSchedulerParity, VbaStateAgrees)
{
    auto a = makeMc();
    LegacyRomeMc b(hbm4Config(), VbaDesign::adopted(), RomeMcConfig{});
    streamReads(a, 64_KiB, 4_KiB);
    streamReads(b, 64_KiB, 4_KiB);
    a.runUntil(200_ns);
    b.runUntil(200_ns);
    for (int sid = 0; sid < 4; ++sid) {
        for (int vba = 0; vba < 8; ++vba) {
            const VbaAddress addr{sid, vba, 0};
            EXPECT_EQ(a.vbaState(addr, a.now()), b.vbaState(addr, b.now()))
                << addr.str();
        }
    }
}

} // namespace
} // namespace rome
