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
#include "rome/rome_mc.h"
#include "sim/workloads.h"

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
streamReads(RomeMc& mc, std::uint64_t total, std::uint64_t chunk,
            std::uint64_t base = 0)
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
// Scheduler parity: the deadline-heap + per-VBA-index scheduler must make
// bit-identical decisions to the retained slot-rescan (legacy) scheduler.
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
        RomeMcConfig indexed;
        RomeMcConfig legacy;
        legacy.legacyScheduler = true;
        RomeMc a(hbm4Config(), d, indexed);
        RomeMc b(hbm4Config(), d, legacy);
        EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs))
            << d.name();
        EXPECT_EQ(a.operateFsmHighWater(), b.operateFsmHighWater());
        EXPECT_EQ(a.refreshFsmHighWater(), b.refreshFsmHighWater());
    }
    for (const RomeMapOrder order :
         {RomeMapOrder::VbaSidRow, RomeMapOrder::SidVbaRow,
          RomeMapOrder::RowVbaSid}) {
        RomeMcConfig legacy;
        legacy.legacyScheduler = true;
        auto a = makeMc({}, order);
        auto b = makeMc(legacy, order);
        EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs));
    }
}

TEST(RomeSchedulerParity, VbaStateAgrees)
{
    RomeMcConfig legacy;
    legacy.legacyScheduler = true;
    auto a = makeMc();
    auto b = makeMc(legacy);
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
