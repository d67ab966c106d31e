/**
 * @file
 * Conventional memory controller tests: streaming bandwidth, row-buffer
 * locality, page policies, write draining, refresh interference, queue-depth
 * sensitivity, latency accounting, and Table IV introspection.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "common/random.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "oracle/legacy_mc.h"
#include "sim/engine.h"
#include "sim/telemetry.h"
#include "sim/workloads.h"
#include "timeline.h"

namespace rome
{
namespace
{

using namespace rome::literals;

McConfig
noRefreshCfg()
{
    McConfig c;
    c.refreshEnabled = false;
    return c;
}

ConventionalMc
makeMc(const McConfig& cfg)
{
    const DramConfig dram = hbm4Config();
    return ConventionalMc(dram, bestBaselineMapping(dram.org), cfg);
}

/** Enqueue @p total bytes of sequential reads in @p chunk-byte requests. */
void
streamReads(ConventionalMc& mc, std::uint64_t total, std::uint64_t chunk,
            std::uint64_t base = 0)
{
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < total; off += chunk)
        mc.enqueue({id++, ReqKind::Read, base + off, chunk, 0});
}

TEST(ConventionalMc, StreamingReadsApproachPeakBandwidth)
{
    auto mc = makeMc(noRefreshCfg());
    streamReads(mc, 1_MiB, 4_KiB);
    mc.drain();
    EXPECT_EQ(mc.bytesRead(), 1_MiB);
    // Peak is 64 B/ns per channel; ACT/PRE overheads must stay hidden.
    EXPECT_GT(mc.achievedBandwidth(), 55.0);
    EXPECT_LE(mc.achievedBandwidth(), 64.0);
}

TEST(ConventionalMc, StreamingRowHitRateIsHigh)
{
    auto mc = makeMc(noRefreshCfg());
    streamReads(mc, 1_MiB, 4_KiB);
    mc.drain();
    // One ACT per 32 column ops per row slice -> ~97 % hits.
    EXPECT_GT(mc.rowHitRate(), 0.9);
}

TEST(ConventionalMc, RefreshCostsSomeBandwidth)
{
    auto with_refresh = makeMc(McConfig{});
    auto without = makeMc(noRefreshCfg());
    streamReads(with_refresh, 1_MiB, 4_KiB);
    streamReads(without, 1_MiB, 4_KiB);
    with_refresh.drain();
    without.drain();
    EXPECT_LT(with_refresh.achievedBandwidth(), without.achievedBandwidth());
    // ~7 % refresh duty (tRFCpb / tREFIbank); allow slack for interference.
    EXPECT_GT(with_refresh.achievedBandwidth(),
              0.85 * without.achievedBandwidth());
}

TEST(ConventionalMc, RefreshesAreIssuedAtTheRequiredRate)
{
    auto mc = makeMc(McConfig{});
    // Idle channel: refreshes happen on schedule.
    mc.runUntil(100_us);
    // 128 banks, each refreshed every 3.9 us -> ~3282 REFpb in 100 us.
    const double expected = 100000.0 / 3900.0 * 128.0;
    const auto got = static_cast<double>(mc.device().counters().refPbs.value());
    EXPECT_NEAR(got, expected, 0.1 * expected);
}

TEST(ConventionalMc, SmallQueueLimitsRandomAccessBandwidth)
{
    // Random 32 B reads need deep queues to overlap tRC across banks
    // (§V-A: the conventional MC needs ~45+ entries).
    auto run = [](int depth) {
        McConfig cfg;
        cfg.refreshEnabled = false;
        cfg.readQueueDepth = depth;
        auto mc = makeMc(cfg);
        Rng rng(42);
        const DramConfig dram = hbm4Config();
        for (std::uint64_t i = 0; i < 20000; ++i) {
            const std::uint64_t line =
                rng.below(dram.org.channelCapacity() / 32);
            mc.enqueue({i + 1, ReqKind::Read, line * 32, 32, 0});
        }
        mc.drain();
        return mc.achievedBandwidth();
    };
    const double bw8 = run(8);
    const double bw64 = run(64);
    EXPECT_LT(bw8, 0.45 * bw64);
}

TEST(ConventionalMc, SingleReadLatencyIsActRcdClBurst)
{
    auto mc = makeMc(noRefreshCfg());
    mc.enqueue({1, ReqKind::Read, 0, 32, 0});
    mc.drain();
    ASSERT_EQ(mc.completions().size(), 1u);
    const TimingParams t = hbm4Timing();
    const Tick expect = t.tRCDRD + t.tCL + t.tBURST;
    EXPECT_DOUBLE_EQ(mc.latencyNs().mean(), nsFromTicks(expect));
}

TEST(ConventionalMc, WritesDrainAndComplete)
{
    auto mc = makeMc(noRefreshCfg());
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < 256_KiB; off += 4_KiB)
        mc.enqueue({id++, ReqKind::Write, off, 4_KiB, 0});
    mc.drain();
    EXPECT_EQ(mc.bytesWritten(), 256_KiB);
    EXPECT_TRUE(mc.idle());
    EXPECT_GT(mc.achievedBandwidth(), 40.0);
}

TEST(ConventionalMc, MixedReadWriteCompletesWithTurnaroundCost)
{
    auto mc = makeMc(noRefreshCfg());
    auto pure = makeMc(noRefreshCfg());
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < 512_KiB; off += 4_KiB) {
        const bool wr = (off / 4_KiB) % 4 == 3; // 25 % writes
        mc.enqueue({id++, wr ? ReqKind::Write : ReqKind::Read, off, 4_KiB,
                    0});
        pure.enqueue({id++, ReqKind::Read, off, 4_KiB, 0});
    }
    mc.drain();
    pure.drain();
    EXPECT_EQ(mc.bytesRead() + mc.bytesWritten(), 512_KiB);
    EXPECT_LT(mc.achievedBandwidth(), pure.achievedBandwidth());
    EXPECT_GT(mc.achievedBandwidth(), 0.5 * pure.achievedBandwidth());
}

TEST(ConventionalMc, AllRequestsCompleteExactlyOnce)
{
    auto mc = makeMc(McConfig{});
    streamReads(mc, 512_KiB, 2_KiB);
    mc.drain();
    EXPECT_EQ(mc.completions().size(), 512_KiB / 2_KiB);
    std::set<std::uint64_t> ids;
    for (const auto& c : mc.completions())
        EXPECT_TRUE(ids.insert(c.id).second);
}

TEST(ConventionalMc, RequestLargerThanQueueCompletes)
{
    McConfig cfg = noRefreshCfg();
    cfg.readQueueDepth = 16; // far below 4 KiB / 32 B = 128 ops
    auto mc = makeMc(cfg);
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.drain();
    ASSERT_EQ(mc.completions().size(), 1u);
    EXPECT_EQ(mc.bytesRead(), 4_KiB);
}

TEST(ConventionalMc, RejectsRequestsTheInFlightAccountingCannotHold)
{
    ConventionalMc mc = makeMc(McConfig{});
    // The last byte of the address space is addressable, but a request
    // whose end, addr + size, wraps 2^64 is not.
    mc.enqueue({1, ReqKind::Read, ~0ull - 64, 64, 0});
    mc.drain();
    EXPECT_EQ(mc.stats().completedRequests, 1u);
    for (const std::uint64_t addr : {~0ull - 63, ~0ull - 31}) {
        EXPECT_THROW(mc.enqueue({2, ReqKind::Read, addr, 64, 0}),
                     std::runtime_error);
    }
    // 2^31 32-byte column ops overflow the in-flight slot's op counter.
    ConventionalMc big = makeMc(McConfig{});
    big.enqueue({3, ReqKind::Read, 0, 64_GiB, 0});
    EXPECT_THROW(big.drain(), std::runtime_error);
}

TEST(ConventionalMc, ClosePolicyLeavesBanksPrecharged)
{
    McConfig cfg = noRefreshCfg();
    cfg.pagePolicy = PagePolicy::Close;
    auto mc = makeMc(cfg);
    streamReads(mc, 64_KiB, 4_KiB);
    mc.drain();
    // Run a little past the drain to let trailing precharges issue.
    mc.runUntil(mc.now() + 200_ns);
    const Organization org = hbm4Config().org;
    int open = 0;
    for (int pc = 0; pc < org.pcsPerChannel; ++pc)
        for (int sid = 0; sid < org.sidsPerChannel; ++sid)
            for (int bg = 0; bg < org.bankGroupsPerSid; ++bg)
                for (int ba = 0; ba < org.banksPerGroup; ++ba)
                    open += mc.device().bankRecord(
                        DramAddress{pc, sid, bg, ba, 0, 0}).open();
    EXPECT_EQ(open, 0);
}

TEST(ConventionalMc, OpenPolicyKeepsRowsOpen)
{
    auto mc = makeMc(noRefreshCfg());
    streamReads(mc, 64_KiB, 4_KiB);
    mc.drain();
    const Organization org = hbm4Config().org;
    int open = 0;
    for (int pc = 0; pc < org.pcsPerChannel; ++pc)
        for (int sid = 0; sid < org.sidsPerChannel; ++sid)
            for (int bg = 0; bg < org.bankGroupsPerSid; ++bg)
                for (int ba = 0; ba < org.banksPerGroup; ++ba)
                    open += mc.device().bankRecord(
                        DramAddress{pc, sid, bg, ba, 0, 0}).open();
    EXPECT_GT(open, 0);
}

TEST(ConventionalMc, AdaptivePolicyPrechargesIdleRows)
{
    McConfig cfg = noRefreshCfg();
    cfg.pagePolicy = PagePolicy::Adaptive;
    auto mc = makeMc(cfg);
    mc.enqueue({1, ReqKind::Read, 0, 4_KiB, 0});
    mc.drain();
    mc.runUntil(mc.now() + 1_us); // longer than the adaptive timeout
    const Organization org = hbm4Config().org;
    int open = 0;
    for (int pc = 0; pc < org.pcsPerChannel; ++pc)
        for (int sid = 0; sid < org.sidsPerChannel; ++sid)
            for (int bg = 0; bg < org.bankGroupsPerSid; ++bg)
                for (int ba = 0; ba < org.banksPerGroup; ++ba)
                    open += mc.device().bankRecord(
                        DramAddress{pc, sid, bg, ba, 0, 0}).open();
    EXPECT_EQ(open, 0);
}

TEST(ConventionalMc, PathologicalMappingDegradesBandwidth)
{
    const DramConfig dram = hbm4Config();
    ConventionalMc good(dram, bestBaselineMapping(dram.org), noRefreshCfg());
    ConventionalMc bad(dram, standardMappings(dram.org).back(),
                       noRefreshCfg());
    streamReads(good, 256_KiB, 4_KiB);
    streamReads(bad, 256_KiB, 4_KiB);
    good.drain();
    bad.drain();
    EXPECT_LT(bad.achievedBandwidth(), 0.5 * good.achievedBandwidth());
}

TEST(ConventionalMc, LatencyBoundedUnderLoad)
{
    auto mc = makeMc(McConfig{});
    streamReads(mc, 1_MiB, 4_KiB);
    mc.drain();
    // Age-based QoS keeps the tail bounded (well under the 5 us threshold
    // plus service time for this load).
    EXPECT_LT(mc.latencyNs().max(), 40000.0);
}

TEST(ConventionalMc, ComplexityMatchesTableIV)
{
    auto mc = makeMc(McConfig{});
    const McComplexity c = mc.complexity();
    EXPECT_EQ(c.numTimingParams, 15);
    EXPECT_EQ(c.numBankFsms, 64); // total banks per PC (Figure 4)
    EXPECT_EQ(c.numBankStates, 7);
    EXPECT_EQ(c.pagePolicy, "Open");
    EXPECT_EQ(c.requestQueueDepth, 64);
    EXPECT_EQ(c.schedulingConcerns.size(), 4u);
}

// ---------------------------------------------------------------------------
// Scheduler parity: the production (incremental per-bank) scheduler must
// make bit-identical decisions to the seed's rescan-everything scheduler,
// kept as the test-only oracle LegacyConventionalMc (tests/oracle/).
// ---------------------------------------------------------------------------

/** A drained run's stats and its timeline of committed commands. */
struct ConvRun
{
    ControllerStats stats;
    std::vector<TelemetrySink::Event> events;
};

/** Drain @p reqs through an @p Mc built from @p cfg, tracing commands. */
template <class Mc = ConventionalMc>
ConvRun
runConv(const McConfig& cfg, const std::vector<Request>& reqs,
        bool pathological_mapping = false,
        const DramConfig& dram = hbm4Config())
{
    const AddressMapping mapping = pathological_mapping
                                       ? standardMappings(dram.org).back()
                                       : bestBaselineMapping(dram.org);
    Mc mc(dram, mapping, cfg);
    TelemetrySink sink;
    mc.attachTelemetrySink(&sink, true);
    ConvRun run;
    run.stats = runWorkload(mc, reqs);
    run.events = sink.events();
    return run;
}

/**
 * ConventionalMc and the oracle agree on @p reqs under @p cfg: equal stats
 * and equal timelines, so every command has the same kind, bank, issue
 * tick and span, and every retry and spare the same tick. The production
 * run's stats land in @p stats when given.
 */
::testing::AssertionResult
schedulersAgree(const McConfig& cfg, const std::vector<Request>& reqs,
                bool pathological_mapping = false,
                const DramConfig& dram = hbm4Config(),
                ControllerStats* stats = nullptr)
{
    const ConvRun indexed = runConv(cfg, reqs, pathological_mapping, dram);
    const ConvRun legacy = runConv<LegacyConventionalMc>(
        cfg, reqs, pathological_mapping, dram);
    if (stats != nullptr)
        *stats = indexed.stats;
    if (!(indexed.stats == legacy.stats))
        return ::testing::AssertionFailure() << "stats differ";
    return sameTimeline(indexed.events, legacy.events);
}

std::vector<Request>
policyWorkload(std::uint64_t capacity = hbm4Config().org.channelCapacity())
{
    RandomPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 2_KiB;
    p.capacity = capacity;
    p.writeFraction = 0.3;
    p.seed = 42;
    return randomRequests(p);
}

std::vector<Request>
writeDrainWorkload()
{
    // Write bursts push occupancy through the high watermark; read tails
    // pull it back below the low watermark, so the hysteresis toggles.
    std::vector<Request> reqs;
    std::uint64_t id = 1;
    std::uint64_t addr = 0;
    for (int block = 0; block < 4; ++block) {
        for (int i = 0; i < 96; ++i) {
            reqs.push_back({id++, ReqKind::Write, addr, 4_KiB, 0});
            addr += 4_KiB;
        }
        for (int i = 0; i < 24; ++i) {
            reqs.push_back({id++, ReqKind::Read, addr, 4_KiB, 0});
            addr += 4_KiB;
        }
    }
    return reqs;
}

TEST(SchedulerParity, AllPagePoliciesAndWorkloads)
{
    // The default 128-entry queues, and 64-entry queues on the full
    // organization and on one with half its SIDs (64 banks).
    DramConfig two_sids = hbm4Config();
    two_sids.org.sidsPerChannel = 2;
    const std::pair<DramConfig, int> shapes[] = {
        {hbm4Config(), 128}, {hbm4Config(), 64}, {two_sids, 64}};
    for (const auto& [dram, depth] : shapes) {
        const auto policy_reqs = policyWorkload(dram.org.channelCapacity());
        const auto drain_reqs = writeDrainWorkload();
        RandomPattern fine;
        fine.totalBytes = 64_KiB;
        fine.requestBytes = 32;
        fine.capacity = dram.org.channelCapacity();
        fine.writeFraction = 0.1;
        fine.seed = 9;
        const auto fine_reqs = randomRequests(fine);

        for (const PagePolicy pol :
             {PagePolicy::Open, PagePolicy::Close, PagePolicy::Adaptive}) {
            for (const auto* reqs :
                 {&policy_reqs, &drain_reqs, &fine_reqs}) {
                McConfig cfg;
                cfg.pagePolicy = pol;
                cfg.readQueueDepth = depth;
                cfg.writeQueueDepth = depth;
                EXPECT_TRUE(schedulersAgree(cfg, *reqs, false, dram))
                    << dram.org.sidsPerChannel << " SIDs, depth " << depth
                    << ", policy " << static_cast<int>(pol);
            }
        }
    }
}

TEST(SchedulerParity, AgedQosAndSmallQueues)
{
    // A tight age threshold forces the aged-priority paths (forced CAS,
    // aged conflict precharges); a small queue stresses admission blocking.
    RandomPattern p;
    p.totalBytes = 128_KiB;
    p.requestBytes = 64;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.25;
    p.seed = 3;
    const auto reqs = randomRequests(p);

    McConfig cfg;
    cfg.readQueueDepth = 24;
    cfg.writeQueueDepth = 16;
    cfg.agePriorityThreshold = 300_ns;
    EXPECT_TRUE(schedulersAgree(cfg, reqs));

    // A threshold of a few bus slots lets a candidate that ties the cached
    // best of its (PC, bus) age before that best issues, so the aged tie
    // must overtake it.
    p.totalBytes = 64_KiB;
    p.requestBytes = 512;
    p.writeFraction = 0.3;
    p.seed = 1;
    const auto gathers = randomRequests(p);
    for (const Tick thr : {10_ns, 30_ns}) {
        cfg = McConfig{};
        cfg.agePriorityThreshold = thr;
        EXPECT_TRUE(schedulersAgree(cfg, gathers)) << "threshold " << thr;
    }
}

TEST(SchedulerParity, PathologicalMappingAndNoRefresh)
{
    // The worst standard mapping serializes traffic onto few banks, which
    // exercises the conflict-PRE representative selection heavily.
    StreamPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 4_KiB;
    p.writeFraction = 0.2;
    p.seed = 17;
    const auto reqs = streamRequests(p);

    for (const bool refresh : {true, false}) {
        McConfig cfg;
        cfg.refreshEnabled = refresh;
        EXPECT_TRUE(schedulersAgree(cfg, reqs, true))
            << "refresh " << refresh;
    }
}

TEST(SchedulerParity, FaultRetriesAndSparing)
{
    // Transient, weak and stuck rows on 4 KiB requests: at depth 16 a
    // retry re-enters between two admissions of one request, and a retry
    // whose budget runs out strikes its row and replays on a spare.
    RandomPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 4_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.2;
    p.seed = 5;
    const auto reqs = randomRequests(p);
    for (const int depth : {16, 128}) {
        McConfig cfg;
        cfg.readQueueDepth = depth;
        cfg.writeQueueDepth = depth;
        cfg.faults.enabled = true;
        cfg.faults.seed = 7;
        cfg.faults.transientLineRate = 2e-3;
        cfg.faults.weakRowFraction = 0.3;
        cfg.faults.weakRowOnset = 4;
        cfg.faults.stuckRowFraction = 0.05;
        cfg.faults.retryLimit = 1;
        cfg.faults.ceSpareThreshold = 2;
        ControllerStats s;
        EXPECT_TRUE(schedulersAgree(cfg, reqs, false, hbm4Config(), &s))
            << "depth " << depth;
        EXPECT_GT(s.retryCount, 0u) << "depth " << depth;
        EXPECT_GT(s.sparedRows, 0u) << "depth " << depth;
    }
}

TEST(SchedulerParity, ScrubDrivenSparing)
{
    // Half of all rows are stuck CE sites and one strike spares a row, so
    // the patrol scrub, which starts at bank 0 row 0, remaps rows that a
    // sequential stream from address 0 still has ops queued on.
    StreamPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 4_KiB;
    const auto reqs = streamRequests(p);
    McConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.stuckRowFraction = 0.5;
    cfg.faults.stuckDueFraction = 0.0;
    cfg.faults.ceSpareThreshold = 1;
    cfg.faults.scrubRowsPerRefresh = 64;
    ControllerStats s;
    EXPECT_TRUE(schedulersAgree(cfg, reqs, false, hbm4Config(), &s));
    EXPECT_GT(s.sparedRows, 0u);
    EXPECT_GT(s.retryCount, 0u);
}

TEST(SchedulerParity, ArrivalGaps)
{
    // Bursts of four random requests every 300 ns drain before the next
    // burst, so both schedulers advance idle time, and adaptive rows
    // time out in the gaps.
    RandomPattern p;
    p.totalBytes = 128_KiB;
    p.requestBytes = 512;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.3;
    p.seed = 11;
    auto reqs = randomRequests(p);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        reqs[i].arrival = static_cast<Tick>(i / 4) * 300_ns;
    for (const bool refresh : {false, true}) {
        for (const PagePolicy pol :
             {PagePolicy::Open, PagePolicy::Close, PagePolicy::Adaptive}) {
            McConfig cfg;
            cfg.refreshEnabled = refresh;
            cfg.pagePolicy = pol;
            EXPECT_TRUE(schedulersAgree(cfg, reqs))
                << "refresh " << refresh << ", policy "
                << static_cast<int>(pol);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden-stats snapshots: integer command/byte counts of the pre-refactor
// scheduler, pinned so any future decision-order change is caught even if
// the production scheduler and the oracle drift together.
// ---------------------------------------------------------------------------

struct GoldenStats
{
    const char* name;
    std::uint64_t acts, pres, reads, writes, refPbs, colCmds;
    std::uint64_t completedRequests, totalBytes;
    Tick finishedAt;
};

void
expectGolden(const ControllerStats& s, const GoldenStats& g)
{
    EXPECT_EQ(s.acts, g.acts) << g.name;
    EXPECT_EQ(s.pres, g.pres) << g.name;
    EXPECT_EQ(s.reads, g.reads) << g.name;
    EXPECT_EQ(s.writes, g.writes) << g.name;
    EXPECT_EQ(s.refPbs, g.refPbs) << g.name;
    EXPECT_EQ(s.colCmds, g.colCmds) << g.name;
    EXPECT_EQ(s.completedRequests, g.completedRequests) << g.name;
    EXPECT_EQ(s.totalBytes(), g.totalBytes) << g.name;
    EXPECT_EQ(s.finishedAt, g.finishedAt) << g.name;
}

TEST(SchedulerGolden, PagePolicySnapshots)
{
    const GoldenStats golden[] = {
        {"open", 1030u, 925u, 5632u, 2560u, 155u, 8192u, 128u, 262144u,
         19028},
        {"close", 1063u, 1059u, 5632u, 2560u, 150u, 8192u, 128u, 262144u,
         18320},
        {"adaptive", 1046u, 1027u, 5632u, 2560u, 149u, 8192u, 128u,
         262144u, 18320},
    };
    const PagePolicy policies[] = {PagePolicy::Open, PagePolicy::Close,
                                   PagePolicy::Adaptive};
    const auto reqs = policyWorkload();
    for (int i = 0; i < 3; ++i) {
        McConfig cfg;
        cfg.pagePolicy = policies[i];
        expectGolden(runConv(cfg, reqs).stats, golden[i]);
        expectGolden(runConv<LegacyConventionalMc>(cfg, reqs).stats,
                     golden[i]);
    }
}

TEST(SchedulerGolden, WriteDrainHysteresisSnapshot)
{
    const GoldenStats golden{"write-drain", 1955u, 1859u, 12288u, 49152u,
                             1030u, 61440u, 480u, 1966080u, 126372};
    const auto reqs = writeDrainWorkload();
    expectGolden(runConv(McConfig{}, reqs).stats, golden);
    expectGolden(runConv<LegacyConventionalMc>(McConfig{}, reqs).stats,
                 golden);
}

} // namespace
} // namespace rome
