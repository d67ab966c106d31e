/**
 * @file
 * Workload-source tests: streamed generators are bit-identical to the
 * eager vector builders, every source replays deterministically after
 * reset(), ReplaySource streaming reproduces the pre-redesign eager
 * enqueue path on both controller stacks, traces round-trip through both
 * encodings to identical ControllerStats, arrival processes and
 * combinators behave as specified, and a long streamed workload runs in
 * O(queue depth) host memory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/memsim.h"
#include "sim/source.h"
#include "sim/trace.h"

namespace rome
{
namespace
{

using namespace rome::literals;

bool
sameRequest(const Request& a, const Request& b)
{
    return a.id == b.id && a.kind == b.kind && a.addr == b.addr &&
           a.size == b.size && a.arrival == b.arrival;
}

bool
sameRequests(const std::vector<Request>& a, const std::vector<Request>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!sameRequest(a[i], b[i]))
            return false;
    }
    return true;
}

/** Temp file path unique to this test process. */
std::string
tmpPath(const char* name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Generator sources
// ---------------------------------------------------------------------------

TEST(Source, StreamedGeneratorsMatchVectorBuilders)
{
    const std::uint64_t cap = hbm4Config().org.channelCapacity();

    StreamPattern sp{256_KiB, 4_KiB, 1_MiB, 0, 0.3, 17};
    StreamSource ss(sp);
    EXPECT_TRUE(sameRequests(collectRequests(ss), streamRequests(sp)));

    RandomPattern rp{128_KiB, 2_KiB, cap, 0.25, 23};
    RandomSource rs(rp);
    EXPECT_TRUE(sameRequests(collectRequests(rs), randomRequests(rp)));

    SparseMixPattern mp;
    mp.totalBytes = 256_KiB;
    mp.fineFraction = 0.4;
    SparseMixSource ms(mp);
    EXPECT_TRUE(sameRequests(collectRequests(ms), sparseMixRequests(mp)));

    ChannelWorkloadProfile pp;
    pp.totalBytes = 512_KiB;
    ProfileSource ps(pp, false, 4096, cap);
    EXPECT_TRUE(sameRequests(collectRequests(ps),
                             profileRequests(pp, false, 4096, cap)));
}

TEST(Source, DeterministicReplayAfterReset)
{
    const std::uint64_t cap = hbm4Config().org.channelCapacity();
    const auto check = [](RequestSource& src) {
        const auto first = collectRequests(src);
        EXPECT_FALSE(first.empty());
        EXPECT_TRUE(src.exhausted());
        EXPECT_EQ(src.nextArrival(), kTickMax);
        src.reset();
        EXPECT_TRUE(sameRequests(first, collectRequests(src)));
    };

    StreamSource stream(StreamPattern{64_KiB, 4_KiB, 0, 0, 0.5, 3});
    check(stream);
    RandomSource random(RandomPattern{64_KiB, 2_KiB, cap, 0.5, 5});
    check(random);
    SparseMixPattern mp;
    mp.totalBytes = 64_KiB;
    SparseMixSource sparse(mp);
    check(sparse);
    ChannelWorkloadProfile pp;
    pp.totalBytes = 64_KiB;
    ProfileSource profile(pp, true, 4096, cap);
    check(profile);
    ReplaySource replay(streamRequests({64_KiB, 4_KiB}));
    check(replay);

    ArrivalSpec spec;
    spec.model = ArrivalModel::Poisson;
    spec.meanGap = 100;
    ArrivalProcess shaped(
        std::make_unique<RandomSource>(RandomPattern{64_KiB, 2_KiB, cap}),
        spec);
    check(shaped);

    std::vector<std::unique_ptr<RequestSource>> parts;
    parts.push_back(std::make_unique<StreamSource>(
        StreamPattern{32_KiB, 4_KiB}));
    parts.push_back(std::make_unique<RandomSource>(
        RandomPattern{32_KiB, 2_KiB, cap}));
    MixSource mix(std::move(parts));
    check(mix);

    ShardSource shard(std::make_unique<StreamSource>(
                          StreamPattern{64_KiB, 4_KiB}),
                      1, 4);
    check(shard);
}

TEST(Source, LookaheadPeeksWithoutConsuming)
{
    StreamSource src(StreamPattern{16_KiB, 4_KiB});
    EXPECT_FALSE(src.exhausted());
    EXPECT_EQ(src.nextArrival(), 0);
    Request r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.id, 1u);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.id, 2u); // nextArrival()/exhausted() consumed nothing
}

// ---------------------------------------------------------------------------
// ReplaySource parity with the eager enqueue path
// ---------------------------------------------------------------------------

TEST(Source, ReplayStreamingMatchesEagerEnqueueOnBothStacks)
{
    const DramConfig dram = hbm4Config();
    RandomPattern p{512_KiB, 2_KiB, dram.org.channelCapacity(), 0.25, 11};
    const auto reqs = randomRequests(p);

    for (const MemorySystem sys :
         {MemorySystem::Hbm4, MemorySystem::RoMe}) {
        // Pre-redesign path: enqueue everything, then drain.
        auto eager = makeChannelController(sys, dram);
        for (const auto& r : reqs)
            eager->enqueue(r);
        eager->drain();

        // Streaming path: bounded host window over a ReplaySource.
        auto streamed = makeChannelController(sys, dram);
        ReplaySource src(reqs);
        const ControllerStats ss = runWorkload(*streamed, src);

        EXPECT_TRUE(eager->stats() == ss)
            << "streaming diverged from eager drive on "
            << eager->name();
        EXPECT_EQ(eager->completions().size(),
                  streamed->completions().size());
        auto* base = dynamic_cast<ChannelControllerBase*>(streamed.get());
        ASSERT_NE(base, nullptr);
        EXPECT_LE(base->hostBufferPeak(), base->sourceWindow());
    }
}

// ---------------------------------------------------------------------------
// Trace round-trips
// ---------------------------------------------------------------------------

TEST(Trace, RoundTripsBothEncodingsToIdenticalStats)
{
    const DramConfig dram = hbm4Config();
    // A shaped, mixed workload: arrivals exercise the i64 field.
    ArrivalSpec spec;
    spec.model = ArrivalModel::Fixed;
    spec.meanGap = 64;
    ArrivalProcess original(
        std::make_unique<RandomSource>(RandomPattern{
            256_KiB, 2_KiB, dram.org.channelCapacity(), 0.3, 29}),
        spec);
    const auto want = collectRequests(original);
    original.reset();

    for (const TraceFormat fmt : {TraceFormat::Text, TraceFormat::Binary}) {
        const std::string path = tmpPath(
            fmt == TraceFormat::Text ? "rt.trace" : "rt.btrace");
        EXPECT_EQ(recordTrace(original, path, fmt), want.size());
        original.reset();

        TraceSource replay(path);
        EXPECT_EQ(replay.format(), fmt);
        EXPECT_TRUE(sameRequests(collectRequests(replay), want));

        // Replayed trace drives both stacks to the generator's stats.
        for (const MemorySystem sys :
             {MemorySystem::Hbm4, MemorySystem::RoMe}) {
            auto from_gen = makeChannelController(sys, dram);
            const ControllerStats a = runWorkload(*from_gen, original);
            original.reset();
            auto from_trace = makeChannelController(sys, dram);
            replay.reset();
            const ControllerStats b = runWorkload(*from_trace, replay);
            EXPECT_TRUE(a == b) << "trace replay diverged on "
                                << from_trace->name();
        }
        std::remove(path.c_str());
    }
}

TEST(Trace, RejectsDecreasingArrivals)
{
    const std::string path = tmpPath("bad.trace");
    {
        TraceRecorder rec(path, TraceFormat::Text);
        ASSERT_TRUE(rec.ok());
        rec.record(Request{1, ReqKind::Read, 0, 4096, 1000});
        rec.record(Request{2, ReqKind::Read, 4096, 4096, 0});
    }
    TraceSource trace(path);
    Request r;
    EXPECT_TRUE(trace.next(r));
    EXPECT_THROW(trace.next(r), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, CheckedInFixtureReplays)
{
    TraceSource trace(std::string(ROME_SOURCE_DIR) +
                      "/tests/data/sample.trace");
    const auto reqs = collectRequests(trace);
    ASSERT_EQ(reqs.size(), 32u);
    EXPECT_EQ(reqs.front().arrival, 0);
    EXPECT_EQ(reqs.back().arrival, 3968);

    trace.reset();
    auto mc = makeChannelController(MemorySystem::RoMe, hbm4Config());
    const ControllerStats s = runWorkload(*mc, trace);
    EXPECT_EQ(s.completedRequests, 32u);
    EXPECT_GT(s.totalBytes(), 0u);
}

TEST(Trace, CorpusPhaseTracesReplayOnBothStacks)
{
    // The checked-in LLM phase traces (binary v1, recorded by
    // `trace_replay record ... decode|prefill`) drive both stacks
    // deterministically.
    for (const char* phase : {"decode", "prefill"}) {
        TraceSource trace(std::string(ROME_SOURCE_DIR) + "/tests/data/" +
                          phase + ".trace");
        EXPECT_EQ(trace.format(), TraceFormat::Binary);
        const auto reqs = collectRequests(trace);
        ASSERT_GT(reqs.size(), 100u) << phase;
        std::uint64_t bytes = 0;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            bytes += reqs[i].size;
            if (i > 0) {
                EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
            }
        }
        // The recorder drains the generator, which finishes the request
        // that crosses its byte budget.
        EXPECT_GE(bytes, 2_MiB) << phase;
        EXPECT_LT(bytes, 2_MiB + 64_KiB) << phase;

        for (const MemorySystem sys :
             {MemorySystem::Hbm4, MemorySystem::RoMe}) {
            trace.reset();
            auto a = makeChannelController(sys, hbm4Config());
            const ControllerStats sa = runWorkload(*a, trace);
            EXPECT_EQ(sa.completedRequests, reqs.size()) << phase;
            trace.reset();
            auto b = makeChannelController(sys, hbm4Config());
            EXPECT_TRUE(sa == runWorkload(*b, trace))
                << phase << " replay is not deterministic";
        }
    }
}

TEST(Trace, BurstyServingFixtureReplaysOnBothStacks)
{
    // Recorded by `trace_replay record ... serve --bursty`: two tenants
    // of Poisson-arriving 16-request bursts, so many requests share an
    // arrival tick and admission comes in aperiodic waves.
    TraceSource trace(std::string(ROME_SOURCE_DIR) +
                      "/tests/data/serving_bursty.trace");
    EXPECT_EQ(trace.format(), TraceFormat::Binary);
    const auto reqs = collectRequests(trace);
    ASSERT_GT(reqs.size(), 100u);
    std::size_t tied = 0;
    for (std::size_t i = 1; i < reqs.size(); ++i) {
        EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
        tied += reqs[i].arrival == reqs[i - 1].arrival;
    }
    // Burst members share an arrival tick: ties dominate the stream.
    EXPECT_GT(tied, reqs.size() / 2);

    for (const MemorySystem sys : {MemorySystem::Hbm4, MemorySystem::RoMe}) {
        auto a = makeChannelController(sys, hbm4Config());
        trace.reset();
        const ControllerStats sa = runWorkload(*a, trace);
        EXPECT_EQ(sa.completedRequests, reqs.size());
        auto b = makeChannelController(sys, hbm4Config());
        trace.reset();
        EXPECT_TRUE(sa == runWorkload(*b, trace))
            << "bursty replay is not deterministic";
    }
}

// ---------------------------------------------------------------------------
// Arrival processes and combinators
// ---------------------------------------------------------------------------

TEST(Source, FixedRateArrivalsAreEquallySpaced)
{
    ArrivalSpec spec;
    spec.model = ArrivalModel::Fixed;
    spec.meanGap = 40;
    spec.start = 1000;
    ArrivalProcess src(std::make_unique<StreamSource>(
                           StreamPattern{64_KiB, 4_KiB}),
                       spec);
    const auto reqs = collectRequests(src);
    ASSERT_EQ(reqs.size(), 16u);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(reqs[i].arrival, 1000 + 40 * static_cast<Tick>(i));
}

TEST(Source, PoissonArrivalsAreMonotoneWithRoughlyTheRequestedMean)
{
    ArrivalSpec spec;
    spec.model = ArrivalModel::Poisson;
    spec.meanGap = 200;
    ArrivalProcess src(std::make_unique<StreamSource>(
                           StreamPattern{4_MiB, 4_KiB}),
                       spec);
    const auto reqs = collectRequests(src);
    ASSERT_EQ(reqs.size(), 1024u);
    for (std::size_t i = 1; i < reqs.size(); ++i)
        EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
    const double mean = static_cast<double>(reqs.back().arrival) /
                        static_cast<double>(reqs.size() - 1);
    EXPECT_NEAR(mean, 200.0, 25.0); // ~3 sigma for 1k exponential draws
}

TEST(Source, BurstyArrivalsGroupIntoBursts)
{
    ArrivalSpec spec;
    spec.model = ArrivalModel::Bursty;
    spec.meanGap = 100;
    spec.burstLen = 4;
    ArrivalProcess src(std::make_unique<StreamSource>(
                           StreamPattern{128_KiB, 4_KiB}),
                       spec);
    const auto reqs = collectRequests(src);
    ASSERT_EQ(reqs.size(), 32u);
    for (std::size_t i = 0; i < reqs.size(); i += 4) {
        // All four requests of a burst share one arrival tick.
        for (std::size_t j = 1; j < 4; ++j) {
            EXPECT_EQ(reqs[i + j].arrival, reqs[i].arrival);
        }
        if (i > 0) {
            EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
        }
    }
}

TEST(Source, MixMergesByArrivalAndReassignsIds)
{
    const auto tenant = [](Tick start, std::uint64_t base) {
        ArrivalSpec spec;
        spec.meanGap = 100;
        spec.start = start;
        return std::make_unique<ArrivalProcess>(
            std::make_unique<StreamSource>(
                StreamPattern{32_KiB, 4_KiB, base}),
            spec);
    };
    std::vector<std::unique_ptr<RequestSource>> parts;
    parts.push_back(tenant(0, 0));
    parts.push_back(tenant(50, 1_MiB));
    MixSource mix(std::move(parts));
    const auto reqs = collectRequests(mix);
    ASSERT_EQ(reqs.size(), 16u);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(reqs[i].id, i + 1); // ids reassigned sequentially
        // Perfect interleave: tenants alternate at 0,50,100,150,...
        EXPECT_EQ(reqs[i].arrival, static_cast<Tick>(i) * 50);
        EXPECT_EQ(reqs[i].addr >= 1_MiB, i % 2 == 1);
    }
}

TEST(Source, ShardsPartitionTheStream)
{
    const int shards = 4;
    StreamSource whole(StreamPattern{256_KiB, 4_KiB});
    const auto all = collectRequests(whole);

    std::vector<Request> merged;
    for (int s = 0; s < shards; ++s) {
        ShardSource shard(std::make_unique<StreamSource>(
                              StreamPattern{256_KiB, 4_KiB}),
                          s, shards);
        const auto part = collectRequests(shard);
        EXPECT_EQ(part.size(), all.size() / shards);
        for (std::size_t i = 0; i < part.size(); ++i) {
            // Round-robin deal: shard s yields items s, s+4, s+8, ...
            const auto& expect =
                all[i * shards + static_cast<std::size_t>(s)];
            EXPECT_TRUE(sameRequest(part[i], expect));
        }
        merged.insert(merged.end(), part.begin(), part.end());
    }
    EXPECT_EQ(merged.size(), all.size());

    // Address-stripe mode: shard of every request is its addr stripe.
    ShardSource striped(std::make_unique<StreamSource>(
                            StreamPattern{256_KiB, 4_KiB}),
                        2, shards, 4_KiB);
    for (const auto& r : collectRequests(striped))
        EXPECT_EQ(r.addr / 4_KiB % shards, 2u);
}

TEST(Source, SkipTrimsTheHeadAndComposesWithTake)
{
    const StreamPattern p{64_KiB, 4_KiB}; // 16 requests
    StreamSource whole(p);
    const auto all = collectRequests(whole);

    // The tail passes through untouched: ids and arrivals included.
    SkipSource skip(std::make_unique<StreamSource>(p), 5);
    const auto tail = collectRequests(skip);
    ASSERT_EQ(tail.size(), all.size() - 5);
    for (std::size_t i = 0; i < tail.size(); ++i)
        EXPECT_TRUE(sameRequest(tail[i], all[i + 5]));

    // Deterministic replay after reset.
    skip.reset();
    EXPECT_TRUE(sameRequests(tail, collectRequests(skip)));

    // Skipping past the end yields an empty stream, not an error.
    SkipSource past(std::make_unique<StreamSource>(p), 1000);
    EXPECT_TRUE(collectRequests(past).empty());
    EXPECT_EQ(past.nextArrival(), kTickMax);

    // Skip + Take carve a window out of the middle of the stream.
    TakeSource window(
        std::make_unique<SkipSource>(std::make_unique<StreamSource>(p), 4),
        8);
    const auto win = collectRequests(window);
    ASSERT_EQ(win.size(), 8u);
    for (std::size_t i = 0; i < win.size(); ++i)
        EXPECT_TRUE(sameRequest(win[i], all[i + 4]));
}

// ---------------------------------------------------------------------------
// Bounded-memory streaming
// ---------------------------------------------------------------------------

TEST(Source, LongStreamedWorkloadRunsInBoundedHostMemory)
{
    const DramConfig dram = hbm4Config();
    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = 50000 * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    p.writeFraction = 0.1;
    RandomSource source(p);

    RomeMc mc(dram, VbaDesign::adopted(), RomeMcConfig{});
    mc.setRetainCompletions(false); // O(1) memory: no completion log
    const ControllerStats s = runWorkload(mc, source);

    EXPECT_EQ(s.completedRequests, 50000u);
    EXPECT_TRUE(mc.completions().empty());
    EXPECT_GT(s.latencyMeanNs, 0.0);
    // Host buffer never exceeded the source window: O(queue depth), not
    // O(workload).
    EXPECT_LE(mc.hostBufferPeak(), mc.sourceWindow());
}

TEST(Source, EngineDrivesBoundSources)
{
    const DramConfig dram = hbm4Config();
    ChannelSimEngine engine(2);
    const int n = 2;
    std::vector<ControllerStats> direct(n);
    for (int i = 0; i < n; ++i) {
        const RandomPattern p{128_KiB, 2_KiB, dram.org.channelCapacity(),
                              0.2, 40 + static_cast<std::uint64_t>(i)};
        engine.addChannel(makeChannelController(MemorySystem::Hbm4, dram));
        engine.bindSource(i, std::make_unique<RandomSource>(p));
        auto mc = makeChannelController(MemorySystem::Hbm4, dram);
        RandomSource src(p);
        direct[static_cast<std::size_t>(i)] = runWorkload(*mc, src);
    }
    EXPECT_FALSE(engine.idle());
    engine.drainAll();
    EXPECT_TRUE(engine.idle());
    for (int i = 0; i < n; ++i) {
        EXPECT_TRUE(engine.channel(i).stats() ==
                    direct[static_cast<std::size_t>(i)]);
    }
}

} // namespace
} // namespace rome
