/**
 * @file
 * Slice-invariance property tests: any partition of simulated time into
 * runUntil windows must be bit-identical to the unsliced drain.
 *
 * Since decisions are anchored to event ticks (now_ never lands on a
 * window bound between events), the controllers cannot observe where
 * time was sliced: refresh-calendar firing, age-priority tie-breaks and
 * write-drain hysteresis flips all evaluate at the same ticks in every
 * partition. These tests drive pseudo-random slice boundaries — widths
 * spanning sub-command-gap to multi-microsecond scales — against one
 * unsliced runUntil window over the same horizon, on every design point
 * of both stacks, the hybrid router and the fault path, asserting full
 * ControllerStats equality (which includes the latency histogram). The
 * windowed drain (drainUntil) is checked against one drain() the same
 * way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

/** splitmix64: deterministic slice-width stream. */
std::uint64_t
nextRand(std::uint64_t& s)
{
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Drive @p mc through pseudo-random runUntil windows partitioning
 * [now, end]. Widths mix four scales so boundaries land inside command
 * gaps, between commands, between refreshes, and across many refresh
 * intervals. The final slice lands exactly on @p end so both runs cover
 * the same horizon (past its work a controller keeps honoring the
 * refresh calendar, so a longer window would legitimately issue more
 * refreshes than the oracle's).
 */
void
slicedDrain(IMemoryController& mc, std::uint64_t seed, Tick end)
{
    std::uint64_t s = seed;
    Tick t = mc.now();
    std::uint64_t guard = 0;
    while (!mc.idle()) {
        const std::uint64_t x = nextRand(s);
        const std::uint64_t v = x >> 8;
        Tick w = 0;
        switch (x & 3) {
        case 0: // a few raw ticks: sub-command-gap boundaries
            w = 1 + static_cast<Tick>(v % 7);
            break;
        case 1: // tens of ns: between commands
            w = ticksFromNs(static_cast<std::int64_t>(1 + v % 97));
            break;
        case 2: // ~a refresh interval's scale
            w = ticksFromNs(static_cast<std::int64_t>(1 + v % 1500));
            break;
        default: // multi-microsecond jumps
            w = ticksFromNs(static_cast<std::int64_t>(1 + v % 20000));
            break;
        }
        t = std::min(t + w, end);
        mc.runUntil(t);
        if (t >= end)
            break;
        ASSERT_LT(++guard, 5'000'000u) << "sliced drive failed to finish";
    }
    EXPECT_TRUE(mc.idle()) << "sliced drive not idle at the oracle's end";
}

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
    p.totalBytes = 384_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = write_fraction;
    return spaced(randomRequests(p), 40);
}

template <typename Mc>
void
enqueueAll(Mc& mc, const std::vector<Request>& reqs)
{
    for (const auto& r : reqs)
        mc.enqueue(r);
}

/**
 * The partition property: many runUntil windows covering [0, end] must
 * equal ONE runUntil(end) window. A probe drain() only discovers the
 * horizon — it is not the oracle, because drain stops the moment the
 * work is done while runUntil additionally honors every refresh due
 * inside its window (an idle channel's calendar keeps firing); the two
 * drives agree on all data movement but legitimately differ in trailing
 * refresh catch-up. Checkpoint/restore and sharded sweeps slice with
 * runUntil, so the windowed run is the semantics that must be invariant.
 */
template <typename MakeMc>
void
expectSliceInvariant(MakeMc make, const std::vector<Request>& reqs,
                     const std::string& label)
{
    Tick end = 0;
    {
        auto probe = make();
        enqueueAll(*probe, reqs);
        probe->drain();
        end = probe->now();
        EXPECT_EQ(probe->stats().completedRequests, reqs.size()) << label;
    }

    auto oracle = make();
    enqueueAll(*oracle, reqs);
    oracle->runUntil(end);
    EXPECT_TRUE(oracle->idle()) << label << ": oracle not idle at horizon";
    const ControllerStats want = oracle->stats();
    EXPECT_EQ(want.completedRequests, reqs.size()) << label;

    for (const std::uint64_t seed : {1ULL, 42ULL, 0xdecafULL}) {
        auto sliced = make();
        enqueueAll(*sliced, reqs);
        slicedDrain(*sliced, seed, end);
        EXPECT_TRUE(want == sliced->stats())
            << label << ": slicing seed " << seed
            << " diverged from the unsliced oracle";
        EXPECT_EQ(oracle->completions().size(),
                  sliced->completions().size())
            << label;
    }
}

TEST(SliceInvariance, ConventionalEveryPagePolicy)
{
    const DramConfig dram = hbm4Config();
    // writeFraction 0.3 crosses the drain hysteresis both ways; refresh
    // stays on so the calendar fires mid-slice.
    const auto reqs = mixedWorkload(101, 0.3);
    int i = 0;
    for (const PagePolicy pol :
         {PagePolicy::Open, PagePolicy::Close, PagePolicy::Adaptive}) {
        McConfig cfg;
        cfg.pagePolicy = pol;
        expectSliceInvariant(
            [&] {
                return std::make_unique<ConventionalMc>(
                    dram, bestBaselineMapping(dram.org), cfg);
            },
            reqs, "hbm4 policy " + std::to_string(i));
        ++i;
    }
}

TEST(SliceInvariance, ConventionalWithFaults)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(107, 0.2);
    McConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.transientLineRate = 2e-4;
    cfg.faults.stuckRowFraction = 0.01;
    cfg.faults.weakRowFraction = 0.02;
    expectSliceInvariant(
        [&] {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), cfg);
        },
        reqs, "hbm4 faults");
}

TEST(SliceInvariance, RomeEveryVbaDesignPoint)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(211, 0.3);
    int i = 0;
    for (const VbaDesign& d : VbaDesign::all()) {
        expectSliceInvariant(
            [&] {
                return std::make_unique<RomeMc>(dram, d, RomeMcConfig{});
            },
            reqs, "rome design " + std::to_string(i));
        ++i;
    }
}

TEST(SliceInvariance, RomeEveryMapOrder)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(223, 0.3);
    int i = 0;
    for (const RomeMapOrder order :
         {RomeMapOrder::SidVbaRow, RomeMapOrder::RowVbaSid}) {
        expectSliceInvariant(
            [&] {
                return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                                RomeMcConfig{}, order);
            },
            reqs, "rome map order " + std::to_string(i));
        ++i;
    }
}

TEST(SliceInvariance, RomeWithFaults)
{
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(227, 0.25);
    RomeMcConfig faulty;
    faulty.faults.enabled = true;
    faulty.faults.transientLineRate = 2e-5;
    faulty.faults.stuckRowFraction = 0.01;
    faulty.faults.weakRowFraction = 0.02;
    expectSliceInvariant(
        [&] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                            faulty);
        },
        reqs, "rome faults");
}

TEST(SliceInvariance, HybridRouterInterleavesFreely)
{
    const DramConfig dram = hbm4Config();
    SparseMixPattern p;
    p.fineFraction = 0.3;
    p.totalBytes = 768_KiB;
    p.coarseBytes = 6_KiB;
    const auto reqs = spaced(sparseMixRequests(p), 40);
    expectSliceInvariant(
        [&] { return std::make_unique<HybridMc>(dram, HybridConfig{}); },
        reqs, "hybrid");
}

TEST(SliceInvariance, DrainUntilWindowsEqualOneDrain)
{
    // drainUntil windows are a sliced drain(): wherever the bounds fall,
    // and however far the last window overshoots the finish, the result
    // is one drain()'s — refreshes included. runUntil to a bound past
    // the finish keeps firing the idle controller's refresh calendar.
    const DramConfig dram = hbm4Config();
    const auto reqs = mixedWorkload(307, 0.3);
    const std::vector<std::function<std::unique_ptr<IMemoryController>()>>
        makes{[&]() -> std::unique_ptr<IMemoryController> {
                  return std::make_unique<ConventionalMc>(
                      dram, bestBaselineMapping(dram.org), McConfig{});
              },
              [&]() -> std::unique_ptr<IMemoryController> {
                  return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                                  RomeMcConfig{});
              }};
    for (const auto& make : makes) {
        auto oracle = make();
        enqueueAll(*oracle, reqs);
        const Tick finish = oracle->drain();
        const ControllerStats want = oracle->stats();
        const std::string label = oracle->name();

        for (const std::uint64_t seed : {5ULL, 77ULL}) {
            auto sliced = make();
            enqueueAll(*sliced, reqs);
            std::uint64_t s = seed;
            Tick until = 0;
            Tick done = kTickInvalid;
            while (done == kTickInvalid) {
                until += ticksFromNs(static_cast<std::int64_t>(
                    1 + (nextRand(s) >> 8) % 5000));
                done = sliced->drainUntil(until);
            }
            EXPECT_EQ(done, finish) << label << " seed " << seed;
            EXPECT_TRUE(sliced->stats() == want) << label << " seed " << seed;
        }

        auto overrun = make();
        enqueueAll(*overrun, reqs);
        overrun->drain();
        overrun->runUntil(finish + 20_us);
        EXPECT_GT(overrun->stats().refPbs + overrun->stats().refAbs,
                  want.refPbs + want.refAbs)
            << label;
    }
}

} // namespace
} // namespace rome
