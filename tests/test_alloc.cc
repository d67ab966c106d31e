/**
 * @file
 * Zero allocations per scheduling step. A counting global operator new
 * proves that each stack's indexed scheduler, once warmed up on a steady
 * pre-enqueued workload, steps through a long window without touching
 * the heap: once with telemetry off, and once with the counter tier
 * (stall attribution, latency breakdown, time series) on.
 *
 * This is its own test binary because it replaces the global allocator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/workloads.h"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
}

void*
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace rome
{
namespace
{

using namespace rome::literals;

/** 2 KiB random requests, a quarter of them writes (write drains too). */
std::vector<Request>
mixedRequests(std::uint64_t total)
{
    RandomPattern p;
    p.totalBytes = total;
    p.requestBytes = 2_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.25;
    p.seed = 7;
    return randomRequests(p);
}

/**
 * Enqueue @p reqs, run to @p warm (queues, heaps and bus calendars reach
 * their steady capacity), then count allocations while stepping on to
 * @p end. The workload outlasts the window, so every step in it is a
 * steady-state step.
 */
void
expectAllocFreeWindow(ChannelControllerBase& mc,
                      const std::vector<Request>& reqs, Tick warm, Tick end)
{
    for (const Request& r : reqs)
        mc.enqueue(r);
    mc.runUntil(warm);
    const std::uint64_t steps0 = mc.stepsExecuted();
    const std::uint64_t allocs0 = g_allocs.load();
    mc.runUntil(end);
    const std::uint64_t allocs = g_allocs.load() - allocs0;
    const std::uint64_t steps = mc.stepsExecuted() - steps0;
    EXPECT_FALSE(mc.idle()) << "the workload ran out inside the window";
    EXPECT_GT(steps, 1000u);
    EXPECT_EQ(allocs, 0u) << "over " << steps << " steps";
}

void
conventionalWindow(bool counters)
{
    const DramConfig dram = hbm4Config();
    McConfig cfg;
    cfg.telemetry.counters = counters;
    ConventionalMc mc(dram, bestBaselineMapping(dram.org), cfg);
    expectAllocFreeWindow(mc, mixedRequests(16_MiB), 60_us, 220_us);
}

void
romeWindow(bool counters)
{
    StreamPattern p;
    p.totalBytes = 64_MiB;
    p.requestBytes = 4_KiB;
    RomeMcConfig cfg;
    cfg.queueDepth = 128;
    cfg.telemetry.counters = counters;
    RomeMc mc(hbm4Config(), VbaDesign::adopted(), cfg);
    expectAllocFreeWindow(mc, streamRequests(p), 120_us, 280_us);
}

TEST(AllocFree, ConventionalStep) { conventionalWindow(false); }

TEST(AllocFree, ConventionalStepWithCounters) { conventionalWindow(true); }

TEST(AllocFree, RomeStep) { romeWindow(false); }

TEST(AllocFree, RomeStepWithCounters) { romeWindow(true); }

} // namespace
} // namespace rome
