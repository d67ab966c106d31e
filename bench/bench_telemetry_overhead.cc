/**
 * @file
 * Telemetry counter-tier overhead: times identical drains of one
 * conventional HBM4 channel with telemetry counters off and on, and gates
 * the cost below 10%.
 *
 * Stall attribution and the latency breakdown ride the scheduler hot
 * path. The workload is 8 MiB of 2 KiB random requests (25% writes,
 * seed 7) at queue depth 64. Each drain is timed on the thread's CPU
 * clock, so time the host spends running other work while the drain is
 * descheduled is not charged to either side. The trials run in off/on
 * pairs, alternating which goes first, so a drift in host speed lands on
 * both sides instead of on whichever ran later; the gate reads the median
 * pair, so one pair that a burst of host load hit on one side cannot move
 * it. Both sides execute the same steps, so a pair's overhead
 * 1 - t_off / t_on is its steps/s overhead (off - on) / off.
 *
 * The exit status also requires equal ControllerStats on every pair:
 * operator== excludes the telemetry fields by design, so equality shows
 * that counting moves no decision, latency or energy figure.
 */

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "sim/engine.h"
#include "sim/workloads.h"

using namespace rome;
using namespace rome::literals;

namespace
{

/** CPU seconds the calling thread has run. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

int
main()
{
    const DramConfig dram = hbm4Config();
    RandomPattern p;
    p.totalBytes = 8_MiB;
    p.requestBytes = 2_KiB;
    p.capacity = dram.org.channelCapacity();
    p.writeFraction = 0.25;
    p.seed = 7;
    const std::vector<Request> reqs = randomRequests(p);

    McConfig off_cfg;
    off_cfg.readQueueDepth = 64;
    off_cfg.writeQueueDepth = 64;
    McConfig on_cfg = off_cfg;
    on_cfg.telemetry.counters = true;

    // Drain a fresh controller: the drain's CPU seconds, and its stats.
    const auto trial = [&](const McConfig& cfg, ControllerStats& stats) {
        ConventionalMc mc(dram, bestBaselineMapping(dram.org), cfg);
        for (const Request& r : reqs)
            mc.enqueue(r);
        const double t0 = threadCpuSeconds();
        mc.drain();
        const double t1 = threadCpuSeconds();
        stats = mc.stats();
        return t1 - t0;
    };

    // A trial is tens of ms, so one burst of host load can move a pair by
    // tens of percent; the median of 15 pairs needs eight such pairs to
    // move.
    constexpr int kPairs = 15;
    Table t("Telemetry counter tier: one channel's drain, counters off vs on");
    t.setHeader({"pair", "off cpu s", "on cpu s", "overhead", "stats"});
    std::vector<double> overhead;
    bool stats_match = true;
    for (int i = 0; i < kPairs; ++i) {
        ControllerStats off_stats;
        ControllerStats on_stats;
        double off_s = 0.0;
        double on_s = 0.0;
        if (i % 2 == 0) {
            off_s = trial(off_cfg, off_stats);
            on_s = trial(on_cfg, on_stats);
        } else {
            on_s = trial(on_cfg, on_stats);
            off_s = trial(off_cfg, off_stats);
        }
        const bool match = off_stats == on_stats;
        stats_match = stats_match && match;
        overhead.push_back(1.0 - off_s / on_s);
        t.addRow({std::to_string(i), Table::num(off_s, 3),
                  Table::num(on_s, 3), Table::percent(overhead.back()),
                  match ? "ok" : "MISMATCH"});
    }
    t.print();

    std::sort(overhead.begin(), overhead.end());
    const double median = overhead[kPairs / 2];
    std::printf("telemetry counter-tier overhead: %.1f%% of the drain "
                "(median of %d pairs; gate <10%%), stats match: %s\n",
                median * 100.0, kPairs, stats_match ? "yes" : "NO — BUG");
    return stats_match && median < 0.10 ? 0 : 1;
}
