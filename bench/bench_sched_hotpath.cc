/**
 * @file
 * Scheduler hot-path benchmark: steady-state steps/sec and drain
 * wall-clock of the indexed (incremental per-bank index + event calendar)
 * schedulers against the retained legacy (rescan-everything) schedulers,
 * across queue depths, bank counts, and traffic patterns.
 *
 * Every pairing also asserts that the two schedulers' ControllerStats are
 * bit-identical (operator==) — the legacy implementation is the
 * pre-refactor decision-order oracle — and a counting global allocator
 * verifies that the indexed conventional scheduler performs no heap
 * allocation per steady-state step.
 *
 * Results are emitted as a table and as machine-readable BENCH_sched.json
 * (uploaded by the bench-smoke CI job), establishing the repo's perf
 * trajectory. `--quick` runs a reduced grid for CI smoke runs.
 *
 * Under -DROME_ORACLES=OFF the legacy/scalar oracle columns are compiled
 * out: the bench times only the fast paths and skips the parity asserts.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/table.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/workloads.h"

// ---------------------------------------------------------------------------
// Counting allocator: every operator-new in the process bumps g_allocs, so a
// steady-state window with zero delta proves the scheduling loop never
// touches the heap.
// ---------------------------------------------------------------------------

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

void*
operator new(std::size_t n, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    // aligned_alloc requires the size to be a multiple of the alignment
    // (UB / NULL on non-glibc otherwise).
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) /
                                a * a;
    if (void* p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
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

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace rome;
using namespace rome::literals;

namespace
{

struct RunResult
{
    double seconds = 0.0;
    double stepsPerSec = 0.0;
    std::uint64_t steps = 0;
    ControllerStats stats;
};

RunResult
timedDrain(ChannelControllerBase& mc, const std::vector<Request>& reqs)
{
    for (const auto& r : reqs)
        mc.enqueue(r);
    const auto t0 = std::chrono::steady_clock::now();
    mc.drain();
    const auto t1 = std::chrono::steady_clock::now();
    RunResult r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.steps = mc.stepsExecuted();
    r.stepsPerSec = r.seconds > 0.0
                        ? static_cast<double>(r.steps) / r.seconds
                        : 0.0;
    r.stats = mc.stats();
    return r;
}

std::vector<Request>
buildWorkload(const std::string& name, std::uint64_t total_bytes,
              std::uint64_t capacity)
{
    if (name == "stream") {
        StreamPattern p;
        p.totalBytes = total_bytes;
        p.requestBytes = 4_KiB;
        return streamRequests(p);
    }
    if (name == "mixed") {
        RandomPattern p;
        p.totalBytes = total_bytes;
        p.requestBytes = 2_KiB;
        p.capacity = capacity;
        p.writeFraction = 0.25;
        p.seed = 7;
        return randomRequests(p);
    }
    // "random": fine-grained uniform accesses — the index's worst case.
    RandomPattern p;
    p.totalBytes = total_bytes / 8; // far fewer bytes/request
    p.requestBytes = 64;
    p.capacity = capacity;
    p.writeFraction = 0.1;
    p.seed = 11;
    return randomRequests(p);
}

/** HBM4 organization shrunk to half the SIDs (64 banks per channel). */
DramConfig
halfBankConfig()
{
    DramConfig cfg = hbm4Config();
    cfg.org.sidsPerChannel = 2;
    return cfg;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    const std::uint64_t total = quick ? 2_MiB : 8_MiB;
    const std::vector<int> depths = quick ? std::vector<int>{64}
                                          : std::vector<int>{16, 64, 128};
    const std::vector<std::string> workloads =
        quick ? std::vector<std::string>{"stream", "random"}
              : std::vector<std::string>{"stream", "mixed", "random"};

    bool all_match = true;
    JsonWriter json;
    json.beginObject();
    json.key("bench").value("sched_hotpath");
    json.key("quick").value(quick);
    json.key("rows").beginArray();

    Table t("Scheduler hot path: baseline vs optimized "
            "(hbm4: rescan vs indexed; rome: scalar vs template lowering)");
    t.setHeader({"system", "workload", "qdepth", "banks", "base s",
                 "fast s", "base steps/s", "fast steps/s",
                 "speedup", "stats"});

    const std::vector<std::pair<std::string, DramConfig>> orgs = {
        {"128", hbm4Config()},
        {"64", halfBankConfig()},
    };

    double best_speedup_deep = 0.0;
    double best_rome_speedup_deep = 0.0;
    for (const auto& [bank_label, dram] : orgs) {
        if (quick && bank_label == "64")
            continue;
        for (const std::string& wl : workloads) {
            const auto reqs =
                buildWorkload(wl, total, dram.org.channelCapacity());
            for (const int depth : depths) {
                McConfig indexed_cfg;
                indexed_cfg.readQueueDepth = depth;
                indexed_cfg.writeQueueDepth = depth;

                ConventionalMc indexed(dram, bestBaselineMapping(dram.org),
                                       indexed_cfg);
                // The legacy rescan scheduler is the baseline column and
                // the stats oracle; ROME_ORACLES=OFF builds compile it
                // out and report the fast path alone.
                RunResult lr;
#if ROME_ORACLES
                McConfig legacy_cfg = indexed_cfg;
                legacy_cfg.legacyScheduler = true;
                ConventionalMc legacy(dram, bestBaselineMapping(dram.org),
                                      legacy_cfg);
                lr = timedDrain(legacy, reqs);
#endif
                const RunResult ir = timedDrain(indexed, reqs);

                const bool match = !ROME_ORACLES || lr.stats == ir.stats;
                all_match = all_match && match;
                const double speedup =
                    ir.seconds > 0.0 ? lr.seconds / ir.seconds : 0.0;
                if (depth >= 64)
                    best_speedup_deep = std::max(best_speedup_deep, speedup);

                t.addRow({"hbm4", wl, std::to_string(depth), bank_label,
                          Table::num(lr.seconds, 3),
                          Table::num(ir.seconds, 3),
                          Table::num(lr.stepsPerSec / 1e6, 2) + "M",
                          Table::num(ir.stepsPerSec / 1e6, 2) + "M",
                          Table::num(speedup, 1) + "x",
                          match ? "ok" : "MISMATCH"});
                json.beginObject();
                json.key("system").value("hbm4");
                json.key("workload").value(wl);
                json.key("queueDepth").value(depth);
                json.key("banks").value(dram.org.banksPerChannel());
                json.key("requests").value(
                    static_cast<std::uint64_t>(reqs.size()));
                json.key("legacySeconds").value(lr.seconds);
                json.key("indexedSeconds").value(ir.seconds);
                json.key("legacyStepsPerSec").value(lr.stepsPerSec);
                json.key("indexedStepsPerSec").value(ir.stepsPerSec);
                json.key("speedup").value(speedup);
                json.key("statsMatch").value(match);
                json.endObject();
            }
        }

        // RoMe: template-based steady-state lowering vs scalar per-command
        // lowering (both on the indexed scheduler), with the full legacy
        // path (legacy scheduler + scalar lowering) as the three-way
        // parity oracle. All three must produce bit-identical stats.
        {
            const auto reqs =
                buildWorkload("stream", total, dram.org.channelCapacity());
            for (const int depth : depths) {
                if (depth < 64)
                    continue; // RoMe saturates at tiny depths; bench deep
                RomeMcConfig template_cfg;
                template_cfg.queueDepth = depth;

                RomeMc tmpl(dram, VbaDesign::adopted(), template_cfg);
                // Scalar lowering and the legacy scheduler are the
                // baseline columns and the three-way stats oracle;
                // ROME_ORACLES=OFF builds compile them out and report
                // the template path alone.
                RunResult lr;
                RunResult sr;
#if ROME_ORACLES
                RomeMcConfig legacy_cfg = template_cfg;
                legacy_cfg.legacyScheduler = true;
                legacy_cfg.scalarLowering = true;
                RomeMcConfig scalar_cfg = template_cfg;
                scalar_cfg.scalarLowering = true;
                RomeMc legacy(dram, VbaDesign::adopted(), legacy_cfg);
                RomeMc scalar(dram, VbaDesign::adopted(), scalar_cfg);
                lr = timedDrain(legacy, reqs);
                sr = timedDrain(scalar, reqs);
#endif
                const RunResult tr = timedDrain(tmpl, reqs);

                const bool match =
                    !ROME_ORACLES ||
                    (lr.stats == sr.stats && sr.stats == tr.stats);
                all_match = all_match && match;
                const double lowering_speedup =
                    tr.seconds > 0.0 ? sr.seconds / tr.seconds : 0.0;
                best_rome_speedup_deep =
                    std::max(best_rome_speedup_deep, lowering_speedup);

                t.addRow({"rome", "stream", std::to_string(depth),
                          bank_label, Table::num(sr.seconds, 3),
                          Table::num(tr.seconds, 3),
                          Table::num(sr.stepsPerSec / 1e6, 2) + "M",
                          Table::num(tr.stepsPerSec / 1e6, 2) + "M",
                          Table::num(lowering_speedup, 1) + "x",
                          match ? "ok" : "MISMATCH"});
                json.beginObject();
                json.key("system").value("rome");
                json.key("workload").value("stream");
                json.key("queueDepth").value(depth);
                json.key("banks").value(dram.org.banksPerChannel());
                json.key("requests").value(
                    static_cast<std::uint64_t>(reqs.size()));
                json.key("legacySeconds").value(lr.seconds);
                json.key("scalarSeconds").value(sr.seconds);
                json.key("templateSeconds").value(tr.seconds);
                json.key("legacyStepsPerSec").value(lr.stepsPerSec);
                json.key("scalarStepsPerSec").value(sr.stepsPerSec);
                json.key("templateStepsPerSec").value(tr.stepsPerSec);
                json.key("speedup").value(lowering_speedup);
                json.key("templateHits").value(
                    tmpl.generator().templateHits());
                json.key("templateFallbacks").value(
                    tmpl.generator().templateFallbacks());
                json.key("statsMatch").value(match);
                json.endObject();
            }
        }
    }

    // --- Telemetry overhead: counter tier on vs off ---------------------
    // Stall attribution and the latency breakdown ride the scheduler hot
    // path; this section times identical drains with telemetry counters
    // off and on and gates the cost at <10% steps/s. Best-of-N absorbs
    // machine noise, and ControllerStats::operator== (which excludes the
    // telemetry fields by design) proves the modeled behavior — every
    // decision, latency, and energy figure — is untouched by counting.
    double telemetry_overhead_pct = 0.0;
    bool telemetry_stats_match = true;
    bool telemetry_alloc_free = true;
    {
        const std::uint64_t tel_total = quick ? 8_MiB : 32_MiB;
        const DramConfig tel_dram = hbm4Config();
        const auto reqs = buildWorkload("mixed", tel_total,
                                        tel_dram.org.channelCapacity());
        McConfig off_cfg;
        off_cfg.readQueueDepth = 64;
        off_cfg.writeQueueDepth = 64;
        McConfig on_cfg = off_cfg;
        on_cfg.telemetry.counters = true;

        const int trials = quick ? 5 : 3;
        RunResult best_off;
        RunResult best_on;
        for (int i = 0; i < trials; ++i) {
            ConventionalMc off(tel_dram, bestBaselineMapping(tel_dram.org),
                               off_cfg);
            const RunResult r = timedDrain(off, reqs);
            if (i == 0 || r.stepsPerSec > best_off.stepsPerSec)
                best_off = r;
        }
        for (int i = 0; i < trials; ++i) {
            ConventionalMc on(tel_dram, bestBaselineMapping(tel_dram.org),
                              on_cfg);
            const RunResult r = timedDrain(on, reqs);
            if (i == 0 || r.stepsPerSec > best_on.stepsPerSec)
                best_on = r;
        }
        telemetry_stats_match = best_off.stats == best_on.stats;
        all_match = all_match && telemetry_stats_match;
        if (best_off.stepsPerSec > 0.0) {
            telemetry_overhead_pct =
                (best_off.stepsPerSec - best_on.stepsPerSec) /
                best_off.stepsPerSec * 100.0;
        }

        // Counter-tier steady-state allocation probe: the stall table,
        // breakdown histograms, and op fields are all preallocated, so
        // telemetry on must stay alloc-free per step like the base path.
        ConventionalMc probe(tel_dram, bestBaselineMapping(tel_dram.org),
                             on_cfg);
        for (const auto& r : reqs)
            probe.enqueue(r);
        probe.runUntil(60_us); // warm-up
        const std::uint64_t tel_steps0 = probe.stepsExecuted();
        const std::uint64_t tel_allocs0 = g_allocs.load();
        probe.runUntil(220_us); // steady window
        const std::uint64_t tel_steps =
            probe.stepsExecuted() - tel_steps0;
        const std::uint64_t tel_allocs = g_allocs.load() - tel_allocs0;
        const double tel_allocs_per_step =
            tel_steps ? static_cast<double>(tel_allocs) /
                            static_cast<double>(tel_steps)
                      : 0.0;
        telemetry_alloc_free = tel_allocs_per_step <= 0.001;

        t.addRow({"hbm4-telemetry", "mixed", "64", "128",
                  Table::num(best_off.seconds, 3),
                  Table::num(best_on.seconds, 3),
                  Table::num(best_off.stepsPerSec / 1e6, 2) + "M",
                  Table::num(best_on.stepsPerSec / 1e6, 2) + "M",
                  Table::num(telemetry_overhead_pct, 1) + "%",
                  telemetry_stats_match ? "ok" : "MISMATCH"});
        json.beginObject();
        json.key("system").value("hbm4-telemetry");
        json.key("workload").value("mixed");
        json.key("queueDepth").value(64);
        json.key("banks").value(tel_dram.org.banksPerChannel());
        json.key("requests").value(
            static_cast<std::uint64_t>(reqs.size()));
        json.key("telemetryOffSeconds").value(best_off.seconds);
        json.key("telemetryOnSeconds").value(best_on.seconds);
        json.key("telemetryOffStepsPerSec").value(best_off.stepsPerSec);
        json.key("telemetryOnStepsPerSec").value(best_on.stepsPerSec);
        json.key("telemetryOverheadPct").value(telemetry_overhead_pct);
        json.key("telemetryAllocsPerStep").value(tel_allocs_per_step);
        json.key("statsMatch").value(telemetry_stats_match);
        json.endObject();
    }
    json.endArray();
    t.print();

    // --- Steady-state allocation probe ----------------------------------
    // Enqueue everything up front, run past the warm-up horizon (pool,
    // heaps, and slot calendars reach their steady capacity), then count
    // operator-new calls across a long steady window.
    const DramConfig dram = hbm4Config();
    McConfig cfg;
    cfg.readQueueDepth = 128;
    cfg.writeQueueDepth = 128;
    ConventionalMc mc(dram, bestBaselineMapping(dram.org), cfg);
    for (const auto& r :
         buildWorkload("mixed", 16_MiB, dram.org.channelCapacity()))
        mc.enqueue(r);
    mc.runUntil(60_us); // warm-up
    const std::uint64_t steps0 = mc.stepsExecuted();
    const std::uint64_t allocs0 = g_allocs.load();
    mc.runUntil(220_us); // steady window
    const std::uint64_t window_steps = mc.stepsExecuted() - steps0;
    const std::uint64_t window_allocs = g_allocs.load() - allocs0;
    const double allocs_per_step =
        window_steps
            ? static_cast<double>(window_allocs) /
                  static_cast<double>(window_steps)
            : 0.0;
    std::printf("\nsteady-state allocation probe: %llu allocs over %llu "
                "steps (%.6f allocs/step)\n",
                static_cast<unsigned long long>(window_allocs),
                static_cast<unsigned long long>(window_steps),
                allocs_per_step);
    const bool alloc_free = allocs_per_step <= 0.001;

    json.key("allocProbe").beginObject();
    json.key("windowSteps").value(window_steps);
    json.key("windowAllocs").value(window_allocs);
    json.key("allocsPerStep").value(allocs_per_step);
    json.key("allocFree").value(alloc_free);
    json.endObject();

    // --- RoMe steady-state allocation probe ------------------------------
    // Same recipe on the RoMe stack: with the plan cache and the template
    // fast path, steady-state lowering — including the occasional scalar
    // fallback and refresh templates — must never touch the heap.
    RomeMcConfig rome_probe_cfg;
    rome_probe_cfg.queueDepth = 128;
    RomeMc rome_mc(dram, VbaDesign::adopted(), rome_probe_cfg);
    for (const auto& r :
         buildWorkload("stream", 16_MiB, dram.org.channelCapacity()))
        rome_mc.enqueue(r);
    // Warm-up runs past the bus calendars's first retire-compact cycle
    // (~100 us at stream rates), where their capacity high-water settles.
    rome_mc.runUntil(120_us);
    const std::uint64_t rome_steps0 = rome_mc.stepsExecuted();
    const std::uint64_t rome_allocs0 = g_allocs.load();
    rome_mc.runUntil(280_us); // steady window
    const std::uint64_t rome_window_steps =
        rome_mc.stepsExecuted() - rome_steps0;
    const std::uint64_t rome_window_allocs = g_allocs.load() - rome_allocs0;
    const double rome_allocs_per_step =
        rome_window_steps
            ? static_cast<double>(rome_window_allocs) /
                  static_cast<double>(rome_window_steps)
            : 0.0;
    std::printf("rome steady-state allocation probe: %llu allocs over "
                "%llu steps (%.6f allocs/step)\n",
                static_cast<unsigned long long>(rome_window_allocs),
                static_cast<unsigned long long>(rome_window_steps),
                rome_allocs_per_step);
    const bool rome_alloc_free = rome_allocs_per_step <= 0.001;

    json.key("romeAllocProbe").beginObject();
    json.key("windowSteps").value(rome_window_steps);
    json.key("windowAllocs").value(rome_window_allocs);
    json.key("allocsPerStep").value(rome_allocs_per_step);
    json.key("allocFree").value(rome_alloc_free);
    json.endObject();
    json.key("bestSpeedupAtDeepQueues").value(best_speedup_deep);
    json.key("romeLoweringSpeedupAtDeepQueues").value(
        best_rome_speedup_deep);
    json.key("telemetryOverheadPct").value(telemetry_overhead_pct);
    json.endObject();
    const bool wrote = writeTextFile("BENCH_sched.json", json.str());
    std::printf("%s BENCH_sched.json\n",
                wrote ? "wrote" : "FAILED to write");
    std::printf("stats bit-identical legacy vs indexed: %s\n",
                all_match ? "yes" : "NO — BUG");
    std::printf("best speedup at queue depth >= 64: %.1fx\n",
                best_speedup_deep);
    std::printf("rome template-lowering speedup at queue depth >= 64: "
                "%.1fx (target 3x)\n",
                best_rome_speedup_deep);
    const bool telemetry_ok = telemetry_stats_match &&
                              telemetry_alloc_free &&
                              telemetry_overhead_pct < 10.0;
    std::printf("telemetry counter-tier overhead: %.1f%% steps/s "
                "(gate <10%%), stats match: %s, alloc-free: %s\n",
                telemetry_overhead_pct,
                telemetry_stats_match ? "yes" : "NO — BUG",
                telemetry_alloc_free ? "yes" : "NO — BUG");

    return all_match && alloc_free && rome_alloc_free && telemetry_ok &&
                   wrote
               ? 0
               : 1;
}
