/**
 * @file
 * Scheduler hot-path benchmark: steady-state steps/sec and drain
 * wall-clock of the indexed (incremental per-bank index + event calendar)
 * schedulers against the retained legacy (rescan-everything) schedulers,
 * across queue depths, bank counts, and traffic patterns.
 *
 * Every pairing also asserts that the two schedulers' ControllerStats are
 * bit-identical (operator==): the legacy implementation is the
 * pre-refactor decision-order reference. A last section times the
 * telemetry counter tier and gates its steps/s overhead below 10%.
 * (Zero heap allocations per steady-state step is test_alloc's gate.)
 *
 * Results are emitted as a table and as machine-readable BENCH_sched.json
 * (uploaded by the bench-smoke CI job). `--quick` runs a reduced grid for
 * CI smoke runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
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

                McConfig legacy_cfg = indexed_cfg;
                legacy_cfg.legacyScheduler = true;

                // The legacy rescan scheduler is the baseline column and
                // the stats reference.
                ConventionalMc legacy(dram, bestBaselineMapping(dram.org),
                                      legacy_cfg);
                ConventionalMc indexed(dram, bestBaselineMapping(dram.org),
                                       indexed_cfg);
                const RunResult lr = timedDrain(legacy, reqs);
                const RunResult ir = timedDrain(indexed, reqs);

                const bool match = lr.stats == ir.stats;
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
                RomeMcConfig legacy_cfg = template_cfg;
                legacy_cfg.legacyScheduler = true;
                legacy_cfg.scalarLowering = true;
                RomeMcConfig scalar_cfg = template_cfg;
                scalar_cfg.scalarLowering = true;

                RomeMc legacy(dram, VbaDesign::adopted(), legacy_cfg);
                RomeMc scalar(dram, VbaDesign::adopted(), scalar_cfg);
                RomeMc tmpl(dram, VbaDesign::adopted(), template_cfg);
                const RunResult lr = timedDrain(legacy, reqs);
                const RunResult sr = timedDrain(scalar, reqs);
                const RunResult tr = timedDrain(tmpl, reqs);

                const bool match =
                    lr.stats == sr.stats && sr.stats == tr.stats;
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
    // off and on and gates the cost at <10% steps/s. The trials run in
    // off/on pairs, alternating which goes first, so a drift in host speed
    // lands on both sides instead of on whichever ran later, and the gate
    // takes the median of the pairs' overheads. ControllerStats::operator==
    // (which excludes the telemetry fields by design) proves the modeled
    // behavior — every decision, latency, and energy figure — is
    // untouched by counting.
    double telemetry_overhead_pct = 0.0;
    bool telemetry_stats_match = true;
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

        const int pairs = quick ? 7 : 3;
        RunResult best_off;
        RunResult best_on;
        std::vector<double> pair_overhead_pct;
        const auto trial = [&](const McConfig& cfg, RunResult& best) {
            ConventionalMc mc(tel_dram, bestBaselineMapping(tel_dram.org),
                              cfg);
            const RunResult r = timedDrain(mc, reqs);
            if (best.steps == 0 || r.stepsPerSec > best.stepsPerSec)
                best = r;
            return r;
        };
        for (int i = 0; i < pairs; ++i) {
            RunResult off;
            RunResult on;
            if (i % 2 == 0) {
                off = trial(off_cfg, best_off);
                on = trial(on_cfg, best_on);
            } else {
                on = trial(on_cfg, best_on);
                off = trial(off_cfg, best_off);
            }
            telemetry_stats_match = telemetry_stats_match &&
                                    off.stats == on.stats;
            pair_overhead_pct.push_back(
                off.stepsPerSec > 0.0
                    ? (off.stepsPerSec - on.stepsPerSec) / off.stepsPerSec *
                          100.0
                    : 0.0);
        }
        all_match = all_match && telemetry_stats_match;
        // The gate reads the median pair: one pair that a burst of host
        // load hit on one side cannot move it.
        std::sort(pair_overhead_pct.begin(), pair_overhead_pct.end());
        telemetry_overhead_pct = pair_overhead_pct[pair_overhead_pct.size() / 2];

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
        json.key("statsMatch").value(telemetry_stats_match);
        json.endObject();
    }
    json.endArray();
    t.print();

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
                              telemetry_overhead_pct < 10.0;
    std::printf("telemetry counter-tier overhead: %.1f%% steps/s "
                "(gate <10%%), stats match: %s\n",
                telemetry_overhead_pct,
                telemetry_stats_match ? "yes" : "NO — BUG");

    return all_match && telemetry_ok && wrote ? 0 : 1;
}
