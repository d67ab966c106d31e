/**
 * @file
 * Open-loop latency–throughput curves for whole cubes: shard one
 * recorded system-wide serving trace across all 32 channels of a
 * conventional HBM4, a RoMe, and a hybrid cube, sweep the offered
 * request rate, and report cube-aggregate tail latency (p50/p99/p99.9
 * from the exact bucket-merged histograms) against achieved throughput
 * — the serving-paper staple behind Fig. 12/13-style claims.
 *
 * The primary input is the long mixed decode+prefill serving trace
 * recorded by `trace_replay record ... serve` (tests/data/serving.trace,
 * >= 100k requests); the decode/prefill phase traces ride along as extra
 * workloads in full mode. The bench self-checks two properties:
 *  - the p99 curve is monotone non-decreasing in offered rate up to the
 *    saturation knee for every (system, workload) pair, and
 *  - one design point re-run on a different engine thread count yields
 *    bit-identical aggregate stats (histogram buckets included).
 * Both feed the exit status. `--quick` runs a reduced grid for CI smoke.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/table.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/trace.h"

using namespace rome;

namespace
{

ControllerFactory
systemFactory(const std::string& system, const DramConfig& dram)
{
    if (system == "hbm4") {
        return [dram] {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), McConfig{});
        };
    }
    if (system == "rome") {
        return [dram] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                            RomeMcConfig{});
        };
    }
    return [dram] {
        return std::make_unique<HybridMc>(dram, HybridConfig{});
    };
}

/** Request count and mean size of a workload source. */
struct TraceShape
{
    std::uint64_t requests = 0;
    double meanBytes = 0.0;
};

TraceShape
scanSource(RequestSource& src)
{
    TraceShape shape;
    std::uint64_t bytes = 0;
    Request r;
    while (src.next(r)) {
        ++shape.requests;
        bytes += r.size;
    }
    if (shape.requests > 0)
        shape.meanBytes = static_cast<double>(bytes) /
                          static_cast<double>(shape.requests);
    return shape;
}

/**
 * The system stream of one corpus trace: the short decode/prefill phase
 * traces loop 64 times (RepeatSource) so their serving runs are long
 * enough for tail percentiles and a clean knee; everything runs through
 * the trimWindow preset — @p skip drops a warm-up prefix, @p cap bounds
 * the span for --quick smoke runs.
 */
SourceFactory
workloadSource(const std::string& path, bool loop, std::uint64_t cap,
               std::uint64_t skip = 0)
{
    return [path, loop, cap, skip]() -> std::unique_ptr<RequestSource> {
        std::unique_ptr<RequestSource> src =
            std::make_unique<TraceSource>(path);
        if (loop)
            src = std::make_unique<RepeatSource>(std::move(src), 64);
        return trimWindow(std::move(src), skip, cap);
    };
}

struct CurveRow
{
    std::string system;
    std::string workload;
    double load = 0.0; ///< offered rate as a fraction of cube peak
    RatePoint pt;
};

/**
 * Exact field-by-field equality for merged-sweep verification: the
 * sharded walk must reproduce the serial curve bit-for-bit, doubles
 * included — every point is a self-contained run, so even the
 * histogram-derived percentiles admit no tolerance.
 */
bool
samePoint(const RatePoint& a, const RatePoint& b)
{
    return a.offeredRps == b.offeredRps &&
           a.achievedRps == b.achievedRps &&
           a.completedRequests == b.completedRequests &&
           a.p50Ns == b.p50Ns && a.p90Ns == b.p90Ns &&
           a.p99Ns == b.p99Ns && a.p999Ns == b.p999Ns &&
           a.maxNs == b.maxNs && a.meanNs == b.meanNs &&
           a.effectiveBandwidth == b.effectiveBandwidth &&
           a.saturated == b.saturated && a.fanOutPeak == b.fanOutPeak &&
           a.ceCount == b.ceCount &&
           a.dueCount == b.dueCount && a.retryCount == b.retryCount &&
           a.scrubCount == b.scrubCount && a.sparedRows == b.sparedRows &&
           a.poisonedRequests == b.poisonedRequests &&
           a.schedSteps == b.schedSteps &&
           a.memoFfSteps == b.memoFfSteps;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
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

    const DramConfig dram = hbm4Config();
    const int channels = dram.org.channelsPerCube;
    const double cube_peak =
        dram.org.channelBandwidthBytesPerNs() * channels; // bytes/ns

    // Offered load grid as a fraction of the cube's peak bandwidth: the
    // top rates intentionally exceed capacity so the knee is on-grid.
    const std::vector<double> loads =
        quick ? std::vector<double>{0.4, 0.8, 1.2}
              : std::vector<double>{0.3, 0.5, 0.7, 0.85, 1.0, 1.15};
    const std::uint64_t cap = quick ? 20000 : ~std::uint64_t{0};

    std::vector<std::string> workloads{"serving"};
    if (!quick) {
        workloads.push_back("decode");
        workloads.push_back("prefill");
    }
    const std::vector<std::string> systems{"hbm4", "rome", "hybrid"};

    std::vector<CurveRow> rows;
    bool monotone = true;
    Table t("Cube latency-throughput curves (" +
            std::to_string(channels) + " channels, offered Poisson load)");
    t.setHeader({"system", "workload", "load", "offered Mrps",
                 "achieved Mrps", "p50 us", "p99 us", "p99.9 us", "sat"});

    for (const auto& workload : workloads) {
        const std::string path = std::string(ROME_SOURCE_DIR) +
                                 "/tests/data/" + workload + ".trace";
        if (!std::ifstream(path).good()) {
            std::fprintf(stderr, "skipping missing trace %s\n",
                         path.c_str());
            continue;
        }
        const SourceFactory source =
            workloadSource(path, workload != "serving", cap);
        const TraceShape shape = scanSource(*source());
        if (shape.requests == 0)
            continue;
        // Offered rate at 100% load: cube peak / mean request size.
        const double base_rps = cube_peak * 1e9 / shape.meanBytes;
        std::vector<double> rates;
        for (const double l : loads)
            rates.push_back(l * base_rps);
        for (const auto& system : systems) {
            ServingConfig cfg;
            cfg.makeController = systemFactory(system, dram);
            cfg.makeSystemSource = source;
            cfg.numChannels = channels;
            const ServingDriver driver(cfg);
            const RateSweep sweep = runRateSweep(driver, rates);

            for (std::size_t i = 0; i < sweep.points.size(); ++i) {
                const RatePoint& pt = sweep.points[i];
                rows.push_back({system, workload, loads[i], pt});
                t.addRow({system, workload, Table::num(loads[i], 2),
                          Table::num(pt.offeredRps / 1e6, 2),
                          Table::num(pt.achievedRps / 1e6, 2),
                          Table::num(pt.p50Ns / 1e3, 1),
                          Table::num(pt.p99Ns / 1e3, 1),
                          Table::num(pt.p999Ns / 1e3, 1),
                          pt.saturated ? "*" : ""});
                // Monotone tail up to (and including) the knee: offered
                // arrival gaps scale inversely with rate, so queueing —
                // and with it p99 — can only grow.
                if (i > 0 &&
                    static_cast<int>(i) <=
                        (sweep.kneeIndex < 0
                             ? static_cast<int>(sweep.points.size())
                             : sweep.kneeIndex) &&
                    pt.p99Ns < sweep.points[i - 1].p99Ns) {
                    monotone = false;
                    std::fprintf(stderr,
                                 "NON-MONOTONE p99: %s/%s point %zu "
                                 "(%.0f -> %.0f ns)\n",
                                 system.c_str(), workload.c_str(), i,
                                 sweep.points[i - 1].p99Ns, pt.p99Ns);
                }
            }
            if (sweep.kneeIndex >= 0) {
                std::printf("%s/%s saturation knee at %.2f x cube peak "
                            "(achieved %.2f Mrps < offered %.2f Mrps)\n",
                            system.c_str(), workload.c_str(),
                            loads[static_cast<std::size_t>(
                                sweep.kneeIndex)],
                            sweep.knee()->achievedRps / 1e6,
                            sweep.knee()->offeredRps / 1e6);
            }
        }
    }
    t.print();

    // Thread-count invariance: one mid-grid RoMe point, 1 thread vs the
    // default pool, must match bit-for-bit (histogram buckets included).
    bool deterministic = true;
    {
        const std::string path =
            std::string(ROME_SOURCE_DIR) + "/tests/data/serving.trace";
        if (std::ifstream(path).good()) {
            const std::uint64_t det_cap = quick ? 5000 : 20000;
            ServingConfig cfg;
            cfg.makeController = systemFactory("rome", dram);
            cfg.makeSystemSource = workloadSource(path, false, det_cap);
            cfg.numChannels = channels;
            const double rps =
                0.8 * cube_peak * 1e9 /
                scanSource(*cfg.makeSystemSource()).meanBytes;
            cfg.threads = 1;
            const ServingResult serial = ServingDriver(cfg).run(rps);
            cfg.threads = defaultSimThreads();
            const ServingResult pooled = ServingDriver(cfg).run(rps);
            deterministic = serial.aggregate == pooled.aggregate &&
                            serial.perChannel == pooled.perChannel &&
                            serial.fanOutPeak == pooled.fanOutPeak;
        }
    }

    // Sharded rate sweeps: split the rate points of one RoMe sweep
    // across 4 workers (engine threads pinned to 1 so point-sharding is
    // the only parallelism) and demand (a) a bit-identical merged curve
    // always, and (b) >= 1.5x wall-clock speedup in full mode on a
    // machine with at least 4 cores.
    bool sharded_identical = true;
    bool sharded_fast_enough = true;
    double serial_secs = 0.0;
    double sharded_secs = 0.0;
    double sharded_speedup = 0.0;
    const int sweep_workers = 4;
    {
        const std::string path =
            std::string(ROME_SOURCE_DIR) + "/tests/data/serving.trace";
        if (std::ifstream(path).good()) {
            const std::uint64_t sweep_cap = quick ? 5000 : 20000;
            ServingConfig cfg;
            cfg.makeController = systemFactory("rome", dram);
            cfg.makeSystemSource = workloadSource(path, false, sweep_cap);
            cfg.numChannels = channels;
            cfg.threads = 1;
            const ServingDriver driver(cfg);
            const double base_rps =
                cube_peak * 1e9 /
                scanSource(*cfg.makeSystemSource()).meanBytes;
            std::vector<double> rates;
            for (const double l : loads)
                rates.push_back(l * base_rps);

            auto t0 = std::chrono::steady_clock::now();
            const RateSweep serial = runRateSweep(driver, rates, 0.05, 1);
            serial_secs = secondsSince(t0);
            t0 = std::chrono::steady_clock::now();
            const RateSweep sharded =
                runRateSweep(driver, rates, 0.05, sweep_workers);
            sharded_secs = secondsSince(t0);
            sharded_speedup =
                sharded_secs > 0.0 ? serial_secs / sharded_secs : 0.0;

            sharded_identical =
                serial.kneeIndex == sharded.kneeIndex &&
                serial.points.size() == sharded.points.size();
            for (std::size_t i = 0;
                 sharded_identical && i < serial.points.size(); ++i)
                sharded_identical =
                    samePoint(serial.points[i], sharded.points[i]);
            if (!sharded_identical)
                std::fprintf(stderr, "SHARDED SWEEP DIVERGED from the "
                                     "serial walk — BUG\n");
            // The speedup bar only binds where it is meaningful: the
            // full-size sweep on hardware that can host the workers.
            // --quick points are too short to amortize thread spin-up.
            if (!quick && std::thread::hardware_concurrency() >=
                              static_cast<unsigned>(sweep_workers))
                sharded_fast_enough = sharded_speedup >= 1.5;
            std::printf("\nsharded sweep (%d workers): %.2fs vs %.2fs "
                        "serial — %.2fx speedup, merged curve %s\n",
                        sweep_workers, sharded_secs, serial_secs,
                        sharded_speedup,
                        sharded_identical ? "bit-identical" : "DIVERGED");
        }
    }

    // Checkpoint smoke: snapshot one mid-grid run a third of the way
    // through its straight-run span, resume from the blobs, and demand
    // the resumed stats match the uninterrupted run exactly.
    bool checkpoint_exact = true;
    {
        const std::string path =
            std::string(ROME_SOURCE_DIR) + "/tests/data/serving.trace";
        if (std::ifstream(path).good()) {
            ServingConfig cfg;
            cfg.makeController = systemFactory("rome", dram);
            cfg.makeSystemSource =
                workloadSource(path, false, quick ? 5000 : 20000);
            cfg.numChannels = channels;
            cfg.threads = 1;
            const ServingDriver driver(cfg);
            const double rps =
                0.7 * cube_peak * 1e9 /
                scanSource(*cfg.makeSystemSource()).meanBytes;
            const ServingResult straight = driver.run(rps);
            const CubeCheckpoint ck =
                driver.runToCheckpoint(rps, straight.finishedAt / 3);
            const ServingResult resumed = driver.resume(ck);
            checkpoint_exact =
                resumed.finishedAt == straight.finishedAt &&
                resumed.offeredRps == straight.offeredRps &&
                resumed.achievedRps == straight.achievedRps &&
                resumed.aggregate == straight.aggregate &&
                resumed.perChannel == straight.perChannel;
            std::printf("checkpoint resume at tick %lld: %s\n",
                        static_cast<long long>(ck.takenAt),
                        checkpoint_exact ? "matches straight run exactly"
                                         : "DIVERGED — BUG");
        }
    }

    std::printf("\np99 monotone up to saturation: %s | thread-count "
                "invariant: %s\n",
                monotone ? "yes" : "NO — BUG",
                deterministic ? "yes" : "NO — BUG");

    JsonWriter json;
    json.beginObject();
    json.key("bench").value("serving_curves");
    json.key("quick").value(quick);
    json.key("channels").value(channels);
    json.key("monotoneP99").value(monotone);
    json.key("threadCountInvariant").value(deterministic);
    json.key("shardedWorkers").value(sweep_workers);
    json.key("serialSweepSeconds").value(serial_secs);
    json.key("shardedSweepSeconds").value(sharded_secs);
    json.key("shardedSpeedup").value(sharded_speedup);
    json.key("shardedPointsIdentical").value(sharded_identical);
    json.key("checkpointResumeExact").value(checkpoint_exact);
    json.key("rows").beginArray();
    for (const auto& row : rows) {
        json.beginObject();
        json.key("label").value(row.system + " " + row.workload +
                                " load" + Table::num(row.load, 2));
        json.key("system").value(row.system);
        json.key("workload").value(row.workload);
        json.key("load").value(row.load);
        ratePointJson(json, row.pt);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    const bool wrote = writeTextFile("BENCH_serving.json", json.str());
    std::printf("%s BENCH_serving.json\n",
                wrote ? "wrote" : "FAILED to write");
    return monotone && deterministic && sharded_identical &&
                   sharded_fast_enough && checkpoint_exact && wrote
               ? 0
               : 1;
}
