/**
 * @file
 * Node-level latency–throughput scaling: N cubes behind per-cube
 * interconnect links and a front-end router, driven by one system-wide
 * open-loop stream. Sweeps cube count x router policy x {rome, hbm4}
 * on the recorded serving corpus (plus the per-model profileFor traces
 * when present) and reports node-aggregate tail latency and achieved
 * rps per point — the "rps per node vs. cube count" axis of the
 * scale-out story.
 *
 * Link model per cube: 200 ns one-way latency, 2x cube-ingress
 * serialization bandwidth (links stay off the critical path below the
 * cubes' own saturation), credit-based queuing. Loads are offered as a
 * fraction of the *node's* aggregate peak, so the same load fraction
 * stresses every cube count equally. The "fan-out peak" column is the
 * most requests the stream fan-out held for channels that had not pulled
 * them yet (bounded-memory evidence; it grows past the knee, where
 * arrived requests wait for admission).
 *
 * Self-checks feeding the exit status:
 *  - scaling: 2 cubes under cache-affinity routing achieve >= 1.8x the
 *    1-cube saturated throughput (both at the overload grid point);
 *  - thread-count invariance: one 2-cube point re-run on 1 engine
 *    thread matches the pooled run bit for bit;
 *  - ServingDriver equivalence: a 1-cube node with the ideal link
 *    reproduces the plain ServingDriver result exactly.
 * `--quick` runs a reduced grid for CI smoke.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/table.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/node.h"
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
    return [dram] {
        return std::make_unique<RomeMc>(dram, VbaDesign::adopted(),
                                        RomeMcConfig{});
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
 * One corpus trace as a system stream. The short per-model traces loop
 * (RepeatSource) so node runs are long enough for tail percentiles;
 * @p cap bounds the span for --quick smoke runs.
 */
SourceFactory
workloadSource(const std::string& path, bool loop, std::uint64_t cap)
{
    return [path, loop, cap]() -> std::unique_ptr<RequestSource> {
        std::unique_ptr<RequestSource> src =
            std::make_unique<TraceSource>(path);
        if (loop)
            src = std::make_unique<RepeatSource>(std::move(src), 64);
        return trimWindow(std::move(src), 0, cap);
    };
}

/** The node link used by every grid point (see file header). */
LinkConfig
benchLink(const DramConfig& dram)
{
    LinkConfig link;
    link.latencyTicks = ticksFromNs(static_cast<std::int64_t>(200));
    link.bytesPerNs = 2.0 * dram.org.channelBandwidthBytesPerNs() *
                      dram.org.channelsPerCube;
    return link;
}

struct NodeRow
{
    std::string system;
    std::string workload;
    int cubes = 0;
    RouterPolicy policy = RouterPolicy::RoundRobin;
    double load = 0.0; ///< offered rate as a fraction of node peak
    NodeRatePoint pt;
};

struct GridPoint
{
    int cubes;
    RouterPolicy policy;
};

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

    // Cube-count x policy grid: cache-affinity carries the scaling axis
    // (every cube count), the policy comparison runs at 2 cubes.
    std::vector<GridPoint> grid{{1, RouterPolicy::CacheAffinity},
                                {2, RouterPolicy::CacheAffinity}};
    if (!quick) {
        grid.push_back({4, RouterPolicy::CacheAffinity});
        grid.push_back({2, RouterPolicy::RoundRobin});
        grid.push_back({2, RouterPolicy::LoadAware});
    }
    // Offered load as a fraction of node peak; the top point overloads
    // every topology so saturated throughput (capacity) is on-grid.
    const std::vector<double> loads =
        quick ? std::vector<double>{0.5, 1.3}
              : std::vector<double>{0.4, 0.8, 1.3};
    const std::uint64_t cap = quick ? 8000 : 60000;

    // The serving trace is the primary workload; per-model profileFor
    // recordings (trace_replay record <model>) ride along when present.
    std::vector<std::string> workloads{"serving"};
    if (!quick) {
        workloads.push_back("deepseek");
        workloads.push_back("grok1");
        workloads.push_back("llama3");
    }
    const std::vector<std::string> systems{"rome", "hbm4"};

    std::vector<NodeRow> rows;
    // achieved rps at the overload point, keyed for the scaling check:
    // [system index] -> {1-cube affinity, 2-cube affinity}.
    std::vector<double> one_cube_cap(systems.size(), 0.0);
    std::vector<double> two_cube_cap(systems.size(), 0.0);

    Table t("Node latency-throughput scaling (" + std::to_string(channels) +
            " channels/cube, offered Poisson load)");
    t.setHeader({"system", "workload", "cubes", "router", "load",
                 "offered Mrps", "achieved Mrps", "p50 us", "p99 us",
                 "link q us", "fan-out peak", "sat"});

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
        for (std::size_t sys = 0; sys < systems.size(); ++sys) {
            const std::string& system = systems[sys];
            for (const GridPoint& gp : grid) {
                NodeConfig cfg;
                cfg.makeController = systemFactory(system, dram);
                cfg.makeSystemSource = source;
                cfg.numCubes = gp.cubes;
                cfg.channelsPerCube = channels;
                cfg.policy = gp.policy;
                cfg.link = benchLink(dram);
                // Node peak scales with cube count; offered load is a
                // fraction of it, so load fractions compare across
                // topologies.
                const double node_peak_rps = cube_peak * gp.cubes * 1e9 /
                                             shape.meanBytes;
                std::vector<double> rates;
                for (const double l : loads)
                    rates.push_back(l * node_peak_rps);
                const NodeRateSweep sweep =
                    runNodeRateSweep(NodeDriver(cfg), rates);
                for (std::size_t i = 0; i < sweep.points.size(); ++i) {
                    const NodeRatePoint& pt = sweep.points[i];
                    rows.push_back({system, workload, gp.cubes, gp.policy,
                                    loads[i], pt});
                    t.addRow({system, workload,
                              std::to_string(gp.cubes),
                              routerPolicyName(gp.policy),
                              Table::num(loads[i], 2),
                              Table::num(pt.node.offeredRps / 1e6, 2),
                              Table::num(pt.node.achievedRps / 1e6, 2),
                              Table::num(pt.node.p50Ns / 1e3, 1),
                              Table::num(pt.node.p99Ns / 1e3, 1),
                              Table::num(pt.linkQueueDelayP99Ns / 1e3,
                                         1),
                              std::to_string(pt.node.fanOutPeak),
                              pt.node.saturated ? "*" : ""});
                }
                // Saturated (capacity) throughput at the top grid point
                // of the serving trace feeds the scaling check.
                if (workload == "serving" &&
                    gp.policy == RouterPolicy::CacheAffinity) {
                    const double cap_rps =
                        sweep.points.back().node.achievedRps;
                    if (gp.cubes == 1)
                        one_cube_cap[sys] = cap_rps;
                    else if (gp.cubes == 2)
                        two_cube_cap[sys] = cap_rps;
                }
            }
        }
    }
    t.print();

    // --- Self-check 1: >= 1.8x aggregate rps at 2 cubes (affinity) ----
    bool scales = true;
    for (std::size_t sys = 0; sys < systems.size(); ++sys) {
        if (one_cube_cap[sys] <= 0.0 || two_cube_cap[sys] <= 0.0)
            continue;
        const double ratio = two_cube_cap[sys] / one_cube_cap[sys];
        std::printf("%s: 2-cube / 1-cube saturated rps = %.2fx\n",
                    systems[sys].c_str(), ratio);
        if (ratio < 1.8) {
            scales = false;
            std::fprintf(stderr,
                         "WEAK SCALING: %s 2-cube ratio %.2f < 1.8\n",
                         systems[sys].c_str(), ratio);
        }
    }

    // --- Self-check 2: thread-count invariance of a 2-cube point ------
    bool deterministic = true;
    // --- Self-check 3: 1-cube ideal-link node == ServingDriver --------
    bool serving_identical = true;
    {
        const std::string path =
            std::string(ROME_SOURCE_DIR) + "/tests/data/serving.trace";
        if (std::ifstream(path).good()) {
            const std::uint64_t det_cap = quick ? 4000 : 16000;
            const SourceFactory source =
                workloadSource(path, false, det_cap);
            const double rps = 0.8 * cube_peak * 1e9 /
                               scanSource(*source()).meanBytes;

            NodeConfig cfg;
            cfg.makeController = systemFactory("rome", dram);
            cfg.makeSystemSource = source;
            cfg.numCubes = 2;
            cfg.channelsPerCube = channels;
            cfg.policy = RouterPolicy::CacheAffinity;
            cfg.link = benchLink(dram);
            cfg.threads = 1;
            const NodeResult serial = NodeDriver(cfg).run(rps);
            cfg.threads = defaultSimThreads();
            const NodeResult pooled = NodeDriver(cfg).run(rps);
            deterministic = serial.aggregate == pooled.aggregate &&
                            serial.finishedAt == pooled.finishedAt &&
                            serial.fanOutPeak == pooled.fanOutPeak;

            NodeConfig one = cfg;
            one.numCubes = 1;
            one.link = LinkConfig::idealLink();
            const NodeResult node = NodeDriver(one).run(rps);
            ServingConfig scfg;
            scfg.makeController = one.makeController;
            scfg.makeSystemSource = one.makeSystemSource;
            scfg.numChannels = channels;
            const ServingResult plain = ServingDriver(scfg).run(rps);
            serving_identical = node.aggregate == plain.aggregate &&
                                node.finishedAt == plain.finishedAt;
        }
    }

    std::printf("\n2-cube scaling >= 1.8x: %s | thread-count invariant: "
                "%s | 1-cube ideal == ServingDriver: %s\n",
                scales ? "yes" : "NO — BUG",
                deterministic ? "yes" : "NO — BUG",
                serving_identical ? "yes" : "NO — BUG");

    JsonWriter json;
    json.beginObject();
    json.key("bench").value("node_scaling");
    json.key("quick").value(quick);
    json.key("channelsPerCube").value(channels);
    json.key("scalesAtTwoCubes").value(scales);
    json.key("threadCountInvariant").value(deterministic);
    json.key("servingDriverIdentical").value(serving_identical);
    json.key("rows").beginArray();
    for (const auto& row : rows) {
        json.beginObject();
        json.key("label").value(
            row.system + " " + row.workload + " x" +
            std::to_string(row.cubes) + " " +
            routerPolicyName(row.policy) + " load" +
            Table::num(row.load, 2));
        json.key("system").value(row.system);
        json.key("workload").value(row.workload);
        json.key("cubes").value(static_cast<std::uint64_t>(row.cubes));
        json.key("router").value(routerPolicyName(row.policy));
        json.key("load").value(row.load);
        nodeRatePointJson(json, row.pt);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    const bool wrote = writeTextFile("BENCH_node.json", json.str());
    std::printf("%s BENCH_node.json\n",
                wrote ? "wrote" : "FAILED to write");
    return scales && deterministic && serving_identical && wrote ? 0 : 1;
}
