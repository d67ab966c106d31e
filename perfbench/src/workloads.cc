#include "workloads.h"

#include <memory>
#include <utility>

#include "common/types.h"
#include "dram/hbm4_config.h"
#include "layers.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/node.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/trace.h"

using namespace rome;

namespace perfbench
{

namespace
{

// Request counts of the timed windows. The serving trace holds 111,937
// requests; each window keeps at least 39k so p99.9 has 39 samples past it.
constexpr std::uint64_t kCubeServingWindow = 48000;
constexpr std::uint64_t kNodeServingWindow = 0; // the whole trace
constexpr std::uint64_t kRandomRequests = 80000;
constexpr std::uint64_t kRandomRequestBytes = 512;

/**
 * splitmix64 finalizer. The arrival process seeds its Rng with --seed
 * itself; the generator gets this mix of it so the two draw sequences
 * stay apart.
 */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

StreamShape
scan(RequestSource& src)
{
    StreamShape s;
    Request r;
    while (src.next(r)) {
        ++s.requests;
        (r.kind == ReqKind::Write ? s.writeBytes : s.readBytes) += r.size;
    }
    return s;
}

/** Peak data bandwidth of one cube (bytes / ns). */
double
cubePeakBytesPerNs(const DramConfig& dram)
{
    return dram.org.channelBandwidthBytesPerNs() * dram.org.channelsPerCube;
}

ControllerFactory
conventionalCube(const DramConfig& dram, bool telemetry)
{
    return [dram, telemetry] {
        McConfig cfg;
        cfg.telemetry.counters = telemetry;
        return std::make_unique<ConventionalMc>(
            dram, bestBaselineMapping(dram.org), cfg);
    };
}

ControllerFactory
romeCube(const DramConfig& dram, bool telemetry)
{
    return [dram, telemetry] {
        RomeMcConfig cfg;
        cfg.telemetry.counters = telemetry;
        return std::make_unique<RomeMc>(dram, VbaDesign::adopted(), cfg);
    };
}

SourceFactory
traceWindow(const std::string& path, std::uint64_t take)
{
    return [path, take] {
        return trimWindow(std::make_unique<TraceSource>(path), 0, take);
    };
}

/**
 * The parts every workload's set-up shares: scan the stream, then
 * construct and destroy every channel's controller through the factory.
 */
StreamShape
scanAndBuild(const SourceFactory& source, const ControllerFactory& make,
             int channels)
{
    const StreamShape shape = scan(*source());
    std::vector<std::unique_ptr<IMemoryController>> built;
    built.reserve(static_cast<std::size_t>(channels));
    for (int ch = 0; ch < channels; ++ch)
        built.push_back(make());
    return shape;
}

PreparedRun
cubeRun(const WorkloadInfo& w, const DramConfig& dram,
        const ControllerFactory& make, const SourceFactory& source,
        double load, std::uint64_t seed, LayerTrace* trace)
{
    PreparedRun p;
    p.channels = dram.org.channelsPerCube;
    p.engineThreads = w.engineThreads;
    p.shape = scanAndBuild(source, make, p.channels);
    p.offeredRps = load * cubePeakBytesPerNs(dram) * 1e9 /
                   p.shape.meanBytes();

    ServingConfig cfg;
    cfg.makeController = trace ? trace->wrapControllers(make) : make;
    cfg.makeSystemSource = trace ? trace->wrapSources(source) : source;
    cfg.numChannels = p.channels;
    cfg.arrivalModel = ArrivalModel::Poisson;
    cfg.arrivalSeed = seed;
    cfg.threads = w.engineThreads;
    const auto driver = std::make_shared<const ServingDriver>(std::move(cfg));
    const double rps = p.offeredRps;
    p.run = [driver, rps] {
        const ServingResult res = driver->run(rps);
        RunResult out;
        out.aggregate = res.aggregate;
        out.finishedAt = res.finishedAt;
        return out;
    };
    return p;
}

PreparedRun
nodeRun(const WorkloadInfo& w, const DramConfig& dram,
        const ControllerFactory& make, const SourceFactory& source,
        std::uint64_t seed, LayerTrace* trace)
{
    constexpr int kCubes = 4;
    // Cache-affinity routing gives two of the four cubes 26% of the
    // requests each. At 0.8 of node peak those two sit at their knee and
    // the node p50 falls between two latency modes, moving 25% between
    // seeds; at 0.7 every cube stays below its knee.
    constexpr double kLoad = 0.7;
    PreparedRun p;
    p.channels = kCubes * dram.org.channelsPerCube;
    p.engineThreads = w.engineThreads;
    p.shape = scanAndBuild(source, make, p.channels);
    p.offeredRps = kLoad * kCubes * cubePeakBytesPerNs(dram) * 1e9 /
                   p.shape.meanBytes();

    NodeConfig cfg;
    cfg.makeController = trace ? trace->wrapControllers(make) : make;
    cfg.makeSystemSource = trace ? trace->wrapSources(source) : source;
    cfg.numCubes = kCubes;
    cfg.channelsPerCube = dram.org.channelsPerCube;
    cfg.arrivalModel = ArrivalModel::Poisson;
    cfg.arrivalSeed = seed;
    cfg.threads = w.engineThreads;
    cfg.policy = RouterPolicy::CacheAffinity;
    // bench_node_scaling's link: 200 ns one way, 2x cube ingress.
    cfg.link.latencyTicks = ticksFromNs(static_cast<std::int64_t>(200));
    cfg.link.bytesPerNs = 2.0 * cubePeakBytesPerNs(dram);
    // The driver constructor builds (and validates) the router.
    const auto driver = std::make_shared<const NodeDriver>(std::move(cfg));
    const double rps = p.offeredRps;
    p.run = [driver, rps] {
        const NodeResult res = driver->run(rps);
        RunResult out;
        out.aggregate = res.aggregate;
        out.finishedAt = res.finishedAt;
        out.linkQueueP99Ns = res.linkQueueDelayNs.percentileNs(99.0);
        return out;
    };
    return p;
}

} // namespace

double
StreamShape::meanBytes() const
{
    return requests == 0 ? 0.0
                         : static_cast<double>(bytes()) /
                               static_cast<double>(requests);
}

const std::vector<WorkloadInfo>&
workloads()
{
    static const std::vector<WorkloadInfo> all{
        {"hbm4_cube_serving", 2, kCubeServingWindow, true},
        {"rome_node_serving", 1, kNodeServingWindow, true},
        {"hbm4_cube_random_rw", 1, kRandomRequests, false},
    };
    return all;
}

const WorkloadInfo*
findWorkload(const std::string& name)
{
    for (const WorkloadInfo& w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

PreparedRun
setUp(const WorkloadInfo& w, const WorkloadInputs& in, LayerTrace* trace)
{
    const DramConfig dram = hbm4Config();
    const bool telemetry = trace != nullptr;
    const std::string name = w.name;
    if (name == "hbm4_cube_serving") {
        return cubeRun(w, dram, conventionalCube(dram, telemetry),
                       traceWindow(in.servingTrace, w.window), 0.8,
                       in.seed, trace);
    }
    if (name == "rome_node_serving") {
        return nodeRun(w, dram, romeCube(dram, telemetry),
                       traceWindow(in.servingTrace, w.window), in.seed,
                       trace);
    }
    // hbm4_cube_random_rw: 512 B gathers at uniform random channel
    // addresses, one in three a write (writes drawn independently).
    RandomPattern pat;
    pat.requestBytes = kRandomRequestBytes;
    pat.totalBytes = w.window * kRandomRequestBytes;
    pat.capacity = dram.org.channelCapacity();
    pat.writeFraction = 1.0 / 3.0;
    pat.seed = mixSeed(in.seed);
    const SourceFactory source = [pat] {
        return std::make_unique<RandomSource>(pat);
    };
    return cubeRun(w, dram, conventionalCube(dram, telemetry), source, 0.5,
                   in.seed, trace);
}

} // namespace perfbench
