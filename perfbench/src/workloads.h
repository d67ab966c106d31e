/**
 * @file
 * The benchmark's workloads: one open-loop rate point each, driven
 * through the simulator's public drivers (ServingDriver, NodeDriver).
 *
 * Every workload is a Poisson stream in simulated time whose seed comes
 * from the command line; the simulated DRAM starts with every bank
 * closed and every queue empty. Engine thread counts are fixed per
 * workload, never taken from the host.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace perfbench
{

class LayerTrace; // layers.h

/** Request count and byte split of a workload's system stream. */
struct StreamShape
{
    std::uint64_t requests = 0;
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;

    std::uint64_t bytes() const { return readBytes + writeBytes; }
    double meanBytes() const;
};

/** What the benchmark keeps of one driver run(). */
struct RunResult
{
    /** Aggregate stats over every channel (exact merged histogram). */
    rome::ControllerStats aggregate;
    /** Latest channel finish tick. */
    rome::Tick finishedAt = 0;
    /** p99 of the node links' queueing delay (ns); 0 without links. */
    double linkQueueP99Ns = 0.0;
};

/** Command-line inputs a workload is built from. */
struct WorkloadInputs
{
    std::uint64_t seed = 1;
    /** The recorded serving trace (tests/data/serving.trace). */
    std::string servingTrace;
};

/** A workload after one set-up: its stream shape and a ready driver. */
struct PreparedRun
{
    StreamShape shape;
    /** Offered rate the timed call drives (requests / s). */
    double offeredRps = 0.0;
    int channels = 0;
    int engineThreads = 0;
    /** The timed call: one driver run() at offeredRps. */
    std::function<RunResult()> run;
};

/** Static description of one workload. */
struct WorkloadInfo
{
    const char* name;
    /** Engine threads its driver uses (fixed, at most 2). */
    int engineThreads;
    /** Requests of the trace window or generator; 0 = the whole trace. */
    std::uint64_t window;
    /** True when its stream comes from the serving trace. */
    bool usesTrace;
};

const std::vector<WorkloadInfo>& workloads();

/** The workload called @p name, or nullptr. */
const WorkloadInfo* findWorkload(const std::string& name);

/**
 * One set-up of @p w: open and scan the system stream for its shape,
 * build the driver config (and, for the node, its router), and construct
 * and destroy every channel's controller through the workload's factory.
 *
 * With a @p trace the driver receives the factories wrapped by it and the
 * controllers run their telemetry counters; the set-up's own scan and
 * controller round trip always use the bare factories.
 */
PreparedRun setUp(const WorkloadInfo& w, const WorkloadInputs& in,
                  LayerTrace* trace);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
