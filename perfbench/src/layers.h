/**
 * @file
 * Layer tracing for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code, around the public
 * boundaries where the drivers call into each layer:
 *
 *  - the ControllerFactory (build span per channel);
 *  - IMemoryController::bindSource and ::drain (controller spans);
 *  - the stream each controller receives in bindSource (the shard of the
 *    re-timed, and on a node routed, system stream);
 *  - the SourceFactory's streams and their RequestSource::next calls
 *    (trace decode or request generation).
 *
 * Per-request stream and source calls are far too many to store (a node
 * run makes ~14M), so they go into per-channel accumulators: each
 * channel's calls run on the one thread draining it, so the counters
 * need no synchronization. Self times follow from nesting: a source call
 * always runs inside a stream call, and a stream call inside a channel's
 * bindSource or drain.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "sim/engine.h"

namespace perfbench
{

/** steady_clock now, in nanoseconds. */
std::int64_t hostNowNs();

/** One channel's spans and accumulators in the traced run. */
struct ChannelLayers
{
    int channel = 0;
    int cube = 0;
    /** Controller name() ("hbm4", "rome"). */
    std::string controller;
    std::int64_t buildStartNs = 0;
    std::int64_t buildEndNs = 0;
    std::int64_t bindStartNs = 0;
    std::int64_t bindEndNs = 0;
    std::int64_t drainStartNs = 0;
    std::int64_t drainEndNs = 0;
    /** Cycles inside the bound stream's calls (source calls included). */
    std::uint64_t streamCycles = 0;
    /** Cycles inside system-source calls made for this channel. */
    std::uint64_t sourceCycles = 0;
    std::uint64_t streamRequests = 0;
    std::uint64_t sourceRequests = 0;
    /** Scheduling steps and RoMe template lowering outcomes at drain end. */
    std::uint64_t steps = 0;
    std::uint64_t templateHits = 0;
    std::uint64_t templateFallbacks = 0;
};

/** Source work done outside every channel (the node's statistics pass). */
struct DriverLayers
{
    std::uint64_t sourceCycles = 0;
    std::uint64_t sourceRequests = 0;
};

/**
 * Recorder for one traced driver run. Wrap the workload's factories with
 * it, bracket the run with beginRun/endRun, then read the records. It
 * must outlive every controller and source its wrappers produce.
 */
class LayerTrace
{
  public:
    explicit LayerTrace(int channels_per_cube)
        : channelsPerCube_(channels_per_cube)
    {
    }

    LayerTrace(const LayerTrace&) = delete;
    LayerTrace& operator=(const LayerTrace&) = delete;

    /** Time the factory and wrap each controller it makes. */
    rome::ControllerFactory wrapControllers(rome::ControllerFactory make);

    /** Count the streams the factory makes and time their next() calls. */
    rome::SourceFactory wrapSources(rome::SourceFactory make);

    void beginRun();
    void endRun();

    std::int64_t runStartNs() const { return runStartNs_; }
    std::int64_t runEndNs() const { return runEndNs_; }

    /** Nanoseconds per accumulator cycle, calibrated over the run. */
    double nsPerCycle() const { return nsPerCycle_; }

    /** System streams the source factory made during the run. */
    std::uint64_t sourcePasses() const { return sourcePasses_; }

    const std::deque<ChannelLayers>& channels() const { return channels_; }
    const DriverLayers& driver() const { return driver_; }

  private:
    int channelsPerCube_;
    /** Guards the records the factories and driver-side calls append. */
    std::mutex mu_;
    std::deque<ChannelLayers> channels_;
    DriverLayers driver_;
    std::uint64_t sourcePasses_ = 0;
    std::int64_t runStartNs_ = 0;
    std::int64_t runEndNs_ = 0;
    std::uint64_t runStartCycles_ = 0;
    double nsPerCycle_ = 1.0;
};

/**
 * Write @p trace as Chrome trace-event JSON (loadable in Perfetto): one
 * process for the driver and one per channel, with a track per layer.
 * Stream and source tracks carry one summary slice per channel whose
 * args hold the accumulated calls and self time. Returns false when the
 * file cannot be written.
 */
bool writeChromeTrace(const std::string& path, const LayerTrace& trace,
                      const std::string& workload);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
