/**
 * @file
 * The shared channel-simulation engine and the polymorphic controller
 * interface both memory-controller stacks implement.
 *
 * Layering: this header sits *below* mc/ and rome/ — it depends only on
 * the common substrate, the DRAM device, and the request/complexity value
 * types. The concrete controllers (ConventionalMc, RomeMc, HybridMc)
 * implement IMemoryController; everything above them (sim drivers, bench
 * harnesses, examples, tests) drives controllers exclusively through this
 * interface via ChannelSimEngine, so a new scheduler or a new memory
 * system plugs into every harness by adding one factory.
 *
 * Components:
 *  - IMemoryController: enqueue / runUntil(tick) / drain(Until) / stats
 *    / complexity — the full contract of a per-channel controller.
 *  - ControllerStats: one flat, comparable snapshot of everything the
 *    harnesses consume (bytes, commands, bandwidths, latency, overfetch).
 *  - ChannelControllerBase: the code that used to be duplicated between
 *    src/mc/mc.cc and src/rome/rome_mc.cc — host-request admission,
 *    in-flight/completion/latency accounting, CAM-style outstanding-entry
 *    occupancy, per-bank refresh rotation, and the runUntil/drain loop.
 *  - ChannelSimEngine: owns N channels and drives them — optionally on
 *    a std::thread pool, since channels share no simulation state. A
 *    serving run binds one StreamFanOut (sim/source.h) whose views feed
 *    every channel from a single pass over the system stream; the engine
 *    then drains in lock-step windows so that producer stays O(window).
 *  - runSweep: multi-config design-space sweeps (one controller + one
 *    workload source per job) on the same thread pool.
 *
 * Workloads reach controllers through the pull-based RequestSource API
 * (sim/source.h): a controller bound to a source refills a bounded host
 * window from it inside pumpArrivals, so workload memory is O(queue
 * depth) regardless of request count. The eager enqueue(vector) path
 * remains as the ReplaySource special case and is bit-compatible.
 */

#ifndef ROME_SIM_ENGINE_H
#define ROME_SIM_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/checkpoint.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/device.h"
#include "mc/complexity.h"
#include "mc/request.h"
#include "sim/fault.h"
#include "sim/telemetry.h"

namespace rome
{

class RequestSource; // sim/source.h
class StreamFanOut;  // sim/source.h

/**
 * Uniform statistics snapshot of one controller run. Field-for-field
 * comparable (operator==) so the determinism tests can assert that a
 * threaded sweep reproduces the single-threaded result exactly.
 */
struct ControllerStats
{
    // ---- data movement --------------------------------------------------
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    /** Bytes moved beyond what requests asked for (row-granularity cost). */
    std::uint64_t overfetchBytes = 0;
    std::uint64_t completedRequests = 0;

    // ---- device command counts ------------------------------------------
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refPbs = 0;
    std::uint64_t refAbs = 0;
    std::uint64_t rowCmds = 0;
    std::uint64_t colCmds = 0;
    /** Commands crossing the MC↔HBM C/A interface. */
    std::uint64_t interfaceCommands = 0;

    // ---- reliability (sim/fault.h; all zero with faults disabled) --------
    /** Corrected (single-bit) ECC errors observed on reads. */
    std::uint64_t ceCount = 0;
    /** Detected-uncorrectable ECC errors (data poisoned, not retried). */
    std::uint64_t dueCount = 0;
    /** Re-read commands scheduled to clear correctable errors. */
    std::uint64_t retryCount = 0;
    /** Rows visited by the patrol scrub woven into refresh. */
    std::uint64_t scrubCount = 0;
    /** Rows remapped into the spare region after repeated CEs. */
    std::uint64_t sparedRows = 0;
    /**
     * Requests that completed carrying poisoned data (at least one DUE
     * among their reads). dueCount counts codewords; this counts host
     * requests, so the serving layer can report a per-request poison rate.
     */
    std::uint64_t poisonedRequests = 0;

    // ---- scheduling throughput (diagnostic; merge-added, not compared) ---
    /**
     * Scheduling steps executed: the host-cost diagnostic RatePoint and
     * the benchmark's layer tracer report. Excluded from operator==
     * because step counts are an implementation diagnostic: legacy/
     * indexed and eager/streaming drives may legitimately chop idle
     * jumps differently while producing identical results.
     */
    std::uint64_t schedSteps = 0;

    // ---- telemetry (sim/telemetry.h; empty with counters disabled) -------
    /**
     * Where this channel's scheduler time went: per-cause tick totals,
     * summing to now() after a drain. Merge-added like the reliability
     * counters; excluded from operator== with the other telemetry fields
     * below — they are diagnostics of the same run, and telemetry-off
     * runs must compare equal to telemetry-on runs bit-for-bit.
     */
    StallTicks stallTicks{};
    /** Request-latency breakdown components (each merges exactly). */
    LatencyHistogram queueNsHist;
    LatencyHistogram serviceNsHist;
    LatencyHistogram retryNsHist;
    LatencyHistogram linkNsHist;
    /** Occupancy / bandwidth / stall-mix samples over completion time. */
    TimeSeries timeSeries;

    // ---- derived --------------------------------------------------------
    /** Last data-transfer end tick. */
    Tick finishedAt = 0;
    /** Transferred (incl. overfetch) bytes / ns over [0, finishedAt). */
    double achievedBandwidth = 0.0;
    /** Useful (requested) bytes / ns — equals achieved when no overfetch. */
    double effectiveBandwidth = 0.0;
    /** Fraction of column ops hitting an open row (conventional only). */
    double rowHitRate = 0.0;
    double latencyMeanNs = 0.0;
    double latencyMaxNs = 0.0;

    /**
     * Full request-latency distribution (ns). Carried by value so that
     * merging channel snapshots keeps cube-level percentiles *exact*:
     * bucket counts add, unlike means/maxima which cannot recover a
     * system p99. Consumed by the serving harness (sim/serving.h).
     */
    LatencyHistogram latencyHistNs;

    std::uint64_t totalBytes() const { return bytesRead + bytesWritten; }

    /** Percentile of the merged latency distribution (ns), p in [0,100]. */
    double
    latencyPercentileNs(double p) const
    {
        return latencyHistNs.percentileNs(p);
    }

    /**
     * Merge @p o into this snapshot: counters and histogram buckets add,
     * finishedAt/latencyMaxNs take the max, latencyMeanNs is weighted by
     * completed requests and rowHitRate by column commands. Derived
     * bandwidths are left stale — call deriveBandwidths() once after the
     * last merge.
     */
    void merge(const ControllerStats& o);

    /** Re-derive achieved/effective bandwidth from bytes and finishedAt. */
    void deriveBandwidths();

    bool operator==(const ControllerStats& o) const;
    bool operator!=(const ControllerStats& o) const { return !(*this == o); }

    /**
     * 64-bit FNV-1a digest of everything operator== compares: the
     * counters, finishedAt, the derived rates, and latencyHistNs's
     * count/min/max/sum plus every bucket. Equal snapshots digest
     * equally, so one hex string pins a run's modelled outputs
     * (tests/test_golden.cc checks a table of them; the benchmark's stats
     * digest is the same definition).
     */
    std::uint64_t digest() const;
};

/** Polymorphic contract of a per-channel memory controller. */
class IMemoryController
{
  public:
    virtual ~IMemoryController() = default;

    /** Human-readable controller identity ("hbm4", "rome", "hybrid"). */
    virtual std::string name() const = 0;

    /** Queue a host request (unbounded host-side buffer; FIFO admission). */
    virtual void enqueue(const Request& req) = 0;

    /**
     * Attach a pull-based workload source (nullptr detaches). The
     * controller draws requests from it as simulated time reaches their
     * arrival ticks; runUntil/drain then consume the source instead of a
     * pre-enqueued list. The source must outlive the binding and yield
     * requests in nondecreasing arrival order.
     *
     * The default implementation eagerly drains the source into
     * enqueue() — functionally equivalent, O(workload) memory.
     * ChannelControllerBase overrides it with true bounded-window
     * streaming.
     */
    virtual void bindSource(RequestSource* src);

    /**
     * Advance simulation until @p until or until fully idle. Every event
     * at or before @p until is processed; now() ends on the last event
     * tick, which may trail @p until (decisions land only on event ticks,
     * making any slicing of the drive bit-identical to an unsliced run).
     */
    virtual void runUntil(Tick until) = 0;

    /** Run until every queued request completed; returns last data tick. */
    virtual Tick drain() = 0;

    /**
     * Windowed drain: step while work is pending and now() <= @p until,
     * exactly as drain() would, then stop. Returns the last data tick
     * once the controller is idle, kTickInvalid while work remains; call
     * again only in the latter case. Calls with rising bounds followed by
     * one drain() are bit-identical to a single drain(). Unlike runUntil
     * it never steps an idle controller, whose refresh calendar a
     * straight drain would not fire either.
     *
     * The default runs one full drain() — exact for every controller, but
     * it pulls the controller's whole bound stream in one call.
     */
    virtual Tick drainUntil(Tick until);

    /** True when no work is pending. */
    virtual bool idle() const = 0;

    virtual Tick now() const = 0;

    /** Completions in finish order (appended as requests retire). */
    virtual const std::vector<Completion>& completions() const = 0;

    /**
     * Disable (or re-enable) the per-request completion log so
     * arbitrarily long streamed workloads run in O(queue-depth) memory;
     * counters, latency stats, and histograms are unaffected. Composite
     * controllers forward to their parts; the default is a no-op for
     * controllers without a log.
     */
    virtual void setRetainCompletions(bool retain) { (void)retain; }

    /** Request latency statistics (ns). */
    virtual const Accumulator& latencyNs() const = 0;

    /** Full request-latency distribution (ns), mergeable across channels. */
    virtual const LatencyHistogram& latencyHistogramNs() const = 0;

    /** Table IV introspection. */
    virtual McComplexity complexity() const = 0;

    /** Flat snapshot of everything the harnesses consume. */
    virtual ControllerStats stats() const = 0;

    // ---- checkpoint / restore (common/checkpoint.h) ---------------------

    /**
     * Serialize every piece of mutable state a bit-identical continuation
     * needs (controller, device, source cursor). Use the
     * saveControllerCheckpoint free function for the enveloped blob. The
     * default fatals: a controller without an override cannot checkpoint.
     */
    virtual void saveCheckpoint(CheckpointWriter& w) const;

    /**
     * Inverse of saveCheckpoint into a freshly constructed controller of
     * the *same configuration* — config-derived state is reproduced by
     * construction, only mutable state is read back. After restoring,
     * attach the workload stream with resumeSource (when one was bound);
     * continuing with runUntil is then bit-identical to the original run.
     */
    virtual void restoreCheckpoint(CheckpointReader& r);

    /**
     * Re-attach a *fresh instance* of the originally bound source after
     * restoreCheckpoint: the controller fast-forwards it past everything
     * it had consumed before the snapshot (sources regenerate
     * deterministically), leaving the cursor exactly where the original
     * binding stood. Unlike bindSource this never refills the host
     * window — the restored window already holds those requests.
     */
    virtual void resumeSource(RequestSource* src);
};

/**
 * Serialize @p mc into an enveloped blob: magic, format version and the
 * controller's name() ahead of its state, so restoring into the wrong
 * controller type (or a drifted format) fails loudly.
 */
std::vector<std::uint8_t> saveControllerCheckpoint(
    const IMemoryController& mc);

/** Validate @p blob's envelope against @p mc and restore its state. */
void restoreControllerCheckpoint(IMemoryController& mc,
                                 const std::vector<std::uint8_t>& blob);

/** Factory producing a fresh controller (one per sweep job / channel). */
using ControllerFactory = std::function<std::unique_ptr<IMemoryController>()>;

/**
 * Per-bank / per-VBA refresh rotation shared by both controllers: a due
 * time advancing by a fixed interval and a cursor walking the refresh
 * targets round-robin. Postponement is bounded by counting how many
 * intervals the rotation has fallen behind.
 */
struct RefreshRotation
{
    Tick interval = 0;
    Tick due = 0;
    int cursor = 0;

    /** Refreshes owed at @p now, saturated at @p cap. */
    int
    pendingCount(Tick now, int cap) const
    {
        if (now < due)
            return 0;
        const Tick n = 1 + (now - due) / interval;
        return static_cast<int>(n < static_cast<Tick>(cap) ? n : cap);
    }

    /** Account one issued refresh: step the cursor and push the due time. */
    void
    advance(int num_targets)
    {
        cursor = (cursor + 1) % num_targets;
        due += interval;
    }
};

/**
 * CAM-occupancy bookkeeping for issued-but-incomplete operations. An entry
 * tracks its transaction until the data transfers, so outstanding entries
 * still count against the queue depth (this is what makes deep queues
 * necessary for bank-parallelism, §V-A).
 *
 * Entries live in a min-heap on their release tick, so the controller hot
 * loop pays O(log n) per push/release and O(1) for the next-release query
 * that feeds the schedulers' event calendars. The backing vector's capacity
 * persists across steps, so a warmed-up controller releases and pushes
 * without touching the heap allocator.
 */
class OutstandingOps
{
  public:
    /** Release every entry whose data transfer ended by @p now. */
    void
    release(Tick now)
    {
        while (!heap_.empty() && heap_.front() <= now) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<Tick>{});
            heap_.pop_back();
        }
    }

    void
    push(Tick data_end)
    {
        heap_.push_back(data_end);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<Tick>{});
    }

    std::size_t size() const { return heap_.size(); }

    /** Earliest strictly-future release, or kTickMax when none. */
    Tick
    firstFreeAfter(Tick now) const
    {
        if (heap_.empty())
            return kTickMax;
        if (heap_.front() > now)
            return heap_.front();
        // Entries at or before now survive only between release() calls;
        // fall back to an exact scan so the query stays correct anywhere.
        Tick first = kTickMax;
        for (const Tick t : heap_) {
            if (t > now && t < first)
                first = t;
        }
        return first;
    }

    /** The raw heap array round-trips verbatim (heap order included). */
    void
    saveState(CheckpointWriter& w) const
    {
        w.putCount(heap_.size());
        for (const Tick t : heap_)
            w.putI64(t);
    }

    void
    loadState(CheckpointReader& r)
    {
        heap_.resize(r.getCount());
        for (Tick& t : heap_)
            t = r.getI64();
    }

  private:
    std::vector<Tick> heap_; ///< min-heap on release tick
};

/**
 * Shared implementation base of the per-channel controllers: everything
 * that was duplicated between the conventional and the RoMe stack.
 *
 * A subclass supplies the scheduling itself (stepOnce), the decomposition
 * of host requests into queue operations (admitOps + admissionChunkBytes)
 * and its device; the base runs the host-side admission pump, tracks
 * in-flight requests, records completions and latency, and owns the
 * runUntil / drain / idle driver loop.
 */
class ChannelControllerBase : public IMemoryController
{
  public:
    void enqueue(const Request& req) final;
    void bindSource(RequestSource* src) final;
    void runUntil(Tick until) final;
    Tick drain() final;
    Tick drainUntil(Tick until) final;
    bool idle() const override;
    Tick now() const final { return now_; }
    const std::vector<Completion>&
    completions() const final
    {
        return completions_;
    }
    const Accumulator& latencyNs() const final { return latencyNs_; }
    const LatencyHistogram&
    latencyHistogramNs() const final
    {
        return latencyHistNs_;
    }

    /** The timing-enforcing device this controller drives. */
    virtual const ChannelDevice& device() const = 0;

    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

    /** Scheduling steps executed so far (hot-loop throughput metric). */
    std::uint64_t stepsExecuted() const { return steps_; }

    /**
     * How many bound-source requests the host buffer prefetches. Only
     * host_.front() drives scheduling decisions, so the window size never
     * changes results — it only bounds memory. Must be >= 1.
     */
    void setSourceWindow(std::size_t window);

    std::size_t sourceWindow() const { return sourceWindow_; }

    /** High-water mark of the host buffer (bounded-memory evidence). */
    std::size_t hostBufferPeak() const { return hostPeak_; }

    /** The fault process and recovery state this controller consults. */
    const FaultInjector& faultInjector() const { return faults_; }

    // ---- telemetry (sim/telemetry.h) ------------------------------------

    /** Per-bank / per-channel stall attribution (empty when off). */
    const StallTable& stallTable() const { return stall_; }

    /** The occupancy / bandwidth / stall-mix sample ring. */
    const TimeSeries& timeSeries() const { return series_; }

    /**
     * Attach an event sink for the timeline exporter (nullptr detaches).
     * With @p trace_commands the controller additionally installs a
     * device trace that records one span per committed command; the
     * recorded timeline is byte-identical across thread counts and
     * runUntil slicings. Without it only coarse events are recorded
     * (retries, spares, checkpoints).
     */
    void
    attachTelemetrySink(TelemetrySink* sink, bool trace_commands = false)
    {
        sink_ = sink;
        if (sink != nullptr && trace_commands)
            installCommandTrace();
    }

    TelemetrySink* telemetrySink() const { return sink_; }

    /**
     * Disable the per-request completion log (completions() stays
     * empty; completedRequests / latency stats are unaffected). Required
     * for O(1)-memory streaming of arbitrarily long workloads.
     */
    void
    setRetainCompletions(bool retain) override
    {
        retainCompletions_ = retain;
    }

    /**
     * Fast-forward the fresh @p src past the sourcePulled_ requests the
     * checkpointed run had consumed, then attach it without refilling
     * (the restored host window already holds the pulled-but-unadmitted
     * requests). Null detaches (legal only when the source was drained).
     */
    void resumeSource(RequestSource* src) final;

    /**
     * Composite-router restore plumbing: attach @p src as-is, with no
     * skipping and no refill. A router resumes the *shared* stream once
     * and re-attaches its live per-partition feeds here — skipping would
     * double-advance the shared cursor.
     */
    void attachResumedFeed(RequestSource* src) { source_ = src; }

  protected:
    /** Host-request progress tracking. */
    struct ReqState
    {
        Tick arrival;
        int opsRemaining; // not yet completed
        /** Any op of this request read poisoned (DUE) data. */
        bool poisoned = false;
        /** First command issued for the request (breakdown; telemetry). */
        Tick firstIssue = kTickInvalid;
        /** Retry backoff accumulated across the request's ops. */
        Tick retryTicks = 0;
        /** Upstream link delay copied from the request (telemetry). */
        Tick linkDelay = 0;
    };

    /**
     * One scheduling step. Must either advance now_ (issuing a command or
     * jumping to the next event) and return true, or return false —
     * leaving now_ on its last event tick — when nothing can happen at or
     * before @p until. now_ never lands between events, so every
     * decision input (arrivals, ages, refresh debt, idle timeouts) is
     * evaluated at the same ticks no matter how the drive slices time:
     * any runUntil partition is bit-identical to an unsliced drain.
     */
    virtual bool stepOnce(Tick until) = 0;

    /**
     * Admit operations of host_.front() into the subclass's request queue.
     * Returns true when the whole request was admitted (and popped).
     */
    virtual bool admitOps() = 0;

    /** Operation granularity requests decompose into (column / eff. row). */
    virtual std::uint64_t admissionChunkBytes() const = 0;

    /**
     * Admit from the host buffer while requests have arrived. With a
     * bound source, first tops the host buffer up to the source window,
     * preserving the invariant that host_.front() is the stream head
     * whenever work remains — the schedulers' next-arrival event logic
     * is oblivious to where requests come from.
     */
    void pumpArrivals();

    /**
     * Account one finished operation of request @p req_id, issued at
     * now_; records the completion and samples latency when it was the
     * last one. @p poisoned marks this op's data as carrying a DUE; the
     * request's completion is poisoned if any of its ops were.
     */
    void noteOpDone(std::uint64_t req_id, Tick data_end,
                    bool poisoned = false, Tick retry_wait = 0);

    /**
     * Completion fast path for a request that decomposed into exactly one
     * operation (the caller knows from its admission-time chunking, and
     * carries the arrival tick in the op): no in-flight map traffic.
     *
     * The trailing parameters feed the telemetry latency breakdown and
     * default to "no retry, no link delay"; the op was issued at now_.
     */
    void noteSingleOpDone(std::uint64_t req_id, Tick arrival, Tick data_end,
                          bool poisoned = false, Tick retry_wait = 0,
                          Tick link_delay = 0);

    /** Fill the base-owned fields of @p s (bytes, latency, bandwidth). */
    void fillBaseStats(ControllerStats& s) const;

    // ---- telemetry plumbing ---------------------------------------------

    /**
     * Arm the counter tier from @p cfg (no-op when cfg.counters is
     * false): sizes the per-bank stall rows and the sample ring.
     * Subclass constructors call this with their bank/VBA count.
     */
    void initTelemetry(const TelemetryConfig& cfg, int num_banks);

    /** Counter-tier master switch (one branch on the hot path). */
    bool telemetryOn() const { return telemetry_; }

    /**
     * Charge the scheduler-time advance [from, to) to @p cause (and to
     * @p bank when >= 0). Call exactly where now_ advances, so any
     * slicing of the drive attributes identically and the cause totals
     * sum to now() after a drain.
     */
    void
    chargeStall(StallCause cause, Tick from, Tick to, int bank = -1)
    {
        if (telemetry_ && to > from)
            stall_.charge(cause, to - from, bank);
    }

    /** Subclass hook installing the per-command device trace. */
    virtual void installCommandTrace() {}

    /**
     * Serialize / restore every base-owned mutable field (clock, host
     * window, in-flight map, completion log, latency stats, source
     * cursor, fault state). Subclass saveCheckpoint overrides call these
     * first, then append their scheduler and device state.
     */
    void saveBaseState(CheckpointWriter& w) const;
    void loadBaseState(CheckpointReader& r);

    Tick now_ = 0;
    /**
     * Per-channel fault process (subclass ctors configure it with their
     * geometry). Disabled by default: every hot-path hook then reduces
     * to one enabled() branch.
     */
    FaultInjector faults_;
    std::deque<Request> host_;
    /** Next not-yet-admitted chunk index of host_.front(). */
    std::uint64_t frontChunk_ = 0;
    std::unordered_map<std::uint64_t, ReqState> inflight_;
    std::vector<Completion> completions_;
    Accumulator latencyNs_;
    LatencyHistogram latencyHistNs_;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t steps_ = 0;
    /** Requests ever enqueued; completions_ capacity is kept ahead of it. */
    std::uint64_t totalRequests_ = 0;
    /** Counter-tier telemetry state (initTelemetry; empty when off). */
    bool telemetry_ = false;
    StallTable stall_;
    TimeSeries series_;
    LatencyHistogram queueHistNs_;
    LatencyHistogram serviceHistNs_;
    LatencyHistogram retryHistNs_;
    LatencyHistogram linkHistNs_;
    /** Timeline event sink (attachTelemetrySink; null when detached). */
    TelemetrySink* sink_ = nullptr;

  private:
    /** Record breakdown components and push a time-series observation. */
    void telemetrySampleCompletion(Tick arrival, Tick data_end,
                                   Tick first_issue, Tick retry_ticks,
                                   Tick link_delay, Completion* c);

    /** Pull from source_ until the host window is full or it runs dry. */
    void refillFromSource();

    RequestSource* source_ = nullptr;
    /** Cached source_->exhausted(); lets idle() stay const and cheap. */
    bool sourceDone_ = true;
    /** Requests ever pulled from bound sources — the checkpointed source
     *  cursor resumeSource() fast-forwards a fresh stream to. */
    std::uint64_t sourcePulled_ = 0;
    std::size_t sourceWindow_ = 8;
    std::size_t hostPeak_ = 0;
    std::uint64_t completedCount_ = 0;
    /** Completed requests whose data carried at least one DUE. */
    std::uint64_t poisonedCount_ = 0;
    /** In-flight single-operation requests (kept out of inflight_). */
    std::uint64_t singleOpsPending_ = 0;
    bool retainCompletions_ = true;
};

// ---------------------------------------------------------------------------
// Parallel execution substrate
// ---------------------------------------------------------------------------

/** Worker count for parallel sweeps: hardware concurrency, at least 1. */
int defaultSimThreads();

/**
 * Run fn(0..n-1) on up to @p threads std::threads. Work is pulled from an
 * atomic index, results must be written to per-index slots — determinism
 * is then structural. threads <= 1 degenerates to a plain loop.
 */
void parallelFor(int n, int threads, const std::function<void(int)>& fn);

// ---------------------------------------------------------------------------
// ChannelSimEngine
// ---------------------------------------------------------------------------

/**
 * Owns N channel controllers and drives them through the interface.
 * Channels never share simulation state, so drainAll / runAllUntil spread
 * them across a thread pool; per-channel results are independent of the
 * thread count.
 *
 * With a StreamFanOut bound (bindFanOut), every channel pulls from one
 * shared producer. drainAll and runAllUntil then advance all channels
 * through lock-step windows while the producer is live — each window
 * deals the next kFanOutWindow system requests and runs every channel to
 * the last one's arrival tick, so the producer stays about a window ahead
 * of the channels — and finish each channel with one exact drain() once
 * the system stream has been fully dealt. Slice invariance makes the
 * windowed drive bit-identical to draining each channel on its own.
 */
class ChannelSimEngine
{
  public:
    /** @param threads Worker threads for multi-channel operations. */
    explicit ChannelSimEngine(int threads = 1);

    /** Out of line: RequestSource is incomplete here. */
    ~ChannelSimEngine();

    /** Take ownership of @p mc; returns its channel index. */
    int addChannel(std::unique_ptr<IMemoryController> mc);

    int numChannels() const { return static_cast<int>(channels_.size()); }

    IMemoryController& channel(int idx) { return *channels_.at(idx); }
    const IMemoryController&
    channel(int idx) const
    {
        return *channels_.at(idx);
    }

    /** Queue one request on channel @p idx. */
    void enqueue(int idx, const Request& req);

    /** Queue a whole per-channel request list on channel @p idx. */
    void enqueue(int idx, const std::vector<Request>& reqs);

    /**
     * Bind a pull source to channel @p idx (the engine keeps it alive);
     * drainAll / runAllUntil then stream it.
     */
    void bindSource(int idx, std::unique_ptr<RequestSource> src);

    /**
     * Bind view i of @p fan to channel i, for every channel, and keep the
     * producer alive with its views; @p fan must have exactly
     * numChannels() views. drainAll / runAllUntil then drive lock-step
     * windows while it is live. The caller may keep a reference to @p fan
     * to read its statistics after the drive.
     */
    void bindFanOut(std::unique_ptr<StreamFanOut> fan);

    /**
     * Checkpoint-resume counterpart of bindFanOut: each restored channel
     * skips its consumed prefix of its view (IMemoryController::
     * resumeSource). Requests dealt to the other views meanwhile wait in
     * their FIFOs, so resuming buffers up to the checkpointed prefix.
     */
    void resumeFanOut(std::unique_ptr<StreamFanOut> fan);

    /**
     * Checkpoint-resume counterpart of bindSource: hands a fresh instance
     * of channel @p idx's original source to its restored controller via
     * IMemoryController::resumeSource (fast-forward past the consumed
     * prefix, no refill) and keeps it alive like bindSource would.
     */
    void resumeSource(int idx, std::unique_ptr<RequestSource> src);

    /** Drain every channel; returns the latest finish tick. */
    Tick drainAll();

    /** Advance every channel to @p until. */
    void runAllUntil(Tick until);

    /**
     * System requests one lock-step window of a fan-out drive deals; the
     * window runs to the last one's arrival tick. A request count, not a
     * time span, so a window carries enough work per channel to amortize
     * switching between channels whatever the stream's rate.
     */
    static constexpr std::uint64_t kFanOutWindow = 2048;

    bool idle() const;

    /** Sum of all channels' stats (bandwidths re-derived from totals). */
    ControllerStats totals() const;

    int threads() const { return threads_; }
    void setThreads(int threads) { threads_ = threads; }

  private:
    void attachFanOut(std::unique_ptr<StreamFanOut> fan, bool resume);

    /**
     * Call @p step with the end tick of each lock-step window below
     * @p limit while the bound fan-out's producer is live (never without
     * one).
     */
    void forEachWindow(Tick limit, const std::function<void(Tick)>& step);

    int threads_;
    std::vector<std::unique_ptr<IMemoryController>> channels_;
    /** Producer behind the views bound by bindFanOut (null without);
     *  declared before sources_ so the views go first. */
    std::unique_ptr<StreamFanOut> fan_;
    /** Sources bound via bindSource, indexed like channels_. */
    std::vector<std::unique_ptr<RequestSource>> sources_;
};

// ---------------------------------------------------------------------------
// Workload drivers and design-space sweeps
// ---------------------------------------------------------------------------

/**
 * Stream @p source through @p mc until both are drained; returns the
 * final stats snapshot. This is the streaming workload driver: with a
 * ChannelControllerBase-derived controller, host-side memory stays
 * O(queue depth) for any workload length.
 */
ControllerStats runWorkload(IMemoryController& mc, RequestSource& source);

/**
 * Replay @p reqs through @p mc and drain; returns the final stats
 * snapshot. Streams via a ReplaySource view — bit-compatible with the
 * historical enqueue-everything-then-drain loop.
 */
ControllerStats runWorkload(IMemoryController& mc,
                            const std::vector<Request>& reqs);

/** Immutable request list shared between the sweep jobs replaying it. */
using SharedRequests = std::shared_ptr<const std::vector<Request>>;

/** Wrap a request list for sharing across jobs without copying it. */
inline SharedRequests
shareRequests(std::vector<Request> reqs)
{
    return std::make_shared<const std::vector<Request>>(std::move(reqs));
}

/**
 * Factory producing a fresh workload source (one per sweep job). Jobs
 * regenerate their stream per run, so sweeps never materialize request
 * lists unless a ReplaySource is asked for explicitly.
 */
using SourceFactory = std::function<std::unique_ptr<RequestSource>()>;

/** Source factory replaying a shared in-memory request list. */
SourceFactory replayFactory(SharedRequests reqs);

/** One design point of a sweep: a fresh controller and its workload. */
struct SweepJob
{
    SweepJob(std::string label_, ControllerFactory make_,
             SourceFactory source_)
        : label(std::move(label_)), make(std::move(make_)),
          source(std::move(source_))
    {
    }

    /** Replay convenience: share one request list across jobs. */
    SweepJob(std::string label_, ControllerFactory make_,
             SharedRequests requests_)
        : SweepJob(std::move(label_), std::move(make_),
                   replayFactory(std::move(requests_)))
    {
    }

    /** Convenience for single-use workloads: wraps the list privately. */
    SweepJob(std::string label_, ControllerFactory make_,
             std::vector<Request> requests_)
        : SweepJob(std::move(label_), std::move(make_),
                   shareRequests(std::move(requests_)))
    {
    }

    std::string label;
    ControllerFactory make;
    SourceFactory source;
};

/** Outcome of one sweep job; @c mc is kept alive for deep inspection. */
struct SweepOutcome
{
    std::string label;
    ControllerStats stats;
    std::unique_ptr<IMemoryController> mc;
};

/**
 * Run every job (construct controller, enqueue its workload, drain) on up
 * to @p threads workers. Outcomes are returned in job order and are
 * independent of the thread count.
 */
std::vector<SweepOutcome> runSweep(std::vector<SweepJob> jobs,
                                   int threads = defaultSimThreads());

} // namespace rome

#endif // ROME_SIM_ENGINE_H
