#include "layers.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "rome/rome_mc.h"
#include "sim/source.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

using namespace rome;

namespace perfbench
{

std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace
{

/**
 * Clock of the per-call accumulators. The time-stamp counter costs about
 * half a steady_clock read, which matters at ~14M calls per run; the run
 * calibrates it against steady_clock (LayerTrace::nsPerCycle).
 */
inline std::uint64_t
cycles()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(hostNowNs());
#endif
}

/** The channel whose bindSource or drain this thread is inside. */
thread_local ChannelLayers* tlChannel = nullptr;

/** Marks this thread as working for @p ch until the scope ends. */
class ChannelScope
{
  public:
    explicit ChannelScope(ChannelLayers* ch) : prev_(tlChannel)
    {
        tlChannel = ch;
    }
    ~ChannelScope() { tlChannel = prev_; }
    ChannelScope(const ChannelScope&) = delete;
    ChannelScope& operator=(const ChannelScope&) = delete;

  private:
    ChannelLayers* prev_;
};

/**
 * A system stream from the workload's SourceFactory. Its calls are
 * charged to the channel the calling thread works for, or to the driver
 * when it works for none.
 */
class TimedSource final : public RequestSource
{
  public:
    TimedSource(std::unique_ptr<RequestSource> inner, DriverLayers* driver,
                std::mutex* driver_mu)
        : inner_(std::move(inner)), driver_(driver), driverMu_(driver_mu)
    {
    }

  protected:
    bool
    produce(Request& out) override
    {
        const std::uint64_t t0 = cycles();
        const bool ok = inner_->next(out);
        const std::uint64_t dt = cycles() - t0;
        if (ChannelLayers* ch = tlChannel) {
            ch->sourceCycles += dt;
            ch->sourceRequests += ok ? 1 : 0;
        } else {
            const std::lock_guard<std::mutex> lock(*driverMu_);
            driver_->sourceCycles += dt;
            driver_->sourceRequests += ok ? 1 : 0;
        }
        return ok;
    }

    void rewind() override { inner_->reset(); }

  private:
    std::unique_ptr<RequestSource> inner_;
    DriverLayers* driver_;
    std::mutex* driverMu_;
};

/** The stream one controller receives in bindSource. */
class TimedStream final : public RequestSource
{
  public:
    TimedStream(RequestSource* inner, ChannelLayers* rec)
        : inner_(inner), rec_(rec)
    {
    }

  protected:
    bool
    produce(Request& out) override
    {
        const std::uint64_t t0 = cycles();
        const bool ok = inner_->next(out);
        rec_->streamCycles += cycles() - t0;
        rec_->streamRequests += ok ? 1 : 0;
        return ok;
    }

    void rewind() override { inner_->reset(); }

  private:
    RequestSource* inner_; ///< owned by the engine, outlives the binding
    ChannelLayers* rec_;
};

/** Delegates to the real controller and records its channel's spans. */
class TracedController final : public IMemoryController
{
  public:
    TracedController(std::unique_ptr<IMemoryController> inner,
                     ChannelLayers* rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    std::string name() const override { return inner_->name(); }
    void enqueue(const Request& req) override { inner_->enqueue(req); }

    void
    bindSource(RequestSource* src) override
    {
        const ChannelScope scope(rec_);
        rec_->bindStartNs = hostNowNs();
        auto stream =
            src != nullptr ? std::make_unique<TimedStream>(src, rec_)
                           : nullptr;
        inner_->bindSource(stream.get());
        stream_ = std::move(stream);
        rec_->bindEndNs = hostNowNs();
    }

    void
    runUntil(Tick until) override
    {
        const ChannelScope scope(rec_);
        inner_->runUntil(until);
    }

    Tick
    drain() override
    {
        const ChannelScope scope(rec_);
        rec_->drainStartNs = hostNowNs();
        const Tick end = inner_->drain();
        rec_->drainEndNs = hostNowNs();
        rec_->steps = inner_->stats().schedSteps;
        if (const auto* rome = dynamic_cast<const RomeMc*>(inner_.get())) {
            rec_->templateHits = rome->generator().templateHits();
            rec_->templateFallbacks = rome->generator().templateFallbacks();
        }
        return end;
    }

    bool idle() const override { return inner_->idle(); }
    Tick now() const override { return inner_->now(); }
    const std::vector<Completion>&
    completions() const override
    {
        return inner_->completions();
    }
    void
    setRetainCompletions(bool retain) override
    {
        inner_->setRetainCompletions(retain);
    }
    const Accumulator& latencyNs() const override
    {
        return inner_->latencyNs();
    }
    const LatencyHistogram&
    latencyHistogramNs() const override
    {
        return inner_->latencyHistogramNs();
    }
    McComplexity complexity() const override { return inner_->complexity(); }
    ControllerStats stats() const override { return inner_->stats(); }

  private:
    std::unique_ptr<IMemoryController> inner_;
    ChannelLayers* rec_;
    std::unique_ptr<TimedStream> stream_;
};

} // namespace

ControllerFactory
LayerTrace::wrapControllers(ControllerFactory make)
{
    return [this, make = std::move(make)]()
               -> std::unique_ptr<IMemoryController> {
        ChannelLayers* rec = nullptr;
        {
            const std::lock_guard<std::mutex> lock(mu_);
            rec = &channels_.emplace_back();
            rec->channel = static_cast<int>(channels_.size()) - 1;
        }
        rec->cube = rec->channel / channelsPerCube_;
        rec->buildStartNs = hostNowNs();
        auto inner = make();
        rec->buildEndNs = hostNowNs();
        if (!inner)
            return nullptr;
        rec->controller = inner->name();
        return std::make_unique<TracedController>(std::move(inner), rec);
    };
}

SourceFactory
LayerTrace::wrapSources(SourceFactory make)
{
    return [this, make = std::move(make)] {
        {
            const std::lock_guard<std::mutex> lock(mu_);
            ++sourcePasses_;
        }
        return std::make_unique<TimedSource>(make(), &driver_, &mu_);
    };
}

void
LayerTrace::beginRun()
{
    runStartNs_ = hostNowNs();
    runStartCycles_ = cycles();
}

void
LayerTrace::endRun()
{
    const std::uint64_t end_cycles = cycles();
    runEndNs_ = hostNowNs();
    if (end_cycles > runStartCycles_) {
        nsPerCycle_ = static_cast<double>(runEndNs_ - runStartNs_) /
                      static_cast<double>(end_cycles - runStartCycles_);
    }
}

namespace
{

/** Appends Chrome trace events with host timestamps relative to t0. */
class ChromeEvents
{
  public:
    ChromeEvents(std::FILE* f, std::int64_t t0_ns) : f_(f), t0_(t0_ns) {}

    void
    name(const char* what, int pid, int tid, const std::string& label)
    {
        sep();
        if (tid < 0) {
            std::fprintf(f_,
                         "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,"
                         "\"args\":{\"name\":\"%s\"}}",
                         what, pid, label.c_str());
        } else {
            std::fprintf(f_,
                         "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,"
                         "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                         what, pid, tid, label.c_str());
        }
    }

    /** A complete span; @p args is a JSON object body (may be empty). */
    void
    span(const char* label, int pid, int tid, std::int64_t start_ns,
         std::int64_t end_ns, const std::string& args = "")
    {
        sep();
        std::fprintf(f_,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                     label, pid, tid,
                     static_cast<double>(start_ns - t0_) / 1e3,
                     static_cast<double>(end_ns - start_ns) / 1e3,
                     args.c_str());
    }

  private:
    void
    sep()
    {
        std::fputs(first_ ? "\n" : ",\n", f_);
        first_ = false;
    }

    std::FILE* f_;
    std::int64_t t0_;
    bool first_ = true;
};

std::string
msArg(const char* key, double seconds)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.6f", key, seconds * 1e3);
    return buf;
}

std::string
countArg(const char* key, std::uint64_t n)
{
    return "\"" + std::string(key) + "\":" + std::to_string(n);
}

} // namespace

bool
writeChromeTrace(const std::string& path, const LayerTrace& trace,
                 const std::string& workload)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const double cyc = trace.nsPerCycle() * 1e-9; // seconds per cycle
    ChromeEvents ev(f, trace.runStartNs());
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);

    constexpr int kDriverPid = 1;
    std::int64_t last_drain_end = trace.runStartNs();
    for (const ChannelLayers& ch : trace.channels())
        last_drain_end = std::max(last_drain_end, ch.drainEndNs);
    ev.name("process_name", kDriverPid, -1, "driver " + workload);
    ev.name("thread_name", kDriverPid, 0, "run");
    ev.name("thread_name", kDriverPid, 1, "controller factory");
    ev.span("run", kDriverPid, 0, trace.runStartNs(), trace.runEndNs());
    ev.span("assemble", kDriverPid, 0, last_drain_end, trace.runEndNs(),
            countArg("source_requests", trace.driver().sourceRequests) +
                "," +
                msArg("source_self_ms",
                      static_cast<double>(trace.driver().sourceCycles) *
                          cyc));
    for (const ChannelLayers& ch : trace.channels())
        ev.span("build", kDriverPid, 1, ch.buildStartNs, ch.buildEndNs,
                countArg("channel", static_cast<std::uint64_t>(ch.channel)));

    for (const ChannelLayers& ch : trace.channels()) {
        const int pid = ch.channel + 2;
        const double stream_s = static_cast<double>(ch.streamCycles) * cyc;
        const double source_s = static_cast<double>(ch.sourceCycles) * cyc;
        const double drain_s =
            static_cast<double>(ch.drainEndNs - ch.drainStartNs) * 1e-9;
        const double bind_s =
            static_cast<double>(ch.bindEndNs - ch.bindStartNs) * 1e-9;
        ev.name("process_name", pid, -1,
                "cube " + std::to_string(ch.cube) + " ch " +
                    std::to_string(ch.channel) + " (" + ch.controller + ")");
        ev.name("thread_name", pid, 0, "controller " + ch.controller);
        ev.name("thread_name", pid, 1, "stream");
        ev.name("thread_name", pid, 2, "source");
        ev.span("bindSource", pid, 0, ch.bindStartNs, ch.bindEndNs);
        // The bound stream's calls nest in bindSource and drain.
        ev.span("drain", pid, 0, ch.drainStartNs, ch.drainEndNs,
                countArg("steps", ch.steps) + "," +
                    msArg("controller_self_ms", drain_s + bind_s - stream_s));
        ev.span("stream calls (summary)", pid, 1, ch.bindStartNs,
                ch.drainEndNs,
                countArg("requests", ch.streamRequests) + "," +
                    msArg("inclusive_ms", stream_s) + "," +
                    msArg("self_ms", stream_s - source_s));
        ev.span("source calls (summary)", pid, 2, ch.bindStartNs,
                ch.drainEndNs,
                countArg("requests", ch.sourceRequests) + "," +
                    msArg("self_ms", source_s));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
