/**
 * @file
 * Benchmark driver: one open-loop rate point of one workload per process.
 *
 *   perfbench --workload NAME --seed N --stream serving.trace
 *             [--trace 0|1] [--trace-out FILE]
 *
 * Untraced (--trace 0): repeated in-process set-ups (their median is
 * setup_s), then one timed driver run() whose wall and CPU time, peak RSS
 * and simulated latency/goodput are the end-to-end metrics.
 *
 * Traced (--trace 1): the same untraced run, then a second run with the
 * layer wrappers (layers.h) and the controllers' telemetry counters on.
 * It reports the per-layer metrics and writes the spans as Chrome
 * trace-event JSON to --trace-out. End-to-end metrics never come from
 * the traced run; the ratio of the two wall times is the tracing
 * overhead.
 *
 * Every run checks its outputs (every request completed, unpoisoned,
 * with the stream's bytes; traced stats equal untraced) and prints a
 * digest of the aggregate ControllerStats. The report goes to stdout one
 * item per line for perfbench/run.py:
 *
 *   <key> <value>                  run facts (workload, seed, digest, ...)
 *   check <ok|FAIL> <description>
 *   metric <name> <value> <unit>
 *
 * The exit status is 1 when a check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.h"
#include "dram/hbm4_config.h"
#include "layers.h"
#include "sim/telemetry.h"
#include "workloads.h"

using namespace rome;
using namespace perfbench;

namespace
{

/** In-process set-ups per run; setup_s is their median. */
constexpr int kSetups = 21;

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

struct Check
{
    std::string name;
    bool ok;
};

// ---------------------------------------------------------------------------
// Host measurements
// ---------------------------------------------------------------------------

/** Process user+sys CPU seconds, all threads included. */
double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a 64-bit, chainable. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
};

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** The stream file read once before timing: its size and checksum. */
struct FileStamp
{
    std::uint64_t bytes = 0;
    std::uint64_t fnv = 0;
};

bool
stampFile(const std::string& path, FileStamp& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    Fnv f;
    std::vector<char> buf(1 << 20);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0) {
        const auto n = static_cast<std::size_t>(in.gcount());
        f.bytes(buf.data(), n);
        out.bytes += n;
    }
    out.fnv = f.h;
    return true;
}

/**
 * Digest of everything ControllerStats::operator== compares: counters,
 * derived rates and every latency-histogram bucket. Scheduling-step and
 * telemetry diagnostics are excluded, as in operator==, so a
 * performance-only change or a traced run keeps the digest.
 */
std::string
statsDigest(const ControllerStats& s)
{
    Fnv f;
    for (const std::uint64_t v :
         {s.bytesRead, s.bytesWritten, s.overfetchBytes, s.completedRequests,
          s.acts, s.pres, s.reads, s.writes, s.refPbs, s.refAbs, s.rowCmds,
          s.colCmds, s.interfaceCommands, s.ceCount, s.dueCount,
          s.retryCount, s.scrubCount, s.sparedRows, s.poisonedRequests})
        f.u64(v);
    f.u64(static_cast<std::uint64_t>(s.finishedAt));
    for (const double v : {s.achievedBandwidth, s.effectiveBandwidth,
                           s.rowHitRate, s.latencyMeanNs, s.latencyMaxNs})
        f.f64(v);
    const LatencyHistogram& h = s.latencyHistNs;
    f.u64(h.count());
    f.f64(h.minNs());
    f.f64(h.maxNs());
    f.f64(h.sumNs());
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
        f.u64(h.bucketCount(i));
    return hex64(f.h);
}

/** Output checks of one run against the stream it was fed. */
std::vector<Check>
checkRun(const RunResult& r, const StreamShape& shape, const char* tag)
{
    const ControllerStats& a = r.aggregate;
    const std::string t = tag;
    return {
        {t + ": completed == attempted",
         a.completedRequests == shape.requests},
        {t + ": read bytes == stream read bytes",
         a.bytesRead == shape.readBytes},
        {t + ": write bytes == stream write bytes",
         a.bytesWritten == shape.writeBytes},
        {t + ": no poisoned request",
         a.poisonedRequests == 0 && a.dueCount == 0},
    };
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct TimedRun
{
    RunResult result;
    double wallS = 0.0;
    double cpuS = 0.0;
};

TimedRun
timeRun(const PreparedRun& p, LayerTrace* trace)
{
    TimedRun t;
    const double cpu0 = processCpuS();
    const std::int64_t t0 = hostNowNs();
    if (trace)
        trace->beginRun();
    t.result = p.run();
    if (trace)
        trace->endRun();
    t.wallS = static_cast<double>(hostNowNs() - t0) * 1e-9;
    t.cpuS = processCpuS() - cpu0;
    return t;
}

/**
 * The @p p-th percentile of @p h in µs: nearest rank, like
 * LatencyHistogram::percentileNs, but interpolated by rank inside the
 * bucket instead of reporting its midpoint. Midpoints of a narrow
 * distribution repeat exactly across seeds; this stays an exact function
 * of the merged histogram.
 */
double
percentileUs(const LatencyHistogram& h, double p)
{
    const std::uint64_t n = h.count();
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(n))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        const std::uint64_t c = h.bucketCount(i);
        if (c > 0 && seen + c >= target) {
            const auto low =
                static_cast<double>(LatencyHistogram::bucketLow(i));
            const double high =
                i + 1 < LatencyHistogram::kNumBuckets
                    ? static_cast<double>(LatencyHistogram::bucketLow(i + 1))
                    : low + 1.0;
            const double v = low + (high - low) *
                                       static_cast<double>(target - seen) /
                                       static_cast<double>(c);
            return std::clamp(v, h.minNs(), h.maxNs()) / 1e3;
        }
        seen += c;
    }
    return h.maxNs() / 1e3;
}

std::vector<Metric>
endToEndMetrics(const TimedRun& t, double setup_s, bool ok)
{
    const ControllerStats& a = t.result.aggregate;
    const double span_s = nsFromTicks(t.result.finishedAt) * 1e-9;
    const double good =
        static_cast<double>(a.completedRequests - a.poisonedRequests);
    return {
        {"wall_s", t.wallS, "s"},
        {"cpu_s", t.cpuS, "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"sim_p50_us", percentileUs(a.latencyHistNs, 50.0), "us"},
        {"sim_p99_us", percentileUs(a.latencyHistNs, 99.0), "us"},
        {"sim_p999_us", percentileUs(a.latencyHistNs, 99.9), "us"},
        {"sim_goodput_mrps", span_s > 0 ? good / span_s / 1e6 : 0.0, "Mrps"},
        // A failed check fails every request of the run.
        {"failed_frac", ok ? 0.0 : 1.0, "frac"},
    };
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
layerMetrics(const LayerTrace& trace, const TimedRun& traced,
             double untraced_wall_s, int engine_threads)
{
    const double cyc = trace.nsPerCycle() * 1e-9;
    const auto sec = [](std::int64_t a, std::int64_t b) {
        return static_cast<double>(b - a) * 1e-9;
    };
    std::uint64_t stream_req = 0;
    std::uint64_t source_req = trace.driver().sourceRequests;
    double source_s = static_cast<double>(trace.driver().sourceCycles) * cyc;
    double stream_self_s = 0.0;
    double ctl_self_s[2] = {0.0, 0.0}; // [0] conventional, [1] RoMe
    std::uint64_t steps[2] = {0, 0};
    std::uint64_t tmpl_hits = 0;
    std::uint64_t tmpl_misses = 0;
    double drain_sum_s = 0.0;
    double critical_s = 0.0;
    double build_s = 0.0;
    std::int64_t first_drain = trace.runEndNs();
    std::int64_t last_drain = trace.runStartNs();
    for (const ChannelLayers& ch : trace.channels()) {
        const double stream_s = static_cast<double>(ch.streamCycles) * cyc;
        const double src_s = static_cast<double>(ch.sourceCycles) * cyc;
        const double drain_s = sec(ch.drainStartNs, ch.drainEndNs);
        const int k = ch.controller == "rome" ? 1 : 0;
        // The controller's spans are its bindSource and drain; the bound
        // stream's calls nest in them, the source's calls in those.
        ctl_self_s[k] +=
            drain_s + sec(ch.bindStartNs, ch.bindEndNs) - stream_s;
        steps[k] += ch.steps;
        stream_self_s += stream_s - src_s;
        source_s += src_s;
        stream_req += ch.streamRequests;
        source_req += ch.sourceRequests;
        tmpl_hits += ch.templateHits;
        tmpl_misses += ch.templateFallbacks;
        drain_sum_s += drain_s;
        critical_s = std::max(critical_s, drain_s);
        build_s += sec(ch.buildStartNs, ch.buildEndNs);
        first_drain = std::min(first_drain, ch.drainStartNs);
        last_drain = std::max(last_drain, ch.drainEndNs);
    }
    const double window_s =
        last_drain > first_drain ? sec(first_drain, last_drain) : 0.0;
    const double capacity_s = window_s * engine_threads;

    const ControllerStats& a = traced.result.aggregate;
    const auto cas = static_cast<double>(a.reads + a.writes);
    double stall_total = 0.0;
    for (const std::uint64_t t : a.stallTicks)
        stall_total += static_cast<double>(t);
    const auto stall = [&](StallCause c) {
        return ratio(static_cast<double>(a.stallTicks[static_cast<
                         std::size_t>(c)]),
                     stall_total);
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const bool has_mc = steps[0] > 0;

    return {
        {"source.passes", d(trace.sourcePasses()), "count"},
        {"source.requests", d(source_req), "count"},
        {"source.self_s", source_s, "s"},
        {"stream.requests", d(stream_req), "count"},
        {"stream.useful_frac", ratio(d(stream_req), d(source_req)), "frac"},
        {"stream.self_s", stream_self_s, "s"},
        {"stream.link_queue_p99_us", traced.result.linkQueueP99Ns / 1e3,
         "us"},
        {"mc.steps", d(steps[0]), "count"},
        {"mc.steps_per_cas", has_mc ? ratio(d(steps[0]), cas) : 0.0,
         "step/cas"},
        {"mc.self_s", ctl_self_s[0], "s"},
        {"mc.ns_per_step", ratio(ctl_self_s[0] * 1e9, d(steps[0])), "ns"},
        {"mc.row_hit_rate", has_mc ? a.rowHitRate : 0.0, "frac"},
        {"rome.steps", d(steps[1]), "count"},
        {"rome.self_s", ctl_self_s[1], "s"},
        {"rome.ns_per_step", ratio(ctl_self_s[1] * 1e9, d(steps[1])), "ns"},
        {"rome.template_hit_frac",
         ratio(d(tmpl_hits), d(tmpl_hits + tmpl_misses)), "frac"},
        {"engine.busy_frac", ratio(drain_sum_s, capacity_s), "frac"},
        {"engine.critical_s", critical_s, "s"},
        {"engine.idle_s", std::max(0.0, capacity_s - drain_sum_s), "s"},
        {"build.s", build_s, "s"},
        {"assemble.s", sec(last_drain, trace.runEndNs()), "s"},
        {"sim.stall.no_request_frac", stall(StallCause::NoRequest), "frac"},
        {"sim.stall.act_window_frac", stall(StallCause::ActWindow), "frac"},
        {"sim.stall.cas_chain_frac", stall(StallCause::CasChain), "frac"},
        {"sim.stall.refresh_frac", stall(StallCause::Refresh), "frac"},
        {"sim.stall.bank_busy_frac", stall(StallCause::BankBusy), "frac"},
        {"sim.stall.write_drain_frac", stall(StallCause::WriteDrain),
         "frac"},
        {"sim.stall.link_credit_frac", stall(StallCause::LinkCredit),
         "frac"},
        {"sim.queue_mean_ns", a.queueNsHist.meanNs(), "ns"},
        {"sim.service_mean_ns", a.serviceNsHist.meanNs(), "ns"},
        {"trace.overhead_frac", ratio(traced.wallS, untraced_wall_s) - 1.0,
         "frac"},
    };
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    std::string stream;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string& msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --stream FILE\n"
                 "                 [--trace 0|1] [--trace-out FILE]\n"
                 "workloads:",
                 msg.c_str());
    for (const WorkloadInfo& w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseCount(const std::string& flag, const char* text)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-' || errno == ERANGE)
        usage("bad value for " + flag);
    return v;
}

Options
parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const char* v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseCount(a, v);
        else if (a == "--trace")
            o.trace = parseCount(a, v) != 0;
        else if (a == "--stream")
            o.stream = v;
        else if (a == "--trace-out")
            o.traceOut = v;
        else
            usage("unknown argument " + a);
    }
    if (o.workload.empty() || o.stream.empty())
        usage("--workload and --stream are required");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parse(argc, argv);
    const WorkloadInfo* w = findWorkload(opt.workload);
    if (w == nullptr)
        usage("unknown workload " + opt.workload);

    // The stream file is read once before anything is timed.
    FileStamp stamp;
    if (w->usesTrace && !stampFile(opt.stream, stamp)) {
        std::fprintf(stderr, "perfbench: cannot read %s\n",
                     opt.stream.c_str());
        return 2;
    }
    const WorkloadInputs in{opt.seed, opt.stream};

    // setup_s: median of repeated in-process set-ups; the last one's
    // driver serves the timed run.
    std::vector<double> setups;
    PreparedRun prepared;
    for (int i = 0; i < kSetups; ++i) {
        const std::int64_t t0 = hostNowNs();
        prepared = setUp(*w, in, nullptr);
        setups.push_back(static_cast<double>(hostNowNs() - t0) * 1e-9);
    }
    const StreamShape& shape = prepared.shape;

    const TimedRun plain = timeRun(prepared, nullptr);
    std::vector<Check> checks = checkRun(plain.result, shape, "run");
    const std::string digest = statsDigest(plain.result.aggregate);

    std::vector<Metric> metrics;
    if (opt.trace) {
        LayerTrace trace(hbm4Config().org.channelsPerCube);
        const TimedRun traced = timeRun(setUp(*w, in, &trace), &trace);
        for (Check& c : checkRun(traced.result, shape, "traced run"))
            checks.push_back(std::move(c));
        checks.push_back({"traced digest == untraced digest",
                          statsDigest(traced.result.aggregate) == digest});
        metrics = layerMetrics(trace, traced, plain.wallS,
                               prepared.engineThreads);
        std::printf("untraced_wall_s %.17g\ntraced_wall_s %.17g\n"
                    "traced_cpu_s %.17g\n",
                    plain.wallS, traced.wallS, traced.cpuS);
        if (!opt.traceOut.empty() &&
            !writeChromeTrace(opt.traceOut, trace, w->name)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
            checks.push_back({"trace file written", false});
        }
    }

    bool ok = true;
    for (const Check& c : checks)
        ok = ok && c.ok;
    if (!opt.trace)
        metrics = endToEndMetrics(plain, median(setups), ok);

    std::printf("workload %s\nseed %" PRIu64 "\nengine_threads %d\n"
                "channels %d\noffered_mrps %.17g\n",
                w->name, opt.seed, prepared.engineThreads, prepared.channels,
                prepared.offeredRps / 1e6);
    if (w->usesTrace) {
        std::printf("stream_file %s\nstream_file_bytes %" PRIu64
                    "\nstream_file_fnv1a64 %s\n",
                    opt.stream.c_str(), stamp.bytes,
                    hex64(stamp.fnv).c_str());
    }
    std::printf("stream_requests %" PRIu64 "\nbuild_type %s\n"
                "rome_oracles %d\ncompiler %s\nsetups %d\ndigest %s\n",
                shape.requests, PERFBENCH_BUILD_TYPE, ROME_ORACLES, kCompiler,
                kSetups, digest.c_str());
    std::printf("attempted %" PRIu64 "\nlatency_samples %" PRIu64 "\n",
                shape.requests, plain.result.aggregate.latencyHistNs.count());
    for (const Check& c : checks)
        std::printf("check %s %s\n", c.ok ? "ok" : "FAIL", c.name.c_str());
    for (const Metric& m : metrics)
        std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit);
    return ok ? 0 : 1;
}
