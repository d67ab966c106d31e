/**
 * @file
 * Trace tooling walkthrough: record any synthetic source to a request
 * trace, replay a trace through any controller, and demonstrate that a
 * multi-million-request workload streams in O(queue depth) host memory.
 *
 *   $ ./trace_replay record <out.trace> [text|bin] [MiB]
 *                          [decode|prefill|serve|deepseek|grok1|llama3]
 *                          [--bursty]
 *       Record an LLM phase-profile source (shaped by a Poisson arrival
 *       process) into a trace file. decode: mixed weight streams + KV
 *       gathers; prefill: long weight streams + KV-append writes; serve:
 *       a mixed serving phase — concurrent decode and prefill tenants
 *       (2:1 traffic split), each an independent open-loop Poisson
 *       stream, merged by arrival into one system-wide request stream.
 *       deepseek/grok1/llama3: the per-model decode channel profile
 *       (sim/memsim.h profileFor) — MLA latent gathers, MoE expert
 *       streams, or dense GQA streams respectively; the recordings under
 *       tests/data/{deepseek,grok1,llama3}.trace feed the node-scaling
 *       bench as per-model design points.
 *       --bursty swaps each tenant's Poisson process for Poisson-arriving
 *       16-request bursts at the same long-run rate: batched-inference
 *       arrivals whose queue swings stress tail latency near the knee.
 *       tests/data/serving_bursty.trace was produced by this command; the
 *       other binary fixtures under tests/data/ (including the long
 *       serving trace behind bench_serving_curves) predate the flag.
 *
 *   $ ./trace_replay replay <in.trace> [hbm4|rome|hybrid]
 *       Stream a trace through one channel controller and print stats.
 *
 *   $ ./trace_replay stream <requests>
 *       Stream N random 4 KiB requests through the RoMe MC without ever
 *       materializing them; prints the host-buffer high-water mark as
 *       bounded-memory evidence.
 *
 *   $ ./trace_replay timeline <in.trace> <out.json> [hbm4|rome]
 *                            [channels]
 *       Replay a trace across N channels with telemetry command tracing
 *       and export a Perfetto/Chrome trace-event timeline (one process
 *       per channel, one thread per bank plus the scheduler track) —
 *       open out.json at https://ui.perfetto.dev. Commands commit only on
 *       event ticks, so the timeline is byte-identical across thread
 *       counts and run slicings.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.h"
#include "dram/hbm4_config.h"
#include "mc/addrmap.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/memsim.h"
#include "sim/source.h"
#include "sim/telemetry.h"
#include "sim/trace.h"

using namespace rome;
using namespace rome::literals;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: trace_replay record <out.trace> [text|bin] [MiB] "
                 "[decode|prefill|serve|deepseek|grok1|llama3] "
                 "[--bursty]\n"
                 "       trace_replay replay <in.trace> [hbm4|rome|hybrid]\n"
                 "       trace_replay stream <requests>\n"
                 "       trace_replay timeline <in.trace> <out.json> "
                 "[hbm4|rome] [channels]\n");
    std::exit(2);
}

void
printStats(const char* what, const ControllerStats& s)
{
    std::printf("%s: %llu requests | %.1f MiB | eff. BW %.1f B/ns | "
                "latency mean/max %.0f/%.0f ns\n",
                what,
                static_cast<unsigned long long>(s.completedRequests),
                static_cast<double>(s.totalBytes()) / (1024.0 * 1024.0),
                s.effectiveBandwidth, s.latencyMeanNs, s.latencyMaxNs);
}

/**
 * The phase-profile source that `record` snapshots. The decode phase is
 * the default channel profile (mixed weight streams and KV/activation
 * gathers at ~75 % offered load); the prefill phase streams long weight
 * tensors and appends the prompt's KV cache — few, larger requests with
 * a substantial write share, offered near peak. The model phases record
 * the calibrated per-model decode profile (profileFor): what one channel
 * of the evaluated model actually sees.
 */
std::unique_ptr<RequestSource>
phaseSource(std::uint64_t total_bytes, const std::string& phase,
            std::uint64_t arrival_seed = 9, bool bursty = false)
{
    const DramConfig dram = hbm4Config();
    ChannelWorkloadProfile profile;
    double offered = 0.75;
    if (phase == "prefill") {
        profile.largeStreams = 6;
        profile.largeRequestBytes = 16384;
        profile.smallStreams = 4;
        profile.smallRequestBytes = 4096;
        profile.smallFraction = 0.15;
        profile.streamBytes = 256 * 1024;
        profile.writeFraction = 0.35; // KV-cache appends
        offered = 0.85;
    } else if (phase == "deepseek") {
        profile = profileFor(deepseekV3());
    } else if (phase == "grok1") {
        profile = profileFor(grok1());
    } else if (phase == "llama3") {
        profile = profileFor(llama3_405b());
    } else if (phase != "decode") {
        usage();
    }
    profile.totalBytes = total_bytes;
    auto inner = std::make_unique<ProfileSource>(
        profile, false, 4096, dram.org.channelCapacity());
    // Open-loop offered load relative to channel peak. Bursty keeps the
    // same long-run rate but groups arrivals into 16-request batches.
    ArrivalSpec spec;
    spec.model = bursty ? ArrivalModel::Bursty : ArrivalModel::Poisson;
    spec.burstLen = 16;
    spec.seed = arrival_seed;
    const double peak = dram.org.channelBandwidthBytesPerNs();
    spec.meanGap =
        ticksFromNs(profile.meanRequestBytes() / (offered * peak));
    return std::make_unique<ArrivalProcess>(std::move(inner), spec);
}

std::unique_ptr<RequestSource>
recordedSource(std::uint64_t total_bytes, const std::string& phase,
               bool bursty)
{
    if (phase != "serve")
        return phaseSource(total_bytes, phase, 9, bursty);
    // Mixed serving phase: a decode tenant and a prefill tenant run
    // concurrently (2:1 traffic split) as independent open-loop Poisson
    // streams; MixSource merges them by arrival and reassigns ids, so
    // the trace is one nondecreasing system-wide request stream.
    std::vector<std::unique_ptr<RequestSource>> tenants;
    tenants.push_back(phaseSource(total_bytes / 3 * 2, "decode", 9, bursty));
    tenants.push_back(phaseSource(total_bytes / 3, "prefill", 10, bursty));
    return std::make_unique<MixSource>(std::move(tenants));
}

int
doRecord(int argc, char** argv)
{
    if (argc < 3)
        usage();
    const std::string path = argv[2];
    TraceFormat fmt = TraceFormat::Text;
    if (argc > 3) {
        if (!std::strcmp(argv[3], "bin"))
            fmt = TraceFormat::Binary;
        else if (std::strcmp(argv[3], "text") != 0)
            usage();
    }
    const std::uint64_t mib =
        argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 4;
    const std::string phase = argc > 5 ? argv[5] : "decode";
    const bool bursty = argc > 6 && !std::strcmp(argv[6], "--bursty");
    if (argc > 6 && !bursty)
        usage();
    const auto src = recordedSource(mib << 20, phase, bursty);
    const std::uint64_t n = recordTrace(*src, path, fmt);
    std::printf("recorded %llu %s%s requests (%llu MiB of traffic) to %s "
                "(%s)\n",
                static_cast<unsigned long long>(n), phase.c_str(),
                bursty ? " (bursty)" : "",
                static_cast<unsigned long long>(mib), path.c_str(),
                fmt == TraceFormat::Binary ? "binary" : "text");
    return 0;
}

int
doReplay(int argc, char** argv)
{
    if (argc < 3)
        usage();
    const char* sys = argc > 3 ? argv[3] : "rome";
    const DramConfig dram = hbm4Config();
    std::unique_ptr<IMemoryController> mc;
    if (!std::strcmp(sys, "hbm4"))
        mc = makeChannelController(MemorySystem::Hbm4, dram);
    else if (!std::strcmp(sys, "rome"))
        mc = makeChannelController(MemorySystem::RoMe, dram);
    else if (!std::strcmp(sys, "hybrid"))
        mc = std::make_unique<HybridMc>(dram, HybridConfig{});
    else
        usage();

    TraceSource trace(argv[2]);
    const ControllerStats s = runWorkload(*mc, trace);
    printStats(sys, s);
    if (s.completedRequests == 0) {
        std::fprintf(stderr, "trace replayed no requests\n");
        return 1;
    }
    return 0;
}

int
doStream(int argc, char** argv)
{
    if (argc < 3)
        usage();
    const std::uint64_t n =
        static_cast<std::uint64_t>(std::atoll(argv[2]));
    const DramConfig dram = hbm4Config();

    RandomPattern p;
    p.requestBytes = 4_KiB;
    p.totalBytes = n * p.requestBytes;
    p.capacity = dram.org.channelCapacity();
    p.writeFraction = 0.1;
    RandomSource source(p);

    RomeMc mc(dram, VbaDesign::adopted(), RomeMcConfig{});
    // O(1)-memory mode: no per-request completion log.
    mc.setRetainCompletions(false);
    const ControllerStats s = runWorkload(mc, source);
    printStats("rome", s);
    std::printf("host buffer peak: %zu requests (window %zu) for a "
                "%llu-request workload — O(queue depth), not "
                "O(workload)\n",
                mc.hostBufferPeak(), mc.sourceWindow(),
                static_cast<unsigned long long>(n));
    return s.completedRequests == n &&
                   mc.hostBufferPeak() <= mc.sourceWindow()
               ? 0
               : 1;
}

int
doTimeline(int argc, char** argv)
{
    if (argc < 4)
        usage();
    const std::string in = argv[2];
    const std::string out = argv[3];
    const char* sys = argc > 4 ? argv[4] : "rome";
    const int channels = argc > 5 ? std::atoi(argv[5]) : 4;
    if (channels < 1 ||
        (std::strcmp(sys, "hbm4") != 0 && std::strcmp(sys, "rome") != 0))
        usage();
    const DramConfig dram = hbm4Config();

    // The system trace is dealt across the channels exactly like a
    // serving run; every channel records into its own sink, so the
    // exported timeline has one Perfetto process per channel.
    ChannelSimEngine engine(defaultSimThreads());
    std::vector<std::unique_ptr<TelemetrySink>> sinks;
    for (int ch = 0; ch < channels; ++ch) {
        std::unique_ptr<ChannelControllerBase> mc;
        if (!std::strcmp(sys, "hbm4")) {
            McConfig cfg;
            cfg.telemetry.counters = true;
            mc = std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), cfg);
        } else {
            RomeMcConfig cfg;
            cfg.telemetry.counters = true;
            mc = std::make_unique<RomeMc>(dram, VbaDesign::adopted(), cfg);
        }
        sinks.push_back(std::make_unique<TelemetrySink>(ch));
        mc->attachTelemetrySink(sinks.back().get(),
                                /*trace_commands=*/true);
        engine.addChannel(std::move(mc));
    }
    engine.bindFanOut(std::make_unique<StreamFanOut>(
        std::make_unique<TraceSource>(in), 1, channels));
    const Tick finished = engine.drainAll();

    ControllerStats aggregate;
    for (int ch = 0; ch < channels; ++ch)
        aggregate.merge(engine.channel(ch).stats());
    aggregate.deriveBandwidths();
    printStats(sys, aggregate);

    std::vector<const TelemetrySink*> ptrs;
    std::size_t events = 0;
    for (const auto& s : sinks) {
        events += s->events().size();
        ptrs.push_back(s.get());
    }
    if (!writeChromeTrace(out, ptrs)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::printf("timeline: %zu events over %d channel(s), %.1f us of sim "
                "time -> %s (open at https://ui.perfetto.dev)\n",
                events, channels, nsFromTicks(finished) / 1000.0,
                out.c_str());
    return aggregate.completedRequests > 0 && events > 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        usage();
    if (!std::strcmp(argv[1], "record"))
        return doRecord(argc, argv);
    if (!std::strcmp(argv[1], "replay"))
        return doReplay(argc, argv);
    if (!std::strcmp(argv[1], "stream"))
        return doStream(argc, argv);
    if (!std::strcmp(argv[1], "timeline"))
        return doTimeline(argc, argv);
    usage();
}
