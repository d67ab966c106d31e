/**
 * @file
 * LLM-serving walkthrough on the serving harness: pick a model, check
 * how large a batch fits, then serve the model's decode traffic shape as
 * system-level offered load against a full 32-channel HBM4 cube and a
 * RoMe cube. The serving driver (a cube is its one-cube node over the
 * ideal link) shards one system-wide stream across all channels and the
 * rate sweep walks offered load up past saturation, so the output is
 * each cube's latency–throughput curve (cube-aggregate p50/p99/p99.9
 * from the exact bucket-merged histograms) plus the classic single-step
 * TPOT comparison.
 *
 *   $ ./llm_serving [deepseek|grok|llama] [batch] [seq]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "dram/hbm4_config.h"
#include "llm/kv_cache.h"
#include "mc/mc.h"
#include "rome/rome_mc.h"
#include "sim/memsim.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/tpot.h"

using namespace rome;

namespace
{

/** One cube's sweep along the shared offered-rate grid. */
RateSweep
sweepCube(MemorySystem sys, const DramConfig& dram,
          const ChannelWorkloadProfile& profile,
          const std::vector<double>& rates)
{
    NodeConfig cfg;
    cfg.makeController = [sys, dram] {
        return makeChannelController(sys, dram);
    };
    cfg.makeSystemSource = [profile, dram] {
        return std::make_unique<ProfileSource>(
            profile, false, 4096, dram.org.channelCapacity());
    };
    cfg.channelsPerCube = dram.org.channelsPerCube;
    cfg.link = LinkConfig::idealLink();
    return runRateSweep(NodeDriver(cfg), rates);
}

} // namespace

int
main(int argc, char** argv)
{
    LlmConfig model = deepseekV3();
    if (argc > 1) {
        if (!std::strcmp(argv[1], "grok"))
            model = grok1();
        else if (!std::strcmp(argv[1], "llama"))
            model = llama3_405b();
    }
    const int seq = argc > 3 ? std::atoi(argv[3]) : 8192;
    const auto par = paperParallelism(model, Stage::Decode);
    const int max_b = maxBatch(model, par, seq, 256ull << 30);
    int batch = argc > 2 ? std::atoi(argv[2]) : max_b;
    if (batch > max_b) {
        std::printf("batch %d does not fit; clamping to %d\n", batch,
                    max_b);
        batch = max_b;
    }

    std::printf("%s | seq %d | batch %d (capacity limit %d) | "
                "weights/accel %.1f GB | KV/accel %.1f GB\n\n",
                model.name.c_str(), seq, batch, max_b,
                static_cast<double>(weightBytesPerAccelerator(model, par)) /
                    1e9,
                static_cast<double>(
                    kvBytesPerAccelerator(model, par, batch, seq)) / 1e9);

    // ---- cube-level serving curves -----------------------------------
    // The model's decode traffic shape, scaled to a whole cube's worth
    // of streamed requests, re-timed by the driver's Poisson arrival
    // process at each offered rate.
    const DramConfig dram = hbm4Config();
    ChannelWorkloadProfile profile = profileFor(model);
    profile.totalBytes = 64ull << 20; // system-wide stream
    const double cube_peak = dram.org.channelBandwidthBytesPerNs() *
                             dram.org.channelsPerCube;
    const std::vector<double> loads{0.5, 0.8, 0.95, 1.1};
    std::vector<double> rates;
    for (const double l : loads)
        rates.push_back(l * cube_peak * 1e9 /
                        profile.meanRequestBytes());

    const RateSweep base =
        sweepCube(MemorySystem::Hbm4, dram, profile, rates);
    const RateSweep rome_sweep =
        sweepCube(MemorySystem::RoMe, dram, profile, rates);

    std::printf("cube serving curve (%d channels, %s decode traffic, "
                "Poisson offered load):\n",
                dram.org.channelsPerCube, model.name.c_str());
    std::printf("  %-5s %-6s %12s %13s %9s %9s %10s\n", "cube", "load",
                "offered Mrps", "achieved Mrps", "p50 us", "p99 us",
                "p99.9 us");
    const std::pair<const char*, const RateSweep*> cubes[] = {
        {"HBM4", &base},
        {"RoMe", &rome_sweep},
    };
    for (const auto& [name, sweep] : cubes) {
        for (std::size_t i = 0; i < sweep->points.size(); ++i) {
            const RatePoint& pt = sweep->points[i];
            std::printf("  %-5s %-6.2f %12.2f %13.2f %9.2f %9.2f %10.2f"
                        "%s\n",
                        name, loads[i], pt.offeredRps / 1e6,
                        pt.achievedRps / 1e6, pt.p50Ns / 1e3,
                        pt.p99Ns / 1e3, pt.p999Ns / 1e3,
                        pt.saturated ? "  <- saturated" : "");
        }
        if (sweep->knee()) {
            std::printf("  %-5s saturates at %.2f x cube peak\n", name,
                        loads[static_cast<std::size_t>(sweep->kneeIndex)]);
        }
    }

    // ---- single-step TPOT comparison ---------------------------------
    ChannelWorkloadProfile calib_profile = profileFor(model);
    calib_profile.totalBytes = 4ull << 20;
    const auto [calib_base, calib_rome] = calibratePair(calib_profile);
    const Workload wl{Stage::Decode, batch, seq, 1};
    const std::pair<MemorySystem, ChannelCalibration> systems[] = {
        {MemorySystem::Hbm4, calib_base},
        {MemorySystem::RoMe, calib_rome},
    };
    std::printf("\n");
    for (const auto& [sys, calib] : systems) {
        const auto res = evaluateStep(model, wl, par,
                                      SystemEvalConfig::forSystem(sys,
                                                                  calib));
        std::printf("%-5s TPOT %.2f ms  (attn %.2f + ffn %.2f + other "
                    "%.2f + comm %.2f)  -> %.0f tok/s/system\n",
                    sys == MemorySystem::Hbm4 ? "HBM4" : "RoMe",
                    res.totalMs, res.attentionMs, res.ffnMs, res.otherMs,
                    res.commMs, batch / res.totalMs * 1000.0);
    }
    return 0;
}
