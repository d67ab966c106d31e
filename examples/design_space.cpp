/**
 * @file
 * Virtual-bank design-space exploration: walk all six Figure 7 × Figure 8
 * combinations, run each as an independent engine sweep job (in parallel
 * on the thread pool), and print the performance/area trade-off the paper
 * uses to pick 7d × 8b — then show the derived row-level timing of each
 * point.
 *
 *   $ ./design_space
 */

#include <cstdio>

#include "common/table.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "rome/rome_mc.h"
#include "rome/rome_timing.h"
#include "sim/engine.h"
#include "sim/source.h"

using namespace rome;
using namespace rome::literals;

int
main()
{
    const DramConfig dram = hbm4Config();
    const SourceFactory stream = [] {
        return std::make_unique<StreamSource>(StreamPattern{1_MiB, 8_KiB});
    };

    std::vector<SweepJob> jobs;
    for (const auto& d : VbaDesign::all()) {
        jobs.push_back(SweepJob{
            d.name(),
            [dram, d] {
                return std::make_unique<RomeMc>(dram, d, RomeMcConfig{});
            },
            stream});
    }
    const auto results = runSweep(std::move(jobs));

    Table t("VBA design space: performance, structures, timing, area");
    t.setHeader({"design", "BW (B/ns)", "tR2RS (ns)", "tRD_row (ns)",
                 "queue", "op+ref FSMs", "area overhead"});
    std::size_t i = 0;
    for (const auto& d : VbaDesign::all()) {
        const auto& res = results[i++];
        const VbaMap map(dram.org, dram.timing, d);
        const RomeTimingParams rt = deriveRomeTiming(dram.timing, map);
        // The sweep keeps each controller alive for deep inspection.
        const auto& mc = static_cast<const RomeMc&>(*res.mc);
        t.addRow({d.name(), Table::num(res.stats.effectiveBandwidth, 1),
                  Table::num(nsFromTicks(rt.tR2RS), 0),
                  Table::num(nsFromTicks(rt.tRDrow), 0),
                  std::to_string(mc.config().queueDepth),
                  std::to_string(mc.operateFsms()) + "+" +
                      std::to_string(mc.refreshFsms()),
                  Table::percent(d.areaOverheadFraction())});
    }
    t.print();
    std::printf("\nAll designs reach the channel peak; only 7d x 8b does "
                "it without touching the DRAM die\n(and with the paper's "
                "five bank FSMs), which is why RoMe adopts it.\n");
    return 0;
}
