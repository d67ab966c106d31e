/**
 * @file
 * The paper-claims ledger: every number of the RoMe paper that this
 * repository models, computed from the configurations the library uses and
 * checked against the paper within a stated tolerance.
 *
 * Each row declares its status. A `pass` row must lie within its
 * tolerance. A `gap` row is a known disagreement, carries a hypothesis
 * naming the model input it suspects, and must lie outside its tolerance:
 * a gap that closes fails too, so the change that closes it promotes it.
 *
 * Tolerances follow one rule. Counts, pin numbers and Table V nanoseconds
 * match exactly. A one-sided statement in the paper ("within 3.6 %",
 * "~45+ entries") is a one-sided bound. Every other row names its basis:
 * the paper's printed precision or a named modelling approximation. A
 * tolerance is never widened to turn a gap into a pass.
 *
 * The program takes no argument and reads no file. It prints one table,
 * writes BENCH_claims.json to the working directory, and exits 1 when any
 * row's status differs from the one it declares.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "area/area_model.h"
#include "common/json_writer.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "common/types.h"
#include "dram/hbm4_config.h"
#include "dram/hbm_generations.h"
#include "energy/energy_model.h"
#include "llm/kv_cache.h"
#include "llm/model_config.h"
#include "mc/mc.h"
#include "rome/ca_codec.h"
#include "rome/channel_expansion.h"
#include "rome/cmdgen.h"
#include "rome/rome_mc.h"
#include "rome/rome_timing.h"
#include "sim/engine.h"
#include "sim/memsim.h"
#include "sim/source.h"
#include "sim/tpot.h"

using namespace rome;
using namespace rome::literals;

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Accepted model values, as distances below and above the paper value. */
struct Tolerance
{
    double below;
    double above;
};

constexpr Tolerance kExact{0.0, 0.0};
constexpr Tolerance kAtLeast{0.0, kInf};
constexpr Tolerance kAtMost{kInf, 0.0};

constexpr Tolerance
plusMinus(double d)
{
    return {d, d};
}

constexpr const char* kCount = "a count: exact";
constexpr const char* kNs = "nanoseconds from timing parameters: exact";

/** One ledger row. */
struct Claim
{
    std::string id;
    const char* section;
    /** The paper's value, or the bound a one-sided statement sets. */
    double paper;
    double model;
    const char* unit;
    Tolerance tol;
    /** Why the tolerance is what it is. */
    const char* basis;
    /** Declared gap: the model input suspected. Null: declared pass. */
    const char* hypothesis;

    double lo() const { return paper - tol.below; }
    double hi() const { return paper + tol.above; }
    bool within() const { return model >= lo() && model <= hi(); }
    const char* declared() const { return hypothesis ? "gap" : "pass"; }
    const char* status() const { return within() ? "pass" : "gap"; }
    bool asDeclared() const { return within() == (hypothesis == nullptr); }

    std::string
    paperCell() const
    {
        if (tol.above == kInf)
            return strfmt(">= %.4g", paper);
        if (tol.below == kInf)
            return strfmt("<= %.4g", paper);
        if (tol.below == 0.0 && tol.above == 0.0)
            return strfmt("%.4g", paper);
        return strfmt("%.4g +/- %.4g", paper, tol.below);
    }
};

using Ledger = std::vector<Claim>;

void
add(Ledger& rows, std::string id, const char* section, double paper,
    double model, const char* unit, Tolerance tol, const char* basis,
    const char* hypothesis = nullptr)
{
    rows.push_back(Claim{std::move(id), section, paper, model, unit, tol,
                         basis, hypothesis});
}

/** Element floor((n - 1) / 2) of the sorted sizes, or 0 when empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

/** §II and §III: the C/A pin trend and the per-operation data sizes. */
void
motivation(Ledger& rows)
{
    const auto& gens = hbmGenerations();
    add(rows, "ca_dq_ratio_growth", "II, Fig 2", std::sqrt(8.0),
        gens.back().caPerDqRatio() / gens.front().caPerDqRatio(), "x",
        kAtLeast,
        "'nearly doubled twice', HBM1 to HBM4: at least 1.5 doublings",
        "hbmGenerations() gives HBM1-HBM3E 14 C/A pins per channel and "
        "HBM4 18, so the ratio doubles once (HBM3 halves the channel "
        "width) and then grows 1.29x");

    // Decode at batch 256 with one 8 K context, on one device (the
    // paper's global view of the model).
    double smallest = kInf;
    for (const auto& model : evaluatedModels()) {
        const auto ops = buildOpGraph(
            model, Workload{Stage::Decode, 256, 8192, 1}, singleDevice());
        std::vector<double> weight, kv;
        for (const auto& op : ops) {
            if (op.weightBytes > 0)
                weight.push_back(static_cast<double>(op.weightBytes));
            if (op.kvReadBytes + op.kvWriteBytes > 0)
                kv.push_back(
                    static_cast<double>(op.kvReadBytes + op.kvWriteBytes));
        }
        smallest = std::min({smallest, median(weight), median(kv)});
    }
    add(rows, "min_median_op_size", "III, Fig 1", 100.0, smallest / 1024.0,
        "KiB", kAtLeast,
        "'hundreds of KB or more': the median decode weight and KV-cache "
        "op of every model is at least 100 KiB");
}

/** §IV: the VBA design space, the C/A interface and channel expansion. */
void
architecture(Ledger& rows, const DramConfig& dram)
{
    // 1 MiB mixed stream: every 16th 8 KiB request is a write.
    const StreamPattern mixed{1_MiB, 8_KiB, 0, 16};
    const std::vector<VbaDesign> designs = VbaDesign::all();
    std::vector<SweepJob> jobs;
    for (const auto& d : designs) {
        jobs.push_back(SweepJob{
            d.name(),
            [dram, d] {
                return std::make_unique<RomeMc>(dram, d, RomeMcConfig{});
            },
            [mixed] { return std::make_unique<StreamSource>(mixed); }});
    }
    const auto results = runSweep(std::move(jobs));
    // VbaDesign::all() lists the adopted design first.
    const double adopted = results.front().stats.effectiveBandwidth;
    double spread = 0.0;
    double worst_area = 0.0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const double bw = results[i].stats.effectiveBandwidth;
        spread = std::max(spread, std::abs(bw / adopted - 1.0));
        worst_area =
            std::max(worst_area, designs[i].areaOverheadFraction());
    }
    add(rows, "vba_perf_spread", "IV-B", 3.6, spread * 100.0, "%",
        kAtMost,
        "'within 3.6 %': largest bandwidth deviation of the six designs "
        "from the adopted one");
    add(rows, "vba_worst_area", "IV-B", 77.0, worst_area * 100.0, "%",
        plusMinus(0.5), "printed precision (77 %)");

    const CaCodec codec(dram.org, VbaDesign::adopted());
    add(rows, "ca_commands", "IV-D", 11, codec.numCommands(), "commands",
        kExact, kCount);
    add(rows, "ca_opcode_bits", "IV-D", 4, codec.opcodeBits(), "bits",
        kExact, kCount);
    add(rows, "ca_min_pins", "IV-D, Fig 10", 5, codec.minimumPins(),
        "pins", kExact, kCount);
    add(rows, "ca_pin_reduction", "IV-D, Fig 10", 72.0,
        CaCodec::pinReductionFraction() * 100.0, "%", plusMinus(0.5),
        "printed precision (72 %)");

    const ChannelExpansion exp;
    add(rows, "extra_pins", "IV-E", 12, exp.extraPins(), "pins", kExact,
        kCount);
    add(rows, "bandwidth_gain", "IV-E", 12.5, exp.bandwidthGain() * 100.0,
        "%", plusMinus(0.05), "printed precision (12.5 %)");
}

/**
 * Smallest of @p depths whose bandwidth, bw[first + i], is at least 95 % of
 * the deepest point's.
 */
int
saturatingDepth(const std::vector<int>& depths, const std::vector<double>& bw,
                std::size_t first)
{
    const double deepest = bw[first + depths.size() - 1];
    for (std::size_t i = 0; i < depths.size(); ++i) {
        if (bw[first + i] >= 0.95 * deepest)
            return depths[i];
    }
    return depths.back();
}

/** Table IV, §V-A queue depths, §V-B refresh and Table V timing. */
void
controller(Ledger& rows, const DramConfig& dram)
{
    const McComplexity conv =
        makeChannelController(MemorySystem::Hbm4, dram)->complexity();
    const McComplexity rm =
        makeChannelController(MemorySystem::RoMe, dram)->complexity();
    add(rows, "timing_params.hbm4", "Table IV", 15, conv.numTimingParams,
        "params", kExact, kCount);
    add(rows, "timing_params.rome", "Table IV", 10, rm.numTimingParams,
        "params", kExact, kCount);
    add(rows, "bank_fsms.hbm4", "Table IV", 64, conv.numBankFsms, "FSMs",
        kExact, "a count (the banks of one PC): exact");
    add(rows, "bank_fsms.rome", "Table IV", 5, rm.numBankFsms, "FSMs",
        kExact, kCount);
    add(rows, "bank_states.hbm4", "Table IV", 7, conv.numBankStates,
        "states", kExact, kCount);
    add(rows, "bank_states.rome", "Table IV", 4, rm.numBankStates,
        "states", kExact, kCount);

    // Refresh off, so the depth alone sets the bandwidth. The
    // conventional MC runs random 32 B reads, where every op opens its own
    // row, and streaming 4 KiB reads; RoMe runs the stream.
    RandomPattern gather;
    gather.seed = 7;
    gather.requestBytes = 32;
    gather.totalBytes = 30000 * 32;
    gather.capacity = dram.org.channelCapacity();
    const SourceFactory random = [gather] {
        return std::make_unique<RandomSource>(gather);
    };
    const SourceFactory stream = [] {
        return std::make_unique<StreamSource>(StreamPattern{1_MiB, 4_KiB});
    };
    const std::vector<int> conv_depths = {4, 8, 16, 32, 45, 64, 128};
    const std::vector<int> rome_depths = {1, 2, 4, 8};
    std::vector<SweepJob> jobs;
    for (const SourceFactory& source : {random, stream}) {
        for (const int d : conv_depths) {
            McConfig cfg;
            cfg.refreshEnabled = false;
            cfg.readQueueDepth = d * dram.org.pcsPerChannel;
            cfg.writeQueueDepth = cfg.readQueueDepth;
            const ControllerFactory make = [dram, cfg] {
                return std::make_unique<ConventionalMc>(
                    dram, bestBaselineMapping(dram.org), cfg);
            };
            jobs.push_back(SweepJob{"", make, source});
        }
    }
    for (const int d : rome_depths) {
        RomeMcConfig cfg;
        cfg.refreshEnabled = false;
        cfg.queueDepth = d;
        const ControllerFactory make = [dram, cfg] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(), cfg);
        };
        jobs.push_back(SweepJob{"", make, stream});
    }
    // Useful B/ns; ConventionalMc reports it equal to its achieved B/ns.
    std::vector<double> bw;
    for (const auto& outcome : runSweep(std::move(jobs)))
        bw.push_back(outcome.stats.effectiveBandwidth);
    const std::size_t n = conv_depths.size();
    add(rows, "queue_depth.hbm4", "V-A", 45,
        std::max(saturatingDepth(conv_depths, bw, 0),
                 saturatingDepth(conv_depths, bw, n)),
        "entries/PC", kAtLeast,
        "'~45+ entries' (tRC/tCCDS > 40) is one-sided; saturated = both "
        "patterns within 5 % of the 128-entry point");
    add(rows, "queue_depth.rome", "V-A", 2,
        saturatingDepth(rome_depths, bw, 2 * n), "entries", kExact,
        "a count; saturated = within 5 % of the 8-entry point");

    const VbaMap map(dram.org, dram.timing, VbaDesign::adopted());
    ChannelDevice dev(map.deviceOrganization(), map.deviceTiming());
    CommandGenerator gen(map, dev);
    const auto ref = gen.execute({RowCmdKind::Ref, {0, 0, 0}}, 0);
    add(rows, "refresh_stall.naive", "V-B", 560,
        2.0 * nsFromTicks(dram.timing.tRFCpb), "ns", kExact, kNs);
    add(rows, "refresh_stall.paired", "V-B", 288,
        nsFromTicks(ref.vbaReadyAt - ref.start), "ns", kExact, kNs);

    const RomeTimingParams paper = romeTableVTiming();
    const RomeTimingParams derived = deriveRomeTiming(dram.timing, map);
    const struct
    {
        const char* id;
        Tick RomeTimingParams::*field;
        const char* hypothesis;
    } table_v[] = {
        {"tR2RS", &RomeTimingParams::tR2RS, nullptr},
        {"tR2RR", &RomeTimingParams::tR2RR, nullptr},
        {"tR2WS", &RomeTimingParams::tR2WS, nullptr},
        {"tR2WR", &RomeTimingParams::tR2WR, nullptr},
        {"tW2RS", &RomeTimingParams::tW2RS, nullptr},
        {"tW2RR", &RomeTimingParams::tW2RR, nullptr},
        {"tW2WS", &RomeTimingParams::tW2WS, nullptr},
        {"tW2WR", &RomeTimingParams::tW2WR, nullptr},
        {"tRD_row", &RomeTimingParams::tRDrow,
         "the derivation waits TimingParams::tRTP after the last RD, an "
         "HBM3-class value the paper does not list"},
        {"tWR_row", &RomeTimingParams::tWRrow,
         "the derivation waits the command-level TimingParams::tWR "
         "(16 ns) after the last WR; the paper's write recovery is more "
         "conservative"},
    };
    for (const auto& t : table_v) {
        add(rows, t.id, "Table V", nsFromTicks(paper.*t.field),
            nsFromTicks(derived.*t.field), "ns", kExact, kNs, t.hypothesis);
    }
}

/** What the paper reports for one of its three models. */
struct ModelClaims
{
    const char* slug;
    LlmConfig (*model)();
    double tpotCut;      ///< Mean decode TPOT reduction, % (§VI-B).
    double actRatio;     ///< RoMe / HBM4 ACT energy (Fig 14).
    double energySaving; ///< Total DRAM energy saving, % (Fig 14).
    /** Hypotheses of the declared gaps; null where the row passes. */
    const char* tpotGap;
    const char* actGap;
};

constexpr const char* kActGap =
    "HBM4's calibrated ACTs per KiB (profileFor's per-channel pieces give "
    "the open-page baseline long row-hit runs) sit below what the paper's "
    "ratio implies; RoMe's 1 ACT per KiB is fixed by its row-packed "
    "calibration";

constexpr ModelClaims kModelClaims[] = {
    {"deepseek", deepseekV3, 10.4, 0.555, 1.9, nullptr, nullptr},
    {"grok1", grok1, 10.2, 0.860, 0.7,
     "Grok's calibrated RoMe/HBM4 utilization is below 1 (profileFor's "
     "row-packed RoMe pieces vs the baseline's per-tensor pieces)",
     kActGap},
    {"llama3", llama3_405b, 9.0, 0.844, 0.7, nullptr, kActGap},
};

/** §VI-B TPOT, prefill and load balance; Fig 14 energy. */
void
evaluation(Ledger& rows)
{
    const EnergyParams energy;
    // One ledger per claim, so each claim's models sit together.
    Ledger tpot, prefill, lbr, act, saving, cmdgen;
    for (const ModelClaims& paper : kModelClaims) {
        const LlmConfig model = paper.model();
        const std::string slug = paper.slug;

        // One 8 MiB calibration per model feeds both TPOT and energy.
        ChannelWorkloadProfile profile = profileFor(model);
        profile.totalBytes = 8_MiB;
        const auto [calib_base, calib_rome] = calibratePair(profile);
        const auto sys_base =
            SystemEvalConfig::forSystem(MemorySystem::Hbm4, calib_base);
        const auto sys_rome =
            SystemEvalConfig::forSystem(MemorySystem::RoMe, calib_rome);

        // Decode batches 8, 16, ... up to the largest that fits 256 GiB.
        const auto par = paperParallelism(model, Stage::Decode);
        const int max_batch = maxBatch(model, par, 8192, 256ull << 30);
        std::vector<int> batches;
        for (int b = 8; b <= max_batch; b *= 2)
            batches.push_back(b);
        const auto sweep = tpotBatchSweep(model, batches, 8192, par,
                                          sys_base, sys_rome);
        double sum_gain = 0.0;
        for (const auto& cmp : sweep)
            sum_gain += cmp.gain();
        add(tpot, "tpot_cut." + slug, "VI-B, Fig 12", paper.tpotCut,
            sum_gain / static_cast<double>(sweep.size()) * 100.0, "%",
            plusMinus(0.7),
            "8 MiB calibration run: calibrating at 4 or 16 MiB moves a "
            "model's mean cut by up to 0.67 pp",
            paper.tpotGap);

        const auto ppar = paperParallelism(model, Stage::Prefill);
        const Workload pw{Stage::Prefill, 1, 8192, 1};
        const auto pb = evaluateStep(model, pw, ppar, sys_base);
        const auto pr = evaluateStep(model, pw, ppar, sys_rome);
        add(prefill, "prefill_diff." + slug, "VI-B", 0.1,
            std::abs(1.0 - pr.totalMs / pb.totalMs) * 100.0, "%", kAtMost,
            "'< 0.1 %' between the systems",
            "each prefill op takes max(memory, compute) time with no "
            "overlap, so its memory-bound ops gain RoMe's bandwidth in "
            "full; the suspect is that share, set by AcceleratorConfig's "
            "bf16Tflops x computeEfficiency");

        // RoMe attention LBR normalized to HBM4's, at the largest batch
        // over batch 8 (the sweep's step model computes both per batch).
        const auto normalized = [](const TpotComparison& cmp) {
            return cmp.rome.lbrAttention / cmp.base.lbrAttention;
        };
        add(lbr, "lbr_attention." + slug, "VI-B, Fig 13", 1.0,
            normalized(sweep.back()) / normalized(sweep.front()), "ratio",
            kAtLeast,
            "'imbalance shrinks as batches grow': the normalized attention "
            "LBR at the largest batch is at least that at batch 8");

        const auto ops = buildOpGraph(
            model, Workload{Stage::Decode, 256, 8192, 1}, par);
        const std::uint64_t bytes = summarize(ops).totalBytes();
        const auto eb =
            computeEnergy(energy, MemorySystem::Hbm4, calib_base, bytes);
        const auto er =
            computeEnergy(energy, MemorySystem::RoMe, calib_rome, bytes);
        add(act, "act_energy." + slug, "Fig 14", paper.actRatio,
            er.actJ / eb.actJ, "ratio", plusMinus(0.017),
            "8 MiB calibration run: calibrating at 4 or 16 MiB moves a "
            "model's ratio by up to 0.017",
            paper.actGap);
        add(saving, "energy_saving." + slug, "Fig 14", paper.energySaving,
            (1.0 - er.totalJ() / eb.totalJ()) * 100.0, "%", plusMinus(0.1),
            "8 MiB calibration run: calibrating at 4 or 16 MiB moves a "
            "model's saving by up to 0.08 pp",
            "EnergyParams::caPjPerCmd: the C/A interface term alone saves "
            "0.73-0.75 % of the HBM4 total in every model, as much as the "
            "paper's whole Grok and Llama savings");
        add(cmdgen, "cmdgen_energy." + slug, "VI-C", 0.06,
            er.cmdgenJ / er.totalJ() * 100.0, "%", plusMinus(0.005),
            "printed precision (~0.06 %, the value tests/test_sim.cc "
            "cites)",
            "EnergyParams::cmdgenPjPerRowCmd (8 pJ per accepted row "
            "command) is ~7x below what the paper's share implies");
    }
    for (const Ledger* l :
         {&tpot, &prefill, &lbr, &act, &saving, &cmdgen})
        rows.insert(rows.end(), l->begin(), l->end());
}

/** §VI-C: MC scheduling logic, command generator and expansion area. */
void
overhead(Ledger& rows, const DramConfig& dram)
{
    const McAreaModel mc_area;
    const double conv_um2 = mc_area.schedulerAreaUm2(
        makeChannelController(MemorySystem::Hbm4, dram)->complexity());
    const double rome_um2 = mc_area.schedulerAreaUm2(
        makeChannelController(MemorySystem::RoMe, dram)->complexity());
    add(rows, "mc_sched_area", "VI-C", 9.1, rome_um2 / conv_um2 * 100.0,
        "%", plusMinus(0.3),
        "structure estimate, not synthesis: McAreaModel's 30 um2 "
        "timing-tracker coefficient has one significant digit, and "
        "+/-5 um2 moves the ratio 0.28 pp");

    const HbmAreaModel hbm;
    add(rows, "cmdgen_die_share", "VI-C", 0.003,
        hbm.cmdgenLogicDieFraction() * 100.0, "%", plusMinus(0.0005),
        "printed precision (~0.003 %)",
        "HbmAreaModel::logicDieMm2 (121 mm2, HBM3E-class): the 4268.8 um2 "
        "generator rounds to 0.003 % only on a die of at least 122 mm2");
    add(rows, "added_ubumps", "VI-C", 0.14, hbm.addedUbumpAreaMm2(), "mm2",
        plusMinus(0.005), "printed precision (~0.14 mm2)");
    add(rows, "stack_overhead", "VI-C", 0.10,
        hbm.totalOverheadFraction() * 100.0, "%", plusMinus(0.005),
        "printed precision (0.10 %)",
        "HbmAreaModel's 121 mm2 dies: the added ubump area on 17 dies is "
        "0.10 % of ~139 mm2 dies, close to the ~142 mm2 logic die the "
        "command generator's share implies");
}

/** §VII: random reads below and at the 4 KiB row size. */
void
discussion(Ledger& rows, const DramConfig& dram)
{
    const std::uint64_t sizes[] = {1_KiB, 4_KiB};
    std::vector<SweepJob> jobs;
    for (const std::uint64_t req : sizes) {
        RandomPattern p;
        p.seed = 3;
        p.requestBytes = req;
        p.totalBytes = 2_MiB;
        p.capacity = dram.org.channelCapacity();
        const SourceFactory random = [p] {
            return std::make_unique<RandomSource>(p);
        };
        for (const MemorySystem sys :
             {MemorySystem::Hbm4, MemorySystem::RoMe}) {
            jobs.push_back(SweepJob{
                Table::bytes(req),
                [sys, dram] { return makeChannelController(sys, dram); },
                random});
        }
    }
    const auto results = runSweep(std::move(jobs));
    // Useful B/ns, RoMe over HBM4.
    const auto ratio = [&](std::size_t i) {
        return results[2 * i + 1].stats.effectiveBandwidth /
               results[2 * i].stats.effectiveBandwidth;
    };
    add(rows, "random_read.1KiB", "VII", 1.0, ratio(0), "ratio", kAtMost,
        "'sub-row reads waste RoMe bandwidth': RoMe's useful B/ns is "
        "below HBM4's at 1 KiB");
    add(rows, "random_read.4KiB", "VII", 1.0, ratio(1), "ratio", kAtLeast,
        "at the 4 KiB row size RoMe overfetches nothing and matches or "
        "beats HBM4");
}

std::string
ledgerJson(const Ledger& rows, int unexpected)
{
    JsonWriter json;
    json.beginObject();
    json.key("bench").value("claims");
    json.key("unexpected").value(unexpected);
    json.key("rows").beginArray();
    for (const auto& c : rows) {
        json.beginObject();
        json.key("id").value(c.id);
        json.key("section").value(c.section);
        json.key("paper").value(c.paper);
        json.key("model").value(c.model);
        json.key("unit").value(c.unit);
        // A one-sided bound leaves the other end null.
        json.key("lo").value(c.lo());
        json.key("hi").value(c.hi());
        json.key("basis").value(c.basis);
        json.key("declared").value(c.declared());
        json.key("status").value(c.status());
        if (c.hypothesis)
            json.key("hypothesis").value(c.hypothesis);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace

int
main()
{
    const DramConfig dram = hbm4Config();
    Ledger rows;
    motivation(rows);
    architecture(rows, dram);
    controller(rows, dram);
    evaluation(rows);
    overhead(rows, dram);
    discussion(rows, dram);

    Table t("RoMe paper claims: model vs paper");
    t.setHeader({"claim", "section", "paper", "model", "unit", "declared",
                 "status"});
    int unexpected = 0;
    for (const auto& c : rows) {
        unexpected += c.asDeclared() ? 0 : 1;
        t.addRow({c.id, c.section, c.paperCell(), strfmt("%.4g", c.model),
                  c.unit, c.declared(),
                  std::string(c.status()) +
                      (c.asDeclared() ? "" : "  <- UNEXPECTED")});
    }
    t.print();
    for (const auto& c : rows) {
        if (!c.asDeclared())
            std::printf("UNEXPECTED %s: declared %s, but %.6g lies %s "
                        "[%g, %g] (%s)\n",
                        c.id.c_str(), c.declared(), c.model,
                        c.within() ? "within" : "outside", c.lo(), c.hi(),
                        c.basis);
    }
    std::printf("\n%zu claims, %d unexpected\n", rows.size(), unexpected);

    const bool wrote =
        writeTextFile("BENCH_claims.json", ledgerJson(rows, unexpected));
    std::printf("%s BENCH_claims.json\n",
                wrote ? "wrote" : "FAILED to write");
    return unexpected == 0 && wrote ? 0 : 1;
}
