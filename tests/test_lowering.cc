/**
 * @file
 * Template-vs-scalar lowering parity (§IV-C fast path). The precomputed
 * template path must be bit-identical to scalar per-command lowering:
 * identical RowOpResult fields, identical device command traces, and
 * identical ControllerStats through the RoMe MC — across every VBA design
 * point, both MC drive paths (indexed and legacy schedulers), and all
 * address-map orders. Forced-fallback scenarios (back-to-back same VBA,
 * REF-adjacent ops, stretch-the-schedule requests from the cmdgen header
 * comment) must take the scalar path and still agree.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/hbm4_config.h"
#include "rome/cmdgen.h"
#include "rome/rome_mc.h"
#include "rome/rome_timing.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

struct Lowered
{
    Tick at;
    CmdKind kind;
    DramAddress addr;

    bool
    operator==(const Lowered& o) const
    {
        return at == o.at && kind == o.kind && addr.pc == o.addr.pc &&
               addr.sid == o.addr.sid && addr.bg == o.addr.bg &&
               addr.bank == o.addr.bank && addr.row == o.addr.row &&
               addr.col == o.addr.col;
    }
};

bool
sameResult(const CommandGenerator::RowOpResult& a,
           const CommandGenerator::RowOpResult& b)
{
    return a.start == b.start && a.dataFrom == b.dataFrom &&
           a.dataUntil == b.dataUntil && a.vbaReadyAt == b.vbaReadyAt &&
           a.acts == b.acts && a.cass == b.cass && a.pres == b.pres &&
           a.refPbs == b.refPbs && a.bytes == b.bytes;
}

/** One generator under test plus its recorded device trace. */
struct GenRig
{
    explicit GenRig(const VbaMap& map, bool templates)
        : dev(map.deviceOrganization(), map.deviceTiming()),
          gen(map, dev, CmdGenPlacement::LogicDie, templates)
    {
        dev.setTrace([this](Tick at, const Command& c) {
            trace.push_back(Lowered{at, c.kind, c.addr});
        });
    }

    ChannelDevice dev;
    CommandGenerator gen;
    std::vector<Lowered> trace;
};

/** Execute @p ops on a template and a scalar rig; all outputs must agree. */
void
expectLoweringParity(const VbaMap& map,
                     const std::vector<std::pair<RowCommand, Tick>>& ops,
                     const char* what)
{
    GenRig tmpl(map, true);
    GenRig scal(map, false);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto a = tmpl.gen.execute(ops[i].first, ops[i].second);
        const auto b = scal.gen.execute(ops[i].first, ops[i].second);
        EXPECT_TRUE(sameResult(a, b))
            << what << ": op " << i << " diverged on "
            << map.design().name();
    }
    ASSERT_EQ(tmpl.trace.size(), scal.trace.size())
        << what << " on " << map.design().name();
    for (std::size_t i = 0; i < tmpl.trace.size(); ++i) {
        EXPECT_TRUE(tmpl.trace[i] == scal.trace[i])
            << what << ": command " << i << " diverged on "
            << map.design().name();
    }
    const auto& ct = tmpl.dev.counters();
    const auto& cs = scal.dev.counters();
    EXPECT_EQ(ct.acts.value(), cs.acts.value());
    EXPECT_EQ(ct.reads.value(), cs.reads.value());
    EXPECT_EQ(ct.writes.value(), cs.writes.value());
    EXPECT_EQ(ct.pres.value(), cs.pres.value());
    EXPECT_EQ(ct.refPbs.value(), cs.refPbs.value());
    EXPECT_EQ(ct.dataBytes.value(), cs.dataBytes.value());
    EXPECT_EQ(ct.rowCmds.value(), cs.rowCmds.value());
    EXPECT_EQ(ct.colCmds.value(), cs.colCmds.value());
    EXPECT_EQ(tmpl.dev.lastDataEnd(), scal.dev.lastDataEnd());
}

TEST(LoweringParity, SteadyStateStreamAcrossAllDesigns)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        const RomeTimingParams rt = deriveRomeTiming(cfg.timing, map);
        std::vector<std::pair<RowCommand, Tick>> ops;
        Tick at = 0;
        for (int i = 0; i < 48; ++i) {
            const VbaAddress a{(i / map.vbasPerSid()) % 4,
                               i % map.vbasPerSid(), i % 32};
            const bool wr = i % 5 == 4;
            ops.push_back({{wr ? RowCmdKind::WrRow : RowCmdKind::RdRow, a},
                           at});
            at += wr ? rt.tW2RS : rt.tR2RS;
        }
        expectLoweringParity(map, ops, "steady stream");
    }
}

TEST(LoweringParity, SteadyStateMostlyHitsTheTemplatePath)
{
    const DramConfig cfg = hbm4Config();
    const VbaMap map(cfg.org, cfg.timing, VbaDesign::adopted());
    const RomeTimingParams rt = romeTableVTiming();
    GenRig rig(map, true);
    Tick at = 0;
    for (int i = 0; i < 64; ++i) {
        rig.gen.execute({RowCmdKind::RdRow, {0, i % map.vbasPerSid(), i}},
                        at);
        at += rt.tR2RS;
    }
    EXPECT_TRUE(rig.gen.templateLowering());
    EXPECT_GT(rig.gen.templateHits(), rig.gen.templateFallbacks());
    EXPECT_GE(rig.gen.templateHits() + rig.gen.templateFallbacks(), 64u);
}

TEST(LoweringParity, BackToBackSameVbaFallsBackAndAgrees)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        const RomeTimingParams rt = deriveRomeTiming(cfg.timing, map);
        // Same-VBA back-to-back at the nominal Table III spacing forces
        // the generator to stretch (see cmdgen header) — the template
        // admission check must reject it and the scalar paths must agree.
        std::vector<std::pair<RowCommand, Tick>> ops;
        ops.push_back({{RowCmdKind::RdRow, {0, 0, 1}}, 0});
        ops.push_back({{RowCmdKind::RdRow, {0, 0, 2}}, rt.tRDrow});
        ops.push_back({{RowCmdKind::WrRow, {0, 0, 3}}, 2 * rt.tRDrow});
        expectLoweringParity(map, ops, "same-VBA back-to-back");
    }
}

TEST(LoweringParity, SameVbaBackToBackCountsAsFallback)
{
    const DramConfig cfg = hbm4Config();
    const VbaMap map(cfg.org, cfg.timing, VbaDesign::adopted());
    const RomeTimingParams rt = romeTableVTiming();
    GenRig rig(map, true);
    rig.gen.execute({RowCmdKind::RdRow, {0, 0, 1}}, 0);
    EXPECT_EQ(rig.gen.templateHits(), 1u);
    // Table V spacing (95 ns) is 2 ns tighter than the tRTP-accurate
    // round-trip: the banks are still busy, so the fast path must refuse.
    rig.gen.execute({RowCmdKind::RdRow, {0, 0, 2}}, rt.tRDrow);
    EXPECT_EQ(rig.gen.templateFallbacks(), 1u);
}

TEST(LoweringParity, RefreshAdjacentOpsFallBackAndAgree)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        std::vector<std::pair<RowCommand, Tick>> ops;
        // REF on a cold VBA, then a read on the same VBA before tRFCpb
        // expires (stretches), then a REF right after an op (the REFpb
        // floor rejects until tRP passes).
        ops.push_back({{RowCmdKind::Ref, {0, 0, 0}}, 0});
        ops.push_back({{RowCmdKind::RdRow, {0, 0, 5}}, 10_ns});
        ops.push_back({{RowCmdKind::RdRow, {0, 1, 6}}, 12_ns});
        ops.push_back({{RowCmdKind::Ref, {0, 1, 0}}, 400_ns});
        ops.push_back({{RowCmdKind::RdRow, {0, 2, 7}}, 410_ns});
        expectLoweringParity(map, ops, "REF-adjacent");
    }
}

TEST(LoweringParity, StretchedScheduleAgrees)
{
    const DramConfig cfg = hbm4Config();
    for (const auto& d : VbaDesign::all()) {
        const VbaMap map(cfg.org, cfg.timing, d);
        // Everything requested at once: every op after the first collides
        // on the shared buses and bank timings, exercising the minimal-
        // stretch scalar path against a busy device.
        std::vector<std::pair<RowCommand, Tick>> ops;
        for (int i = 0; i < 12; ++i) {
            ops.push_back(
                {{RowCmdKind::RdRow, {0, i % map.vbasPerSid(), i}}, 0});
        }
        expectLoweringParity(map, ops, "stretch-the-schedule");
    }
}

// ---------------------------------------------------------------------------
// Controller-level parity: template vs scalar lowering must produce
// bit-identical ControllerStats through both RoMe MC drive paths. These
// runs install no device trace, so they exercise the release bulk
// committer end to end.
// ---------------------------------------------------------------------------

TEST(LoweringParity, ControllerStatsAcrossDesignsAndSchedulers)
{
    RandomPattern p;
    p.totalBytes = 384_KiB;
    p.requestBytes = 4_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.3;
    p.seed = 33;
    const auto reqs = randomRequests(p);

    for (const auto& d : VbaDesign::all()) {
        for (const bool legacy_sched : {false, true}) {
            RomeMcConfig tmpl_cfg;
            tmpl_cfg.legacyScheduler = legacy_sched;
            RomeMcConfig scal_cfg = tmpl_cfg;
            scal_cfg.scalarLowering = true;
            RomeMc a(hbm4Config(), d, tmpl_cfg);
            RomeMc b(hbm4Config(), d, scal_cfg);
            EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs))
                << d.name() << (legacy_sched ? " legacy" : " indexed");
            EXPECT_GT(a.generator().templateHits(), 0u) << d.name();
            EXPECT_EQ(b.generator().templateHits(), 0u);
        }
    }
}

TEST(LoweringParity, ControllerStatsAcrossMapOrders)
{
    RandomPattern p;
    p.totalBytes = 256_KiB;
    p.requestBytes = 2_KiB;
    p.capacity = hbm4Config().org.channelCapacity();
    p.writeFraction = 0.25;
    p.seed = 47;
    const auto reqs = randomRequests(p);

    for (const RomeMapOrder order :
         {RomeMapOrder::VbaSidRow, RomeMapOrder::SidVbaRow,
          RomeMapOrder::RowVbaSid}) {
        RomeMcConfig scalar_cfg;
        scalar_cfg.scalarLowering = true;
        RomeMc a(hbm4Config(), VbaDesign::adopted(), RomeMcConfig{}, order);
        RomeMc b(hbm4Config(), VbaDesign::adopted(), scalar_cfg, order);
        EXPECT_TRUE(runWorkload(a, reqs) == runWorkload(b, reqs));
    }
}

TEST(LoweringParity, VbaStateAgreesUnderTemplates)
{
    RomeMcConfig scalar_cfg;
    scalar_cfg.scalarLowering = true;
    RomeMc a(hbm4Config(), VbaDesign::adopted(), RomeMcConfig{});
    RomeMc b(hbm4Config(), VbaDesign::adopted(), scalar_cfg);
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < 64_KiB; off += 4_KiB) {
        a.enqueue({id, ReqKind::Read, off, 4_KiB, 0});
        b.enqueue({id, ReqKind::Read, off, 4_KiB, 0});
        ++id;
    }
    a.runUntil(200_ns);
    b.runUntil(200_ns);
    for (int sid = 0; sid < 4; ++sid) {
        for (int vba = 0; vba < 8; ++vba) {
            const VbaAddress addr{sid, vba, 0};
            EXPECT_EQ(a.vbaState(addr, a.now()), b.vbaState(addr, b.now()))
                << addr.str();
        }
    }
}

} // namespace
} // namespace rome
