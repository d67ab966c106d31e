#include "rome/cmdgen.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

CommandGenerator::CommandGenerator(const VbaMap& map, ChannelDevice& dev,
                                   CmdGenPlacement placement,
                                   bool template_lowering)
    : map_(map), dev_(dev), placement_(placement),
      templatesEnabled_(template_lowering)
{
    const Organization& want = map_.deviceOrganization();
    const Organization& got = dev_.organization();
    if (want.pcsPerChannel != got.pcsPerChannel ||
        want.bankGroupsPerSid != got.bankGroupsPerSid ||
        want.banksPerGroup != got.banksPerGroup ||
        want.columnBytes != got.columnBytes) {
        fatal("device organization does not match the VBA design %s",
              map_.design().name().c_str());
    }
    if (templatesEnabled_) {
        buildTemplate(RowCmdKind::RdRow);
        buildTemplate(RowCmdKind::WrRow);
        buildTemplate(RowCmdKind::Ref);
    }
}

void
CommandGenerator::buildTemplate(RowCmdKind kind)
{
    // Record one scalar lowering on a scratch device. A fresh device has
    // no prior state, so the scalar path produces exactly the Figure 9
    // fixed-interval schedule; the trace hook flattens it into template
    // entries with offsets relative to the anchor (not_before = 0). The
    // bank pattern repeats across VBAs, so bank slots — indices into the
    // per-call binding — make one template serve the whole design.
    OpTemplate& t = templates_[static_cast<std::size_t>(kind)];
    const VbaAddress probe{0, 0, 0};
    const VbaPlan& plan = map_.planRef(probe);
    if (plan.banks.size() > 2)
        fatal("lowering templates support at most 2 banks per VBA");
    if (plan.pcs.size() > 4)
        fatal("lowering templates support at most 4 PCs per channel");

    ChannelDevice scratch(map_.deviceOrganization(), map_.deviceTiming());
    scratch.setTrace([&](Tick at, const Command& c) {
        TemplateCmd e;
        e.kind = c.kind;
        e.pc = static_cast<std::int16_t>(c.addr.pc);
        e.col = c.addr.col;
        e.offset = at;
        e.bankSlot = -1;
        for (std::size_t i = 0; i < plan.banks.size(); ++i) {
            if (plan.banks[i].first == c.addr.bg &&
                plan.banks[i].second == c.addr.bank) {
                e.bankSlot = static_cast<std::int16_t>(i);
            }
        }
        if (e.bankSlot < 0)
            fatal("template command addresses a bank outside the plan");
        if (isColCmd(c.kind)) {
            if (!t.seq.hasCas) {
                t.seq.casFirstOffset = at;
                t.seq.hasCas = true;
            }
            t.seq.casLastOffset = at;
        }
        t.seq.cmds.push_back(e);
    });

    const RowCommand cmd{kind, probe};
    t.rel = kind == RowCmdKind::Ref ? executeRef(scratch, cmd, 0)
                                    : executeRdWr(scratch, cmd, 0);
    t.hasData = kind != RowCmdKind::Ref;

    // Derive the probe/commit index vectors and bulk aggregates (see
    // CmdTemplate): row commands are visited individually, the column
    // stream collapses into (first offset, cadence, count) plus the
    // last-CAS records it leaves behind.
    t.seq.pcCount = static_cast<int>(plan.pcs.size());
    t.seq.casCadence = plan.casCadence;
    std::array<bool, 4> saw_cas{};
    for (std::uint32_t i = 0; i < t.seq.cmds.size(); ++i) {
        const TemplateCmd& e = t.seq.cmds[i];
        if (!isColCmd(e.kind)) {
            t.seq.probeIdx.push_back(i);
            t.seq.rowIdx.push_back(i);
            continue;
        }
        if (!saw_cas[static_cast<std::size_t>(e.pc)]) {
            saw_cas[static_cast<std::size_t>(e.pc)] = true;
            t.seq.probeIdx.push_back(i);
        }
        if (e.pc == 0) {
            // The sequence probe checks the column bus at the first CAS
            // only, and the bulk committer applies the stream as one
            // aggregate; the recorded stream must really be fixed-cadence.
            const Tick want = t.seq.casFirstOffset +
                static_cast<Tick>(t.seq.casPerPc) * t.seq.casCadence;
            if (e.offset != want)
                fatal("template CAS stream is not fixed-cadence");
            ++t.seq.casPerPc;
        }
        t.seq.lastCasSlot = e.bankSlot;
        t.seq.casIsWrite = e.kind == CmdKind::Wr;
        t.seq.lastCasOffsetPerSlot[static_cast<std::size_t>(e.bankSlot)] =
            e.offset;
    }
}

Tick
CommandGenerator::earliestAll(const ChannelDevice& dev, const VbaPlan& plan,
                              CmdKind kind, const DramAddress& a,
                              Tick t0) const
{
    Tick t = t0;
    for (int pc : plan.pcs) {
        DramAddress pa = a;
        pa.pc = pc;
        const Tick e = dev.earliestIssue({kind, pa}, t0);
        if (e == kTickMax)
            return kTickMax;
        t = std::max(t, e);
    }
    return t;
}

ChannelDevice::IssueResult
CommandGenerator::issueAll(ChannelDevice& dev, const VbaPlan& plan,
                           CmdKind kind, const DramAddress& a, Tick when)
{
    ChannelDevice::IssueResult last;
    for (int pc : plan.pcs) {
        DramAddress pa = a;
        pa.pc = pc;
        last = dev.issue({kind, pa}, when);
    }
    return last;
}

CommandGenerator::RowOpResult
CommandGenerator::execute(const RowCommand& cmd, Tick not_before)
{
    ++rowCmds_;
    if (templatesEnabled_) {
        const OpTemplate& t = templates_[static_cast<std::size_t>(cmd.kind)];
        const VbaPlan& plan = map_.planRef(cmd.addr);
        SequenceBinding b;
        b.sid = cmd.addr.sid;
        b.row = cmd.addr.row;
        b.numBanks = static_cast<int>(plan.banks.size());
        for (std::size_t i = 0; i < plan.banks.size(); ++i)
            b.banks[i] = plan.banks[i];
        if (dev_.earliestSequence(t.seq, b, not_before) == not_before) {
            dev_.issueSequence(t.seq, b, not_before);
            ++templateHits_;
            RowOpResult res = t.rel;
            res.start += not_before;
            res.vbaReadyAt += not_before;
            if (t.hasData) {
                res.dataFrom += not_before;
                res.dataUntil += not_before;
            }
            return res;
        }
        ++templateFallbacks_;
    }
    if (cmd.kind == RowCmdKind::Ref)
        return executeRef(dev_, cmd, not_before);
    return executeRdWr(dev_, cmd, not_before);
}

CommandGenerator::RowOpResult
CommandGenerator::executeRdWr(ChannelDevice& dev, const RowCommand& cmd,
                              Tick not_before)
{
    const VbaPlan& plan = map_.planRef(cmd.addr);
    const TimingParams& t = map_.deviceTiming();
    const bool is_write = cmd.kind == RowCmdKind::WrRow;
    const CmdKind cas_kind = is_write ? CmdKind::Wr : CmdKind::Rd;
    const Tick rcd = is_write ? t.tRCDWR : t.tRCDRD;
    const auto n_banks = static_cast<int>(plan.banks.size());
    const auto n_pcs = static_cast<std::uint64_t>(plan.pcs.size());

    RowOpResult res;

    // --- Activates -------------------------------------------------------
    // With two banks, delay the first ACT by tRRDS - tCCDS so the two CAS
    // streams interleave at tCCDS (Figure 9).
    std::array<Tick, 2> act_at{};
    std::array<DramAddress, 2> bank_addr{};
    for (int b = 0; b < n_banks; ++b) {
        DramAddress a;
        a.sid = cmd.addr.sid;
        a.bg = plan.banks[static_cast<std::size_t>(b)].first;
        a.bank = plan.banks[static_cast<std::size_t>(b)].second;
        a.row = cmd.addr.row;
        bank_addr[static_cast<std::size_t>(b)] = a;
    }
    const Tick align = n_banks == 2 ? t.tRRDS - plan.casCadence : 0;
    for (int b = 0; b < n_banks; ++b) {
        const Tick nominal = b == 0 ? not_before + align
                                    : act_at[0] + t.tRRDS;
        // Legality must be queried at the nominal time: the row-bus slot
        // calendar is not monotone (an earlier free slot does not imply
        // the nominal one is free).
        const Tick at = earliestAll(
            dev, plan, CmdKind::Act, bank_addr[static_cast<std::size_t>(b)],
            nominal);
        act_at[static_cast<std::size_t>(b)] = at;
        issueAll(dev, plan, CmdKind::Act,
                 bank_addr[static_cast<std::size_t>(b)], at);
        ++res.acts;
    }
    res.start = act_at[0];

    // --- Column commands ---------------------------------------------------
    // Interleave the banks' streams at the plan cadence; the stream is
    // anchored so the *last-activated* bank's first CAS meets tRCD exactly.
    const Tick first_cas = act_at[static_cast<std::size_t>(n_banks - 1)] +
        rcd - (n_banks - 1) * plan.casCadence;
    Tick next_nominal = first_cas;
    Tick last_cas = 0;
    Tick first_cas_actual = kTickMax;
    for (int i = 0; i < plan.casPerBank * n_banks; ++i) {
        const int b = i % n_banks;
        DramAddress a = bank_addr[static_cast<std::size_t>(b)];
        a.col = i / n_banks;
        const Tick at = std::max(
            next_nominal, earliestAll(dev, plan, cas_kind, a, next_nominal));
        const auto r = issueAll(dev, plan, cas_kind, a, at);
        ++res.cass;
        first_cas_actual = std::min(first_cas_actual, r.dataFrom);
        res.dataUntil = std::max(res.dataUntil, r.dataUntil);
        last_cas = at;
        next_nominal = at + plan.casCadence;
    }
    res.dataFrom = first_cas_actual;
    res.bytes = static_cast<std::uint64_t>(plan.casPerBank) *
                static_cast<std::uint64_t>(n_banks) * plan.bytesPerCas *
                n_pcs;

    // --- Precharges ------------------------------------------------------
    for (int b = 0; b < n_banks; ++b) {
        const Tick at = earliestAll(
            dev, plan, CmdKind::Pre, bank_addr[static_cast<std::size_t>(b)],
            last_cas);
        issueAll(dev, plan, CmdKind::Pre,
                 bank_addr[static_cast<std::size_t>(b)], at);
        ++res.pres;
        res.vbaReadyAt = std::max(res.vbaReadyAt, at + t.tRP);
    }
    return res;
}

CommandGenerator::RowOpResult
CommandGenerator::executeRef(ChannelDevice& dev, const RowCommand& cmd,
                             Tick not_before)
{
    const VbaPlan& plan = map_.planRef(cmd.addr);
    const TimingParams& t = map_.deviceTiming();
    RowOpResult res;
    Tick cursor = not_before;
    bool first = true;
    for (const auto& [bg, bank] : plan.banks) {
        DramAddress a;
        a.sid = cmd.addr.sid;
        a.bg = bg;
        a.bank = bank;
        const Tick at = earliestAll(dev, plan, CmdKind::RefPb, a, cursor);
        if (at == kTickMax)
            panic("REF to a non-idle VBA %s", cmd.addr.str().c_str());
        issueAll(dev, plan, CmdKind::RefPb, a, at);
        ++res.refPbs;
        if (first) {
            res.start = at;
            first = false;
        }
        res.vbaReadyAt = std::max(res.vbaReadyAt, at + t.tRFCpb);
        // The second bank's REFpb follows tRREFD behind (§V-B).
        cursor = at + t.tRREFD;
    }
    return res;
}

} // namespace rome
