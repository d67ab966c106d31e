#include "dram/device.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

using namespace rome::literals;

namespace
{

/** One command-bus slot is one nanosecond (1 GHz command clock). */
constexpr Tick kCmdSlot = kTicksPerNs;

Tick
maxTick(Tick a, Tick b)
{
    return a > b ? a : b;
}

} // namespace

ChannelDevice::ChannelDevice(const Organization& org,
                             const TimingParams& timing)
    : org_(org), t_(timing)
{
    minCcd_ = std::min({t_.tCCDL, t_.tCCDS, t_.tCCDR});
    minRrd_ = std::min(t_.tRRDL, t_.tRRDS);
    banks_.resize(static_cast<std::size_t>(org_.banksPerChannel()));
    sids_.resize(static_cast<std::size_t>(org_.pcsPerChannel *
                                          org_.sidsPerChannel));
    for (auto& s : sids_) {
        s.lastActPerBg.assign(
            static_cast<std::size_t>(org_.bankGroupsPerSid), kTickInvalid);
        s.actWindow.assign(4, kTickInvalid);
    }
    pcs_.reserve(static_cast<std::size_t>(org_.pcsPerChannel));
    for (int i = 0; i < org_.pcsPerChannel; ++i)
        pcs_.emplace_back(kCmdSlot);
}

BankRecord&
ChannelDevice::bank(const DramAddress& a)
{
    return banks_[static_cast<std::size_t>(flatBankIndex(org_, a))];
}

const BankRecord&
ChannelDevice::bank(const DramAddress& a) const
{
    return banks_[static_cast<std::size_t>(flatBankIndex(org_, a))];
}

ChannelDevice::SidRecord&
ChannelDevice::sidRec(int pc, int sid)
{
    return sids_[static_cast<std::size_t>(pc * org_.sidsPerChannel + sid)];
}

const ChannelDevice::SidRecord&
ChannelDevice::sidRec(int pc, int sid) const
{
    return sids_[static_cast<std::size_t>(pc * org_.sidsPerChannel + sid)];
}

Tick
ChannelDevice::earliestRefAb(const DramAddress& a, Tick t0) const
{
    // Every bank in the (PC, SID) must be idle.
    Tick t = t0;
    for (int bg = 0; bg < org_.bankGroupsPerSid; ++bg) {
        for (int ba = 0; ba < org_.banksPerGroup; ++ba) {
            DramAddress ba_addr = a;
            ba_addr.bg = bg;
            ba_addr.bank = ba;
            const BankRecord& b = bank(ba_addr);
            if (b.open())
                return kTickMax;
            if (b.lastPre != kTickInvalid)
                t = maxTick(t, b.lastPre + t_.tRP);
            if (b.refUntil != kTickInvalid)
                t = maxTick(t, b.refUntil);
        }
    }
    const SidRecord& s = sidRec(a.pc, a.sid);
    if (s.refAbUntil != kTickInvalid)
        t = maxTick(t, s.refAbUntil);
    if (s.lastRefPb != kTickInvalid)
        t = maxTick(t, s.lastRefPb + t_.tRREFD);
    return pcs_[static_cast<std::size_t>(a.pc)].rowBus.nextFree(t);
}

void
ChannelDevice::checkProbe(Tick t) const
{
    if (t < clock_) {
        panic("probe at %.2f ns precedes the device clock (%.2f ns)",
              nsFromTicks(t), nsFromTicks(clock_));
    }
}

Tick
ChannelDevice::earliestIssue(const Command& cmd, Tick not_before) const
{
    // The probe path runs once per candidate per scheduling step; range
    // validation stays on in debug builds, while release builds rely on
    // issue() re-validating every command that actually commits.
#ifndef NDEBUG
    checkAddress(org_, cmd.addr);
    checkProbe(not_before);
#endif
    const DramAddress& a = cmd.addr;
    const BankRecord& b = bank(a);
    const PcRecord& pc = pcs_[static_cast<std::size_t>(a.pc)];
    switch (cmd.kind) {
      case CmdKind::Act:
        if (b.open())
            return kTickMax; // must precharge first
        return pc.rowBus.nextFree(std::max(
            {not_before, actBankTerm(b), actSharedTerm(a.pc, a.sid, a.bg)}));
      case CmdKind::Pre:
        if (!b.open())
            return kTickMax;
        return pc.rowBus.nextFree(std::max(not_before, preBankTerm(b)));
      case CmdKind::Rd:
      case CmdKind::Wr: {
        if (!b.open() || b.openRow != a.row)
            return kTickMax; // row must be open (the MC handles ACT/PRE)
        const bool is_write = cmd.kind == CmdKind::Wr;
        return std::max({not_before, pc.colBusEnd, casBankTerm(b, is_write),
                         casSharedTerm(a.pc, a.sid, a.bg, is_write)});
      }
      case CmdKind::RefPb:
        if (b.open())
            return kTickMax; // REFpb requires a precharged bank
        return pc.rowBus.nextFree(std::max(
            {not_before, refPbBankTerm(b), refPbSharedTerm(a.pc, a.sid)}));
      case CmdKind::RefAb:
        return earliestRefAb(a, not_before);
      default:
        panic("unknown command kind");
    }
}

ChannelDevice::IssueResult
ChannelDevice::issue(const Command& cmd, Tick when)
{
    checkAddress(org_, cmd.addr);
    const Tick earliest = earliestIssue(cmd, when);
    if (earliest == kTickMax || earliest > when) {
        panic("illegal %s at %lld ns (earliest legal: %s)",
              cmd.str().c_str(),
              static_cast<long long>(when / kTicksPerNs),
              earliest == kTickMax
                  ? "never (wrong bank state)"
                  : strfmt("%lld ns",
                           static_cast<long long>(earliest / kTicksPerNs))
                        .c_str());
    }
    return commit(cmd, when);
}

ChannelDevice::IssueResult
ChannelDevice::commit(const Command& cmd, Tick when)
{
    BankRecord& b = bank(cmd.addr);
    SidRecord& s = sidRec(cmd.addr.pc, cmd.addr.sid);
    PcRecord& pc = pcs_[static_cast<std::size_t>(cmd.addr.pc)];
    IssueResult res;

    switch (cmd.kind) {
      case CmdKind::Act:
        b.lastAct = when;
        b.openRow = cmd.addr.row;
        s.lastActPerBg[static_cast<std::size_t>(cmd.addr.bg)] = when;
        s.lastAct = when;
        s.actWindow[s.actWindowHead] = when;
        s.actWindowHead = (s.actWindowHead + 1) % s.actWindow.size();
        pc.rowBus.reserve(when, clock_);
        counters_.acts.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = when + std::min(t_.tRCDRD, t_.tRCDWR);
        break;

      case CmdKind::Pre:
        b.lastPre = when;
        b.openRow = -1;
        pc.rowBus.reserve(when, clock_);
        counters_.pres.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = when + t_.tRP;
        break;

      case CmdKind::Rd:
      case CmdKind::Wr: {
        const bool is_write = cmd.kind == CmdKind::Wr;
        b.lastCas = when;
        b.lastCasWasWrite = is_write;
        pc.lastCas = when;
        pc.lastCasSid = cmd.addr.sid;
        pc.lastCasBg = cmd.addr.bg;
        pc.lastCasWasWrite = is_write;
        const Tick data_from = when + (is_write ? t_.tWL : t_.tCL);
        const Tick data_until = data_from + t_.tBURST;
        if (is_write) {
            pc.lastWrDataEnd = data_until;
            counters_.writes.inc();
        } else {
            counters_.reads.inc();
        }
        pc.busBusyUntil = data_until;
        lastDataEnd_ = maxTick(lastDataEnd_, data_until);
        pc.colBusEnd = when + kCmdSlot;
        counters_.colCmds.inc();
        counters_.dataBusBusyTicks.inc(static_cast<std::uint64_t>(t_.tBURST));
        counters_.dataBytes.inc(org_.columnBytes);
        res.dataFrom = data_from;
        res.dataUntil = data_until;
        res.bankReadyAt = data_until;
        break;
      }

      case CmdKind::RefPb:
        b.refUntil = when + t_.tRFCpb;
        s.lastRefPb = when;
        pc.rowBus.reserve(when, clock_);
        counters_.refPbs.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = b.refUntil;
        break;

      case CmdKind::RefAb: {
        for (int bg = 0; bg < org_.bankGroupsPerSid; ++bg) {
            for (int ba = 0; ba < org_.banksPerGroup; ++ba) {
                DramAddress a = cmd.addr;
                a.bg = bg;
                a.bank = ba;
                bank(a).refUntil = when + t_.tRFCab;
            }
        }
        s.refAbUntil = when + t_.tRFCab;
        pc.rowBus.reserve(when, clock_);
        counters_.refAbs.inc();
        counters_.rowCmds.inc();
        res.bankReadyAt = when + t_.tRFCab;
        break;
      }

      default:
        panic("unknown command kind");
    }

    if (trace_)
        trace_(when, cmd, res);
    return res;
}

namespace
{

/** Build the concrete address of one template command. */
DramAddress
templateAddr(const TemplateCmd& e, const SequenceBinding& bind)
{
    DramAddress a;
    a.pc = e.pc;
    a.sid = bind.sid;
    a.bg = bind.banks[static_cast<std::size_t>(e.bankSlot)].first;
    a.bank = bind.banks[static_cast<std::size_t>(e.bankSlot)].second;
    a.row = bind.row;
    a.col = e.col;
    return a;
}

} // namespace

Tick
ChannelDevice::earliestSequence(const CmdTemplate& tpl,
                                const SequenceBinding& bind, Tick t0) const
{
    // Walk the template in issue order, validating only the constraints
    // that can involve pre-existing state (see the header comment). The
    // per-PC counters track how many template commands of each class were
    // already placed: later commands of a class interact only with the
    // template's own commands, whose spacing holds by construction.
#ifndef NDEBUG
    checkProbe(t0);
#endif
    constexpr std::size_t kMaxPcs = 4;
    if (static_cast<std::size_t>(org_.pcsPerChannel) > kMaxPcs)
        panic("sequence probe supports at most %zu PCs", kMaxPcs);
    std::array<std::uint8_t, kMaxPcs> n_act{};
    std::array<std::uint8_t, kMaxPcs> n_ref{};

    for (const std::uint32_t idx : tpl.probeIdx) {
        const TemplateCmd& e = tpl.cmds[idx];
        const auto pi = static_cast<std::size_t>(e.pc);
        const Tick at = t0 + e.offset;
        const DramAddress a = templateAddr(e, bind);
        const BankRecord& bk = bank(a);
        const SidRecord& s = sidRec(a.pc, a.sid);
        const PcRecord& pc = pcs_[pi];

        switch (e.kind) {
          case CmdKind::Act: {
            if (bk.open())
                return kTickMax;
            if (bk.lastPre != kTickInvalid && bk.lastPre + t_.tRP > at)
                return kTickMax;
            if (bk.lastAct != kTickInvalid && bk.lastAct + t_.tRC > at)
                return kTickMax;
            if (bk.refUntil != kTickInvalid && bk.refUntil > at)
                return kTickMax;
            if (s.refAbUntil != kTickInvalid && s.refAbUntil > at)
                return kTickMax;
            const Tick bg_last =
                s.lastActPerBg[static_cast<std::size_t>(a.bg)];
            if (bg_last != kTickInvalid && bg_last + t_.tRRDL > at)
                return kTickMax;
            if (n_act[pi] == 0 && s.lastAct != kTickInvalid &&
                s.lastAct + t_.tRRDS > at) {
                return kTickMax;
            }
            // tFAW mixes pre-existing and template ACTs: with k template
            // ACTs already placed, the fourth-most-recent ACT before this
            // one is the k-th oldest pre-existing window entry.
            const std::size_t k = n_act[pi];
            if (k < s.actWindow.size()) {
                const Tick w =
                    s.actWindow[(s.actWindowHead + k) % s.actWindow.size()];
                if (w != kTickInvalid && w + t_.tFAW > at)
                    return kTickMax;
            }
            if (pc.rowBus.nextFree(at) != at)
                return kTickMax;
            ++n_act[pi];
            break;
          }

          case CmdKind::Rd:
          case CmdKind::Wr: {
            if (pc.lastCas != kTickInvalid) {
                Tick gap = t_.tCCDS;
                if (pc.lastCasSid != a.sid)
                    gap = t_.tCCDR;
                else if (pc.lastCasBg == a.bg)
                    gap = t_.tCCDL;
                if (pc.lastCas + gap > at)
                    return kTickMax;
                const bool is_write = e.kind == CmdKind::Wr;
                if (!pc.lastCasWasWrite && is_write &&
                    pc.lastCas + t_.tRTW > at) {
                    return kTickMax;
                }
                if (pc.lastCasWasWrite && !is_write) {
                    const Tick wtr =
                        (pc.lastCasBg == a.bg) ? t_.tWTRL : t_.tWTRS;
                    if (pc.lastCas + wtr > at)
                        return kTickMax;
                }
            }
            // The rest of the stream follows its first CAS at the
            // recorded cadence, so only the first can meet the column bus.
            if (t0 + tpl.casFirstOffset < pc.colBusEnd)
                return kTickMax;
            break;
          }

          case CmdKind::Pre:
            // tRAS and CAS recovery involve only the template's own ACT
            // and CAS commands; only the row-bus slot can collide with
            // other operations' commands.
            if (pc.rowBus.nextFree(at) != at)
                return kTickMax;
            break;

          case CmdKind::RefPb: {
            if (bk.open())
                return kTickMax;
            if (bk.lastPre != kTickInvalid && bk.lastPre + t_.tRP > at)
                return kTickMax;
            if (bk.refUntil != kTickInvalid && bk.refUntil > at)
                return kTickMax;
            if (s.refAbUntil != kTickInvalid && s.refAbUntil > at)
                return kTickMax;
            if (n_ref[pi]++ == 0 && s.lastRefPb != kTickInvalid &&
                s.lastRefPb + t_.tRREFD > at) {
                return kTickMax;
            }
            if (pc.rowBus.nextFree(at) != at)
                return kTickMax;
            break;
          }

          default:
            return kTickMax; // no template form for this command kind
        }
    }
    return t0;
}

void
ChannelDevice::issueSequence(const CmdTemplate& tpl,
                             const SequenceBinding& bind, Tick t0)
{
#ifndef NDEBUG
    // Debug builds re-validate and commit per command — the exact scalar
    // transition sequence, including trace callbacks.
    for (const TemplateCmd& e : tpl.cmds) {
        const Tick at = t0 + e.offset;
        const Command cmd{e.kind, templateAddr(e, bind)};
        checkAddress(org_, cmd.addr);
        const Tick earliest = earliestIssue(cmd, at);
        if (earliest != at) {
            panic("template %s not issueable at its fixed offset "
                  "(%lld ns, earliest %lld ns)",
                  cmd.str().c_str(),
                  static_cast<long long>(at / kTicksPerNs),
                  static_cast<long long>(earliest / kTicksPerNs));
        }
        commit(cmd, at);
    }
    return;
#else
    if (trace_) {
        // A trace consumer observes every command: replay them through
        // the per-command committer.
        for (const TemplateCmd& e : tpl.cmds)
            commit({e.kind, templateAddr(e, bind)}, t0 + e.offset);
        return;
    }

    // Bulk path: row commands update their bank/SID records individually
    // (few per template); the column stream folds its record updates,
    // column-bus floor and counters into one aggregate application — the
    // end state is identical to the per-command path because later CAS
    // writes simply overwrite earlier ones and counters commute.
    std::uint64_t n_act = 0;
    std::uint64_t n_pre = 0;
    std::uint64_t n_ref = 0;
    for (const std::uint32_t idx : tpl.rowIdx) {
        const TemplateCmd& e = tpl.cmds[idx];
        const Tick at = t0 + e.offset;
        PcRecord& pc = pcs_[static_cast<std::size_t>(e.pc)];
        const DramAddress a = templateAddr(e, bind);
        BankRecord& b = bank(a);
        switch (e.kind) {
          case CmdKind::Act: {
            SidRecord& s = sidRec(a.pc, a.sid);
            b.lastAct = at;
            b.openRow = a.row;
            s.lastActPerBg[static_cast<std::size_t>(a.bg)] = at;
            s.lastAct = at;
            s.actWindow[s.actWindowHead] = at;
            s.actWindowHead = (s.actWindowHead + 1) % s.actWindow.size();
            pc.rowBus.reserve(at, clock_);
            ++n_act;
            break;
          }
          case CmdKind::Pre:
            b.lastPre = at;
            b.openRow = -1;
            pc.rowBus.reserve(at, clock_);
            ++n_pre;
            break;
          case CmdKind::RefPb: {
            SidRecord& s = sidRec(a.pc, a.sid);
            b.refUntil = at + t_.tRFCpb;
            s.lastRefPb = at;
            pc.rowBus.reserve(at, clock_);
            ++n_ref;
            break;
          }
          default:
            panic("template %s has no bulk committer",
                  std::string(cmdName(e.kind)).c_str());
        }
    }
    counters_.acts.inc(n_act);
    counters_.pres.inc(n_pre);
    counters_.refPbs.inc(n_ref);
    counters_.rowCmds.inc(n_act + n_pre + n_ref);

    if (tpl.casPerPc > 0) {
        const auto cas_per_pc = static_cast<std::uint64_t>(tpl.casPerPc);
        const auto n_pcs = static_cast<std::uint64_t>(tpl.pcCount);
        const Tick last_cas = t0 + tpl.casLastOffset;
        const Tick data_until =
            last_cas + (tpl.casIsWrite ? t_.tWL : t_.tCL) + t_.tBURST;
        // Every PC sees the same offsets.
        for (int p = 0; p < tpl.pcCount; ++p) {
            PcRecord& pc = pcs_[static_cast<std::size_t>(p)];
            pc.lastCas = last_cas;
            pc.lastCasSid = bind.sid;
            pc.lastCasBg =
                bind.banks[static_cast<std::size_t>(tpl.lastCasSlot)].first;
            pc.lastCasWasWrite = tpl.casIsWrite;
            if (tpl.casIsWrite)
                pc.lastWrDataEnd = data_until;
            pc.busBusyUntil = data_until;
            pc.colBusEnd = last_cas + kCmdSlot;
            for (int slot = 0; slot < bind.numBanks; ++slot) {
                const Tick off =
                    tpl.lastCasOffsetPerSlot[static_cast<std::size_t>(slot)];
                if (off == kTickInvalid)
                    continue;
                DramAddress a;
                a.pc = p;
                a.sid = bind.sid;
                a.bg = bind.banks[static_cast<std::size_t>(slot)].first;
                a.bank = bind.banks[static_cast<std::size_t>(slot)].second;
                BankRecord& b = bank(a);
                b.lastCas = t0 + off;
                b.lastCasWasWrite = tpl.casIsWrite;
            }
        }
        lastDataEnd_ = maxTick(lastDataEnd_, data_until);
        if (tpl.casIsWrite)
            counters_.writes.inc(cas_per_pc * n_pcs);
        else
            counters_.reads.inc(cas_per_pc * n_pcs);
        counters_.colCmds.inc(cas_per_pc * n_pcs);
        counters_.dataBusBusyTicks.inc(
            cas_per_pc * n_pcs * static_cast<std::uint64_t>(t_.tBURST));
        counters_.dataBytes.inc(cas_per_pc * n_pcs * org_.columnBytes);
    }
#endif
}

BankState
ChannelDevice::bankState(const DramAddress& a, Tick now) const
{
    const SidRecord& s = sidRec(a.pc, a.sid);
    if (s.refAbUntil != kTickInvalid && now < s.refAbUntil)
        return BankState::Refreshing;
    return bank(a).stateAt(now, t_);
}

int
ChannelDevice::openRow(const DramAddress& a) const
{
    return bank(a).openRow;
}

const BankRecord&
ChannelDevice::bankRecord(const DramAddress& a) const
{
    return bank(a);
}

template <class Ar, class Self>
void
ChannelDevice::fields(Ar& ar, Self& self)
{
    ar.fixed(self.banks_, "device bank", [&ar](auto& b) {
        ar(b.openRow, b.lastAct, b.lastPre, b.lastCas, b.lastCasWasWrite,
           b.refUntil);
    });
    ar.fixed(self.sids_, "device SID", [&ar](auto& s) {
        ar.fixed(s.lastActPerBg, "device bank-group");
        ar(s.lastAct);
        ar.fixed(s.actWindow, "device ACT-window");
        ar(s.actWindowHead, s.lastRefPb, s.refAbUntil);
    });
    ar.fixed(self.pcs_, "device PC", [&ar](auto& p) {
        ar(p.lastCas, p.lastCasSid, p.lastCasBg, p.lastCasWasWrite,
           p.lastWrDataEnd, p.busBusyUntil, p.rowBus, p.colBusEnd);
    });
    auto& c = self.counters_;
    ar(self.lastDataEnd_, c.acts, c.pres, c.reads, c.writes, c.refAbs,
       c.refPbs, c.dataBusBusyTicks, c.dataBytes, c.rowCmds, c.colCmds);
}

void
ChannelDevice::saveState(CheckpointWriter& w) const
{
    fields(w, *this);
}

void
ChannelDevice::loadState(CheckpointReader& r)
{
    fields(r, *this);
}

} // namespace rome
