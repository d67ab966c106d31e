#include "rome/rome_mc.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

RomeMc::RomeMc(const DramConfig& base, VbaDesign design, RomeMcConfig cfg,
               RomeMapOrder map_order)
    : baseCfg_(base), map_(base.org, base.timing, design), cfg_(cfg),
      mapOrder_(map_order), dev_(map_.deviceOrganization(),
                                 map_.deviceTiming()),
      gen_(map_, dev_, CmdGenPlacement::LogicDie, !cfg.scalarLowering)
{
    if (design.bankMode == VbaDesign::adopted().bankMode &&
        design.pcMode == VbaDesign::adopted().pcMode) {
        timing_ = romeTableVTiming();
    } else {
        timing_ = deriveRomeTiming(base.timing, map_);
    }
    if (cfg_.queueDepth == 0) {
        cfg_.queueDepth = std::max<int>(
            4, static_cast<int>((16 * 1024) / map_.effectiveRowBytes()));
    }
    if (cfg_.queueDepth < 1)
        fatal("RoMe queue depth must be positive");
    operateFsms_ = static_cast<int>(
        (timing_.tRDrow + timing_.tR2RS - 1) / timing_.tR2RS);
    totalVbas_ = map_.vbasPerSid() *
                 map_.deviceOrganization().sidsPerChannel;
    refresh_.interval = base.timing.tREFIbank / totalVbas_;
    // Average refresh concurrency: one VBA stall per interval.
    const VbaPlan& plan = map_.planRef(VbaAddress{0, 0, 0});
    const Tick stall = base.timing.tRFCpb +
        (plan.banks.size() == 2 ? base.timing.tRREFD : 0);
    const double demand = static_cast<double>(stall) /
                          static_cast<double>(refresh_.interval);
    refreshFsms_ = std::max(3, static_cast<int>(demand * 1.2) + 1);
    opSlots_.resize(static_cast<std::size_t>(operateFsms_));
    refSlots_.resize(static_cast<std::size_t>(refreshFsms_));
    vbaBusyUntil_.assign(static_cast<std::size_t>(totalVbas_), 0);
    vbaBusyState_.assign(static_cast<std::size_t>(totalVbas_),
                         VbaState::Idle);
    // Fault domains are VBAs: every row op touches one whole effective
    // row, protected by a single SEC-DED codeword over all its lines.
    const int lines_per_row = static_cast<int>(
        map_.effectiveRowBytes() / baseCfg_.org.columnBytes);
    faults_.configure(cfg_.faults, totalVbas_, map_.rowsPerVba(),
                      lines_per_row, lines_per_row);
    // Telemetry "banks" are VBAs: one stall row per (SID, VBA) key.
    initTelemetry(cfg_.telemetry, totalVbas_);
}

void
RomeMc::installCommandTrace()
{
    // The generator lowers every row op to device commands; tracing them
    // gives the literal per-bank schedule. Commands commit only on event
    // ticks, so the timeline is slicing-invariant by construction.
    dev_.setTrace([this](Tick when, const Command& cmd,
                         const ChannelDevice::IssueResult& res) {
        if (sink_ == nullptr)
            return;
        const char* name = "CMD";
        Tick end = res.bankReadyAt;
        switch (cmd.kind) {
          case CmdKind::Act: name = "ACT"; break;
          case CmdKind::Pre: name = "PRE"; break;
          case CmdKind::Rd: name = "RD"; end = res.dataUntil; break;
          case CmdKind::Wr: name = "WR"; end = res.dataUntil; break;
          case CmdKind::RefPb: name = "REFpb"; break;
          case CmdKind::RefAb: name = "REFab"; break;
          default: break;
        }
        const int track = cmd.kind == CmdKind::RefAb
                              ? TelemetrySink::kChannelTrack
                              : flatBankIndex(map_.deviceOrganization(),
                                              cmd.addr);
        sink_->span(name, track, when, end > when ? end - when : 0);
    });
}

VbaAddress
RomeMc::decodeRow(std::uint64_t addr) const
{
    const std::uint64_t chunk = addr / map_.effectiveRowBytes();
    const auto v = static_cast<std::uint64_t>(map_.vbasPerSid());
    const auto s = static_cast<std::uint64_t>(
        map_.deviceOrganization().sidsPerChannel);
    const auto r = static_cast<std::uint64_t>(map_.rowsPerVba());
    VbaAddress a;
    switch (mapOrder_) {
      case RomeMapOrder::VbaSidRow:
        a.vba = static_cast<int>(chunk % v);
        a.sid = static_cast<int>((chunk / v) % s);
        a.row = static_cast<int>((chunk / (v * s)) % r);
        break;
      case RomeMapOrder::SidVbaRow:
        a.sid = static_cast<int>(chunk % s);
        a.vba = static_cast<int>((chunk / s) % v);
        a.row = static_cast<int>((chunk / (s * v)) % r);
        break;
      case RomeMapOrder::RowVbaSid:
        a.row = static_cast<int>(chunk % r);
        a.vba = static_cast<int>((chunk / r) % v);
        a.sid = static_cast<int>((chunk / (r * v)) % s);
        break;
    }
    return a;
}

bool
RomeMc::admitOps()
{
    const auto has_room = [&] {
        return queue_.size() + outstanding_.size() <
               static_cast<std::size_t>(cfg_.queueDepth);
    };
    if (!has_room())
        return false;
    const Request& req = host_.front();
    const std::uint64_t eff = map_.effectiveRowBytes();
    const std::uint64_t first = req.addr / eff;
    const std::uint64_t last = (req.addr + req.size - 1) / eff;
    const std::uint64_t total = last - first + 1;
    const int slot = frontSlot(total);
    do {
        const std::uint64_t chunk = first + frontChunk_;
        const std::uint64_t chunk_lo = chunk * eff;
        const std::uint64_t lo = std::max(chunk_lo, req.addr);
        const std::uint64_t hi = std::min(chunk_lo + eff,
                                          req.addr + req.size);
        RowOp op;
        op.cmd.kind = req.kind == ReqKind::Read ? RowCmdKind::RdRow
                                                : RowCmdKind::WrRow;
        op.cmd.addr = decodeRow(chunk_lo);
        if (faults_.enabled()) {
            op.cmd.addr.row = faults_.remappedRow(vbaKey(op.cmd.addr),
                                                  op.cmd.addr.row);
        }
        op.reqId = req.id;
        op.arrival = req.arrival;
        op.usefulBytes = hi - lo;
        op.slot = slot;
        op.linkDelay = req.linkDelay;
        queue_.push_back(op);
        ++frontChunk_;
    } while (frontChunk_ < total && has_room());
    if (frontChunk_ == total) {
        host_.pop_front();
        frontChunk_ = 0;
        return true;
    }
    return false;
}

bool
RomeMc::vbaBusy(const VbaAddress& a, Tick at) const
{
    const auto busy_in = [&](const std::vector<FsmSlot>& slots) {
        for (const auto& s : slots) {
            if (s.busyUntil != kTickInvalid && s.busyUntil > at &&
                s.vba.sameVba(a)) {
                return true;
            }
        }
        return false;
    };
    return busy_in(opSlots_) || busy_in(refSlots_);
}

int
RomeMc::busyCount(const std::vector<FsmSlot>& slots, Tick at) const
{
    int n = 0;
    for (const auto& s : slots)
        n += s.busyUntil != kTickInvalid && s.busyUntil > at;
    return n;
}

void
RomeMc::retireSlots(Tick at)
{
    for (auto* slots : {&opSlots_, &refSlots_}) {
        for (auto& s : *slots) {
            if (s.busyUntil != kTickInvalid && s.busyUntil <= at)
                s.state = VbaState::Idle;
        }
    }
}

Tick
RomeMc::nextRefreshDue() const
{
    return cfg_.refreshEnabled ? refresh_.due : kTickMax;
}

VbaState
RomeMc::vbaState(const VbaAddress& a, Tick at) const
{
    if (!cfg_.legacyScheduler) {
        const auto key = static_cast<std::size_t>(vbaKey(a));
        return vbaBusyUntil_[key] > at ? vbaBusyState_[key]
                                       : VbaState::Idle;
    }
    for (const auto& s : refSlots_) {
        if (s.busyUntil != kTickInvalid && s.busyUntil > at &&
            s.vba.sameVba(a)) {
            return VbaState::Refreshing;
        }
    }
    for (const auto& s : opSlots_) {
        if (s.busyUntil != kTickInvalid && s.busyUntil > at &&
            s.vba.sameVba(a)) {
            return s.state;
        }
    }
    return VbaState::Idle;
}

bool
RomeMc::stepOnce(Tick until)
{
    dev_.setClock(now_);
    return cfg_.legacyScheduler ? stepOnceLegacy(until)
                                : stepOnceIndexed(until);
}

bool
RomeMc::stepOnceIndexed(Tick until)
{
    outstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries();
    pumpArrivals();
    opBusy_.release(now_);
    refBusy_.release(now_);

    // --- Refresh: one VBA pair-refresh per interval, rotating (§V-B) ----
    std::optional<VbaAddress> refresh_target;
    if (cfg_.refreshEnabled && now_ >= refresh_.due) {
        const int v = map_.vbasPerSid();
        VbaAddress t;
        t.vba = refresh_.cursor % v;
        t.sid = (refresh_.cursor / v) %
                map_.deviceOrganization().sidsPerChannel;
        refresh_target = t;
        const auto key = static_cast<std::size_t>(vbaKey(t));
        if (vbaBusyUntil_[key] <= now_ &&
            static_cast<int>(refBusy_.size()) < refreshFsms_) {
            const auto res = gen_.execute({RowCmdKind::Ref, t}, now_);
            refBusy_.push(res.vbaReadyAt);
            vbaBusyUntil_[key] = res.vbaReadyAt;
            vbaBusyState_[key] = VbaState::Refreshing;
            refHighWater_ = std::max(
                refHighWater_, static_cast<int>(refBusy_.size()));
            refresh_.advance(totalVbas_);
            if (faults_.enabled())
                runScrub();
            return true;
        }
    }

    // --- Data scheduling: issue the op that can go earliest; ties go to
    // VBAs other than the last issued one (interleaving), then to age.
    const Tick op_slot_free =
        static_cast<int>(opBusy_.size()) < operateFsms_
            ? now_
            : opBusy_.firstAfter(now_);

    // Candidate floors depend on the op only through (is_write, same_sid)
    // and its VBA: precompute the four Table III gap variants so the scan
    // is a pair of table lookups per queue entry.
    Tick floor_at[2][2] = {{op_slot_free, op_slot_free},
                           {op_slot_free, op_slot_free}};
    if (lastRowCmdAt_ != kTickInvalid) {
        for (int w = 0; w < 2; ++w) {
            for (int s = 0; s < 2; ++s) {
                floor_at[w][s] = std::max(
                    op_slot_free,
                    lastRowCmdAt_ + timing_.gap(lastRowCmdWasWrite_,
                                                w != 0, s != 0));
            }
        }
    }

    const RowOp* best = nullptr;
    std::size_t best_idx = 0;
    Tick best_at = kTickMax;
    bool best_diff_vba = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const RowOp& op = queue_[i];
        if (refresh_target && refresh_target->sameVba(op.cmd.addr))
            continue; // let the pending refresh win the VBA
        const bool is_write = op.cmd.kind == RowCmdKind::WrRow;
        Tick at = floor_at[is_write][lastRowCmdSid_ == op.cmd.addr.sid];
        at = std::max(
            at, vbaBusyUntil_[static_cast<std::size_t>(vbaKey(op.cmd.addr))]);
        const bool diff_vba = !lastRowCmdVba_ ||
                              !lastRowCmdVba_->sameVba(op.cmd.addr);
        const bool better =
            at < best_at ||
            (at == best_at && diff_vba && !best_diff_vba) ||
            (at == best_at && diff_vba == best_diff_vba && best &&
             op.arrival < best->arrival);
        if (!best || better) {
            best = &op;
            best_idx = i;
            best_at = at;
            best_diff_vba = diff_vba;
        }
    }

    if (best) {
        const bool is_write = best->cmd.kind == RowCmdKind::WrRow;
        const Tick at = best_at;
        if (at > until) {
            // Retried verbatim from the same event tick by the next call.
            return false;
        }

        const RowOp op = queue_[best_idx];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best_idx));
        if (telemetryOn() && at > now_) {
            // The winning op waited [now_, at): the binding constraint is
            // its own VBA (busy reading/writing/refreshing), else the
            // Table III command gap, else an occupied operate FSM.
            const auto key =
                static_cast<std::size_t>(vbaKey(op.cmd.addr));
            StallCause cause = StallCause::BankBusy;
            if (vbaBusyUntil_[key] == at) {
                cause = vbaBusyState_[key] == VbaState::Refreshing
                            ? StallCause::Refresh
                            : StallCause::BankBusy;
            } else if (lastRowCmdAt_ != kTickInvalid &&
                       lastRowCmdAt_ +
                               timing_.gap(lastRowCmdWasWrite_, is_write,
                                           lastRowCmdSid_ ==
                                               op.cmd.addr.sid) ==
                           at) {
                cause = StallCause::CasChain;
            }
            chargeStall(cause, now_, at, static_cast<int>(key));
        }
        const auto res = gen_.execute(op.cmd, at);
        now_ = at;
        outstanding_.push(res.dataUntil);

        opBusy_.release(at);
        opBusy_.push(res.vbaReadyAt);
        const auto key = static_cast<std::size_t>(vbaKey(op.cmd.addr));
        vbaBusyUntil_[key] = res.vbaReadyAt;
        vbaBusyState_[key] =
            is_write ? VbaState::Writing : VbaState::Reading;
        opHighWater_ = std::max(opHighWater_,
                                static_cast<int>(opBusy_.size()));

        lastRowCmdAt_ = at;
        lastRowCmdWasWrite_ = is_write;
        lastRowCmdSid_ = op.cmd.addr.sid;
        lastRowCmdVba_ = op.cmd.addr;

        bool poisoned = false;
        if (faults_.enabled() && deferForFault(op, res.dataUntil, poisoned)) {
            // The transfer happened (busy tables and the outstanding CAM
            // above stand), but the data needs a retry: completion and
            // byte accounting wait for the attempt that reads clean.
            return true;
        }

        if (is_write)
            bytesWritten_ += op.usefulBytes;
        else
            bytesRead_ += op.usefulBytes;
        overfetch_ += res.bytes - op.usefulBytes;

        if (op.slot < 0)
            noteSingleOpDone(op.reqId, op.arrival, res.dataUntil, poisoned,
                             op.retryWait, op.linkDelay);
        else
            noteOpDone(op.slot, res.dataUntil, poisoned, op.retryWait);
        return true;
    }

    // --- Nothing issuable: advance to the next event ----------------------
    Tick next = kTickMax;
    if (!retryQ_.empty()) {
        // A retry re-enters once its backoff passed and the queue has
        // room; room only appears when an outstanding transfer ends.
        Tick retry_at = std::max(nextRetryAt_, now_ + 1);
        if (queue_.size() + outstanding_.size() >=
            static_cast<std::size_t>(cfg_.queueDepth)) {
            retry_at = std::max(retry_at, outstanding_.firstAfter(now_));
        }
        next = std::min(next, retry_at);
    }
    if (!host_.empty()) {
        Tick admit_at = std::max(host_.front().arrival, now_ + 1);
        if (queue_.size() + outstanding_.size() >=
            static_cast<std::size_t>(cfg_.queueDepth)) {
            // Admission is queue-bound: wake when the first entry frees.
            admit_at = std::max(admit_at, outstanding_.firstAfter(now_));
        }
        next = std::min(next, admit_at);
    }
    // A refresh that is already due but blocked wakes up when a slot frees
    // (covered by the FSM buffers' first deadlines below).
    if (nextRefreshDue() > now_)
        next = std::min(next, nextRefreshDue());
    next = std::min(next, opBusy_.firstAfter(now_));
    next = std::min(next, refBusy_.firstAfter(now_));
    if (next == kTickMax || next > until) {
        // now_ stays on its last event tick (slice invariance).
        return false;
    }
    if (telemetryOn() && next > now_) {
        // Attribute the idle jump to the wake term that produced `next`.
        // A due-but-blocked refresh owns the whole gap: it is what keeps
        // its VBA's queued work (and the rotation) from progressing.
        StallCause cause = StallCause::NoRequest;
        if (cfg_.refreshEnabled && now_ >= refresh_.due) {
            cause = StallCause::Refresh;
        } else if (!retryQ_.empty() &&
                   std::max(nextRetryAt_, now_ + 1) <= next) {
            cause = StallCause::RetryBackoff;
        } else if (!host_.empty() &&
                   std::max(host_.front().arrival, now_ + 1) <= next &&
                   queue_.size() + outstanding_.size() <
                       static_cast<std::size_t>(cfg_.queueDepth)) {
            cause = StallCause::NoRequest;
        } else if (!host_.empty() &&
                   queue_.size() + outstanding_.size() >=
                       static_cast<std::size_t>(cfg_.queueDepth)) {
            cause = StallCause::BankBusy; // admission is queue-bound
        } else if (nextRefreshDue() == next) {
            cause = StallCause::Refresh;
        } else if (opBusy_.firstAfter(now_) == next) {
            cause = StallCause::BankBusy;
        } else if (refBusy_.firstAfter(now_) == next) {
            cause = StallCause::Refresh;
        }
        chargeStall(cause, now_, next);
    }
    now_ = next;
    return true;
}

// Legacy scheduler (the seed's rescan-everything loop; the parity tests'
// reference).

bool
RomeMc::stepOnceLegacy(Tick until)
{
    outstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries();
    pumpArrivals();
    retireSlots(now_);

    // --- Refresh: one VBA pair-refresh per interval, rotating (§V-B) ----
    std::optional<VbaAddress> refresh_target;
    if (cfg_.refreshEnabled && now_ >= refresh_.due) {
        const int v = map_.vbasPerSid();
        VbaAddress t;
        t.vba = refresh_.cursor % v;
        t.sid = (refresh_.cursor / v) %
                map_.deviceOrganization().sidsPerChannel;
        refresh_target = t;
        if (!vbaBusy(t, now_) &&
            busyCount(refSlots_, now_) < refreshFsms_) {
            const auto res = gen_.execute({RowCmdKind::Ref, t}, now_);
            for (auto& s : refSlots_) {
                if (s.busyUntil == kTickInvalid || s.busyUntil <= now_) {
                    s = FsmSlot{t, res.vbaReadyAt, VbaState::Refreshing};
                    break;
                }
            }
            refHighWater_ = std::max(refHighWater_,
                                     busyCount(refSlots_, now_));
            refresh_.advance(totalVbas_);
            if (faults_.enabled())
                runScrub();
            return true;
        }
    }

    // --- Data scheduling: issue the op that can go earliest; ties go to
    // VBAs other than the last issued one (interleaving), then to age.
    Tick op_slot_free = kTickMax;
    for (const auto& s : opSlots_) {
        op_slot_free = std::min(op_slot_free, s.busyUntil == kTickInvalid
                                                  ? now_ : s.busyUntil);
    }
    op_slot_free = std::max(op_slot_free, now_);

    const RowOp* best = nullptr;
    std::size_t best_idx = 0;
    Tick best_at = kTickMax;
    bool best_diff_vba = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const RowOp& op = queue_[i];
        if (refresh_target && refresh_target->sameVba(op.cmd.addr))
            continue; // let the pending refresh win the VBA
        const bool is_write = op.cmd.kind == RowCmdKind::WrRow;
        Tick at = op_slot_free;
        if (lastRowCmdAt_ != kTickInvalid) {
            const bool same_sid = lastRowCmdSid_ == op.cmd.addr.sid;
            at = std::max(at, lastRowCmdAt_ +
                          timing_.gap(lastRowCmdWasWrite_, is_write,
                                          same_sid));
        }
        for (const auto* slots : {&opSlots_, &refSlots_}) {
            for (const auto& s : *slots) {
                if (s.busyUntil != kTickInvalid &&
                    s.vba.sameVba(op.cmd.addr)) {
                    at = std::max(at, s.busyUntil);
                }
            }
        }
        const bool diff_vba = !lastRowCmdVba_ ||
                              !lastRowCmdVba_->sameVba(op.cmd.addr);
        const bool better =
            at < best_at ||
            (at == best_at && diff_vba && !best_diff_vba) ||
            (at == best_at && diff_vba == best_diff_vba && best &&
             op.arrival < best->arrival);
        if (!best || better) {
            best = &op;
            best_idx = i;
            best_at = at;
            best_diff_vba = diff_vba;
        }
    }

    if (best) {
        const bool is_write = best->cmd.kind == RowCmdKind::WrRow;
        const Tick at = best_at;
        if (at > until) {
            // Retried verbatim from the same event tick by the next call.
            return false;
        }

        const RowOp op = queue_[best_idx];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best_idx));
        const auto res = gen_.execute(op.cmd, at);
        now_ = at;
        outstanding_.push(res.dataUntil);

        for (auto& s : opSlots_) {
            if (s.busyUntil == kTickInvalid || s.busyUntil <= at) {
                s = FsmSlot{op.cmd.addr, res.vbaReadyAt,
                            is_write ? VbaState::Writing
                                     : VbaState::Reading};
                break;
            }
        }
        opHighWater_ = std::max(opHighWater_, busyCount(opSlots_, at));

        lastRowCmdAt_ = at;
        lastRowCmdWasWrite_ = is_write;
        lastRowCmdSid_ = op.cmd.addr.sid;
        lastRowCmdVba_ = op.cmd.addr;

        bool poisoned = false;
        if (faults_.enabled() && deferForFault(op, res.dataUntil, poisoned)) {
            // Transfer happened; completion waits for a clean retry.
            return true;
        }

        if (is_write)
            bytesWritten_ += op.usefulBytes;
        else
            bytesRead_ += op.usefulBytes;
        overfetch_ += res.bytes - op.usefulBytes;

        if (op.slot < 0)
            noteSingleOpDone(op.reqId, op.arrival, res.dataUntil, poisoned,
                             op.retryWait, op.linkDelay);
        else
            noteOpDone(op.slot, res.dataUntil, poisoned, op.retryWait);
        return true;
    }

    // --- Nothing issuable: advance to the next event ----------------------
    Tick next = kTickMax;
    if (!retryQ_.empty()) {
        // A retry re-enters once its backoff passed and the queue has
        // room; room only appears when an outstanding transfer ends.
        Tick retry_at = std::max(nextRetryAt_, now_ + 1);
        if (queue_.size() + outstanding_.size() >=
            static_cast<std::size_t>(cfg_.queueDepth)) {
            retry_at = std::max(retry_at, outstanding_.firstAfter(now_));
        }
        next = std::min(next, retry_at);
    }
    if (!host_.empty()) {
        Tick admit_at = std::max(host_.front().arrival, now_ + 1);
        if (queue_.size() + outstanding_.size() >=
            static_cast<std::size_t>(cfg_.queueDepth)) {
            // Admission is queue-bound: wake when the first entry frees.
            admit_at = std::max(admit_at, outstanding_.firstAfter(now_));
        }
        next = std::min(next, admit_at);
    }
    // A refresh that is already due but blocked wakes up when a slot frees
    // (covered by the busyUntil scan below).
    if (nextRefreshDue() > now_)
        next = std::min(next, nextRefreshDue());
    for (const auto* slots : {&opSlots_, &refSlots_}) {
        for (const auto& s : *slots) {
            if (s.busyUntil != kTickInvalid && s.busyUntil > now_)
                next = std::min(next, s.busyUntil);
        }
    }
    if (next == kTickMax || next > until) {
        // now_ stays on its last event tick (slice invariance).
        return false;
    }
    now_ = next;
    return true;
}

// ---------------------------------------------------------------------------
// Reliability (sim/fault.h)
//
// RoMe's ECC granularity is the whole effective row: one SEC-DED codeword
// spans every line a row op transfers, so each RD_row is one decode. A
// corrected error re-reads the row after a backoff; a row that keeps
// correcting gets spared, and the pending op replays against the new row
// (completing late, never asserting). Writes are not classified — errors
// surface on the read that consumes them.
// ---------------------------------------------------------------------------

bool
RomeMc::deferForFault(const RowOp& op, Tick data_end, bool& poisoned)
{
    if (op.cmd.kind != RowCmdKind::RdRow)
        return false;
    const int vba = vbaKey(op.cmd.addr);
    const int nlines = static_cast<int>(map_.effectiveRowBytes() /
                                        baseCfg_.org.columnBytes);
    const EccVerdict v =
        faults_.classifyRead(vba, op.cmd.addr.row, 0, nlines);
    if (v != EccVerdict::CorrectedError) {
        // Clean completes; a DUE completes with the poison bit set so the
        // serving layer can count per-request poisoned completions.
        poisoned = v == EccVerdict::UncorrectableError;
        if (poisoned && sink_ != nullptr)
            sink_->instant("due", vba, data_end);
        return false;
    }
    if (op.attempt < faults_.config().retryLimit) {
        RowOp retry = op;
        ++retry.attempt;
        queueRetry(retry, faults_.retryReadyAt(data_end, op.attempt));
        return true;
    }
    if (faults_.noteCorrectable(vba, op.cmd.addr.row)) {
        const SpareEvent ev = faults_.spareRow(vba, op.cmd.addr.row);
        if (ev.newRow >= 0) {
            applySpare(ev);
            RowOp replay = op;
            replay.cmd.addr.row = ev.newRow;
            replay.attempt = 0;
            queueRetry(replay, faults_.retryReadyAt(data_end, 0));
            return true;
        }
    }
    // Retries exhausted and no spare left: hand the corrected data up.
    return false;
}

void
RomeMc::queueRetry(RowOp op, Tick ready_at)
{
    faults_.noteRetry();
    // Time between the issue decision and the backoff expiry is the
    // request's retry component, subtracted from its queueing time.
    if (telemetryOn() && ready_at > now_)
        op.retryWait += ready_at - now_;
    if (sink_ != nullptr)
        sink_->instant("retry", TelemetrySink::kChannelTrack, now_);
    retryQ_.push_back(PendingRetry{op, ready_at});
    nextRetryAt_ = std::min(nextRetryAt_, ready_at);
}

void
RomeMc::pumpRetries()
{
    if (retryQ_.empty())
        return;
    const auto depth = static_cast<std::size_t>(cfg_.queueDepth);
    Tick next = kTickMax;
    std::size_t w = 0;
    for (std::size_t i = 0; i < retryQ_.size(); ++i) {
        const PendingRetry r = retryQ_[i];
        if (r.readyAt <= now_ &&
            queue_.size() + outstanding_.size() < depth) {
            queue_.push_back(r.op);
            continue;
        }
        next = std::min(next, std::max(r.readyAt, now_ + 1));
        retryQ_[w++] = r;
    }
    retryQ_.resize(w);
    nextRetryAt_ = next;
}

void
RomeMc::runScrub()
{
    scrubEvents_.clear();
    faults_.scrub(scrubEvents_);
    for (const SpareEvent& ev : scrubEvents_)
        applySpare(ev);
}

void
RomeMc::applySpare(const SpareEvent& ev)
{
    if (sink_ != nullptr)
        sink_->instant("spare", ev.bank, now_);
    const auto rewrite = [&](RowOp& op) {
        if (op.cmd.addr.row == ev.oldRow && vbaKey(op.cmd.addr) == ev.bank)
            op.cmd.addr.row = ev.newRow;
    };
    for (RowOp& op : queue_)
        rewrite(op);
    for (PendingRetry& r : retryQ_)
        rewrite(r.op);
}

double
RomeMc::achievedBandwidth() const
{
    const Tick end = dev_.lastDataEnd();
    if (end == 0)
        return 0.0;
    return static_cast<double>(bytesRead_ + bytesWritten_ + overfetch_) /
           nsFromTicks(end);
}

double
RomeMc::effectiveBandwidth() const
{
    const Tick end = dev_.lastDataEnd();
    if (end == 0)
        return 0.0;
    return static_cast<double>(bytesRead_ + bytesWritten_) /
           nsFromTicks(end);
}

McComplexity
RomeMc::complexity() const
{
    McComplexity c;
    c.numTimingParams = RomeTimingParams::kNumMcVisibleParams;
    c.numBankFsms = operateFsms_ + refreshFsms_;
    c.numBankStates = kNumRomeVbaStates;
    // Not `= "-"`: GCC 12 flags that literal assignment with a false
    // -Wrestrict positive once it is inlined here.
    c.pagePolicy.assign(1, '-');
    c.schedulingConcerns = {"VBA interleaving"};
    c.requestQueueDepth = cfg_.queueDepth;
    return c;
}

ControllerStats
RomeMc::stats() const
{
    ControllerStats s;
    fillBaseStats(s);
    s.overfetchBytes = overfetch_;
    // Only row-level commands cross the MC↔HBM interface (REF counts too);
    // the command generator expands them on the logic die.
    s.interfaceCommands = gen_.rowCommandsAccepted();
    s.achievedBandwidth = achievedBandwidth();
    s.effectiveBandwidth = effectiveBandwidth();
    return s;
}

// ---- checkpointing -------------------------------------------------------

template <class Ar, class Self>
void
RomeMc::fields(Ar& ar, Self& self)
{
    const auto vba = [&ar](auto& a) { ar(a.sid, a.vba, a.row); };
    const auto row_op = [&](auto& op) {
        ar(op.cmd.kind);
        vba(op.cmd.addr);
        ar(op.reqId, op.arrival, op.usefulBytes, op.slot, op.attempt,
           op.retryWait, op.linkDelay);
    };
    const auto fsm_slot = [&](auto& s) {
        vba(s.vba);
        ar(s.busyUntil, s.state);
    };

    self.baseState(ar);
    ar(self.dev_, self.gen_);
    ar.seq(self.queue_, row_op);
    ar(self.outstanding_);
    ar.fixed(self.opSlots_, "RoMe operate-FSM", fsm_slot);
    ar.fixed(self.refSlots_, "RoMe refresh-FSM", fsm_slot);
    ar(self.opBusy_, self.refBusy_);
    ar.fixed(self.vbaBusyUntil_, "RoMe VBA");
    for (auto& s : self.vbaBusyState_)
        ar(s);

    ar(self.lastRowCmdAt_, self.lastRowCmdWasWrite_, self.lastRowCmdSid_);
    bool has_vba = self.lastRowCmdVba_.has_value();
    ar(has_vba);
    if constexpr (Ar::kLoading) {
        self.lastRowCmdVba_.reset();
        if (has_vba)
            self.lastRowCmdVba_.emplace();
    }
    if (has_vba)
        vba(*self.lastRowCmdVba_);

    ar(self.refresh_.interval, self.refresh_.due, self.refresh_.cursor);
    ar.seq(self.retryQ_, [&](auto& p) {
        row_op(p.op);
        ar(p.readyAt);
    });
    ar(self.nextRetryAt_, self.overfetch_, self.opHighWater_,
       self.refHighWater_);
}

void
RomeMc::saveCheckpoint(CheckpointWriter& w) const
{
    if (sink_ != nullptr)
        sink_->instant("checkpoint", TelemetrySink::kChannelTrack, now_);
    fields(w, *this);
}

void
RomeMc::restoreCheckpoint(CheckpointReader& r)
{
    fields(r, *this);
    scrubEvents_.clear();
}

} // namespace rome
