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
#if !ROME_ORACLES
    // The template (vectorized) lowering path stays live either way —
    // only the force-scalar flag and the legacy scheduler are oracles.
    if (cfg_.legacyScheduler || cfg_.scalarLowering)
        fatal("RomeMcConfig::%s is a test-only oracle compiled out of "
              "this build — reconfigure with -DROME_ORACLES=ON",
              cfg_.legacyScheduler ? "legacyScheduler" : "scalarLowering");
#endif
    if (cfg_.timing) {
        timing_ = *cfg_.timing;
    } else if (design.bankMode == VbaDesign::adopted().bankMode &&
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
    if (cfg_.operateFsms == 0) {
        cfg_.operateFsms = static_cast<int>(
            (timing_.tRDrow + timing_.tR2RS - 1) / timing_.tR2RS);
    }
    totalVbas_ = map_.vbasPerSid() *
                 map_.deviceOrganization().sidsPerChannel;
    refresh_.interval = base.timing.tREFIbank / totalVbas_;
    if (cfg_.refreshFsms == 0) {
        // Average refresh concurrency: one VBA stall per interval.
        const VbaPlan& plan = map_.planRef(VbaAddress{0, 0, 0});
        const Tick stall = base.timing.tRFCpb +
            (plan.banks.size() == 2 ? base.timing.tRREFD : 0);
        const double demand = static_cast<double>(stall) /
                              static_cast<double>(refresh_.interval);
        cfg_.refreshFsms = std::max(3, static_cast<int>(demand * 1.2) + 1);
    }
    opSlots_.resize(static_cast<std::size_t>(cfg_.operateFsms));
    refSlots_.resize(static_cast<std::size_t>(cfg_.refreshFsms));
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
    // gives the literal per-bank schedule. Installing the trace disables
    // epoch memoization (memoActive checks tracingEnabled), so the
    // timeline is slicing-invariant by construction.
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
    const Request& req = host_.front();
    const std::uint64_t eff = map_.effectiveRowBytes();
    const std::uint64_t first = req.addr / eff;
    const std::uint64_t last = (req.addr + req.size - 1) / eff;
    const std::uint64_t total = last - first + 1;

    while (frontChunk_ < total &&
           queue_.size() + outstanding_.size() <
               static_cast<std::size_t>(cfg_.queueDepth)) {
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
        op.singleOp = total == 1;
        op.linkDelay = req.linkDelay;
        queue_.push_back(op);
        ++frontChunk_;
    }
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
    return cfg_.legacyScheduler ? stepOnceLegacy(until)
                                : stepOnceIndexed(until);
}

bool
RomeMc::stepOnceIndexed(Tick until)
{
    const bool memo_on = memoActive();
    if (memo_on && memo_.atBoundary()) {
        const std::uint64_t replayed = tryFastForward(until);
        if (replayed != 0) {
            // runUntil/drain already counted this call as one step;
            // credit the remaining replayed scheduling steps.
            steps_ += replayed - 1;
            return true;
        }
    }

    outstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries();
    const std::size_t q_before = queue_.size();
    pumpArrivals();
    std::uint32_t admitted = 0;
    std::int32_t occupancy = 0;
    if (memo_on) {
        // The pump only appends, so the tail delta is this step's intake.
        occupancy = static_cast<std::int32_t>(outstanding_.size());
        for (std::size_t i = q_before; i < queue_.size(); ++i) {
            const RowOp& op = queue_[i];
            memo_.recordAdmit(vbaKey(op.cmd.addr),
                              op.cmd.kind == RowCmdKind::WrRow,
                              op.arrival);
        }
        // Includes admissions carried across a runUntil clamp: the
        // clamped attempt pumped them, this retry owns them.
        admitted = memo_.pendingAdmits();
    }
    opBusy_.release(now_);
    refBusy_.release(now_);

    // --- Refresh: one VBA pair-refresh per interval, rotating (§V-B) ----
    std::optional<VbaAddress> refresh_target;
    if (cfg_.refreshEnabled && now_ >= refresh_.due) {
        // Refresh activity (issued or merely pending) is aperiodic
        // relative to the data schedule: not a memoizable step.
        if (memo_on)
            memo_.reset();
        const int v = map_.vbasPerSid();
        VbaAddress t;
        t.vba = refresh_.cursor % v;
        t.sid = (refresh_.cursor / v) %
                map_.deviceOrganization().sidsPerChannel;
        refresh_target = t;
        const auto key = static_cast<std::size_t>(vbaKey(t));
        if (vbaBusyUntil_[key] <= now_ &&
            static_cast<int>(refBusy_.size()) < cfg_.refreshFsms) {
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
        static_cast<int>(opBusy_.size()) < cfg_.operateFsms
            ? now_
            : opBusy_.firstFreeAfter(now_);

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
            // The bounded step issues nothing and is retried verbatim by
            // the next runUntil call from the same event tick, so both
            // decisions and detection survive the seam: this step's
            // recorded admissions stay pending and the retry reports
            // them as its own intake.
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
            lastStallCause_ = cause;
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

        if (op.singleOp)
            noteSingleOpDone(op.reqId, op.arrival, res.dataUntil, poisoned,
                             kTickInvalid, op.retryWait, op.linkDelay);
        else
            noteOpDone(op.reqId, res.dataUntil, poisoned, kTickInvalid,
                       op.retryWait);
        if (memo_on) {
            memoRecordIssue(at, res, vbaKey(op.cmd.addr), best_idx,
                            admitted, occupancy, is_write);
        }
        return true;
    }

    // --- Nothing issuable: advance to the next event ----------------------
    // An idle advance is itself an aperiodic event for the memoizer: the
    // steady states it targets issue on every step.
    if (memo_on)
        memo_.reset();
    Tick next = kTickMax;
    if (!retryQ_.empty()) {
        // A retry re-enters once its backoff passed and the queue has
        // room; room only appears when an outstanding transfer ends.
        Tick retry_at = std::max(nextRetryAt_, now_ + 1);
        if (queue_.size() + outstanding_.size() >=
            static_cast<std::size_t>(cfg_.queueDepth)) {
            retry_at = std::max(retry_at,
                                outstanding_.firstFreeAfter(now_));
        }
        next = std::min(next, retry_at);
    }
    if (!host_.empty()) {
        Tick admit_at = std::max(host_.front().arrival, now_ + 1);
        if (queue_.size() + outstanding_.size() >=
            static_cast<std::size_t>(cfg_.queueDepth)) {
            // Admission is queue-bound: wake when the first entry frees.
            admit_at = std::max(admit_at,
                                outstanding_.firstFreeAfter(now_));
        }
        next = std::min(next, admit_at);
    }
    // A refresh that is already due but blocked wakes up when a slot frees
    // (covered by the deadline-heap tops below).
    if (nextRefreshDue() > now_)
        next = std::min(next, nextRefreshDue());
    next = std::min(next, opBusy_.firstFreeAfter(now_));
    next = std::min(next, refBusy_.firstFreeAfter(now_));
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
        } else if (opBusy_.firstFreeAfter(now_) == next) {
            cause = StallCause::BankBusy;
        } else if (refBusy_.firstFreeAfter(now_) == next) {
            cause = StallCause::Refresh;
        }
        chargeStall(cause, now_, next);
    }
    now_ = next;
    return true;
}

// Legacy scheduler (the seed's rescan-everything loop; decision oracle).
// Test-only: compiled out under -DROME_ORACLES=OFF — the constructor
// rejects cfg_.legacyScheduler there, so the stub is unreachable.
#if ROME_ORACLES

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
            busyCount(refSlots_, now_) < cfg_.refreshFsms) {
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

        if (op.singleOp)
            noteSingleOpDone(op.reqId, op.arrival, res.dataUntil, poisoned,
                             kTickInvalid, op.retryWait, op.linkDelay);
        else
            noteOpDone(op.reqId, res.dataUntil, poisoned, kTickInvalid,
                       op.retryWait);
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
            retry_at = std::max(retry_at,
                                outstanding_.firstFreeAfter(now_));
        }
        next = std::min(next, retry_at);
    }
    if (!host_.empty()) {
        Tick admit_at = std::max(host_.front().arrival, now_ + 1);
        if (queue_.size() + outstanding_.size() >=
            static_cast<std::size_t>(cfg_.queueDepth)) {
            // Admission is queue-bound: wake when the first entry frees.
            admit_at = std::max(admit_at,
                                outstanding_.firstFreeAfter(now_));
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

#else // !ROME_ORACLES

bool
RomeMc::stepOnceLegacy(Tick)
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

#endif // ROME_ORACLES

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

// ---------------------------------------------------------------------------
// Epoch memoization (steady-state fast-forward)
//
// Soundness rests on three observations about the indexed scheduler:
//
//  1. Every candidate floor in the queue scan is >= now_ (op_slot_free is
//     clamped to now_), so any timing record that has fallen to or behind
//     now_ can never bind a decision. Stale records therefore stay
//     behaviorally inert under a uniform time shift, and the boundary
//     fingerprint may collapse them to one marker.
//  2. Over one whole epoch the in-flight heaps perform exactly as many
//     releases as pushes, and a periodic boundary state means their entry
//     multisets recur shifted by the period. Skipping heap maintenance
//     during replay and shifting the untouched heaps by K*P at the end
//     reproduces the boundary state exactly.
//  3. With the stale-uniform arrival model (every queued and admitted
//     request carries one common arrival tick predating the epoch), age
//     tie-breaks are time-invariant, so the recorded queue indices replay
//     the scan's choices verbatim.
//
// Request latencies grow across epochs (stale arrivals, advancing
// completion times), so completions are replayed one by one through
// noteOpDone rather than applied as a cached histogram delta — the
// histogram and mean stay bit-identical to the step-by-step oracle.
// ---------------------------------------------------------------------------

void
RomeMc::memoRecordIssue(Tick at, const CommandGenerator::RowOpResult& res,
                        std::int64_t key, std::size_t queue_idx,
                        std::uint32_t admitted, std::int32_t occupancy,
                        bool is_write)
{
    EpochDetector::Step s;
    s.tick = at;
    s.dataUntil = res.dataUntil;
    s.target = key;
    s.queueIdx = static_cast<std::int32_t>(queue_idx);
    s.occupancy = occupancy;
    s.resBytes = static_cast<std::uint32_t>(res.bytes);
    s.admitCount = admitted;
    s.isWrite = is_write;
    // Diagnostic rider: replay re-charges the same cause for the same
    // per-step gap, keeping memoized and live stall accounting equal.
    s.stallCause = static_cast<std::uint8_t>(lastStallCause_);
    const EpochDetector::Event ev = memo_.recordStep(s);
    if (ev == EpochDetector::Event::CaptureFirst) {
        devSnapshot_ = dev_.counterSnapshot();
        genRowCmdsSnapshot_ = gen_.rowCommandsAccepted();
        genHitsSnapshot_ = gen_.templateHits();
        genFallbacksSnapshot_ = gen_.templateFallbacks();
        memoCaptureFingerprint(memo_.fingerprintFirst());
    } else if (ev == EpochDetector::Event::CaptureSecond) {
        devEpochDelta_ = dev_.counterSnapshot().minus(devSnapshot_);
        genRowCmdsDelta_ = gen_.rowCommandsAccepted() - genRowCmdsSnapshot_;
        genHitsDelta_ = gen_.templateHits() - genHitsSnapshot_;
        genFallbacksDelta_ = gen_.templateFallbacks() - genFallbacksSnapshot_;
        memoCaptureFingerprint(memo_.fingerprintSecond());
        if (memo_.finalizeConfirmation())
            memoBuildProgram();
    }
}

void
RomeMc::memoBuildProgram()
{
    // Simulate one epoch's queue evolution symbolically: slots are tagged
    // with their origin (boundary position or admission index), so replay
    // can fetch every popped op — and rebuild the boundary queue — by
    // direct lookup instead of per-step vector surgery.
    const auto& steps = memo_.epochSteps();
    memoBoundaryCount_ = static_cast<std::int32_t>(queue_.size());
    memoSim_.clear();
    memoPopTag_.clear();
    memoNextTag_.clear();
    for (std::int32_t i = 0; i < memoBoundaryCount_; ++i)
        memoSim_.push_back(i);
    std::int32_t next_admit = memoBoundaryCount_;
    for (const EpochDetector::Step& s : steps) {
        for (std::uint32_t j = 0; j < s.admitCount; ++j)
            memoSim_.push_back(next_admit++);
        const auto idx = static_cast<std::size_t>(s.queueIdx);
        memoPopTag_.push_back(memoSim_[idx]);
        memoSim_.erase(memoSim_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
    }
    memoNextTag_ = memoSim_;
    memoBoundary_.reserve(static_cast<std::size_t>(memoBoundaryCount_));
    memoScratchOps_.reserve(static_cast<std::size_t>(memoBoundaryCount_));
    memoAdmitOps_.reserve(memo_.epochAdmits().size());
}

void
RomeMc::memoCaptureFingerprint(std::vector<Tick>& fp) const
{
    const Tick base = now_;
    // Anything at or behind the boundary can never bind (observation 1).
    constexpr Tick kDead = kTickInvalid / 2;

    // Queue contents. Rows are excluded on purpose: RoMe lowering and
    // timing are row-value independent, and replay takes the live request
    // stream, so only the (kind, VBA) schedule shape must recur. Arrivals
    // are absolute — the stale-uniform model makes them time-invariant,
    // and equal fingerprints then pin the scan's age tie-breaks.
    fp.push_back(static_cast<Tick>(queue_.size()));
    for (const RowOp& op : queue_) {
        fp.push_back(static_cast<Tick>(op.cmd.kind));
        fp.push_back(op.cmd.addr.sid);
        fp.push_back(op.cmd.addr.vba);
        fp.push_back(op.arrival);
    }

    // In-flight heaps: behavior depends only on the entry multiset, so
    // compare sorted offsets (entries already due but not yet released
    // appear as non-positive offsets).
    const auto append_heap = [&](const OutstandingOps& h) {
        fp.push_back(static_cast<Tick>(h.rawEntries().size()));
        const auto start = static_cast<std::ptrdiff_t>(fp.size());
        for (const Tick t : h.rawEntries())
            fp.push_back(t - base);
        std::sort(fp.begin() + start, fp.end());
    };
    append_heap(outstanding_);
    append_heap(opBusy_);
    append_heap(refBusy_);

    for (std::size_t k = 0; k < vbaBusyUntil_.size(); ++k) {
        if (vbaBusyUntil_[k] > base) {
            fp.push_back(vbaBusyUntil_[k] - base);
            fp.push_back(static_cast<Tick>(vbaBusyState_[k]));
        } else {
            fp.push_back(kDead);
        }
    }

    fp.push_back(lastRowCmdAt_ == kTickInvalid ? kDead
                                               : lastRowCmdAt_ - base);
    fp.push_back(lastRowCmdWasWrite_);
    fp.push_back(lastRowCmdSid_);
    if (lastRowCmdVba_) {
        fp.push_back(lastRowCmdVba_->sid);
        fp.push_back(lastRowCmdVba_->vba);
    } else {
        fp.push_back(kDead);
    }

    dev_.appendStateFingerprint(base, fp);
}

bool
RomeMc::memoVerifyAndStageEpoch()
{
    const auto& steps = memo_.epochSteps();
    const auto& admits = memo_.epochAdmits();
    const Tick stale = memo_.staleArrival();
    const Tick end = memo_.epochBase() + memo_.period();
    const std::uint64_t eff = map_.effectiveRowBytes();
    const auto depth = static_cast<std::size_t>(cfg_.queueDepth);

    // Walk the upcoming admission stream (host buffer + mid-request chunk
    // cursor) against the canonical epoch without touching it, staging the
    // live row ops (real ids, addresses, useful-byte counts) for replay.
    // Refills reach the buffer strictly behind everything already visible,
    // so the walk only fails to see far enough when the buffer runs out.
    memoAdmitOps_.clear();
    std::size_t host_idx = 0;
    std::uint64_t chunk_pos = frontChunk_;
    std::size_t ai = 0;
    std::size_t vq = queue_.size();
    for (const EpochDetector::Step& s : steps) {
        for (std::uint32_t j = 0; j < s.admitCount; ++j, ++ai) {
            if (vq + static_cast<std::size_t>(s.occupancy) >= depth)
                return false; // pump would stop before this admit
            while (host_idx < host_.size()) {
                const Request& req = host_[host_idx];
                const std::uint64_t first = req.addr / eff;
                const std::uint64_t last = (req.addr + req.size - 1) / eff;
                if (chunk_pos <= last - first)
                    break;
                ++host_idx;
                chunk_pos = 0;
            }
            if (host_idx >= host_.size())
                return false; // would depend on a refill we cannot foresee
            const Request& req = host_[host_idx];
            if (req.arrival != stale)
                return false;
            const std::uint64_t first = req.addr / eff;
            const std::uint64_t chunk_lo = (first + chunk_pos) * eff;
            const VbaAddress a = decodeRow(chunk_lo);
            const EpochDetector::Admit& c = admits[ai];
            if (vbaKey(a) != c.target ||
                (req.kind == ReqKind::Write) != c.isWrite) {
                return false;
            }
            RowOp op;
            op.cmd.kind = req.kind == ReqKind::Read ? RowCmdKind::RdRow
                                                    : RowCmdKind::WrRow;
            op.cmd.addr = a;
            op.reqId = req.id;
            op.arrival = req.arrival;
            op.usefulBytes = std::min(chunk_lo + eff, req.addr + req.size) -
                             std::max(chunk_lo, req.addr);
            op.singleOp = (req.addr + req.size - 1) / eff == first;
            op.linkDelay = req.linkDelay;
            memoAdmitOps_.push_back(op);
            ++chunk_pos;
            ++vq;
        }
        // The live pump must stop exactly after these admissions: either
        // the queue is full at the recorded occupancy, or nothing
        // admissible exists for the rest of the epoch.
        if (vq + static_cast<std::size_t>(s.occupancy) < depth) {
            std::size_t idx = host_idx;
            std::uint64_t pos = chunk_pos;
            const Request* pending = nullptr;
            while (idx < host_.size()) {
                const Request& req = host_[idx];
                const std::uint64_t first = req.addr / eff;
                const std::uint64_t last = (req.addr + req.size - 1) / eff;
                if (pos <= last - first) {
                    pending = &req;
                    break;
                }
                ++idx;
                pos = 0;
            }
            if (pending != nullptr) {
                // A partially admitted request is always admissible; a
                // fresh one is safe only if it arrives after the epoch.
                if (pos != 0 || pending->arrival <= end)
                    return false;
            } else if (!sourceDrained()) {
                return false; // a refill could admit unknown work
            }
        }
        --vq; // the step issues one queued op
    }
    return true;
}

void
RomeMc::memoConsumeAdmits(std::uint32_t count)
{
    // Mirror pumpArrivals' consumption exactly: refill the host window up
    // front and after every completed request. The ops themselves were
    // already staged by the verification walk.
    refillIfBound();
    while (count > 0) {
        const Request& req = host_.front();
        const std::uint64_t eff = map_.effectiveRowBytes();
        const std::uint64_t first = req.addr / eff;
        const std::uint64_t last = (req.addr + req.size - 1) / eff;
        const std::uint64_t total = last - first + 1;
        const std::uint64_t take =
            std::min<std::uint64_t>(total - frontChunk_, count);
        frontChunk_ += take;
        count -= static_cast<std::uint32_t>(take);
        if (frontChunk_ == total) {
            host_.pop_front();
            frontChunk_ = 0;
            refillIfBound();
        }
    }
}

void
RomeMc::memoReplayEpoch()
{
    const Tick base = memo_.epochBase();
    const auto& steps = memo_.epochSteps();
    memoConsumeAdmits(static_cast<std::uint32_t>(memoAdmitOps_.size()));
    const auto op_at = [&](std::int32_t tag) -> const RowOp& {
        return tag < memoBoundaryCount_
                   ? memoBoundary_[static_cast<std::size_t>(tag)]
                   : memoAdmitOps_[static_cast<std::size_t>(
                         tag - memoBoundaryCount_)];
    };
    Tick prev = 0; // step-tick offsets from base; now_ == base on entry
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const EpochDetector::Step& s = steps[i];
        const RowOp& op = op_at(memoPopTag_[i]);
        if (telemetry_) {
            // Re-charge the recorded cause for the recorded gap: the sum
            // of all per-step gaps plus the boundary wrap below is one
            // period, so memoized and live stall totals agree exactly.
            chargeStall(static_cast<StallCause>(s.stallCause), prev,
                        s.tick, static_cast<int>(s.target));
            prev = s.tick;
        }
        if (s.isWrite)
            bytesWritten_ += op.usefulBytes;
        else
            bytesRead_ += op.usefulBytes;
        overfetch_ += s.resBytes - op.usefulBytes;
        // The canonical issue tick (base + s.tick) feeds the breakdown's
        // first-issue component; replay's now_ sits at the epoch base.
        if (op.singleOp)
            noteSingleOpDone(op.reqId, op.arrival, base + s.dataUntil,
                             false, base + s.tick, op.retryWait,
                             op.linkDelay);
        else
            noteOpDone(op.reqId, base + s.dataUntil, false, base + s.tick,
                       op.retryWait);
    }
    if (telemetry_ && !steps.empty()) {
        // Boundary wrap: live charges this gap when the next epoch's
        // first step issues, with that step's (identical) cause.
        chargeStall(static_cast<StallCause>(steps[0].stallCause), prev,
                    memo_.period(), static_cast<int>(steps[0].target));
    }
    // The surviving slots become the next epoch's boundary queue.
    memoScratchOps_.clear();
    for (const std::int32_t tag : memoNextTag_)
        memoScratchOps_.push_back(op_at(tag));
    memoBoundary_.swap(memoScratchOps_);
    memo_.advanceEpochs(1);
}

std::uint64_t
RomeMc::tryFastForward(Tick until)
{
    const Tick t0 = memo_.epochBase();
    if (now_ != t0)
        return 0; // not on the boundary tick (defensive; runUntil seams
                  // leave now_ on the event tick, so replay resumes)
    const Tick period = memo_.period();
    // Whole epochs only, and never across the run bound or a refresh due
    // tick: every within-window step then behaves exactly as the oracle,
    // and the next live step handles the boundary event itself.
    Tick bound = until;
    if (cfg_.refreshEnabled)
        bound = std::min(bound, refresh_.due);
    if (bound - t0 < period)
        return 0;
    const auto max_epochs =
        static_cast<std::uint64_t>((bound - t0) / period);

    std::uint64_t k = 0;
    while (k < max_epochs && memoVerifyAndStageEpoch()) {
        if (k == 0) {
            // Stage the boundary queue; queue_ itself stays untouched
            // until fast-forwarding stops.
            memoBoundary_.assign(queue_.begin(), queue_.end());
        }
        memoReplayEpoch();
        ++k;
    }
    if (k == 0)
        return 0;
    queue_.assign(memoBoundary_.begin(), memoBoundary_.end());

    // Roll every piece of timing state forward by the replayed span.
    const Tick delta = static_cast<Tick>(k) * period;
    outstanding_.shiftAll(delta);
    opBusy_.shiftAll(delta);
    refBusy_.shiftAll(delta);
    for (Tick& v : vbaBusyUntil_)
        v += delta; // stale entries stay stale relative to the new now
    if (lastRowCmdAt_ != kTickInvalid)
        lastRowCmdAt_ += delta;
    dev_.shiftTime(delta);
    dev_.advanceCounters(devEpochDelta_, k);
    gen_.advanceCounters(genRowCmdsDelta_, genHitsDelta_,
                         genFallbacksDelta_, k);
    now_ = t0 + delta;

    // Span tier: fast-forwards stay on (only command tracing disables
    // memoization), so the timeline shows each replayed stretch.
    if (sink_ != nullptr)
        sink_->span("epoch-ff", TelemetrySink::kChannelTrack, t0, delta);

    ffEpochs_ += k;
    ffSteps_ += k * memo_.stepsPerEpoch();
    return k * memo_.stepsPerEpoch();
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
    c.numBankFsms = cfg_.operateFsms + cfg_.refreshFsms;
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
    s.memoFfSteps = ffSteps_;
    s.overfetchBytes = overfetch_;
    // Only row-level commands cross the MC↔HBM interface (REF counts too);
    // the command generator expands them on the logic die.
    s.interfaceCommands = gen_.rowCommandsAccepted();
    s.achievedBandwidth = achievedBandwidth();
    s.effectiveBandwidth = effectiveBandwidth();
    return s;
}

// ---- checkpointing -------------------------------------------------------

void
RomeMc::saveCheckpoint(CheckpointWriter& w) const
{
    if (sink_ != nullptr)
        sink_->instant("checkpoint", TelemetrySink::kChannelTrack, now_);
    const auto put_row_op = [&w](const RowOp& op) {
        w.putU8(static_cast<std::uint8_t>(op.cmd.kind));
        w.putI32(op.cmd.addr.sid);
        w.putI32(op.cmd.addr.vba);
        w.putI32(op.cmd.addr.row);
        w.putU64(op.reqId);
        w.putI64(op.arrival);
        w.putU64(op.usefulBytes);
        w.putBool(op.singleOp);
        w.putI32(op.attempt);
        w.putI64(op.retryWait);
        w.putI64(op.linkDelay);
    };
    const auto put_slot = [&w](const FsmSlot& s) {
        w.putI32(s.vba.sid);
        w.putI32(s.vba.vba);
        w.putI32(s.vba.row);
        w.putI64(s.busyUntil);
        w.putU8(static_cast<std::uint8_t>(s.state));
    };

    saveBaseState(w);
    dev_.saveState(w);
    gen_.saveCounters(w);

    w.putCount(queue_.size());
    for (const RowOp& op : queue_)
        put_row_op(op);
    outstanding_.saveState(w);

    w.putCount(opSlots_.size());
    for (const FsmSlot& s : opSlots_)
        put_slot(s);
    w.putCount(refSlots_.size());
    for (const FsmSlot& s : refSlots_)
        put_slot(s);
    opBusy_.saveState(w);
    refBusy_.saveState(w);
    w.putCount(vbaBusyUntil_.size());
    for (const Tick t : vbaBusyUntil_)
        w.putI64(t);
    for (const VbaState s : vbaBusyState_)
        w.putU8(static_cast<std::uint8_t>(s));

    w.putI64(lastRowCmdAt_);
    w.putBool(lastRowCmdWasWrite_);
    w.putI32(lastRowCmdSid_);
    w.putBool(lastRowCmdVba_.has_value());
    if (lastRowCmdVba_) {
        w.putI32(lastRowCmdVba_->sid);
        w.putI32(lastRowCmdVba_->vba);
        w.putI32(lastRowCmdVba_->row);
    }

    w.putI64(refresh_.interval);
    w.putI64(refresh_.due);
    w.putI32(refresh_.cursor);

    w.putCount(retryQ_.size());
    for (const PendingRetry& p : retryQ_) {
        put_row_op(p.op);
        w.putI64(p.readyAt);
    }
    w.putI64(nextRetryAt_);

    w.putU64(overfetch_);
    w.putI32(opHighWater_);
    w.putI32(refHighWater_);
    w.putU64(ffEpochs_);
    w.putU64(ffSteps_);
}

void
RomeMc::restoreCheckpoint(CheckpointReader& r)
{
    const auto get_row_op = [&r]() {
        RowOp op{};
        op.cmd.kind = static_cast<RowCmdKind>(r.getU8());
        op.cmd.addr.sid = r.getI32();
        op.cmd.addr.vba = r.getI32();
        op.cmd.addr.row = r.getI32();
        op.reqId = r.getU64();
        op.arrival = r.getI64();
        op.usefulBytes = r.getU64();
        op.singleOp = r.getBool();
        op.attempt = r.getI32();
        op.retryWait = r.getI64();
        op.linkDelay = r.getI64();
        return op;
    };
    const auto get_slot = [&r](FsmSlot& s) {
        s.vba.sid = r.getI32();
        s.vba.vba = r.getI32();
        s.vba.row = r.getI32();
        s.busyUntil = r.getI64();
        s.state = static_cast<VbaState>(r.getU8());
    };

    loadBaseState(r);
    dev_.loadState(r);
    gen_.loadCounters(r);

    queue_.resize(r.getCount());
    for (RowOp& op : queue_)
        op = get_row_op();
    outstanding_.loadState(r);

    if (r.getCount() != opSlots_.size())
        fatal("rome checkpoint operate-FSM count mismatch");
    for (FsmSlot& s : opSlots_)
        get_slot(s);
    if (r.getCount() != refSlots_.size())
        fatal("rome checkpoint refresh-FSM count mismatch");
    for (FsmSlot& s : refSlots_)
        get_slot(s);
    opBusy_.loadState(r);
    refBusy_.loadState(r);
    if (r.getCount() != vbaBusyUntil_.size())
        fatal("rome checkpoint VBA count mismatch");
    for (Tick& t : vbaBusyUntil_)
        t = r.getI64();
    for (VbaState& s : vbaBusyState_)
        s = static_cast<VbaState>(r.getU8());

    lastRowCmdAt_ = r.getI64();
    lastRowCmdWasWrite_ = r.getBool();
    lastRowCmdSid_ = r.getI32();
    if (r.getBool()) {
        VbaAddress a;
        a.sid = r.getI32();
        a.vba = r.getI32();
        a.row = r.getI32();
        lastRowCmdVba_ = a;
    } else {
        lastRowCmdVba_.reset();
    }

    refresh_.interval = r.getI64();
    refresh_.due = r.getI64();
    refresh_.cursor = r.getI32();

    retryQ_.resize(r.getCount());
    for (PendingRetry& p : retryQ_) {
        p.op = get_row_op();
        p.readyAt = r.getI64();
    }
    nextRetryAt_ = r.getI64();

    overfetch_ = r.getU64();
    opHighWater_ = r.getI32();
    refHighWater_ = r.getI32();
    ffEpochs_ = r.getU64();
    ffSteps_ = r.getU64();

    // Memo learning state is not serialized: reset and re-learn. The
    // delta fast-forward only ever replays epochs confirmed after the
    // restore point, so all accounted state stays bit-identical.
    scrubEvents_.clear();
    memo_.reset();
    memoPopTag_.clear();
    memoNextTag_.clear();
    memoSim_.clear();
    memoBoundary_.clear();
    memoAdmitOps_.clear();
    memoScratchOps_.clear();
    memoBoundaryCount_ = 0;
}

} // namespace rome
