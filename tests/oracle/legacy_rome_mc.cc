#include "oracle/legacy_rome_mc.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

namespace
{

/** A derived queue depth buffers this many bytes of rows (§VI-C)... */
constexpr std::uint64_t kQueueBytes = 16 * 1024;
/** ...in at least this many entries. */
constexpr int kMinQueueDepth = 4;
/** Refresh FSMs cover the average refresh concurrency with this margin,
 *  and there are at least kMinRefreshFsms of them (§V-A). */
constexpr double kRefreshFsmMargin = 1.2;
constexpr int kMinRefreshFsms = 3;

} // namespace

LegacyRomeMc::LegacyRomeMc(const DramConfig& base, VbaDesign design,
                           RomeMcConfig cfg, RomeMapOrder map_order)
    : baseCfg_(base), map_(base.org, base.timing, design), cfg_(cfg),
      mapOrder_(map_order),
      dev_(map_.deviceOrganization(), map_.deviceTiming()),
      gen_(map_, dev_, CmdGenPlacement::LogicDie, !cfg.scalarLowering)
{
    const bool adopted = design.bankMode == VbaDesign::adopted().bankMode &&
                         design.pcMode == VbaDesign::adopted().pcMode;
    timing_ = adopted ? romeTableVTiming()
                      : deriveRomeTiming(base.timing, map_);
    if (cfg_.queueDepth == 0) {
        cfg_.queueDepth = std::max<int>(
            kMinQueueDepth,
            static_cast<int>(kQueueBytes / map_.effectiveRowBytes()));
    }
    if (cfg_.queueDepth < 1)
        fatal("RoMe queue depth must be positive");
    // Enough operating FSMs to cover one VBA's busy time at the
    // back-to-back row cadence.
    const auto operate_fsms = static_cast<std::size_t>(
        (timing_.tRDrow + timing_.tR2RS - 1) / timing_.tR2RS);
    totalVbas_ =
        map_.vbasPerSid() * map_.deviceOrganization().sidsPerChannel;
    refresh_.interval = base.timing.tREFIbank / totalVbas_;
    // One VBA refresh stall per interval on average.
    const VbaPlan& plan = map_.planRef(VbaAddress{0, 0, 0});
    const Tick stall = base.timing.tRFCpb +
                       (plan.banks.size() == 2 ? base.timing.tRREFD : 0);
    const double demand = static_cast<double>(stall) /
                          static_cast<double>(refresh_.interval);
    const int refresh_fsms = std::max(
        kMinRefreshFsms, static_cast<int>(demand * kRefreshFsmMargin) + 1);
    opSlots_.resize(operate_fsms);
    refSlots_.resize(static_cast<std::size_t>(refresh_fsms));
    // Fault domains are VBAs; one codeword covers a whole effective row.
    const int lines_per_row = static_cast<int>(map_.effectiveRowBytes() /
                                               baseCfg_.org.columnBytes);
    faults_.configure(cfg_.faults, totalVbas_, map_.rowsPerVba(),
                      lines_per_row, lines_per_row);
    initTelemetry(cfg_.telemetry, totalVbas_);
}

VbaAddress
LegacyRomeMc::decodeRow(std::uint64_t addr) const
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
LegacyRomeMc::admitOps()
{
    // One queue entry per effective row the request touches.
    const auto has_room = [&] {
        return queue_.size() + outstanding_.size() <
               static_cast<std::size_t>(cfg_.queueDepth);
    };
    if (!has_room())
        return false;
    const Request& req = host_.front();
    const std::uint64_t eff = map_.effectiveRowBytes();
    const std::uint64_t first = req.addr / eff;
    const std::uint64_t total = (req.addr + req.size - 1) / eff - first + 1;
    const int slot = frontSlot(total);
    do {
        const std::uint64_t chunk_lo = (first + frontChunk_) * eff;
        const std::uint64_t lo = std::max(chunk_lo, req.addr);
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
        // To the row's end or the request's, whichever comes first.
        op.usefulBytes =
            std::min(eff - (lo - chunk_lo), req.addr + req.size - lo);
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
LegacyRomeMc::vbaBusy(const VbaAddress& a, Tick at) const
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
LegacyRomeMc::busyCount(const std::vector<FsmSlot>& slots, Tick at) const
{
    int n = 0;
    for (const auto& s : slots)
        n += s.busyUntil != kTickInvalid && s.busyUntil > at;
    return n;
}

void
LegacyRomeMc::retireSlots(Tick at)
{
    for (auto* slots : {&opSlots_, &refSlots_}) {
        for (auto& s : *slots) {
            if (s.busyUntil != kTickInvalid && s.busyUntil <= at)
                s.state = VbaState::Idle;
        }
    }
}

VbaState
LegacyRomeMc::vbaState(const VbaAddress& a, Tick at) const
{
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
LegacyRomeMc::stepOnce(Tick until)
{
    dev_.setClock(now_);
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
            busyCount(refSlots_, now_) < static_cast<int>(refSlots_.size())) {
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
    const bool queue_full = queue_.size() + outstanding_.size() >=
                            static_cast<std::size_t>(cfg_.queueDepth);
    Tick next = kTickMax;
    if (!retryQ_.empty()) {
        // A retry re-enters once its backoff passed and the queue has
        // room; room only appears when an outstanding transfer ends.
        Tick retry_at = std::max(nextRetryAt_, now_ + 1);
        if (queue_full)
            retry_at = std::max(retry_at, outstanding_.firstAfter(now_));
        next = std::min(next, retry_at);
    }
    if (!host_.empty()) {
        Tick admit_at = std::max(host_.front().arrival, now_ + 1);
        if (queue_full) {
            // Admission is queue-bound: wake when the first entry frees.
            admit_at = std::max(admit_at, outstanding_.firstAfter(now_));
        }
        next = std::min(next, admit_at);
    }
    // A refresh that is already due but blocked wakes up when a slot
    // frees (covered by the busyUntil scan below).
    if (cfg_.refreshEnabled && refresh_.due > now_)
        next = std::min(next, refresh_.due);
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
// Reliability: one SEC-DED codeword per effective row, so each RD_row is
// one decode; a corrected error re-reads after a backoff, and a row that
// keeps correcting is spared and its op replayed there.
// ---------------------------------------------------------------------------

bool
LegacyRomeMc::deferForFault(const RowOp& op, Tick data_end, bool& poisoned)
{
    if (op.cmd.kind != RowCmdKind::RdRow)
        return false;
    const int vba = vbaKey(op.cmd.addr);
    const int nlines = static_cast<int>(map_.effectiveRowBytes() /
                                        baseCfg_.org.columnBytes);
    const EccVerdict v =
        faults_.classifyRead(vba, op.cmd.addr.row, 0, nlines);
    if (v != EccVerdict::CorrectedError) {
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
LegacyRomeMc::queueRetry(RowOp op, Tick ready_at)
{
    faults_.noteRetry();
    if (telemetryOn() && ready_at > now_)
        op.retryWait += ready_at - now_;
    if (sink_ != nullptr)
        sink_->instant("retry", TelemetrySink::kChannelTrack, now_);
    retryQ_.push_back(PendingRetry{op, ready_at});
    nextRetryAt_ = std::min(nextRetryAt_, ready_at);
}

void
LegacyRomeMc::pumpRetries()
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
LegacyRomeMc::runScrub()
{
    scrubEvents_.clear();
    faults_.scrub(scrubEvents_);
    for (const SpareEvent& ev : scrubEvents_)
        applySpare(ev);
}

void
LegacyRomeMc::applySpare(const SpareEvent& ev)
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

ControllerStats
LegacyRomeMc::stats() const
{
    ControllerStats s;
    fillBaseStats(s);
    s.overfetchBytes = overfetch_;
    // Only row-level commands cross the MC-HBM interface.
    s.interfaceCommands = gen_.rowCommandsAccepted();
    const Tick end = dev_.lastDataEnd();
    const auto per_ns = [end](std::uint64_t bytes) {
        return end == 0 ? 0.0
                        : static_cast<double>(bytes) / nsFromTicks(end);
    };
    s.achievedBandwidth = per_ns(bytesRead_ + bytesWritten_ + overfetch_);
    s.effectiveBandwidth = per_ns(bytesRead_ + bytesWritten_);
    return s;
}

} // namespace rome
