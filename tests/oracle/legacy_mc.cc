#include "oracle/legacy_mc.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

namespace
{

/** Candidate priorities (smaller = preferred among same-tick candidates). */
constexpr int kPrioForced = 0;   // aged ops / overdue refresh
constexpr int kPrioCasHit = 2;   // FR: ready column command to an open row
constexpr int kPrioAct = 3;
constexpr int kPrioPre = 4;
constexpr int kPrioIdlePre = 5;  // close/adaptive policy precharges
constexpr int kPrioRefresh = 6;  // opportunistic refresh

/** Refresh postponement bound before a refresh becomes forced (JEDEC: 8). */
constexpr int kRefreshForceAt = 8;
constexpr int kRefreshPendingCap = 9;

/** Write-drain hysteresis: start draining at this write-queue occupancy
 *  fraction, stop at the low one. */
constexpr double kWriteHighWatermark = 0.9;
constexpr double kWriteLowWatermark = 0.05;

/** Adaptive policy: precharge an idle open row after this long. */
constexpr Tick kAdaptiveIdleTimeout = ticksFromNs(std::int64_t{100});

/** Last activity of an open bank (adaptive idle-timeout reference). */
Tick
bankLastUse(const BankRecord& rec)
{
    return std::max(rec.lastAct, rec.lastCas == kTickInvalid ? rec.lastAct
                                                             : rec.lastCas);
}

} // namespace

LegacyConventionalMc::LegacyConventionalMc(const DramConfig& cfg,
                                           AddressMapping mapping,
                                           McConfig mc_cfg)
    : dramCfg_(cfg), map_(std::move(mapping)), cfg_(mc_cfg),
      dev_(cfg.org, cfg.timing)
{
    if (cfg_.readQueueDepth < 1 || cfg_.writeQueueDepth < 1)
        fatal("queue depths must be positive");
    // One SEC-DED codeword per 32 B line; fault domains are flat banks.
    faults_.configure(cfg_.faults, cfg.org.banksPerChannel(),
                      cfg.org.rowsPerBank,
                      static_cast<int>(cfg.org.columnsPerRow()), 1);
    if (cfg_.refreshEnabled) {
        const int units = cfg.org.pcsPerChannel * cfg.org.sidsPerChannel;
        const Tick interval = cfg.timing.tREFIbank / cfg.org.banksPerSid();
        for (int pc = 0; pc < cfg.org.pcsPerChannel; ++pc) {
            for (int sid = 0; sid < cfg.org.sidsPerChannel; ++sid) {
                RefreshUnit u;
                u.pc = pc;
                u.sid = sid;
                const int idx = pc * cfg.org.sidsPerChannel + sid;
                u.rot.interval = interval;
                u.rot.due = interval * idx / units;
                refreshUnits_.push_back(u);
            }
        }
    }
    const auto banks = static_cast<std::size_t>(cfg.org.banksPerChannel());
    cands_.reserve(static_cast<std::size_t>(cfg_.readQueueDepth +
                                            cfg_.writeQueueDepth) +
                   refreshUnits_.size() + banks);
    hasHit_.assign(banks, 0);
    actSeen_.assign(banks, 0);
    preSeen_.assign(banks, 0);
    initTelemetry(cfg_.telemetry, cfg.org.banksPerChannel());
}

bool
LegacyConventionalMc::admitOps()
{
    // One queue entry per admitted 32 B line.
    const Request& req = host_.front();
    const bool is_read = req.kind == ReqKind::Read;
    std::vector<Op>& q = is_read ? readQ_ : writeQ_;
    const auto& outstanding = is_read ? readOutstanding_ : writeOutstanding_;
    const auto depth = static_cast<std::size_t>(
        is_read ? cfg_.readQueueDepth : cfg_.writeQueueDepth);
    const std::size_t used = q.size() + outstanding.size();
    if (used >= depth)
        return false;
    const int shift = map_.columnShift();
    const std::uint64_t first_line = req.addr >> shift;
    const std::uint64_t total =
        ((req.addr + req.size - 1) >> shift) - first_line + 1;
    const int slot = frontSlot(total);
    const std::uint64_t end =
        frontChunk_ +
        std::min<std::uint64_t>(total - frontChunk_, depth - used);
    for (; frontChunk_ < end; ++frontChunk_) {
        DramAddress a = map_.decode((first_line + frontChunk_) << shift);
        if (faults_.enabled()) {
            // Spared rows are remapped at admission.
            a.row = faults_.remappedRow(flatBankIndex(dramCfg_.org, a), a.row);
        }
        q.push_back(Op{a, req.id, req.kind, req.arrival, slot, 0, 0,
                       req.linkDelay});
    }
    if (frontChunk_ == total) {
        host_.pop_front();
        frontChunk_ = 0;
        return true;
    }
    return false;
}

void
LegacyConventionalMc::updateWriteDrain()
{
    const auto w_occ = static_cast<double>(writeQ_.size());
    const auto w_depth = static_cast<double>(cfg_.writeQueueDepth);
    const bool forced = readQ_.empty() && !writeQ_.empty();
    if (!drainingWrites_) {
        if (w_occ >= kWriteHighWatermark * w_depth || forced)
            drainingWrites_ = true;
    } else if (w_occ <= kWriteLowWatermark * w_depth && !forced) {
        drainingWrites_ = false;
    }
}

void
LegacyConventionalMc::completeOp(const Op& op, Tick data_end)
{
    bool poisoned = false;
    if (faults_.enabled() && deferForFault(op, data_end, poisoned))
        return; // correctable error: the op completes on a later re-read
    if (op.kind == ReqKind::Read)
        bytesRead_ += dramCfg_.org.columnBytes;
    else
        bytesWritten_ += dramCfg_.org.columnBytes;
    if (op.slot < 0)
        noteSingleOpDone(op.reqId, op.arrival, data_end, poisoned,
                         op.retryWait, op.linkDelay);
    else
        noteOpDone(op.slot, data_end, poisoned, op.retryWait);
}

int
LegacyConventionalMc::pendingRefreshCount(const RefreshUnit& u) const
{
    return u.rot.pendingCount(now_, kRefreshPendingCap);
}

bool
LegacyConventionalMc::refreshBlocked(const DramAddress& a) const
{
    // ACTs to a bank with a forced refresh pending are held off so the bank
    // can reach Idle and the refresh can issue.
    for (const auto& u : refreshUnits_) {
        if (u.pc != a.pc || u.sid != a.sid)
            continue;
        if (pendingRefreshCount(u) < kRefreshForceAt)
            continue;
        const int bg = u.rot.cursor / dramCfg_.org.banksPerGroup;
        const int ba = u.rot.cursor % dramCfg_.org.banksPerGroup;
        if (bg == a.bg && ba == a.bank)
            return true;
    }
    return false;
}

Tick
LegacyConventionalMc::idleWakeTick(Tick adaptive_next) const
{
    // Nothing schedulable: jump to the next arrival, queue-entry release,
    // refresh due time, retry readiness or adaptive-timeout expiry.
    Tick next = adaptive_next;
    if (!host_.empty()) {
        Tick admit_at = std::max(host_.front().arrival, now_ + 1);
        const Tick first_free = std::min(readOutstanding_.firstAfter(now_),
                                         writeOutstanding_.firstAfter(now_));
        if (first_free != kTickMax)
            admit_at = std::min(admit_at, std::max(now_ + 1, first_free));
        next = std::min(next, admit_at);
    }
    for (const auto& u : refreshUnits_) {
        if (now_ < u.rot.due)
            next = std::min(next, u.rot.due);
    }
    if (nextRetryAt_ != kTickMax)
        next = std::min(next, std::max(nextRetryAt_, now_ + 1));
    return next;
}

void
LegacyConventionalMc::collectRefreshCandidates()
{
    for (std::size_t i = 0; i < refreshUnits_.size(); ++i) {
        const RefreshUnit& u = refreshUnits_[i];
        const int pending = pendingRefreshCount(u);
        if (pending == 0)
            continue;
        DramAddress a;
        a.pc = u.pc;
        a.sid = u.sid;
        a.bg = u.rot.cursor / dramCfg_.org.banksPerGroup;
        a.bank = u.rot.cursor % dramCfg_.org.banksPerGroup;

        const bool forced = pending >= kRefreshForceAt;
        if (!forced) {
            // Postpone while the target bank has queued work.
            const auto targets_bank = [&](const Op& op) {
                return op.addr.sameBank(a);
            };
            if (std::any_of(readQ_.begin(), readQ_.end(), targets_bank) ||
                std::any_of(writeQ_.begin(), writeQ_.end(), targets_bank)) {
                continue;
            }
        }

        Candidate c;
        c.isRefresh = true;
        c.refreshUnit = static_cast<int>(i);
        c.priority = forced ? kPrioForced : kPrioRefresh;
        c.age = u.rot.due; // most-overdue first among refresh ties
        if (dev_.bankRecord(a).open()) {
            a.row = dev_.openRow(a);
            c.cmd = Command{CmdKind::Pre, a};
        } else {
            c.cmd = Command{CmdKind::RefPb, a};
        }
        c.earliest = dev_.earliestIssue(c.cmd, now_);
        if (c.earliest != kTickMax)
            cands_.push_back(c);
    }
}

void
LegacyConventionalMc::collectOpCandidates()
{
    // Per bank: does any queued op hit the open row?
    std::fill(hasHit_.begin(), hasHit_.end(), 0);
    std::fill(actSeen_.begin(), actSeen_.end(), 0);
    std::fill(preSeen_.begin(), preSeen_.end(), 0);
    const auto scan = [&](const std::vector<Op>& q) {
        for (const Op& op : q) {
            const BankRecord& rec = dev_.bankRecord(op.addr);
            if (rec.open() && rec.openRow == op.addr.row)
                hasHit_[static_cast<std::size_t>(
                    flatBankIndex(dramCfg_.org, op.addr))] = 1;
        }
    };
    scan(readQ_);
    if (drainingWrites_)
        scan(writeQ_);

    const auto consider = [&](const std::vector<Op>& q, bool is_write) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Op& op = q[i];
            if (refreshBlocked(op.addr))
                continue;
            const BankRecord& rec = dev_.bankRecord(op.addr);
            const auto bank = static_cast<std::size_t>(
                flatBankIndex(dramCfg_.org, op.addr));
            const bool aged = now_ - op.arrival > cfg_.agePriorityThreshold;

            Candidate c;
            c.age = op.arrival;
            c.opIndex = static_cast<int>(i);
            c.isWrite = is_write;
            if (rec.open() && rec.openRow == op.addr.row) {
                c.cmd = Command{is_write ? CmdKind::Wr : CmdKind::Rd,
                                op.addr};
                c.priority = aged ? kPrioForced : kPrioCasHit;
            } else if (!rec.open()) {
                if (actSeen_[bank])
                    continue; // one ACT per bank
                actSeen_[bank] = 1;
                c.cmd = Command{CmdKind::Act, op.addr};
                c.priority = aged ? kPrioForced : kPrioAct;
                c.opIndex = -1;
            } else {
                // Conflict: precharge only when no queued op still hits the
                // open row, unless the conflicting op is aged (QoS).
                if (hasHit_[bank] && !aged)
                    continue;
                if (preSeen_[bank])
                    continue; // one PRE per bank
                preSeen_[bank] = 1;
                DramAddress a = op.addr;
                a.row = rec.openRow;
                c.cmd = Command{CmdKind::Pre, a};
                c.priority = aged ? kPrioForced : kPrioPre;
                c.opIndex = -1;
            }
            c.earliest = dev_.earliestIssue(c.cmd, now_);
            if (c.earliest != kTickMax)
                cands_.push_back(c);
        }
    };
    consider(readQ_, false);
    if (drainingWrites_)
        consider(writeQ_, true);

    // Close/adaptive page policies: precharge open rows with no pending hit.
    if (cfg_.pagePolicy == PagePolicy::Open)
        return;
    const Organization& org = dramCfg_.org;
    for (int pc = 0; pc < org.pcsPerChannel; ++pc) {
        for (int sid = 0; sid < org.sidsPerChannel; ++sid) {
            for (int bg = 0; bg < org.bankGroupsPerSid; ++bg) {
                for (int ba = 0; ba < org.banksPerGroup; ++ba) {
                    DramAddress a{pc, sid, bg, ba, 0, 0};
                    const BankRecord& rec = dev_.bankRecord(a);
                    if (!rec.open())
                        continue;
                    const auto bank =
                        static_cast<std::size_t>(flatBankIndex(org, a));
                    if (hasHit_[bank])
                        continue;
                    if (cfg_.pagePolicy == PagePolicy::Adaptive &&
                        now_ - bankLastUse(rec) < kAdaptiveIdleTimeout) {
                        continue;
                    }
                    if (preSeen_[bank])
                        continue;
                    preSeen_[bank] = 1;
                    a.row = rec.openRow;
                    Candidate c;
                    c.cmd = Command{CmdKind::Pre, a};
                    c.priority = kPrioIdlePre;
                    c.age = 0;
                    c.earliest = dev_.earliestIssue(c.cmd, now_);
                    if (c.earliest != kTickMax)
                        cands_.push_back(c);
                }
            }
        }
    }
}

bool
LegacyConventionalMc::stepOnce(Tick until)
{
    dev_.setClock(now_);
    readOutstanding_.release(now_);
    writeOutstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries(); // before admission: retries compete for queue space
    pumpArrivals();
    updateWriteDrain();

    cands_.clear();
    collectRefreshCandidates();
    collectOpCandidates();

    if (cands_.empty()) {
        Tick adaptive_next = kTickMax;
        if (cfg_.pagePolicy == PagePolicy::Adaptive) {
            for (int b = 0; b < dramCfg_.org.banksPerChannel(); ++b) {
                const BankRecord& rec = dev_.bankRecord(b);
                if (!rec.open())
                    continue;
                adaptive_next = std::min(
                    adaptive_next,
                    std::max(now_ + 1,
                             bankLastUse(rec) + kAdaptiveIdleTimeout));
            }
        }
        const Tick next = idleWakeTick(adaptive_next);
        if (next == kTickMax || next > until) {
            // now_ stays on its last event tick (slice invariance).
            return false;
        }
        now_ = next;
        return true;
    }

    const Candidate* best = nullptr;
    for (const Candidate& c : cands_) {
        if (!best || c.earliest < best->earliest ||
            (c.earliest == best->earliest &&
             (c.priority < best->priority ||
              (c.priority == best->priority && c.age < best->age)))) {
            best = &c;
        }
    }

    if (best->earliest > until) {
        // Retried verbatim from the same event tick by the next call.
        return false;
    }

    now_ = best->earliest;
    const auto res = dev_.issue(best->cmd, now_);

    if (best->isRefresh) {
        if (best->cmd.kind == CmdKind::RefPb) {
            RefreshUnit& u =
                refreshUnits_[static_cast<std::size_t>(best->refreshUnit)];
            u.rot.advance(dramCfg_.org.banksPerSid());
            if (faults_.enabled())
                runScrub(); // patrol scrub rides the refresh calendar
        }
    } else if (best->cmd.kind == CmdKind::Rd ||
               best->cmd.kind == CmdKind::Wr) {
        auto& queue = best->isWrite ? writeQ_ : readQ_;
        const Op op = queue[static_cast<std::size_t>(best->opIndex)];
        queue.erase(queue.begin() + best->opIndex);
        (best->isWrite ? writeOutstanding_ : readOutstanding_)
            .push(res.dataUntil);
        ++casIssued_;
        completeOp(op, res.dataUntil);
    }
    return true;
}

// ---------------------------------------------------------------------------
// Reliability: per-CAS ECC classification, retry, scrub, row sparing
// ---------------------------------------------------------------------------

bool
LegacyConventionalMc::deferForFault(const Op& op, Tick data_end,
                                    bool& poisoned)
{
    // Writes carry no read data to check; a DUE delivers poisoned data.
    if (op.kind != ReqKind::Read)
        return false;
    const int bank = flatBankIndex(dramCfg_.org, op.addr);
    const EccVerdict v =
        faults_.classifyRead(bank, op.addr.row, op.addr.col, 1);
    if (v != EccVerdict::CorrectedError) {
        poisoned = v == EccVerdict::UncorrectableError;
        if (poisoned && sink_ != nullptr)
            sink_->instant("due", bank, data_end);
        return false;
    }
    if (op.attempt < faults_.config().retryLimit) {
        Op retry = op;
        ++retry.attempt;
        queueRetry(retry, faults_.retryReadyAt(data_end, op.attempt));
        return true;
    }
    // A persistent CE strikes the row; past the threshold the row moves
    // to a spare and the op replays there.
    if (faults_.noteCorrectable(bank, op.addr.row)) {
        const SpareEvent ev = faults_.spareRow(bank, op.addr.row);
        if (ev.newRow >= 0) {
            applySpare(ev);
            Op replay = op;
            replay.addr.row = ev.newRow;
            replay.attempt = 0;
            queueRetry(replay, faults_.retryReadyAt(data_end, 0));
            return true;
        }
    }
    return false; // no spare left: deliver the corrected data as-is
}

void
LegacyConventionalMc::queueRetry(Op op, Tick ready_at)
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
LegacyConventionalMc::pumpRetries()
{
    if (retryQ_.empty())
        return;
    const auto depth = static_cast<std::size_t>(cfg_.readQueueDepth);
    Tick next = kTickMax;
    std::size_t w = 0;
    for (std::size_t i = 0; i < retryQ_.size(); ++i) {
        const PendingRetry r = retryQ_[i];
        // A full read queue keeps the entry pending; the queue drains
        // every step, so that case needs no wake-up of its own.
        if (r.readyAt <= now_ &&
            readQ_.size() + readOutstanding_.size() < depth) {
            readQ_.push_back(r.op);
            continue;
        }
        next = std::min(next, std::max(r.readyAt, now_ + 1));
        retryQ_[w++] = r;
    }
    retryQ_.resize(w);
    nextRetryAt_ = next;
}

void
LegacyConventionalMc::runScrub()
{
    scrubEvents_.clear();
    faults_.scrub(scrubEvents_);
    for (const SpareEvent& ev : scrubEvents_)
        applySpare(ev);
}

void
LegacyConventionalMc::applySpare(const SpareEvent& ev)
{
    if (sink_ != nullptr)
        sink_->instant("spare", ev.bank, now_);
    const auto rewrite = [&](Op& op) {
        if (op.addr.row == ev.oldRow &&
            flatBankIndex(dramCfg_.org, op.addr) == ev.bank)
            op.addr.row = ev.newRow;
    };
    for (Op& op : readQ_)
        rewrite(op);
    for (Op& op : writeQ_)
        rewrite(op);
    for (PendingRetry& r : retryQ_)
        rewrite(r.op);
}

ControllerStats
LegacyConventionalMc::stats() const
{
    ControllerStats s;
    fillBaseStats(s);
    s.interfaceCommands = s.rowCmds + s.colCmds;
    const Tick end = dev_.lastDataEnd();
    s.achievedBandwidth =
        end == 0 ? 0.0
                 : static_cast<double>(bytesRead_ + bytesWritten_) /
                       nsFromTicks(end);
    s.effectiveBandwidth = s.achievedBandwidth;
    // Every CAS either hit an already-open row or required an ACT first.
    const auto acts = dev_.counters().acts.value();
    s.rowHitRate = casIssued_ == 0 || acts >= casIssued_
                       ? 0.0
                       : 1.0 - static_cast<double>(acts) /
                                   static_cast<double>(casIssued_);
    return s;
}

} // namespace rome
