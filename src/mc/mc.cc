#include "mc/mc.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

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

/** Candidate tie-break categories, in legacy collection order. */
constexpr int kRankRefresh = 0;
constexpr int kRankReadOp = 1;
constexpr int kRankWriteOp = 2;
constexpr int kRankIdlePre = 3;

/** Last activity of an open bank (adaptive idle-timeout reference). */
Tick
bankLastUse(const BankRecord& rec)
{
    return std::max(rec.lastAct, rec.lastCas == kTickInvalid ? rec.lastAct
                                                             : rec.lastCas);
}

} // namespace

ConventionalMc::ConventionalMc(const DramConfig& cfg, AddressMapping mapping,
                               McConfig mc_cfg)
    : dramCfg_(cfg), map_(std::move(mapping)), cfg_(mc_cfg),
      dev_(cfg.org, cfg.timing)
{
    if (cfg_.readQueueDepth < 1 || cfg_.writeQueueDepth < 1)
        fatal("queue depths must be positive");
#if !ROME_ORACLES
    if (cfg_.legacyScheduler)
        fatal("McConfig::legacyScheduler is a test-only oracle compiled "
              "out of this build — reconfigure with -DROME_ORACLES=ON");
#endif
    // One SEC-DED codeword per 32 B line: every read CAS is classified
    // as exactly one codeword. Fault domains are flat bank indices.
    faults_.configure(cfg_.faults, cfg.org.banksPerChannel(),
                      cfg.org.rowsPerBank,
                      static_cast<int>(cfg.org.columnsPerRow()), 1);
    if (cfg_.refreshEnabled) {
        const int units = cfg.org.pcsPerChannel * cfg.org.sidsPerChannel;
        const Tick interval =
            cfg.timing.tREFIbank / cfg.org.banksPerSid();
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
    if (!cfg_.legacyScheduler) {
        const int nbanks = cfg.org.banksPerChannel();
        bankIx_.resize(static_cast<std::size_t>(nbanks));
        for (int b = 0; b < nbanks; ++b) {
            DramAddress a; // inverse of flatBankIndex (PC-major)
            int idx = b;
            a.bank = idx % cfg.org.banksPerGroup;
            idx /= cfg.org.banksPerGroup;
            a.bg = idx % cfg.org.bankGroupsPerSid;
            idx /= cfg.org.bankGroupsPerSid;
            a.sid = idx % cfg.org.sidsPerChannel;
            idx /= cfg.org.sidsPerChannel;
            a.pc = idx;
            bankIx_[static_cast<std::size_t>(b)].addr = a;
        }
        const auto cap = static_cast<std::size_t>(cfg_.readQueueDepth +
                                                  cfg_.writeQueueDepth);
        pool_.reserve(cap);
        freeNodes_.reserve(cap);
        activeBanks_.reserve(static_cast<std::size_t>(nbanks));
        openBanks_.reserve(static_cast<std::size_t>(nbanks));
        unitForcedBank_.assign(refreshUnits_.size(), -1);
    }
    initTelemetry(cfg_.telemetry, cfg.org.banksPerChannel());
}

void
ConventionalMc::installCommandTrace()
{
    // Every committed command becomes one span on its bank's track: CAS
    // spans cover the data burst, row/refresh commands the bank-busy
    // window. Commands commit only on event ticks, so the recorded
    // timeline is the literal per-command schedule regardless of slicing.
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
                              : flatBankIndex(dramCfg_.org, cmd.addr);
        sink_->span(name, track, when, end > when ? end - when : 0);
    });
}

int
ConventionalMc::pendingRefreshCount(const RefreshUnit& u) const
{
    return u.rot.pendingCount(now_, kRefreshPendingCap);
}

bool
ConventionalMc::refreshBlocked(const DramAddress& a) const
{
    // ACTs to a bank with a forced refresh pending are held off so the bank
    // can reach Idle and the refresh can issue.
    if (!cfg_.refreshEnabled)
        return false;
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

std::size_t
ConventionalMc::readQueueSize() const
{
    return cfg_.legacyScheduler ? readQ_.size()
                                : static_cast<std::size_t>(readCount_);
}

std::size_t
ConventionalMc::writeQueueSize() const
{
    return cfg_.legacyScheduler ? writeQ_.size()
                                : static_cast<std::size_t>(writeCount_);
}

bool
ConventionalMc::admitOps()
{
    Request& req = host_.front();
    const bool is_read = req.kind == ReqKind::Read;
    const auto& outstanding = is_read ? readOutstanding_ : writeOutstanding_;
    const auto depth = static_cast<std::size_t>(
        is_read ? cfg_.readQueueDepth : cfg_.writeQueueDepth);
    const std::uint64_t col = dramCfg_.org.columnBytes;
    const std::uint64_t first_line = req.addr / col;
    const std::uint64_t last_line = (req.addr + req.size - 1) / col;
    const std::uint64_t total = last_line - first_line + 1;

    const auto queued = [&] {
        return is_read ? readQueueSize() : writeQueueSize();
    };
    while (frontChunk_ < total && queued() + outstanding.size() < depth) {
        const std::uint64_t line = first_line + frontChunk_;
        Op op{map_.decode(line * col), req.id, req.kind, req.arrival,
              total == 1};
        op.linkDelay = req.linkDelay;
        if (faults_.enabled()) {
            // Spared rows are remapped at admission so every queued op
            // carries the physical row it will access.
            op.addr.row = faults_.remappedRow(
                flatBankIndex(dramCfg_.org, op.addr), op.addr.row);
        }
        if (cfg_.legacyScheduler)
            (is_read ? readQ_ : writeQ_).push_back(op);
        else
            insertOpIndexed(op);
        ++frontChunk_;
    }
    if (frontChunk_ == total) {
        host_.pop_front();
        frontChunk_ = 0;
        return true;
    }
    return false;
}

void
ConventionalMc::updateWriteDrain()
{
    // Write-drain hysteresis.
    const auto w_occ = static_cast<double>(writeQueueSize());
    const auto w_depth = static_cast<double>(cfg_.writeQueueDepth);
    const bool forced = readQueueSize() == 0 && writeQueueSize() != 0;
    if (!drainingWrites_) {
        if (w_occ >= cfg_.writeHighWatermark * w_depth || forced)
            drainingWrites_ = true;
    } else if (w_occ <= cfg_.writeLowWatermark * w_depth && !forced) {
        drainingWrites_ = false;
    }
}

void
ConventionalMc::completeOp(const Op& op, Tick data_end)
{
    bool poisoned = false;
    if (faults_.enabled() && deferForFault(op, data_end, poisoned))
        return; // correctable error: the op completes on a later re-read
    if (op.kind == ReqKind::Read)
        bytesRead_ += dramCfg_.org.columnBytes;
    else
        bytesWritten_ += dramCfg_.org.columnBytes;
    // completeOp runs at the CAS issue tick, so now_ is the breakdown's
    // first-issue time.
    if (op.singleOp)
        noteSingleOpDone(op.reqId, op.arrival, data_end, poisoned,
                         op.retryWait, op.linkDelay);
    else
        noteOpDone(op.reqId, data_end, poisoned, op.retryWait);
}

// ---------------------------------------------------------------------------
// Reliability: per-CAS ECC classification, retry, scrub, row sparing
// ---------------------------------------------------------------------------

bool
ConventionalMc::deferForFault(const Op& op, Tick data_end, bool& poisoned)
{
    // Writes carry no read data to check; DUEs deliver poisoned data
    // immediately (retrying an uncorrectable pattern cannot help — the
    // injector already accounted the event), flagged so the completion
    // carries the poison bit up to the serving layer.
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
    // Retry budget exhausted: this is a persistent CE. Strike the row;
    // past the threshold remap it to a spare and replay the op there —
    // the request completes late instead of looping forever.
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
ConventionalMc::queueRetry(Op op, Tick ready_at)
{
    faults_.noteRetry();
    // The op re-enters the queue no earlier than ready_at; everything
    // between the (re)issue decision and that point is retry backoff,
    // subtracted from the request's queueing component.
    if (telemetryOn() && ready_at > now_)
        op.retryWait += ready_at - now_;
    if (sink_ != nullptr)
        sink_->instant("retry", TelemetrySink::kChannelTrack, now_);
    retryQ_.push_back(PendingRetry{op, ready_at});
    nextRetryAt_ = std::min(nextRetryAt_, ready_at);
}

void
ConventionalMc::pumpRetries()
{
    if (retryQ_.empty())
        return;
    const auto depth = static_cast<std::size_t>(cfg_.readQueueDepth);
    Tick next = kTickMax;
    std::size_t w = 0;
    for (std::size_t i = 0; i < retryQ_.size(); ++i) {
        PendingRetry r = retryQ_[i];
        // Re-admission respects the read queue depth; a full queue keeps
        // the entry pending (the queue drains every step, so no wake-up
        // bookkeeping is needed for that case).
        if (r.readyAt <= now_ &&
            readQueueSize() + readOutstanding_.size() < depth) {
            if (cfg_.legacyScheduler)
                readQ_.push_back(r.op);
            else
                insertOpIndexed(r.op);
            continue;
        }
        next = std::min(next, std::max(r.readyAt, now_ + 1));
        retryQ_[w++] = r;
    }
    retryQ_.resize(w);
    nextRetryAt_ = next;
}

void
ConventionalMc::runScrub()
{
    scrubEvents_.clear();
    faults_.scrub(scrubEvents_);
    for (const SpareEvent& ev : scrubEvents_)
        applySpare(ev);
}

void
ConventionalMc::applySpare(const SpareEvent& ev)
{
    if (sink_ != nullptr)
        sink_->instant("spare", ev.bank, now_);
    const auto rewrite = [&](Op& op) {
        if (op.addr.row == ev.oldRow &&
            flatBankIndex(dramCfg_.org, op.addr) == ev.bank)
            op.addr.row = ev.newRow;
    };
    if (cfg_.legacyScheduler) {
        for (Op& op : readQ_)
            rewrite(op);
        for (Op& op : writeQ_)
            rewrite(op);
    } else {
        BankEntry& e = bankIx_[static_cast<std::size_t>(ev.bank)];
        for (BankList* l : {&e.read, &e.write}) {
            for (int i = l->head; i != -1;
                 i = pool_[static_cast<std::size_t>(i)].next) {
                rewrite(pool_[static_cast<std::size_t>(i)].op);
            }
        }
        // Row identities in the bank changed: hit summaries are stale.
        reindexBankRow(ev.bank);
    }
    for (PendingRetry& r : retryQ_)
        rewrite(r.op);
}

Tick
ConventionalMc::idleWakeTick(Tick adaptive_next) const
{
    // Nothing schedulable: jump to the next arrival, queue-entry release,
    // refresh due time, or the caller-provided adaptive-timeout expiry.
    Tick next = adaptive_next;
    if (!host_.empty()) {
        Tick admit_at = std::max(host_.front().arrival, now_ + 1);
        Tick first_free = std::min(readOutstanding_.firstFreeAfter(now_),
                                   writeOutstanding_.firstFreeAfter(now_));
        if (first_free != kTickMax)
            admit_at = std::min(admit_at, std::max(now_ + 1, first_free));
        next = std::min(next, admit_at);
    }
    for (const auto& u : refreshUnits_) {
        if (pendingRefreshCount(u) == 0)
            next = std::min(next, u.rot.due);
    }
    if (nextRetryAt_ != kTickMax)
        next = std::min(next, std::max(nextRetryAt_, now_ + 1));
    return next;
}

bool
ConventionalMc::stepOnce(Tick until)
{
    return cfg_.legacyScheduler ? stepOnceLegacy(until)
                                : stepOnceIndexed(until);
}

// ---------------------------------------------------------------------------
// Indexed scheduler
// ---------------------------------------------------------------------------

bool
ConventionalMc::candBeats(const Candidate& a, const Candidate& b)
{
    if (a.earliest != b.earliest)
        return a.earliest < b.earliest;
    return candRankLess(a, b);
}

bool
ConventionalMc::candRankLess(const Candidate& a, const Candidate& b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    if (a.age != b.age)
        return a.age < b.age;
    if (a.rankCat != b.rankCat)
        return a.rankCat < b.rankCat;
    return a.rankIdx < b.rankIdx;
}

void
ConventionalMc::insertOpIndexed(Op op)
{
    int node;
    if (!freeNodes_.empty()) {
        node = freeNodes_.back();
        freeNodes_.pop_back();
    } else {
        node = static_cast<int>(pool_.size());
        pool_.emplace_back();
    }
    OpNode& n = pool_[static_cast<std::size_t>(node)];
    n.op = op;
    n.seq = admitSeq_++;
    n.bank = flatBankIndex(dramCfg_.org, op.addr);
    n.prev = n.next = -1;

    BankEntry& e = bankIx_[static_cast<std::size_t>(n.bank)];
    const bool is_write = op.kind == ReqKind::Write;
    BankList& l = is_write ? e.write : e.read;
    if (l.tail == -1) {
        l.head = l.tail = node;
    } else {
        pool_[static_cast<std::size_t>(l.tail)].next = node;
        n.prev = l.tail;
        l.tail = node;
    }
    ++l.count;
    if (is_write)
        ++writeCount_;
    else
        ++readCount_;
    if (e.activePos == -1) {
        e.activePos = static_cast<int>(activeBanks_.size());
        activeBanks_.push_back(n.bank);
    }

    const BankRecord& rec = dev_.bankRecord(n.bank);
    if (rec.open() && rec.openRow == op.addr.row) {
        ++l.hitCount;
        if (l.hitRep == kRepNone ||
            (l.hitRep >= 0 &&
             op.arrival <
                 pool_[static_cast<std::size_t>(l.hitRep)].op.arrival)) {
            l.hitRep = node; // new seq is larger, so ties keep the old rep
        }
    }
    if (op.arrival < l.minArrivalLb)
        l.minArrivalLb = op.arrival;
}

void
ConventionalMc::removeOpIndexed(int node)
{
    OpNode& n = pool_[static_cast<std::size_t>(node)];
    BankEntry& e = bankIx_[static_cast<std::size_t>(n.bank)];
    const bool is_write = n.op.kind == ReqKind::Write;
    BankList& l = is_write ? e.write : e.read;

    if (n.prev != -1)
        pool_[static_cast<std::size_t>(n.prev)].next = n.next;
    else
        l.head = n.next;
    if (n.next != -1)
        pool_[static_cast<std::size_t>(n.next)].prev = n.prev;
    else
        l.tail = n.prev;
    --l.count;
    if (is_write)
        --writeCount_;
    else
        --readCount_;

    const BankRecord& rec = dev_.bankRecord(n.bank);
    if (rec.open() && rec.openRow == n.op.addr.row)
        --l.hitCount;
    if (l.count == 0) {
        l.hitRep = kRepNone;
        l.minArrivalLb = kTickMax;
    } else if (l.hitRep == node) {
        l.hitRep = l.hitCount == 0 ? kRepNone : kRepUnknown;
    }

    if (e.read.count == 0 && e.write.count == 0) {
        const int last = activeBanks_.back();
        activeBanks_[static_cast<std::size_t>(e.activePos)] = last;
        bankIx_[static_cast<std::size_t>(last)].activePos = e.activePos;
        activeBanks_.pop_back();
        e.activePos = -1;
    }
    freeNodes_.push_back(node);
}

void
ConventionalMc::rescanList(BankList& l, int open_row)
{
    l.hitCount = 0;
    l.hitRep = kRepNone;
    Tick min_arr = kTickMax;
    for (int i = l.head; i != -1;
         i = pool_[static_cast<std::size_t>(i)].next) {
        const OpNode& n = pool_[static_cast<std::size_t>(i)];
        min_arr = std::min(min_arr, n.op.arrival);
        if (open_row >= 0 && n.op.addr.row == open_row) {
            ++l.hitCount;
            if (l.hitRep == kRepNone ||
                n.op.arrival <
                    pool_[static_cast<std::size_t>(l.hitRep)].op.arrival) {
                l.hitRep = i; // walk is in seq order: ties keep the first
            }
        }
    }
    l.minArrivalLb = min_arr;
}

void
ConventionalMc::reindexBankRow(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    const BankRecord& rec = dev_.bankRecord(bank);
    const int open_row = rec.open() ? rec.openRow : -1;
    rescanList(e.read, open_row);
    rescanList(e.write, open_row);
}

int
ConventionalMc::resolveHitRep(BankList& l, int open_row)
{
    if (l.hitRep != kRepUnknown)
        return l.hitRep;
    rescanList(l, open_row);
    return l.hitRep;
}

int
ConventionalMc::agedConflictRep(const BankEntry& e, bool any_write,
                                int open_row, bool& rep_is_write)
{
    const Tick thr = cfg_.agePriorityThreshold;
    if (e.read.count > 0 && now_ - e.read.minArrivalLb > thr) {
        for (int i = e.read.head; i != -1;
             i = pool_[static_cast<std::size_t>(i)].next) {
            const OpNode& n = pool_[static_cast<std::size_t>(i)];
            if (now_ - n.op.arrival > thr && n.op.addr.row != open_row) {
                rep_is_write = false;
                return i;
            }
        }
    }
    if (any_write && e.write.count > 0 &&
        now_ - e.write.minArrivalLb > thr) {
        for (int i = e.write.head; i != -1;
             i = pool_[static_cast<std::size_t>(i)].next) {
            const OpNode& n = pool_[static_cast<std::size_t>(i)];
            if (now_ - n.op.arrival > thr && n.op.addr.row != open_row) {
                rep_is_write = true;
                return i;
            }
        }
    }
    return -1;
}

void
ConventionalMc::noteBankOpened(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    if (e.openPos != -1)
        return;
    e.openPos = static_cast<int>(openBanks_.size());
    openBanks_.push_back(bank);
}

void
ConventionalMc::noteBankClosed(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    if (e.openPos == -1)
        return;
    const int last = openBanks_.back();
    openBanks_[static_cast<std::size_t>(e.openPos)] = last;
    bankIx_[static_cast<std::size_t>(last)].openPos = e.openPos;
    openBanks_.pop_back();
    e.openPos = -1;
}

void
ConventionalMc::applyRowCommand(const Command& cmd)
{
    const int bank = flatBankIndex(dramCfg_.org, cmd.addr);
    if (cmd.kind == CmdKind::Act)
        noteBankOpened(bank);
    else if (cmd.kind == CmdKind::Pre)
        noteBankClosed(bank);
    reindexBankRow(bank);
}

bool
ConventionalMc::stepOnceIndexed(Tick until)
{
    readOutstanding_.release(now_);
    writeOutstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries(); // before admission: retries compete for queue space
    pumpArrivals();
    updateWriteDrain();

    ++stepStamp_;
    Candidate best;
    bool have_best = false;
    // Probe pruning: a candidate whose cheap lower bound (floor) cannot
    // strictly beat the running best — and whose tie-break key loses on an
    // exact tie — is discarded without the exact earliestIssue probe.
    const auto consider = [&](Candidate& c) {
        if (have_best) {
            if (c.floor > best.earliest)
                return;
            if (c.floor == best.earliest && candRankLess(best, c))
                return;
        }
        c.earliest = dev_.earliestIssue(c.cmd, now_);
        if (c.earliest == kTickMax)
            return;
        if (!have_best || candBeats(c, best)) {
            best = c;
            have_best = true;
        }
    };

    // --- refresh candidates + the per-step forced-block table -----------
    if (cfg_.refreshEnabled) {
        for (std::size_t i = 0; i < refreshUnits_.size(); ++i) {
            const RefreshUnit& u = refreshUnits_[i];
            unitForcedBank_[i] = -1;
            const int pending = pendingRefreshCount(u);
            if (pending == 0)
                continue;
            DramAddress a;
            a.pc = u.pc;
            a.sid = u.sid;
            a.bg = u.rot.cursor / dramCfg_.org.banksPerGroup;
            a.bank = u.rot.cursor % dramCfg_.org.banksPerGroup;
            const int bank = flatBankIndex(dramCfg_.org, a);
            const BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
            const bool forced = pending >= kRefreshForceAt;
            if (forced) {
                unitForcedBank_[i] = bank;
            } else if (e.read.count + e.write.count > 0) {
                continue; // postpone while the target bank has queued work
            }
            Candidate c;
            c.isRefresh = true;
            c.refreshUnit = static_cast<int>(i);
            c.priority = forced ? kPrioForced : kPrioRefresh;
            c.age = u.rot.due; // most-overdue first among refresh ties
            c.rankCat = kRankRefresh;
            c.rankIdx = i;
            if (dev_.bankRecord(a).open()) {
                a.row = dev_.openRow(a);
                c.cmd = Command{CmdKind::Pre, a};
                c.floor = dev_.preFloor(a, now_);
            } else {
                c.cmd = Command{CmdKind::RefPb, a};
                c.floor = dev_.refPbFloor(a, now_);
            }
            consider(c);
        }
    }

    // --- op candidates: one walk over the banks that have work ----------
    const bool draining = drainingWrites_;
    const Tick thr = cfg_.agePriorityThreshold;
    for (const int b : activeBanks_) {
        BankEntry& e = bankIx_[static_cast<std::size_t>(b)];
        const bool any_read = e.read.count > 0;
        const bool any_write = draining && e.write.count > 0;
        if (!any_read && !any_write)
            continue;
        if (cfg_.refreshEnabled &&
            unitForcedBank_[static_cast<std::size_t>(
                b / dramCfg_.org.banksPerSid())] == b) {
            continue; // bank held for a forced refresh
        }
        const BankRecord& rec = dev_.bankRecord(b);
        if (!rec.open()) {
            // One structural ACT candidate: the first queued op (in
            // read-then-write admission order) supplies row and age.
            const int node = any_read ? e.read.head : e.write.head;
            const OpNode& n = pool_[static_cast<std::size_t>(node)];
            Candidate c;
            c.cmd = Command{CmdKind::Act, n.op.addr};
            c.priority =
                now_ - n.op.arrival > thr ? kPrioForced : kPrioAct;
            c.age = n.op.arrival;
            c.rankCat = any_read ? kRankReadOp : kRankWriteOp;
            c.rankIdx = n.seq;
            c.floor = dev_.actFloor(n.op.addr.pc, n.op.addr.sid, now_);
            consider(c);
            continue;
        }

        const bool has_hit =
            e.read.hitCount > 0 || (draining && e.write.hitCount > 0);
        if (any_read && e.read.hitCount > 0) {
            const int rep = resolveHitRep(e.read, rec.openRow);
            const OpNode& n = pool_[static_cast<std::size_t>(rep)];
            Candidate c;
            c.cmd = Command{CmdKind::Rd, n.op.addr};
            c.priority =
                now_ - n.op.arrival > thr ? kPrioForced : kPrioCasHit;
            c.age = n.op.arrival;
            c.opIndex = rep;
            c.isWrite = false;
            c.rankCat = kRankReadOp;
            c.rankIdx = n.seq;
            c.floor = dev_.casFloor(n.op.addr.pc, now_);
            consider(c);
        }
        if (any_write && e.write.hitCount > 0) {
            const int rep = resolveHitRep(e.write, rec.openRow);
            const OpNode& n = pool_[static_cast<std::size_t>(rep)];
            Candidate c;
            c.cmd = Command{CmdKind::Wr, n.op.addr};
            c.priority =
                now_ - n.op.arrival > thr ? kPrioForced : kPrioCasHit;
            c.age = n.op.arrival;
            c.opIndex = rep;
            c.isWrite = true;
            c.rankCat = kRankWriteOp;
            c.rankIdx = n.seq;
            c.floor = dev_.casFloor(n.op.addr.pc, now_);
            consider(c);
        }

        // Conflict precharge: only when no queued op still hits the open
        // row, unless a conflicting op is aged (QoS).
        const bool conflicts =
            e.read.count - e.read.hitCount > 0 ||
            (any_write && e.write.count - e.write.hitCount > 0);
        if (conflicts) {
            int rep = -1;
            bool rep_write = false;
            if (!has_hit) {
                rep = any_read ? e.read.head : e.write.head;
                rep_write = !any_read;
            } else {
                rep = agedConflictRep(e, any_write, rec.openRow, rep_write);
            }
            if (rep != -1) {
                const OpNode& n = pool_[static_cast<std::size_t>(rep)];
                DramAddress a = n.op.addr;
                a.row = rec.openRow;
                Candidate c;
                c.cmd = Command{CmdKind::Pre, a};
                c.priority =
                    now_ - n.op.arrival > thr ? kPrioForced : kPrioPre;
                c.age = n.op.arrival;
                c.rankCat = rep_write ? kRankWriteOp : kRankReadOp;
                c.rankIdx = n.seq;
                c.floor = dev_.preFloor(a, now_);
                e.preStamp = stepStamp_;
                consider(c);
            }
        }
    }

    // --- close/adaptive policies: precharge idle open rows --------------
    if (cfg_.pagePolicy != PagePolicy::Open) {
        for (const int b : openBanks_) {
            BankEntry& e = bankIx_[static_cast<std::size_t>(b)];
            if (e.read.hitCount > 0 || (draining && e.write.hitCount > 0))
                continue;
            const BankRecord& rec = dev_.bankRecord(b);
            if (cfg_.pagePolicy == PagePolicy::Adaptive &&
                now_ - bankLastUse(rec) < cfg_.adaptiveIdleTimeout) {
                continue;
            }
            if (e.preStamp == stepStamp_)
                continue; // a conflict-PRE for this bank already exists
            DramAddress a = e.addr;
            a.row = rec.openRow;
            Candidate c;
            c.cmd = Command{CmdKind::Pre, a};
            c.priority = kPrioIdlePre;
            c.age = 0;
            c.rankCat = kRankIdlePre;
            c.rankIdx = static_cast<std::uint64_t>(b);
            c.floor = dev_.preFloor(a, now_);
            consider(c);
        }
    }

    if (!have_best) {
        Tick adaptive_next = kTickMax;
        if (cfg_.pagePolicy == PagePolicy::Adaptive) {
            for (const int b : openBanks_) {
                adaptive_next = std::min(
                    adaptive_next,
                    std::max(now_ + 1, bankLastUse(dev_.bankRecord(b)) +
                                           cfg_.adaptiveIdleTimeout));
            }
        }
        const Tick next = idleWakeTick(adaptive_next);
        if (next == kTickMax || next > until) {
            // Nothing can happen before the bound: now_ stays on its last
            // event tick so decisions never depend on where time sliced.
            return false;
        }
        if (telemetryOn() && next > now_) {
            // Attribute the idle jump to whichever wake term produced
            // `next`, matched in idleWakeTick's own evaluation order.
            StallCause cause = StallCause::NoRequest;
            bool matched = false;
            if (writeCount_ > 0 && !drainingWrites_ && readCount_ == 0) {
                cause = StallCause::WriteDrain;
                matched = true;
            }
            if (!matched && nextRetryAt_ != kTickMax &&
                std::max(nextRetryAt_, now_ + 1) == next) {
                cause = StallCause::RetryBackoff;
                matched = true;
            }
            if (!matched && !host_.empty()) {
                Tick admit_at = std::max(host_.front().arrival, now_ + 1);
                const Tick first_free =
                    std::min(readOutstanding_.firstFreeAfter(now_),
                             writeOutstanding_.firstFreeAfter(now_));
                if (first_free != kTickMax)
                    admit_at = std::min(admit_at,
                                        std::max(now_ + 1, first_free));
                if (admit_at == next) {
                    // Front request not yet arrived = truly idle; arrived
                    // but unadmittable = the queues/CAM are the bottleneck.
                    cause = host_.front().arrival > now_
                                ? StallCause::NoRequest
                                : StallCause::BankBusy;
                    matched = true;
                }
            }
            if (!matched) {
                for (const auto& u : refreshUnits_) {
                    if (pendingRefreshCount(u) == 0 && u.rot.due == next) {
                        cause = StallCause::Refresh;
                        break;
                    }
                }
                // Adaptive-timeout expiry falls through as NoRequest.
            }
            chargeStall(cause, now_, next);
        }
        now_ = next;
        return true;
    }

    if (best.earliest > until) {
        // Retried verbatim from the same event tick by the next call.
        return false;
    }

    if (telemetryOn() && best.earliest > now_) {
        // The winning candidate waited [now_, earliest): when the cheap
        // structural floor (tRRD/tFAW for ACT, CAS-chain/turnaround for
        // RD/WR) already equals the exact probe, that constraint binds;
        // otherwise the bank FSM itself was the holdup.
        StallCause cause = StallCause::BankBusy;
        if (best.isRefresh) {
            cause = StallCause::Refresh;
        } else if (best.cmd.kind == CmdKind::Rd ||
                   best.cmd.kind == CmdKind::Wr) {
            if (best.floor == best.earliest)
                cause = StallCause::CasChain;
        } else if (best.cmd.kind == CmdKind::Act &&
                   best.floor == best.earliest) {
            cause = StallCause::ActWindow;
        }
        chargeStall(cause, now_, best.earliest,
                    flatBankIndex(dramCfg_.org, best.cmd.addr));
    }
    now_ = best.earliest;
    const auto res = dev_.issue(best.cmd, now_);
    readQOcc_.sample(static_cast<double>(readCount_));

    if (best.isRefresh) {
        if (best.cmd.kind == CmdKind::RefPb) {
            RefreshUnit& u =
                refreshUnits_[static_cast<std::size_t>(best.refreshUnit)];
            u.rot.advance(dramCfg_.org.banksPerSid());
            if (faults_.enabled())
                runScrub(); // patrol scrub rides the refresh calendar
        } else {
            applyRowCommand(best.cmd); // opportunistic-refresh precharge
        }
    } else if (best.cmd.kind == CmdKind::Rd ||
               best.cmd.kind == CmdKind::Wr) {
        const Op op = pool_[static_cast<std::size_t>(best.opIndex)].op;
        removeOpIndexed(best.opIndex);
        (best.isWrite ? writeOutstanding_ : readOutstanding_)
            .push(res.dataUntil);
        ++casIssued_;
        completeOp(op, res.dataUntil);
    } else {
        applyRowCommand(best.cmd); // ACT or conflict/idle PRE
    }
    return true;
}

// ---------------------------------------------------------------------------
// Legacy scheduler (the seed's rescan-everything loop; decision oracle).
// Test-only: compiled out under -DROME_ORACLES=OFF — the constructor
// rejects cfg_.legacyScheduler there, so the stubs are unreachable.
// ---------------------------------------------------------------------------

#if ROME_ORACLES

void
ConventionalMc::collectRefreshCandidates(std::vector<Candidate>& out) const
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
                return op.addr.pc == a.pc && op.addr.sid == a.sid &&
                       op.addr.bg == a.bg && op.addr.bank == a.bank;
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
            out.push_back(c);
    }
}

void
ConventionalMc::collectOpCandidates(std::vector<Candidate>& out) const
{
    // Per-bank summary: does any queued op hit the open row?
    struct BankWork
    {
        bool hasHit = false;
    };
    std::unordered_map<int, BankWork> work;
    const auto scan = [&](const std::vector<Op>& q) {
        for (const Op& op : q) {
            const int idx = flatBankIndex(dramCfg_.org, op.addr);
            const BankRecord& rec = dev_.bankRecord(op.addr);
            auto& w = work[idx];
            if (rec.open() && rec.openRow == op.addr.row)
                w.hasHit = true;
        }
    };
    scan(readQ_);
    if (drainingWrites_)
        scan(writeQ_);

    // Track banks we already emitted an ACT/PRE candidate for (dedupe).
    std::unordered_set<int> act_banks, pre_banks;

    const auto consider = [&](const std::vector<Op>& q, bool is_write) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Op& op = q[i];
            if (refreshBlocked(op.addr))
                continue;
            const BankRecord& rec = dev_.bankRecord(op.addr);
            const int bank_idx = flatBankIndex(dramCfg_.org, op.addr);
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
                if (!act_banks.insert(bank_idx).second)
                    continue;
                c.cmd = Command{CmdKind::Act, op.addr};
                c.priority = aged ? kPrioForced : kPrioAct;
                c.opIndex = -1;
            } else {
                // Conflict: precharge only when no queued op still hits the
                // open row, unless the conflicting op is aged (QoS).
                const auto it = work.find(bank_idx);
                const bool has_hit = it != work.end() && it->second.hasHit;
                if (has_hit && !aged)
                    continue;
                if (!pre_banks.insert(bank_idx).second)
                    continue;
                DramAddress a = op.addr;
                a.row = rec.openRow;
                c.cmd = Command{CmdKind::Pre, a};
                c.priority = aged ? kPrioForced : kPrioPre;
                c.opIndex = -1;
            }
            c.earliest = dev_.earliestIssue(c.cmd, now_);
            if (c.earliest != kTickMax)
                out.push_back(c);
        }
    };
    consider(readQ_, false);
    if (drainingWrites_)
        consider(writeQ_, true);

    // Close/adaptive page policies: precharge open rows with no pending hit.
    if (cfg_.pagePolicy != PagePolicy::Open) {
        for (int pc = 0; pc < dramCfg_.org.pcsPerChannel; ++pc) {
            for (int sid = 0; sid < dramCfg_.org.sidsPerChannel; ++sid) {
                for (int bg = 0; bg < dramCfg_.org.bankGroupsPerSid; ++bg) {
                    for (int ba = 0; ba < dramCfg_.org.banksPerGroup; ++ba) {
                        DramAddress a{pc, sid, bg, ba, 0, 0};
                        const BankRecord& rec = dev_.bankRecord(a);
                        if (!rec.open())
                            continue;
                        const int idx = flatBankIndex(dramCfg_.org, a);
                        const auto it = work.find(idx);
                        if (it != work.end() && it->second.hasHit)
                            continue;
                        if (cfg_.pagePolicy == PagePolicy::Adaptive &&
                            now_ - bankLastUse(rec) <
                                cfg_.adaptiveIdleTimeout) {
                            continue;
                        }
                        if (!pre_banks.insert(idx).second)
                            continue;
                        a.row = rec.openRow;
                        Candidate c;
                        c.cmd = Command{CmdKind::Pre, a};
                        c.priority = kPrioIdlePre;
                        c.age = 0;
                        c.earliest = dev_.earliestIssue(c.cmd, now_);
                        if (c.earliest != kTickMax)
                            out.push_back(c);
                    }
                }
            }
        }
    }
}

bool
ConventionalMc::stepOnceLegacy(Tick until)
{
    readOutstanding_.release(now_);
    writeOutstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries(); // before admission: retries compete for queue space
    pumpArrivals();
    updateWriteDrain();

    std::vector<Candidate> cands;
    cands.reserve(readQ_.size() + writeQ_.size() + refreshUnits_.size());
    collectRefreshCandidates(cands);
    collectOpCandidates(cands);

    if (cands.empty()) {
        Tick adaptive_next = kTickMax;
        if (cfg_.pagePolicy == PagePolicy::Adaptive) {
            for (int pc = 0; pc < dramCfg_.org.pcsPerChannel; ++pc) {
                for (int sid = 0; sid < dramCfg_.org.sidsPerChannel; ++sid) {
                    for (int bg = 0; bg < dramCfg_.org.bankGroupsPerSid;
                         ++bg) {
                        for (int ba = 0; ba < dramCfg_.org.banksPerGroup;
                             ++ba) {
                            const BankRecord& rec = dev_.bankRecord(
                                DramAddress{pc, sid, bg, ba, 0, 0});
                            if (!rec.open())
                                continue;
                            adaptive_next = std::min(
                                adaptive_next,
                                std::max(now_ + 1,
                                         bankLastUse(rec) +
                                         cfg_.adaptiveIdleTimeout));
                        }
                    }
                }
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
    for (const Candidate& c : cands) {
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
    readQOcc_.sample(static_cast<double>(readQ_.size()));

    if (best->isRefresh) {
        if (best->cmd.kind == CmdKind::RefPb) {
            RefreshUnit& u =
                refreshUnits_[static_cast<std::size_t>(best->refreshUnit)];
            u.rot.advance(dramCfg_.org.banksPerSid());
            if (faults_.enabled())
                runScrub(); // patrol scrub rides the refresh calendar
        }
    } else if (best->cmd.kind == CmdKind::Rd || best->cmd.kind == CmdKind::Wr) {
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

#else // !ROME_ORACLES

void
ConventionalMc::collectRefreshCandidates(std::vector<Candidate>&) const
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

void
ConventionalMc::collectOpCandidates(std::vector<Candidate>&) const
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

bool
ConventionalMc::stepOnceLegacy(Tick)
{
    panic("legacy oracle compiled out (ROME_ORACLES=OFF)");
}

#endif // ROME_ORACLES

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double
ConventionalMc::achievedBandwidth() const
{
    const Tick end = dev_.lastDataEnd();
    if (end == 0)
        return 0.0;
    return static_cast<double>(bytesRead_ + bytesWritten_) /
           nsFromTicks(end);
}

double
ConventionalMc::rowHitRate() const
{
    // Every CAS either hit an already-open row or required an ACT first.
    if (casIssued_ == 0)
        return 0.0;
    const auto acts = dev_.counters().acts.value();
    if (acts >= casIssued_)
        return 0.0;
    return 1.0 - static_cast<double>(acts) /
                 static_cast<double>(casIssued_);
}

McComplexity
ConventionalMc::complexity() const
{
    McComplexity c;
    c.numTimingParams = TimingParams::kNumMcVisibleParams;
    // One FSM per bank of each PC (Figure 4: N = total banks per PC).
    c.numBankFsms = dramCfg_.org.sidsPerChannel *
                    dramCfg_.org.banksPerSid();
    c.numBankStates = kNumConventionalBankStates;
    switch (cfg_.pagePolicy) {
      case PagePolicy::Open: c.pagePolicy = "Open"; break;
      case PagePolicy::Close: c.pagePolicy = "Close"; break;
      case PagePolicy::Adaptive: c.pagePolicy = "Adaptive"; break;
    }
    c.schedulingConcerns = {"Row-buffer locality", "Bank interleaving",
                            "Bank group interleaving", "PC interleaving"};
    // Reported per PC (Table IV compares per-controller structures).
    c.requestQueueDepth = cfg_.readQueueDepth /
                          dramCfg_.org.pcsPerChannel;
    return c;
}

ControllerStats
ConventionalMc::stats() const
{
    ControllerStats s;
    fillBaseStats(s);
    // Conventional MCs drive every DRAM command over the interface.
    s.interfaceCommands = s.rowCmds + s.colCmds;
    s.achievedBandwidth = achievedBandwidth();
    s.effectiveBandwidth = s.achievedBandwidth;
    s.rowHitRate = rowHitRate();
    return s;
}

// ---- checkpointing -------------------------------------------------------

namespace
{

void
putDramAddress(CheckpointWriter& w, const DramAddress& a)
{
    w.putI32(a.pc);
    w.putI32(a.sid);
    w.putI32(a.bg);
    w.putI32(a.bank);
    w.putI32(a.row);
    w.putI32(a.col);
}

DramAddress
getDramAddress(CheckpointReader& r)
{
    DramAddress a;
    a.pc = r.getI32();
    a.sid = r.getI32();
    a.bg = r.getI32();
    a.bank = r.getI32();
    a.row = r.getI32();
    a.col = r.getI32();
    return a;
}

} // namespace

void
ConventionalMc::saveCheckpoint(CheckpointWriter& w) const
{
    if (sink_ != nullptr)
        sink_->instant("checkpoint", TelemetrySink::kChannelTrack, now_);
    const auto put_op = [&w](const Op& op) {
        putDramAddress(w, op.addr);
        w.putU64(op.reqId);
        w.putU8(static_cast<std::uint8_t>(op.kind));
        w.putI64(op.arrival);
        w.putBool(op.singleOp);
        w.putI32(op.attempt);
        w.putI64(op.retryWait);
        w.putI64(op.linkDelay);
    };
    const auto put_bank_list = [&w](const BankList& l) {
        w.putI32(l.head);
        w.putI32(l.tail);
        w.putI32(l.count);
        w.putI32(l.hitCount);
        w.putI32(l.hitRep);
        w.putI64(l.minArrivalLb);
    };

    saveBaseState(w);
    dev_.saveState(w);

    w.putCount(readQ_.size());
    for (const Op& op : readQ_)
        put_op(op);
    w.putCount(writeQ_.size());
    for (const Op& op : writeQ_)
        put_op(op);

    w.putCount(pool_.size());
    for (const OpNode& n : pool_) {
        put_op(n.op);
        w.putU64(n.seq);
        w.putI32(n.bank);
        w.putI32(n.prev);
        w.putI32(n.next);
    }
    w.putCount(freeNodes_.size());
    for (const int n : freeNodes_)
        w.putI32(n);
    w.putCount(bankIx_.size());
    for (const BankEntry& e : bankIx_) {
        put_bank_list(e.read);
        put_bank_list(e.write);
        w.putI32(e.activePos);
        w.putI32(e.openPos);
        w.putU64(e.preStamp);
        putDramAddress(w, e.addr);
    }
    w.putCount(activeBanks_.size());
    for (const int b : activeBanks_)
        w.putI32(b);
    w.putCount(openBanks_.size());
    for (const int b : openBanks_)
        w.putI32(b);
    w.putCount(unitForcedBank_.size());
    for (const int b : unitForcedBank_)
        w.putI32(b);
    w.putU64(admitSeq_);
    w.putU64(stepStamp_);
    w.putI32(readCount_);
    w.putI32(writeCount_);

    readOutstanding_.saveState(w);
    writeOutstanding_.saveState(w);
    w.putBool(drainingWrites_);
    w.putCount(refreshUnits_.size());
    for (const RefreshUnit& u : refreshUnits_) {
        w.putI64(u.rot.interval);
        w.putI64(u.rot.due);
        w.putI32(u.rot.cursor);
    }

    w.putCount(retryQ_.size());
    for (const PendingRetry& p : retryQ_) {
        put_op(p.op);
        w.putI64(p.readyAt);
    }
    w.putI64(nextRetryAt_);

    w.putU64(casIssued_);
    readQOcc_.saveState(w);
}

void
ConventionalMc::restoreCheckpoint(CheckpointReader& r)
{
    const auto get_op = [&r]() {
        Op op;
        op.addr = getDramAddress(r);
        op.reqId = r.getU64();
        op.kind = static_cast<ReqKind>(r.getU8());
        op.arrival = r.getI64();
        op.singleOp = r.getBool();
        op.attempt = r.getI32();
        op.retryWait = r.getI64();
        op.linkDelay = r.getI64();
        return op;
    };
    const auto get_bank_list = [&r](BankList& l) {
        l.head = r.getI32();
        l.tail = r.getI32();
        l.count = r.getI32();
        l.hitCount = r.getI32();
        l.hitRep = r.getI32();
        l.minArrivalLb = r.getI64();
    };

    loadBaseState(r);
    dev_.loadState(r);

    readQ_.resize(r.getCount());
    for (Op& op : readQ_)
        op = get_op();
    writeQ_.resize(r.getCount());
    for (Op& op : writeQ_)
        op = get_op();

    pool_.resize(r.getCount());
    for (OpNode& n : pool_) {
        n.op = get_op();
        n.seq = r.getU64();
        n.bank = r.getI32();
        n.prev = r.getI32();
        n.next = r.getI32();
    }
    freeNodes_.resize(r.getCount());
    for (int& n : freeNodes_)
        n = r.getI32();
    if (r.getCount() != bankIx_.size())
        fatal("hbm4 checkpoint bank-index size mismatch");
    for (BankEntry& e : bankIx_) {
        get_bank_list(e.read);
        get_bank_list(e.write);
        e.activePos = r.getI32();
        e.openPos = r.getI32();
        e.preStamp = r.getU64();
        e.addr = getDramAddress(r);
    }
    activeBanks_.resize(r.getCount());
    for (int& b : activeBanks_)
        b = r.getI32();
    openBanks_.resize(r.getCount());
    for (int& b : openBanks_)
        b = r.getI32();
    if (r.getCount() != unitForcedBank_.size())
        fatal("hbm4 checkpoint refresh-unit count mismatch");
    for (int& b : unitForcedBank_)
        b = r.getI32();
    admitSeq_ = r.getU64();
    stepStamp_ = r.getU64();
    readCount_ = r.getI32();
    writeCount_ = r.getI32();

    readOutstanding_.loadState(r);
    writeOutstanding_.loadState(r);
    drainingWrites_ = r.getBool();
    if (r.getCount() != refreshUnits_.size())
        fatal("hbm4 checkpoint refresh-unit count mismatch");
    for (RefreshUnit& u : refreshUnits_) {
        u.rot.interval = r.getI64();
        u.rot.due = r.getI64();
        u.rot.cursor = r.getI32();
    }

    retryQ_.resize(r.getCount());
    for (PendingRetry& p : retryQ_) {
        p.op = get_op();
        p.readyAt = r.getI64();
    }
    nextRetryAt_ = r.getI64();

    casIssued_ = r.getU64();
    readQOcc_.loadState(r);
    scrubEvents_.clear();
}

} // namespace rome
