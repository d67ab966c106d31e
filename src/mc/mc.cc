#include "mc/mc.h"

#include <algorithm>
#include <limits>
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

/** Write-drain hysteresis: start draining at this write-queue occupancy
 *  fraction, stop at the low one. */
constexpr double kWriteHighWatermark = 0.9;
constexpr double kWriteLowWatermark = 0.05;

/** Adaptive policy: precharge an idle open row after this long. */
constexpr Tick kAdaptiveIdleTimeout = ticksFromNs(std::int64_t{100});

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
    if (std::uint64_t{1} << map_.columnShift() != cfg.org.columnBytes) {
        fatal("mapping %s decodes %d-bit column offsets, the device has "
              "%llu B columns",
              map_.name().c_str(), map_.columnShift(),
              static_cast<unsigned long long>(cfg.org.columnBytes));
    }
    if (cfg.org.pcsPerChannel > kMaxPcs || cfg.org.sidsPerChannel > 127 ||
        cfg.org.bankGroupsPerSid > 127 ||
        cfg.org.banksPerChannel() > std::numeric_limits<std::uint16_t>::max() / 2) {
        fatal("bank geometry exceeds the scheduler's compact indices");
    }
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
    const Request& req = host_.front();
    const bool is_read = req.kind == ReqKind::Read;
    const auto& outstanding = is_read ? readOutstanding_ : writeOutstanding_;
    const auto depth = static_cast<std::size_t>(
        is_read ? cfg_.readQueueDepth : cfg_.writeQueueDepth);
    const auto has_room = [&] {
        return (is_read ? readQueueSize() : writeQueueSize()) +
                   outstanding.size() <
               depth;
    };
    if (!has_room())
        return false;
    // Lines are columnBytes apart, a power of two the mapping checked.
    const int shift = map_.columnShift();
    const std::uint64_t first_line = req.addr >> shift;
    const std::uint64_t total =
        ((req.addr + req.size - 1) >> shift) - first_line + 1;
    const int slot = frontSlot(total);
    do {
        const std::uint64_t line = first_line + frontChunk_;
        Op op{map_.decode(line << shift), req.id, req.kind, req.arrival,
              slot};
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
    } while (frontChunk_ < total && has_room());
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
    const bool was = drainingWrites_;
    if (!drainingWrites_) {
        if (w_occ >= kWriteHighWatermark * w_depth || forced)
            drainingWrites_ = true;
    } else if (w_occ <= kWriteLowWatermark * w_depth && !forced) {
        drainingWrites_ = false;
    }
    if (drainingWrites_ != was && sc_ != nullptr) {
        // Queued writes join or leave every bank's candidate set.
        for (const int b : activeBanks_) {
            if (bankIx_[static_cast<std::size_t>(b)].write.count > 0)
                markStale(b);
        }
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
    if (op.slot < 0)
        noteSingleOpDone(op.reqId, op.arrival, data_end, poisoned,
                         op.retryWait, op.linkDelay);
    else
        noteOpDone(op.slot, data_end, poisoned, op.retryWait);
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
        Tick first_free = std::min(readOutstanding_.firstAfter(now_),
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

bool
ConventionalMc::stepOnce(Tick until)
{
    dev_.setClock(now_);
    return cfg_.legacyScheduler ? stepOnceLegacy(until)
                                : stepOnceIndexed(until);
}

// ---------------------------------------------------------------------------
// Indexed scheduler
// ---------------------------------------------------------------------------

ConventionalMc::RankKey
ConventionalMc::rankKey(int priority, Tick age, int rank_cat,
                        std::uint64_t rank_idx)
{
    return {static_cast<std::uint64_t>(priority) << 60 |
                static_cast<std::uint64_t>(age),
            static_cast<std::uint64_t>(rank_cat) << 62 | rank_idx};
}

Tick
ConventionalMc::agedAt(Tick arrival) const
{
    // Aged means now - arrival > threshold; saturate a huge threshold.
    const Tick thr = cfg_.agePriorityThreshold;
    return thr >= kTickMax - 1 - arrival ? kTickMax : arrival + thr + 1;
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
    const int count_before = l.count;
    const int hits_before = l.hitCount;
    const int rep_before = l.hitRep;
    if (l.tail == -1) {
        l.head = l.tail = node;
    } else {
        if (op.arrival < pool_[static_cast<std::size_t>(l.tail)].op.arrival)
            l.sorted = false;
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
        sc_->refreshWake = 0; // a refresh at this bank is now postponed
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

    // Most admissions leave the bank's candidates as they were: a write
    // outside a drain is invisible, a closed bank's ACT keeps the same
    // list head, and a hit behind an unchanged representative changes no
    // count the candidates read.
    bool keep;
    if (is_write && !drainingWrites_)
        keep = true;
    else if (!rec.open())
        keep = count_before > 0 || (is_write && e.read.count > 0);
    else
        keep = rec.openRow == op.addr.row && hits_before > 0 &&
               rep_before >= 0 && l.hitRep == rep_before;
    if (!keep)
        markStale(n.bank);
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
        l.sorted = true;
    } else if (l.hitRep == node) {
        l.hitRep = l.hitCount == 0 ? kRepNone : kRepUnknown;
        if (l.hitRep == kRepUnknown && l.sorted) {
            // In a sorted list no hit precedes the min-(arrival, seq) hit,
            // so its successor is the next hit in list order.
            int i = n.next;
            while (i != -1 && pool_[static_cast<std::size_t>(i)].op.addr.row !=
                                  rec.openRow)
                i = pool_[static_cast<std::size_t>(i)].next;
            if (i != -1)
                l.hitRep = i;
        }
    }

    if (e.read.count == 0 && e.write.count == 0) {
        const int last = activeBanks_.back();
        activeBanks_[static_cast<std::size_t>(e.activePos)] = last;
        bankIx_[static_cast<std::size_t>(last)].activePos = e.activePos;
        activeBanks_.pop_back();
        e.activePos = -1;
        sc_->refreshWake = 0; // a refresh postponed for this bank may issue
    }
    markStale(n.bank);
    freeNodes_.push_back(node);
}

void
ConventionalMc::rescanList(BankList& l, int open_row)
{
    l.hitCount = 0;
    l.hitRep = kRepNone;
    l.sorted = true;
    Tick min_arr = kTickMax;
    Tick prev_arr = 0;
    for (int i = l.head; i != -1;
         i = pool_[static_cast<std::size_t>(i)].next) {
        const OpNode& n = pool_[static_cast<std::size_t>(i)];
        min_arr = std::min(min_arr, n.op.arrival);
        if (n.op.arrival < prev_arr)
            l.sorted = false;
        prev_arr = n.op.arrival;
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
    markStale(bank);
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
                                int open_row, Tick& valid_until)
{
    // An op ahead of the result in list order that ages later takes its
    // place; an unwalked list ages no earlier than its oldest arrival.
    const Tick thr = cfg_.agePriorityThreshold;
    const auto scan = [&](const BankList& l) {
        if (now_ - l.minArrivalLb <= thr) {
            valid_until = std::min(valid_until, agedAt(l.minArrivalLb));
            return -1;
        }
        for (int i = l.head; i != -1;
             i = pool_[static_cast<std::size_t>(i)].next) {
            const Op& op = pool_[static_cast<std::size_t>(i)].op;
            if (op.addr.row == open_row)
                continue;
            const Tick at = agedAt(op.arrival);
            if (now_ >= at)
                return i;
            valid_until = std::min(valid_until, at);
        }
        return -1;
    };
    if (e.read.count > 0) {
        const int rep = scan(e.read);
        if (rep != -1)
            return rep;
    }
    if (any_write && e.write.count > 0)
        return scan(e.write);
    return -1;
}

void
ConventionalMc::markStale(int bank)
{
    BankCands& c = sc_->cands[static_cast<std::size_t>(bank)];
    if (!c.stale) {
        c.stale = true;
        sc_->staleBanks.push_back(bank);
    }
}

void
ConventionalMc::rebuildCands(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    BankCands& c = sc_->cands[static_cast<std::size_t>(bank)];
    // Swap-remove the old entries. Removing any other entry leaves a
    // partition's best standing.
    for (int k = 0; k < c.count; ++k) {
        Partition& p = sc_->parts[static_cast<std::size_t>(
            partOf(c, c.cand[static_cast<std::size_t>(k)]))];
        const int pos = c.pos[static_cast<std::size_t>(k)];
        const int last = p.refs.back();
        p.refs[static_cast<std::size_t>(pos)] = last;
        sc_->cands[static_cast<std::size_t>(last / kRefSlots)]
            .pos[static_cast<std::size_t>(last % kRefSlots)] = pos;
        p.refs.pop_back();
        if (p.best.ref == bank * kRefSlots + k)
            p.valid = false;
    }
    c.stale = false;
    c.count = 0;
    e.validUntil = kTickMax;
    const bool any_read = e.read.count > 0;
    const bool any_write = drainingWrites_ && e.write.count > 0;
    if (!any_read && !any_write)
        return;

    const auto add = [&](CmdKind kind, int node, Tick bank_term) {
        const OpNode& n = pool_[static_cast<std::size_t>(node)];
        const int slot = c.count++;
        CachedCand& k = c.cand[static_cast<std::size_t>(slot)];
        k.bankTerm = bank_term;
        k.age = n.op.arrival;
        // The category is the op's queue.
        k.rankLo = rankKey(0, 0,
                           n.op.kind == ReqKind::Write ? kRankWriteOp
                                                       : kRankReadOp,
                           n.seq)
                       .lo;
        k.node = node;
        const bool is_cas = kind == CmdKind::Rd || kind == CmdKind::Wr;
        k.sharedIdx = static_cast<std::uint16_t>(
            kind == CmdKind::Act ? actTermIdx(c.group)
            : is_cas             ? casTermIdx(c.pc, 0, kind == CmdKind::Wr)
                                 : 0); // PRE: bank-local terms only
        k.classMask = is_cas ? -1 : 0;
        k.kind = static_cast<std::uint8_t>(kind);

        // Join the partition; one whose best stands takes the entry as a
        // challenger, remembering when it would reorder a tie by aging.
        Partition& p = sc_->parts[static_cast<std::size_t>(partOf(c, k))];
        const int ref = bank * kRefSlots + slot;
        c.pos[static_cast<std::size_t>(slot)] = static_cast<int>(p.refs.size());
        p.refs.push_back(ref);
        if (!p.valid || held(c, bank))
            return;
        const Tick tick = candTick(c, k);
        const RankKey key = candKey(k);
        p.best.offer(tick, key.hi, key.lo, ref);
        const Tick aged = agedAt(k.age);
        if (tick == p.best.e && aged > now_)
            p.expires = std::min(p.expires, aged);
    };

    const BankRecord& rec = dev_.bankRecord(bank);
    if (!rec.open()) {
        // One structural ACT candidate: the first queued op (in
        // read-then-write admission order) supplies row and age.
        add(CmdKind::Act, any_read ? e.read.head : e.write.head,
            dev_.actBankTerm(rec));
        return;
    }

    if (any_read && e.read.hitCount > 0) {
        add(CmdKind::Rd, resolveHitRep(e.read, rec.openRow),
            dev_.casBankTerm(rec, false));
    }
    if (any_write && e.write.hitCount > 0) {
        add(CmdKind::Wr, resolveHitRep(e.write, rec.openRow),
            dev_.casBankTerm(rec, true));
    }

    // Conflict precharge: only when no queued op still hits the open
    // row, unless a conflicting op is aged (QoS).
    const bool conflicts = e.read.count - e.read.hitCount > 0 ||
                           (any_write && e.write.count - e.write.hitCount > 0);
    if (!conflicts)
        return;
    const bool has_hit =
        e.read.hitCount > 0 || (any_write && e.write.hitCount > 0);
    int rep = -1;
    if (!has_hit) {
        rep = any_read ? e.read.head : e.write.head;
    } else {
        rep = agedConflictRep(e, any_write, rec.openRow, e.validUntil);
        sc_->nextAging = std::min(sc_->nextAging, e.validUntil);
    }
    if (rep != -1)
        add(CmdKind::Pre, rep, dev_.preBankTerm(rec));
}

Tick
ConventionalMc::candTick(const BankCands& c, const CachedCand& cc) const
{
    const int* last_cas = sc_->lastCas.data();
    const int cas_class = 2 * (2 * (c.sid == last_cas[2 * c.pc]) +
                               (c.bg == last_cas[2 * c.pc + 1]));
    const Tick term = sc_->sharedTerm[static_cast<std::size_t>(
        cc.sharedIdx + (cas_class & cc.classMask))];
    const Tick floor =
        sc_->busFloor[static_cast<std::size_t>(partOf(c, cc))];
    return std::max(std::max(now_, cc.bankTerm), std::max(term, floor));
}

bool
ConventionalMc::held(const BankCands& c, int bank) const
{
    return sc_->heldAny &&
           unitForcedBank_[static_cast<std::size_t>(c.unit)] == bank;
}

void
ConventionalMc::walkPartition(int part)
{
    Partition& p = sc_->parts[static_cast<std::size_t>(part)];
    const BankCands* cands = sc_->cands.data();
    const int* held_bank = sc_->heldAny ? unitForcedBank_.data() : nullptr;
    // Two passes: the first finds the earliest issue tick over the
    // candidates (a min chain of one compare each, no data-dependent
    // branch) and keeps those that reached the running min when seen;
    // the second ranks the ones that reach the final min.
    Tick* kept_e = sc_->walkTick.data();
    int* kept_ref = sc_->walkRef.data();
    int n_walked = 0;
    Tick min_e = kTickMax;
    for (const int ref : p.refs) {
        const int b = ref / kRefSlots;
        const BankCands& c = cands[b];
        if (held_bank != nullptr && held_bank[c.unit] == b)
            continue; // bank held for a forced refresh
        const Tick e =
            candTick(c, c.cand[static_cast<std::size_t>(ref % kRefSlots)]);
        kept_e[n_walked] = e;
        kept_ref[n_walked] = ref;
        n_walked += e <= min_e;
        min_e = std::min(min_e, e);
    }
    p.best = Best{};
    p.expires = kTickMax;
    p.valid = true;
    for (int i = 0; i < n_walked; ++i) {
        if (kept_e[i] != min_e)
            continue;
        const int ref = kept_ref[i];
        const CachedCand& cc = cands[ref / kRefSlots].cand[
            static_cast<std::size_t>(ref % kRefSlots)];
        const RankKey key = candKey(cc);
        p.best.offer(min_e, key.hi, key.lo, ref);
        // A tie that ages later may overtake the best then.
        const Tick aged = agedAt(cc.age);
        if (aged > now_)
            p.expires = std::min(p.expires, aged);
    }
}

ConventionalMc::RankKey
ConventionalMc::candKey(const CachedCand& cc) const
{
    // An aged op takes absolute priority; otherwise the command kind
    // sets it.
    const auto kind = static_cast<CmdKind>(cc.kind);
    const int prio = now_ >= agedAt(cc.age) ? kPrioForced
                     : kind == CmdKind::Act ? kPrioAct
                     : kind == CmdKind::Pre ? kPrioPre
                                            : kPrioCasHit;
    RankKey key = rankKey(prio, cc.age, 0, 0);
    key.lo = cc.rankLo;
    return key;
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

void
ConventionalMc::initCaches()
{
    // Deferred from construction: set-ups that never step (sweeps build
    // every channel's controller up front) allocate no more than the
    // index itself.
    const Organization& org = dramCfg_.org;
    const int nbanks = org.banksPerChannel();
    sc_ = std::make_unique<StepCache>();
    sc_->cands.resize(static_cast<std::size_t>(nbanks));
    for (int b = 0; b < nbanks; ++b) {
        BankCands& c = sc_->cands[static_cast<std::size_t>(b)];
        const DramAddress& a = bankIx_[static_cast<std::size_t>(b)].addr;
        c.pc = static_cast<std::int8_t>(a.pc);
        c.sid = static_cast<std::int8_t>(a.sid);
        c.bg = static_cast<std::int8_t>(a.bg);
        c.group = b / org.banksPerGroup; // flat index is PC-major
        c.unit = static_cast<std::int16_t>(b / org.banksPerSid());
    }
    sc_->staleBanks.reserve(sc_->cands.size());
    for (int b = 0; b < nbanks; ++b)
        sc_->staleBanks.push_back(b);
    // A PC's banks hold at most three candidates each, on two buses.
    const auto part_cap =
        static_cast<std::size_t>(nbanks / org.pcsPerChannel * 3);
    sc_->parts.resize(static_cast<std::size_t>(2 * org.pcsPerChannel));
    for (Partition& p : sc_->parts)
        p.refs.reserve(part_cap);
    sc_->walkTick.resize(part_cap);
    sc_->walkRef.resize(part_cap);
    sc_->liveRefresh.reserve(refreshUnits_.size());
    sc_->numGroups = nbanks / org.banksPerGroup;
    sc_->sharedTerm.assign(
        static_cast<std::size_t>(1 + sc_->numGroups + 8 * org.pcsPerChannel), 0);
    fillSharedTerms();
}

void
ConventionalMc::fillSharedTerms()
{
    const Organization& org = dramCfg_.org;
    for (int g = 0; g < sc_->numGroups; ++g) {
        const int bg = g % org.bankGroupsPerSid;
        const int sid = g / org.bankGroupsPerSid % org.sidsPerChannel;
        const int pc = g / org.bankGroupsPerSid / org.sidsPerChannel;
        sc_->sharedTerm[static_cast<std::size_t>(actTermIdx(g))] =
            dev_.actSharedTerm(pc, sid, bg);
    }
    for (int pc = 0; pc < org.pcsPerChannel; ++pc) {
        fillCasTerms(pc);
        sc_->lastCas[static_cast<std::size_t>(2 * pc)] = dev_.lastCasSid(pc);
        sc_->lastCas[static_cast<std::size_t>(2 * pc + 1)] = dev_.lastCasBg(pc);
        sc_->busFloor[static_cast<std::size_t>(2 * pc)] = dev_.rowBusFloor(pc);
        sc_->busFloor[static_cast<std::size_t>(2 * pc + 1)] =
            dev_.colBusFloor(pc);
    }
}

void
ConventionalMc::fillCasTerms(int pc)
{
    for (const bool same_sid : {false, true}) {
        for (const bool same_bg : {false, true}) {
            for (const bool w : {false, true}) {
                sc_->sharedTerm[static_cast<std::size_t>(casTermIdx(
                    pc, 2 * same_sid + same_bg, w))] =
                    dev_.casClassTerm(pc, same_sid, same_bg, w);
            }
        }
    }
}

void
ConventionalMc::updateSharedTerms(const Command& cmd)
{
    const Organization& org = dramCfg_.org;
    const DramAddress& a = cmd.addr;
    const bool is_cas = cmd.kind == CmdKind::Rd || cmd.kind == CmdKind::Wr;
    if (cmd.kind == CmdKind::Act) {
        // tRRD and tFAW move for every bank group of the (PC, SID).
        const int g0 = (a.pc * org.sidsPerChannel + a.sid) *
                       org.bankGroupsPerSid;
        for (int bg = 0; bg < org.bankGroupsPerSid; ++bg) {
            sc_->sharedTerm[static_cast<std::size_t>(actTermIdx(g0 + bg))] =
                dev_.actSharedTerm(a.pc, a.sid, bg);
        }
    } else if (is_cas) {
        // The CAS chain moves for the whole PC, and each bank's class
        // moves with this CAS's SID and bank group.
        fillCasTerms(a.pc);
        sc_->lastCas[static_cast<std::size_t>(2 * a.pc)] = a.sid;
        sc_->lastCas[static_cast<std::size_t>(2 * a.pc + 1)] = a.bg;
    }
    // The command's bus moved its floor. Nothing else moved a term of
    // another (PC, bus).
    const auto part = static_cast<std::size_t>(2 * a.pc + (is_cas ? 1 : 0));
    sc_->busFloor[part] =
        is_cas ? dev_.colBusFloor(a.pc) : dev_.rowBusFloor(a.pc);
    sc_->parts[part].valid = false;
}

Command
ConventionalMc::pickCommand(const Pick& p) const
{
    if (p.node >= 0) {
        DramAddress a = pool_[static_cast<std::size_t>(p.node)].op.addr;
        if (p.kind == CmdKind::Pre)
            a.row = dev_.bankRecord(p.bank).openRow; // conflict PRE
        return Command{p.kind, a};
    }
    DramAddress a = bankIx_[static_cast<std::size_t>(p.bank)].addr;
    if (p.kind == CmdKind::Pre)
        a.row = dev_.bankRecord(p.bank).openRow; // refresh or idle PRE
    return Command{p.kind, a};
}

bool
ConventionalMc::stepOnceIndexed(Tick until)
{
    if (sc_ == nullptr)
        initCaches();
    readOutstanding_.release(now_);
    writeOutstanding_.release(now_);
    if (faults_.enabled())
        pumpRetries(); // before admission: retries compete for queue space
    pumpArrivals();
    updateWriteDrain();

    // Every command issues at its bus's first free slot at or after
    // max(now, bank term, shared term). Commands issue in time order, so
    // that slot is max(that max, the bus's newest reservation end): one
    // max of cached terms per candidate, with ties broken by rank.
    // The winner is the min of (issue tick, rank key).
    Best run;

    // --- refresh candidates + the forced-block table ---------------------
    if (cfg_.refreshEnabled && now_ >= sc_->refreshWake) {
        const int banks_per_sid = dramCfg_.org.banksPerSid();
        Tick wake = kTickMax;
        bool holds_moved = false;
        sc_->heldAny = false;
        sc_->liveRefresh.clear();
        for (std::size_t i = 0; i < refreshUnits_.size(); ++i) {
            const RefreshUnit& u = refreshUnits_[i];
            const int was_held = unitForcedBank_[i];
            unitForcedBank_[i] = -1;
            if (now_ < u.rot.due) {
                wake = std::min(wake, u.rot.due); // nothing owed yet
                holds_moved |= was_held != -1;
                continue;
            }
            const Tick forced_at = u.rot.owedAt(kRefreshForceAt);
            const bool forced = now_ >= forced_at;
            // Units are PC-major (PC, SID) pairs, as are flat bank indices.
            const int bank = static_cast<int>(i) * banks_per_sid +
                             u.rot.cursor;
            const BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
            if (forced) {
                unitForcedBank_[i] = bank;
                sc_->heldAny = true;
            }
            holds_moved |= was_held != unitForcedBank_[i];
            if (!forced) {
                wake = std::min(wake, forced_at);
                if (e.read.count + e.write.count > 0)
                    continue; // postponed while the bank has queued work
            }
            const BankRecord& rec = dev_.bankRecord(bank);
            RefreshCand rc;
            rc.term = rec.open() ? dev_.preBankTerm(rec)
                                 : std::max(dev_.refPbBankTerm(rec),
                                            dev_.refPbSharedTerm(u.pc, u.sid));
            // Most-overdue first among refresh ties.
            rc.key = rankKey(forced ? kPrioForced : kPrioRefresh, u.rot.due,
                             kRankRefresh, i);
            rc.bank = bank;
            rc.pc = u.pc;
            sc_->liveRefresh.push_back(rc);
        }
        sc_->refreshWake = wake;
        if (holds_moved) {
            // A held bank's candidates left or rejoined their partitions.
            for (Partition& p : sc_->parts)
                p.valid = false;
        }
    }
    for (const RefreshCand& rc : sc_->liveRefresh) {
        run.offer(std::max({now_, rc.term,
                            sc_->busFloor[static_cast<std::size_t>(
                                2 * rc.pc)]}),
                  rc.key.hi, rc.key.lo, rc.bank * kRefSlots + kRefRefresh);
    }

    // --- op candidates: the minima of the (PC, bus) partitions ----------
    for (Partition& p : sc_->parts) {
        if (now_ >= p.expires)
            p.valid = false; // a tie aged: its rank moved
    }
    if (now_ >= sc_->nextAging) {
        // Some cache may hold an op that has aged since: recheck them all.
        sc_->nextAging = kTickMax;
        for (const int b : activeBanks_) {
            const Tick until = bankIx_[static_cast<std::size_t>(b)].validUntil;
            if (now_ >= until)
                markStale(b);
            else if (!sc_->cands[static_cast<std::size_t>(b)].stale)
                sc_->nextAging = std::min(sc_->nextAging, until);
        }
    }
    for (const int b : sc_->staleBanks)
        rebuildCands(b);
    sc_->staleBanks.clear();
    Best ops;
    for (std::size_t part = 0; part < sc_->parts.size(); ++part) {
        const Partition& p = sc_->parts[part];
        if (!p.valid)
            walkPartition(static_cast<int>(part));
        if (p.best.ref >= 0)
            ops.offer(p.best.e, p.best.hi, p.best.lo, p.best.ref);
    }
#ifndef NDEBUG
    {
        // The flat walk over every cached candidate must pick the same.
        Best flat;
        for (std::size_t b = 0; b < sc_->cands.size(); ++b) {
            const BankCands& c = sc_->cands[b];
            if (held(c, static_cast<int>(b)))
                continue;
            for (int k = 0; k < c.count; ++k) {
                const CachedCand& cc = c.cand[static_cast<std::size_t>(k)];
                const RankKey key = candKey(cc);
                flat.offer(candTick(c, cc), key.hi, key.lo,
                           static_cast<int>(b) * kRefSlots + k);
            }
        }
        if (flat.e != ops.e || flat.hi != ops.hi || flat.lo != ops.lo ||
            flat.ref != ops.ref) {
            panic("partitioned pick (ref %d) differs from the flat walk's "
                  "(ref %d) at tick %lld", ops.ref, flat.ref,
                  static_cast<long long>(now_));
        }
    }
#endif
    if (ops.ref >= 0)
        run.offer(ops.e, ops.hi, ops.lo, ops.ref);

    // --- close/adaptive policies: precharge idle open rows --------------
    // A bank with a conflict PRE offers the same command at a better
    // rank, so its idle PRE can never win and needs no dedupe.
    const bool draining = drainingWrites_;
    if (cfg_.pagePolicy != PagePolicy::Open) {
        for (const int b : openBanks_) {
            const BankEntry& e = bankIx_[static_cast<std::size_t>(b)];
            if (e.read.hitCount > 0 || (draining && e.write.hitCount > 0))
                continue;
            const BankRecord& rec = dev_.bankRecord(b);
            if (cfg_.pagePolicy == PagePolicy::Adaptive &&
                now_ - bankLastUse(rec) < kAdaptiveIdleTimeout) {
                continue;
            }
            const Tick floor =
                sc_->busFloor[static_cast<std::size_t>(2 * e.addr.pc)];
            const RankKey key = rankKey(kPrioIdlePre, 0, kRankIdlePre,
                                        static_cast<std::uint64_t>(b));
            run.offer(std::max({now_, dev_.preBankTerm(rec), floor}), key.hi,
                      key.lo, b * kRefSlots + kRefIdlePre);
        }
    }

    const bool have_best = run.ref >= 0;
    Pick best;
    if (have_best) {
        best.earliest = run.e;
        best.bank = run.ref / kRefSlots;
        const int slot = run.ref % kRefSlots;
        if (slot == kRefRefresh) {
            best.kind = dev_.bankRecord(best.bank).open() ? CmdKind::Pre
                                                          : CmdKind::RefPb;
            best.refreshUnit = sc_->cands[static_cast<std::size_t>(best.bank)].unit;
        } else if (slot == kRefIdlePre) {
            best.kind = CmdKind::Pre;
        } else {
            const CachedCand& cc =
                sc_->cands[static_cast<std::size_t>(best.bank)]
                    .cand[static_cast<std::size_t>(slot)];
            best.kind = static_cast<CmdKind>(cc.kind);
            best.node = cc.node;
        }
    }

    if (!have_best) {
        Tick adaptive_next = kTickMax;
        if (cfg_.pagePolicy == PagePolicy::Adaptive) {
            for (const int b : openBanks_) {
                adaptive_next = std::min(
                    adaptive_next,
                    std::max(now_ + 1, bankLastUse(dev_.bankRecord(b)) +
                                           kAdaptiveIdleTimeout));
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
            if (nextRetryAt_ != kTickMax &&
                std::max(nextRetryAt_, now_ + 1) == next) {
                cause = StallCause::RetryBackoff;
                matched = true;
            }
            if (!matched && !host_.empty()) {
                Tick admit_at = std::max(host_.front().arrival, now_ + 1);
                const Tick first_free =
                    std::min(readOutstanding_.firstAfter(now_),
                             writeOutstanding_.firstAfter(now_));
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
                    if (now_ < u.rot.due && u.rot.due == next) {
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

    const Command cmd = pickCommand(best);
    if (telemetryOn() && best.earliest > now_) {
        // The winning candidate waited [now_, earliest): when the
        // structural floor set by other banks' traffic (tRRD/tFAW for
        // ACT, CAS-chain/turnaround for RD/WR) already equals the exact
        // issue tick, that constraint binds; otherwise the bank FSM
        // itself was the holdup.
        StallCause cause = StallCause::BankBusy;
        if (best.refreshUnit >= 0) {
            cause = StallCause::Refresh;
        } else if (cmd.kind == CmdKind::Rd || cmd.kind == CmdKind::Wr) {
            if (dev_.casFloor(cmd.addr.pc, now_) == best.earliest)
                cause = StallCause::CasChain;
        } else if (cmd.kind == CmdKind::Act &&
                   dev_.actFloor(cmd.addr.pc, cmd.addr.sid, now_) ==
                       best.earliest) {
            cause = StallCause::ActWindow;
        }
        chargeStall(cause, now_, best.earliest, best.bank);
    }
#ifndef NDEBUG
    if (dev_.earliestIssue(cmd, now_) != best.earliest)
        panic("cached terms disagree with the device probe for %s",
              cmd.str().c_str());
#endif
    now_ = best.earliest;
    const auto res = dev_.issue(cmd, now_);
    // Every command moves its bank's timing terms.
    markStale(best.bank);
    updateSharedTerms(cmd);
    if (cmd.kind == CmdKind::Pre)
        sc_->refreshWake = 0; // a refresh at this bank turns PRE into REFpb

    if (best.refreshUnit >= 0) {
        if (cmd.kind == CmdKind::RefPb) {
            RefreshUnit& u =
                refreshUnits_[static_cast<std::size_t>(best.refreshUnit)];
            u.rot.advance(dramCfg_.org.banksPerSid());
            sc_->refreshWake = 0;
            if (faults_.enabled())
                runScrub(); // patrol scrub rides the refresh calendar
        } else {
            applyRowCommand(cmd); // opportunistic-refresh precharge
        }
    } else if (cmd.kind == CmdKind::Rd || cmd.kind == CmdKind::Wr) {
        const Op op = pool_[static_cast<std::size_t>(best.node)].op;
        removeOpIndexed(best.node);
        (cmd.kind == CmdKind::Wr ? writeOutstanding_ : readOutstanding_)
            .push(res.dataUntil);
        ++casIssued_;
        completeOp(op, res.dataUntil);
    } else {
        applyRowCommand(cmd); // ACT or conflict/idle PRE
    }
    return true;
}

// ---------------------------------------------------------------------------
// Legacy scheduler (the seed's rescan-everything loop; the parity tests'
// reference).
// ---------------------------------------------------------------------------

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
                                kAdaptiveIdleTimeout) {
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
                                         kAdaptiveIdleTimeout));
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

template <class Ar, class Self>
void
ConventionalMc::fields(Ar& ar, Self& self)
{
    const auto addr = [&ar](auto& a) {
        ar(a.pc, a.sid, a.bg, a.bank, a.row, a.col);
    };
    const auto op = [&](auto& o) {
        addr(o.addr);
        ar(o.reqId, o.kind, o.arrival, o.slot, o.attempt, o.retryWait,
           o.linkDelay);
    };
    const auto bank_list = [&ar](auto& l) {
        ar(l.head, l.tail, l.count, l.hitCount, l.hitRep, l.minArrivalLb,
           l.sorted);
    };

    self.baseState(ar);
    ar(self.dev_);
    ar.seq(self.readQ_, op);
    ar.seq(self.writeQ_, op);
    ar.seq(self.pool_, [&](auto& n) {
        op(n.op);
        ar(n.seq, n.bank, n.prev, n.next);
    });
    ar.seq(self.freeNodes_);
    ar.fixed(self.bankIx_, "hbm4 bank-index", [&](auto& e) {
        bank_list(e.read);
        bank_list(e.write);
        ar(e.activePos, e.openPos);
        addr(e.addr);
    });
    ar.seq(self.activeBanks_);
    ar.seq(self.openBanks_);
    ar(self.admitSeq_, self.readCount_, self.writeCount_,
       self.readOutstanding_, self.writeOutstanding_, self.drainingWrites_);
    ar.fixed(self.refreshUnits_, "hbm4 refresh-unit", [&ar](auto& u) {
        ar(u.rot.interval, u.rot.due, u.rot.cursor);
    });
    ar.seq(self.retryQ_, [&](auto& p) {
        op(p.op);
        ar(p.readyAt);
    });
    ar(self.nextRetryAt_, self.casIssued_);
}

void
ConventionalMc::saveCheckpoint(CheckpointWriter& w) const
{
    if (sink_ != nullptr)
        sink_->instant("checkpoint", TelemetrySink::kChannelTrack, now_);
    fields(w, *this);
}

void
ConventionalMc::restoreCheckpoint(CheckpointReader& r)
{
    fields(r, *this);
    scrubEvents_.clear();
    // The step's caches are a function of the restored state: the next
    // step derives them afresh.
    sc_.reset();
}

} // namespace rome
