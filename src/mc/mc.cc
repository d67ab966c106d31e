#include "mc/mc.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

/** Write-drain hysteresis: start draining at this write-queue occupancy
 *  fraction, stop at the low one. */
constexpr double kWriteHighWatermark = 0.9;
constexpr double kWriteLowWatermark = 0.05;

/** Adaptive policy: precharge an idle open row after this long. */
constexpr Tick kAdaptiveIdleTimeout = ticksFromNs(std::int64_t{100});

/** RankKey::hi's age bits, below the priority. */
constexpr std::uint64_t kAgeMask = (std::uint64_t{1} << 60) - 1;

/** Candidate tie-break categories, in the seed's collection order. */
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
    initTelemetry(cfg_.telemetry, cfg.org.banksPerChannel());
}

bool
ConventionalMc::admitOps()
{
    const Request& req = host_.front();
    const bool is_read = req.kind == ReqKind::Read;
    const auto& outstanding = is_read ? readOutstanding_ : writeOutstanding_;
    const auto depth = static_cast<std::size_t>(
        is_read ? cfg_.readQueueDepth : cfg_.writeQueueDepth);
    const std::size_t used =
        static_cast<std::size_t>(is_read ? readCount_ : writeCount_) +
        outstanding.size();
    if (used >= depth)
        return false;
    // Lines are columnBytes apart, a power of two the mapping checked.
    const int shift = map_.columnShift();
    const std::uint64_t first_line = req.addr >> shift;
    const std::uint64_t total =
        ((req.addr + req.size - 1) >> shift) - first_line + 1;
    const int slot = frontSlot(total);
    // Each admitted line takes one queue entry.
    const std::uint64_t end =
        frontChunk_ +
        std::min<std::uint64_t>(total - frontChunk_, depth - used);
    for (; frontChunk_ < end; ++frontChunk_)
        queueOp(req, slot, lineAddr(first_line + frontChunk_));
    if (frontChunk_ == total) {
        host_.pop_front();
        frontChunk_ = 0;
        return true;
    }
    return false;
}

DramAddress
ConventionalMc::lineAddr(std::uint64_t line) const
{
    DramAddress a = map_.decode(line << map_.columnShift());
    if (faults_.enabled()) {
        // Spared rows are remapped at admission so every queued op
        // carries the physical row it will access.
        a.row = faults_.remappedRow(flatBankIndex(dramCfg_.org, a), a.row);
    }
    return a;
}

void
ConventionalMc::updateWriteDrain()
{
    // Write-drain hysteresis.
    const bool forced = readCount_ == 0 && writeCount_ != 0;
    const bool was = drainingWrites_;
    if (!drainingWrites_) {
        if (writeCount_ >= sc_->writeHigh || forced)
            drainingWrites_ = true;
    } else if (writeCount_ <= sc_->writeLow && !forced) {
        drainingWrites_ = false;
    }
    if (drainingWrites_ != was) {
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
            static_cast<std::size_t>(readCount_) + readOutstanding_.size() <
                depth) {
            insertRun(r.op, admitSeq_++); // a run of its own attempt
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
    // All ops of a run share its row, so the head's row is the run's.
    BankEntry& e = bankIx_[static_cast<std::size_t>(ev.bank)];
    for (BankList* l : {&e.read, &e.write}) {
        for (int i = l->head; i != -1;
             i = pool_[static_cast<std::size_t>(i)].next) {
            rewrite(pool_[static_cast<std::size_t>(i)].op);
        }
    }
    // Row identities in the bank changed: hit summaries are stale.
    reindexBankRow(ev.bank);
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

// ---------------------------------------------------------------------------
// Scheduler
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

std::uint64_t
ConventionalMc::headRankLo(const RunNode& n)
{
    // The category is the op's queue.
    return rankKey(0, 0,
                   n.op.kind == ReqKind::Write ? kRankWriteOp : kRankReadOp,
                   n.seq)
        .lo;
}

void
ConventionalMc::queueOp(const Request& req, int slot, const DramAddress& a)
{
    const std::uint64_t seq = admitSeq_++;
    const int bank = flatBankIndex(dramCfg_.org, a);
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    const bool is_write = req.kind == ReqKind::Write;
    BankList& l = is_write ? e.write : e.read;
    if (l.tail != -1 && slot >= 0) {
        // Only a request of several ops has a slot, and only its own ops
        // carry it; a re-read or a spare replay keeps a run of its own. A
        // retry admitted since the tail run's last op breaks its stride.
        RunNode& r = pool_[static_cast<std::size_t>(l.tail)];
        if (r.op.slot == slot && r.op.addr.row == a.row &&
            r.op.addr.col + r.count == a.col && r.op.attempt == 0 &&
            r.op.retryWait == 0 &&
            (r.count == 1 ||
             seq - r.seq == r.stride * static_cast<std::uint64_t>(r.count))) {
            if (r.count == 1)
                r.stride = seq - r.seq;
            ++r.count;
            ++l.count;
            if (is_write)
                ++writeCount_;
            else
                ++readCount_;
            // The op joins the tail behind its run's head, with its
            // arrival and row: the list stays as sorted, the hit run and
            // the oldest arrival stand, and the bank's candidates read
            // neither its sequence nor a count it moves from zero.
            const BankRecord& rec = dev_.bankRecord(bank);
            if (rec.open() && rec.openRow == a.row)
                ++l.hitCount;
            return;
        }
    }
    insertRun(Op{a, req.id, req.kind, req.arrival, slot, 0, 0, req.linkDelay},
              seq);
}

void
ConventionalMc::insertRun(const Op& op, std::uint64_t seq)
{
    int node;
    if (!freeNodes_.empty()) {
        node = freeNodes_.back();
        freeNodes_.pop_back();
    } else {
        node = static_cast<int>(pool_.size());
        pool_.emplace_back();
    }
    RunNode& n = pool_[static_cast<std::size_t>(node)];
    n.op = op;
    n.seq = seq;
    n.stride = 1;
    n.count = 1;
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
        wakeRefreshAt(n.bank); // a refresh at this bank is now postponed
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
ConventionalMc::serveRunHead(int node)
{
    RunNode& n = pool_[static_cast<std::size_t>(node)];
    if (n.count == 1) {
        removeRun(node);
        return;
    }
    BankEntry& e = bankIx_[static_cast<std::size_t>(n.bank)];
    const bool is_write = n.op.kind == ReqKind::Write;
    BankList& l = is_write ? e.write : e.read;
    ++n.op.addr.col;
    n.seq += n.stride;
    --n.count;
    --l.count;
    if (is_write)
        --writeCount_;
    else
        --readCount_;
    // The served op hit the open row, and so do the run's others. The
    // run keeps the min (arrival, seq) among the hits: an op between its
    // old and new head would have to lie inside the run in list order.
    --l.hitCount;
    patchCands(n.bank, node);
}

void
ConventionalMc::removeRun(int node)
{
    RunNode& n = pool_[static_cast<std::size_t>(node)];
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
        wakeRefreshAt(n.bank); // a refresh postponed for this bank may issue
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
        const RunNode& n = pool_[static_cast<std::size_t>(i)];
        min_arr = std::min(min_arr, n.op.arrival);
        if (n.op.arrival < prev_arr)
            l.sorted = false;
        prev_arr = n.op.arrival;
        if (open_row >= 0 && n.op.addr.row == open_row) {
            l.hitCount += n.count;
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
    // A run's ops share its arrival and row, so its head answers for all.
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
ConventionalMc::wakeRefreshAt(int bank)
{
    // A unit's scan reads only its cursor bank, and only once it is due;
    // before then its due tick wakes the scan anyway.
    if (!cfg_.refreshEnabled)
        return;
    const int unit = sc_->cands[static_cast<std::size_t>(bank)].unit;
    const RefreshUnit& u = refreshUnits_[static_cast<std::size_t>(unit)];
    if (now_ >= u.rot.due &&
        unit * dramCfg_.org.banksPerSid() + u.rot.cursor == bank)
        sc_->refreshWake = 0;
}

void
ConventionalMc::rebuildCands(int bank)
{
    BankEntry& e = bankIx_[static_cast<std::size_t>(bank)];
    BankCands& c = sc_->cands[static_cast<std::size_t>(bank)];
    // Swap-remove the old entries. Removing any other entry leaves a
    // partition's best standing.
    for (int k = 0; k < c.count; ++k) {
        const auto slot = static_cast<std::size_t>(k);
        Partition& p = sc_->parts[static_cast<std::size_t>(c.part[slot])];
        const int pos = c.pos[slot];
        const CachedCand& last = p.cands.back();
        sc_->cands[static_cast<std::size_t>(last.ref / kRefSlots)]
            .pos[static_cast<std::size_t>(last.ref % kRefSlots)] = pos;
        p.cands[static_cast<std::size_t>(pos)] = last;
        p.cands.pop_back();
        if (p.best.ref == bank * kRefSlots + k)
            p.expires = 0;
    }
    c.stale = false;
    c.count = 0;
    e.validUntil = kTickMax;
    const bool any_read = e.read.count > 0;
    const bool any_write = drainingWrites_ && e.write.count > 0;
    if (!any_read && !any_write)
        return;

    const auto add = [&](CmdKind kind, int node, Tick bank_term) {
        const RunNode& n = pool_[static_cast<std::size_t>(node)];
        const int slot = c.count++;
        const bool is_cas = kind == CmdKind::Rd || kind == CmdKind::Wr;
        // An aged op takes absolute priority; until then the command kind
        // sets it.
        CachedCand k;
        k.bankTerm = bank_term;
        k.hi = rankKey(kind == CmdKind::Act   ? kPrioAct
                       : kind == CmdKind::Pre ? kPrioPre
                                              : kPrioCasHit,
                       n.op.arrival, 0, 0)
                   .hi;
        k.aged = agedAt(n.op.arrival);
        k.rankLo = headRankLo(n);
        k.node = node;
        k.ref = bank * kRefSlots + slot;
        k.sharedIdx = static_cast<std::uint16_t>(
            kind == CmdKind::Act ? actTermIdx(c.group)
            : is_cas             ? (kind == CmdKind::Wr ? 1 : 0)
                                 : 0); // PRE: bank-local terms only
        k.unit = c.unit;
        k.sid = c.sid;
        k.bg = c.bg;
        k.classMask = is_cas ? -1 : 0;
        k.kind = static_cast<std::uint8_t>(kind);

        // Join the partition as a challenger.
        const int part = 2 * c.pc + (is_cas ? 1 : 0);
        Partition& p = sc_->parts[static_cast<std::size_t>(part)];
        c.part[static_cast<std::size_t>(slot)] =
            static_cast<std::int8_t>(part);
        c.pos[static_cast<std::size_t>(slot)] =
            static_cast<std::int32_t>(p.cands.size());
        p.cands.push_back(k);
        offerCand(part, k);
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

void
ConventionalMc::patchCands(int bank, int node)
{
    const BankCands& c = sc_->cands[static_cast<std::size_t>(bank)];
    // The CAS moved only the bank's CAS and PRE terms (the bank stays
    // open) and the served run's head. Every other input of the cached
    // set stands: the served list still has a hit, the same run is its
    // best, the hit and conflict counts kept their difference, and the
    // conflict PRE's op can change only at the bank's validUntil, which
    // the aging recheck watches.
    const BankRecord& rec = dev_.bankRecord(bank);
    for (int k = 0; k < c.count; ++k) {
        const auto slot = static_cast<std::size_t>(k);
        const int part = c.part[slot];
        Partition& p = sc_->parts[static_cast<std::size_t>(part)];
        CachedCand& cc = p.cands[static_cast<std::size_t>(c.pos[slot])];
        const auto kind = static_cast<CmdKind>(cc.kind);
        cc.bankTerm = kind == CmdKind::Pre
                          ? dev_.preBankTerm(rec)
                          : dev_.casBankTerm(rec, kind == CmdKind::Wr);
        if (cc.node == node)
            cc.rankLo = headRankLo(pool_[static_cast<std::size_t>(node)]);
        // An entry that was its partition's best re-walks it; any other
        // challenges the best that stands.
        if (p.best.ref == cc.ref)
            p.expires = 0;
        else
            offerCand(part, cc);
    }
}

void
ConventionalMc::offerCand(int part, const CachedCand& cc)
{
    // A partition whose best stands takes the entry as a challenger,
    // remembering when it would reorder a tie by aging.
    Partition& p = sc_->parts[static_cast<std::size_t>(part)];
    if (now_ >= p.expires || held(cc))
        return;
    const Tick tick = candTick(part, cc);
    const RankKey key = candKey(cc);
    p.best.offer(tick, key.hi, key.lo, cc.ref, cc.node,
                 static_cast<CmdKind>(cc.kind));
    if (tick == p.best.e && cc.aged > now_)
        p.expires = std::min(p.expires, cc.aged);
}

Tick
ConventionalMc::candTick(int part, const CachedCand& cc) const
{
    const int* last_cas = sc_->lastCas.data() + (part & ~1);
    const int cas_class =
        2 * (2 * (cc.sid == last_cas[0]) + (cc.bg == last_cas[1]));
    const auto at = static_cast<std::size_t>(part);
    const Tick term =
        sc_->termBase[at] +
        sc_->sharedTerm[static_cast<std::size_t>(
            sc_->termOff[at] + cc.sharedIdx + (cas_class & cc.classMask))];
    const Tick floor = sc_->busFloor[at];
    return std::max(std::max(now_, cc.bankTerm), std::max(term, floor));
}

bool
ConventionalMc::held(const CachedCand& cc) const
{
    return sc_->heldAny &&
           unitForcedBank_[static_cast<std::size_t>(cc.unit)] ==
               cc.ref / kRefSlots;
}

void
ConventionalMc::walkPartition(int part)
{
    Partition& p = sc_->parts[static_cast<std::size_t>(part)];
    // One pass over the partition's own array.
    Best b;
    Tick expires = kTickMax;
    for (const CachedCand& cc : p.cands) {
        if (held(cc))
            continue; // bank held for a forced refresh
        const Tick e = candTick(part, cc);
        const RankKey key = candKey(cc);
        // The best stands until the first tie at its tick ages, since
        // aging reorders ties.
        const Tick aged = cc.aged > now_ ? cc.aged : kTickMax;
        expires = e < b.e    ? aged
                  : e == b.e ? std::min(expires, aged)
                             : expires;
        b.offer(e, key.hi, key.lo, cc.ref, cc.node,
                static_cast<CmdKind>(cc.kind));
    }
    p.best = b;
    p.expires = expires;
}

ConventionalMc::RankKey
ConventionalMc::candKey(const CachedCand& cc) const
{
    return {now_ >= cc.aged ? cc.hi & kAgeMask : cc.hi, cc.rankLo};
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
    // Each of a PC's banks holds at most one row-bus candidate (ACT or
    // PRE) and two column-bus ones (RD and WR).
    const int pc_banks = nbanks / org.pcsPerChannel;
    sc_->parts.resize(static_cast<std::size_t>(2 * org.pcsPerChannel));
    for (std::size_t i = 0; i < sc_->parts.size(); ++i) {
        sc_->parts[i].cands.reserve(
            static_cast<std::size_t>(pc_banks * (i % 2 == 0 ? 1 : 2)));
    }
    sc_->liveRefresh.reserve(refreshUnits_.size());
    sc_->numGroups = nbanks / org.banksPerGroup;
    sc_->sharedTerm.assign(static_cast<std::size_t>(casGapIdx() + 24), 0);
    // ChannelDevice::casClassTerm's gaps: CAS-to-CAS by class, then the
    // read-to-write or write-to-read turnaround. The row for no CAS yet
    // stays 0.
    const TimingParams& t = dramCfg_.timing;
    for (int i = 0; i < 16; ++i) {
        const bool after_write = i >= 8;
        const bool same_sid = (i & 4) != 0;
        const bool same_bg = (i & 2) != 0;
        const bool is_write = (i & 1) != 0;
        Tick gap = !same_sid ? t.tCCDR : same_bg ? t.tCCDL : t.tCCDS;
        if (!after_write && is_write)
            gap = std::max(gap, t.tRTW);
        if (after_write && !is_write)
            gap = std::max(gap, same_bg ? t.tWTRL : t.tWTRS);
        sc_->sharedTerm[static_cast<std::size_t>(casGapIdx() + i)] = gap;
    }
    // The watermarks as the integer occupancies their fractions bound.
    const auto w_depth = static_cast<double>(cfg_.writeQueueDepth);
    sc_->writeHigh =
        static_cast<int>(std::ceil(kWriteHighWatermark * w_depth));
    sc_->writeLow =
        static_cast<int>(std::floor(kWriteLowWatermark * w_depth));
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
    // No term binds before the PC's first CAS.
    const Tick last = dev_.lastCasAt(pc);
    const int row = last == kTickInvalid        ? 2
                    : dev_.lastCasWasWrite(pc) ? 1
                                               : 0;
    const auto at = static_cast<std::size_t>(2 * pc + 1);
    sc_->termBase[at] = last == kTickInvalid ? 0 : last;
    sc_->termOff[at] = casGapIdx() + 8 * row;
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
    sc_->parts[part].expires = 0;
}

Command
ConventionalMc::pickCommand(const Best& b) const
{
    const int bank = b.ref / kRefSlots;
    DramAddress a = b.node >= 0
                        ? pool_[static_cast<std::size_t>(b.node)].op.addr
                        : bankIx_[static_cast<std::size_t>(bank)].addr;
    if (b.kind == CmdKind::Pre)
        a.row = dev_.bankRecord(bank).openRow; // conflict, refresh, idle
    return Command{b.kind, a};
}

bool
ConventionalMc::stepOnce(Tick until)
{
    dev_.setClock(now_);
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
            // Until the next scan no ACT or PRE reaches this bank: it has
            // no work or is held, and a PRE to it wakes the scan.
            const BankRecord& rec = dev_.bankRecord(bank);
            RefreshCand rc;
            rc.kind = rec.open() ? CmdKind::Pre : CmdKind::RefPb;
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
                p.expires = 0;
        }
    }

    // --- op candidates: the minima of the (PC, bus) partitions ----------
    Partition* parts = sc_->parts.data();
    const int num_parts = static_cast<int>(sc_->parts.size());
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
    // A partition re-walks when an event moved its best or a tie aged,
    // which reorders ties.
    for (int i = 0; i < num_parts; ++i) {
        if (now_ >= parts[i].expires)
            walkPartition(i);
    }
    Best run;
    for (int i = 0; i < num_parts; ++i) {
        const Best& b = parts[i].best;
        run.offer(b.e, b.hi, b.lo, b.ref, b.node, b.kind);
    }
#ifndef NDEBUG
    {
        // The flat walk over every cached candidate, reached through each
        // bank's positions, must pick the same.
        Best flat;
        std::size_t listed = 0;
        for (std::size_t b = 0; b < sc_->cands.size(); ++b) {
            const BankCands& c = sc_->cands[b];
            for (int k = 0; k < c.count; ++k) {
                const int part = c.part[static_cast<std::size_t>(k)];
                const CachedCand& cc =
                    parts[part].cands[static_cast<std::size_t>(
                        c.pos[static_cast<std::size_t>(k)])];
                if (cc.ref != static_cast<int>(b) * kRefSlots + k)
                    panic("bank %zu's candidate %d is not at its position", b,
                          k);
                ++listed;
                if (held(cc))
                    continue;
                const RankKey key = candKey(cc);
                flat.offer(candTick(part, cc), key.hi, key.lo, cc.ref,
                           cc.node, static_cast<CmdKind>(cc.kind));
            }
        }
        std::size_t held_in_parts = 0;
        for (int i = 0; i < num_parts; ++i)
            held_in_parts += parts[i].cands.size();
        if (held_in_parts != listed) {
            panic("partitions hold %zu candidates, the banks list %zu",
                  held_in_parts, listed);
        }
        if (flat.e != run.e || flat.hi != run.hi || flat.lo != run.lo ||
            flat.ref != run.ref || flat.node != run.node ||
            flat.kind != run.kind) {
            panic("partitioned pick (ref %d) differs from the flat walk's "
                  "(ref %d) at tick %lld", run.ref, flat.ref,
                  static_cast<long long>(now_));
        }
    }
#endif
    for (const RefreshCand& rc : sc_->liveRefresh) {
        run.offer(std::max({now_, rc.term,
                            sc_->busFloor[static_cast<std::size_t>(
                                2 * rc.pc)]}),
                  rc.key.hi, rc.key.lo, rc.bank * kRefSlots + kRefRefresh, -1,
                  rc.kind);
    }

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
                      key.lo, b * kRefSlots + kRefIdlePre, -1, CmdKind::Pre);
        }
    }

    const bool have_best = run.ref >= 0;
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

    if (run.e > until) {
        // Retried verbatim from the same event tick by the next call.
        return false;
    }

    const int bank = run.ref / kRefSlots;
    const bool refresh = run.ref % kRefSlots == kRefRefresh;
    const Command cmd = pickCommand(run);
    if (telemetryOn() && run.e > now_) {
        // The winning candidate waited [now_, earliest): when the
        // structural floor set by other banks' traffic (tRRD/tFAW for
        // ACT, CAS-chain/turnaround for RD/WR) already equals the exact
        // issue tick, that constraint binds; otherwise the bank FSM
        // itself was the holdup.
        StallCause cause = StallCause::BankBusy;
        if (refresh) {
            cause = StallCause::Refresh;
        } else if (cmd.kind == CmdKind::Rd || cmd.kind == CmdKind::Wr) {
            if (dev_.casFloor(cmd.addr.pc, now_) == run.e)
                cause = StallCause::CasChain;
        } else if (cmd.kind == CmdKind::Act &&
                   dev_.actFloor(cmd.addr.pc, cmd.addr.sid, now_) == run.e) {
            cause = StallCause::ActWindow;
        }
        chargeStall(cause, now_, run.e, bank);
    }
#ifndef NDEBUG
    if (dev_.earliestIssue(cmd, now_) != run.e)
        panic("cached terms disagree with the device probe for %s",
              cmd.str().c_str());
#endif
    now_ = run.e;
    const auto res = dev_.issue(cmd, now_);
    updateSharedTerms(cmd);
    if (cmd.kind == CmdKind::Rd || cmd.kind == CmdKind::Wr) {
        // The CAS moved its bank's timing terms: serving the run's head
        // patches the bank's candidates, or rebuilds them once it empties.
        const Op op = pool_[static_cast<std::size_t>(run.node)].op;
        serveRunHead(run.node);
        (cmd.kind == CmdKind::Wr ? writeOutstanding_ : readOutstanding_)
            .push(res.dataUntil);
        ++casIssued_;
        completeOp(op, res.dataUntil);
        return true;
    }
    // Every other command moves its bank's timing terms too.
    markStale(bank);
    if (cmd.kind == CmdKind::Pre)
        wakeRefreshAt(bank); // a refresh at this bank turns PRE into REFpb

    if (refresh && cmd.kind == CmdKind::RefPb) {
        RefreshUnit& u = refreshUnits_[static_cast<std::size_t>(
            sc_->cands[static_cast<std::size_t>(bank)].unit)];
        u.rot.advance(dramCfg_.org.banksPerSid());
        sc_->refreshWake = 0;
        if (faults_.enabled())
            runScrub(); // patrol scrub rides the refresh calendar
    } else {
        applyRowCommand(cmd); // ACT, or a conflict, idle or refresh PRE
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
    ar.seq(self.pool_, [&](auto& n) {
        op(n.op);
        ar(n.seq, n.stride, n.count, n.bank, n.prev, n.next);
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
    if constexpr (Ar::kLoading)
        self.checkRestoredIndices();
}

void
ConventionalMc::checkRestoredIndices() const
{
    // Every index a step follows must name an entry of the table it
    // indexes, and every queued op a cell of the device: a malformed blob
    // fatals here instead of running on into a crash.
    const Organization& org = dramCfg_.org;
    const auto cols = static_cast<std::int64_t>(org.columnsPerRow());
    const std::size_t nodes = pool_.size();
    const auto in_device = [&org, cols](const DramAddress& a) {
        return a.pc >= 0 && a.pc < org.pcsPerChannel && a.sid >= 0 &&
               a.sid < org.sidsPerChannel && a.bg >= 0 &&
               a.bg < org.bankGroupsPerSid && a.bank >= 0 &&
               a.bank < org.banksPerGroup && a.row >= 0 &&
               a.row < org.rowsPerBank && a.col >= 0 && a.col < cols;
    };

    // Each list links its runs once each, both ways, from head to tail.
    // Each run holds ops of its kind and bank in one row at a forward
    // stride, and together they hold the list's op count.
    std::vector<char> listed(nodes, 0);
    for (std::size_t b = 0; b < bankIx_.size(); ++b) {
        const BankEntry& e = bankIx_[b];
        for (const BankList* l : {&e.read, &e.write}) {
            const ReqKind kind =
                l == &e.read ? ReqKind::Read : ReqKind::Write;
            std::int64_t ops = 0;
            int prev = -1;
            bool rep_listed = false;
            for (int i = l->head; i != -1;
                 i = pool_[static_cast<std::size_t>(i)].next) {
                if (i < 0 || static_cast<std::size_t>(i) >= nodes ||
                    listed[static_cast<std::size_t>(i)]) {
                    fatal("checkpoint links a bank list outside its %zu "
                          "pooled runs", nodes);
                }
                listed[static_cast<std::size_t>(i)] = 1;
                const RunNode& n = pool_[static_cast<std::size_t>(i)];
                if (n.bank != static_cast<int>(b)) {
                    fatal("checkpoint run %d in bank %zu's list has bank %d",
                          i, b, n.bank);
                }
                if (n.prev != prev) {
                    fatal("checkpoint run %d has prev %d, but follows run %d",
                          i, n.prev, prev);
                }
                if (n.op.kind != kind) {
                    fatal("checkpoint run %d holds a kind-%d op in a %s list",
                          i, static_cast<int>(n.op.kind),
                          kind == ReqKind::Read ? "read" : "write");
                }
                if (!in_device(n.op.addr) ||
                    flatBankIndex(org, n.op.addr) != n.bank) {
                    fatal("checkpoint pooled op at %s lies outside its bank "
                          "%d", n.op.addr.str().c_str(), n.bank);
                }
                if (n.op.slot >= 0 && !liveSlot(n.op.slot)) {
                    fatal("checkpoint pooled op has slot %d, not a live "
                          "in-flight slot", n.op.slot);
                }
                if (n.count < 1)
                    fatal("checkpoint run holds %d ops", n.count);
                if (n.stride < 1)
                    fatal("checkpoint run has admission stride 0");
                if (std::int64_t{n.op.addr.col} + n.count > cols) {
                    fatal("checkpoint run of %d ops from column %d leaves its "
                          "%lld-column row", n.count, n.op.addr.col,
                          static_cast<long long>(cols));
                }
                rep_listed |= i == l->hitRep;
                ops += n.count;
                prev = i;
            }
            if (l->tail != prev) {
                fatal("checkpoint bank list tail %d is not its last run %d",
                      l->tail, prev);
            }
            if (ops != l->count) {
                fatal("checkpoint bank list counts %d ops, its runs hold %lld",
                      l->count, static_cast<long long>(ops));
            }
            if (l->hitRep != kRepNone && l->hitRep != kRepUnknown &&
                !rep_listed) {
                fatal("checkpoint bank list hitRep %d is not one of its runs",
                      l->hitRep);
            }
        }
    }
    for (const int f : freeNodes_) {
        if (f < 0 || static_cast<std::size_t>(f) >= nodes ||
            listed[static_cast<std::size_t>(f)]) {
            fatal("checkpoint freeNodes entry %d is not an unlisted pooled "
                  "run", f);
        }
        listed[static_cast<std::size_t>(f)] = 1;
    }

    // Each bank-set entry names a bank placed at that entry, and no other
    // bank holds a place.
    const auto check_set = [this](const std::vector<int>& set,
                                  int BankEntry::*pos, const char* what) {
        for (std::size_t i = 0; i < set.size(); ++i) {
            const int b = set[i];
            if (b < 0 || static_cast<std::size_t>(b) >= bankIx_.size() ||
                bankIx_[static_cast<std::size_t>(b)].*pos !=
                    static_cast<int>(i)) {
                fatal("checkpoint %s entry %zu names bank %d, which is not "
                      "placed there", what, i, b);
            }
        }
        const auto placed = std::count_if(
            bankIx_.begin(), bankIx_.end(),
            [pos](const BankEntry& e) { return e.*pos != -1; });
        if (static_cast<std::size_t>(placed) != set.size()) {
            fatal("checkpoint %s holds %zu banks, %lld banks have a place "
                  "in it", what, set.size(), static_cast<long long>(placed));
        }
    };
    check_set(activeBanks_, &BankEntry::activePos, "activeBanks");
    check_set(openBanks_, &BankEntry::openPos, "openBanks");

    for (std::size_t i = 0; i < refreshUnits_.size(); ++i) {
        const int c = refreshUnits_[i].rot.cursor;
        if (c < 0 || c >= org.banksPerSid()) {
            fatal("checkpoint refresh unit %zu has cursor %d of %d banks", i,
                  c, org.banksPerSid());
        }
    }
    for (const PendingRetry& r : retryQ_) {
        if (!in_device(r.op.addr)) {
            fatal("checkpoint retrying op at %s lies outside the device",
                  r.op.addr.str().c_str());
        }
        if (r.op.slot >= 0 && !liveSlot(r.op.slot)) {
            fatal("checkpoint retrying op has slot %d, not a live in-flight "
                  "slot", r.op.slot);
        }
    }
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
