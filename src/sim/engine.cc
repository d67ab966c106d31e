#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/log.h"
#include "sim/source.h"

namespace rome
{

bool
ControllerStats::operator==(const ControllerStats& o) const
{
    return bytesRead == o.bytesRead && bytesWritten == o.bytesWritten &&
           overfetchBytes == o.overfetchBytes &&
           completedRequests == o.completedRequests && acts == o.acts &&
           pres == o.pres && reads == o.reads && writes == o.writes &&
           refPbs == o.refPbs && refAbs == o.refAbs &&
           rowCmds == o.rowCmds && colCmds == o.colCmds &&
           interfaceCommands == o.interfaceCommands &&
           ceCount == o.ceCount && dueCount == o.dueCount &&
           retryCount == o.retryCount && scrubCount == o.scrubCount &&
           sparedRows == o.sparedRows &&
           poisonedRequests == o.poisonedRequests &&
           // schedSteps and the telemetry fields (stallTicks, breakdown
           // histograms, timeSeries) deliberately excluded (see engine.h):
           // diagnostics of the run, not results — and telemetry-on must
           // compare equal to telemetry-off.
           finishedAt == o.finishedAt &&
           achievedBandwidth == o.achievedBandwidth &&
           effectiveBandwidth == o.effectiveBandwidth &&
           rowHitRate == o.rowHitRate && latencyMeanNs == o.latencyMeanNs &&
           latencyMaxNs == o.latencyMaxNs &&
           latencyHistNs == o.latencyHistNs;
}

namespace
{

/** 64-bit FNV-1a over the in-memory bytes of each value. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
};

} // namespace

std::uint64_t
ControllerStats::digest() const
{
    // Field order is part of the definition: the benchmark's stats
    // digest hashes the same values in the same order.
    Fnv1a f;
    for (const std::uint64_t v :
         {bytesRead, bytesWritten, overfetchBytes, completedRequests, acts,
          pres, reads, writes, refPbs, refAbs, rowCmds, colCmds,
          interfaceCommands, ceCount, dueCount, retryCount, scrubCount,
          sparedRows, poisonedRequests})
        f.u64(v);
    f.u64(static_cast<std::uint64_t>(finishedAt));
    for (const double v : {achievedBandwidth, effectiveBandwidth, rowHitRate,
                           latencyMeanNs, latencyMaxNs})
        f.f64(v);
    const LatencyHistogram& h = latencyHistNs;
    f.u64(h.count());
    f.f64(h.minNs());
    f.f64(h.maxNs());
    f.f64(h.sumNs());
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
        f.u64(h.bucketCount(i));
    return f.h;
}

void
ControllerStats::merge(const ControllerStats& o)
{
    // Weighted means need the pre-add weights of both sides.
    const double lat_w = static_cast<double>(completedRequests) +
                         static_cast<double>(o.completedRequests);
    if (lat_w > 0.0) {
        latencyMeanNs =
            (latencyMeanNs * static_cast<double>(completedRequests) +
             o.latencyMeanNs * static_cast<double>(o.completedRequests)) /
            lat_w;
    }
    const double col_w = static_cast<double>(colCmds) +
                         static_cast<double>(o.colCmds);
    if (col_w > 0.0) {
        rowHitRate = (rowHitRate * static_cast<double>(colCmds) +
                      o.rowHitRate * static_cast<double>(o.colCmds)) /
                     col_w;
    }
    bytesRead += o.bytesRead;
    bytesWritten += o.bytesWritten;
    overfetchBytes += o.overfetchBytes;
    completedRequests += o.completedRequests;
    acts += o.acts;
    pres += o.pres;
    reads += o.reads;
    writes += o.writes;
    refPbs += o.refPbs;
    refAbs += o.refAbs;
    rowCmds += o.rowCmds;
    colCmds += o.colCmds;
    interfaceCommands += o.interfaceCommands;
    ceCount += o.ceCount;
    dueCount += o.dueCount;
    retryCount += o.retryCount;
    scrubCount += o.scrubCount;
    sparedRows += o.sparedRows;
    poisonedRequests += o.poisonedRequests;
    schedSteps += o.schedSteps;
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        stallTicks[i] += o.stallTicks[i];
    queueNsHist.merge(o.queueNsHist);
    serviceNsHist.merge(o.serviceNsHist);
    retryNsHist.merge(o.retryNsHist);
    linkNsHist.merge(o.linkNsHist);
    timeSeries.merge(o.timeSeries);
    finishedAt = std::max(finishedAt, o.finishedAt);
    latencyMaxNs = std::max(latencyMaxNs, o.latencyMaxNs);
    // Bucket counts add, so merged percentiles are exact — identical to a
    // histogram that sampled every channel's requests directly.
    latencyHistNs.merge(o.latencyHistNs);
}

void
ControllerStats::deriveBandwidths()
{
    if (finishedAt == 0)
        return;
    const double ns = nsFromTicks(finishedAt);
    achievedBandwidth =
        static_cast<double>(totalBytes() + overfetchBytes) / ns;
    effectiveBandwidth = static_cast<double>(totalBytes()) / ns;
}

// ---------------------------------------------------------------------------
// IMemoryController
// ---------------------------------------------------------------------------

void
IMemoryController::bindSource(RequestSource* src)
{
    // Fallback for controllers without native streaming (e.g. composite
    // routers): eagerly drain the source into the host buffer.
    if (src == nullptr)
        return;
    Request r;
    while (src->next(r))
        enqueue(r);
}

Tick
IMemoryController::drainUntil(Tick until)
{
    // Exact for any controller: a wrapper that forwards only drain()
    // is drained once, in full.
    (void)until;
    return drain();
}

void
IMemoryController::saveCheckpoint(CheckpointWriter& w) const
{
    (void)w;
    fatal("controller \"%s\" does not support checkpointing",
          name().c_str());
}

void
IMemoryController::restoreCheckpoint(CheckpointReader& r)
{
    (void)r;
    fatal("controller \"%s\" does not support checkpointing",
          name().c_str());
}

void
IMemoryController::resumeSource(RequestSource* src)
{
    (void)src;
    fatal("controller \"%s\" does not support checkpointing",
          name().c_str());
}

std::vector<std::uint8_t>
saveControllerCheckpoint(const IMemoryController& mc)
{
    CheckpointWriter w;
    w.putU32(kCheckpointMagic);
    w.putU32(kCheckpointVersion);
    w.putStr(mc.name());
    mc.saveCheckpoint(w);
    return w.take();
}

void
restoreControllerCheckpoint(IMemoryController& mc,
                            const std::vector<std::uint8_t>& blob)
{
    CheckpointReader r(blob);
    const std::uint32_t magic = r.getU32();
    if (magic != kCheckpointMagic)
        fatal("not a checkpoint blob (magic 0x%08x)", magic);
    const std::uint32_t version = r.getU32();
    if (version != kCheckpointVersion) {
        fatal("checkpoint version %u, this build reads %u", version,
              kCheckpointVersion);
    }
    const std::string name = r.getStr();
    if (name != mc.name()) {
        fatal("checkpoint of controller \"%s\" cannot restore into \"%s\"",
              name.c_str(), mc.name().c_str());
    }
    mc.restoreCheckpoint(r);
    r.finish();
}

// ---------------------------------------------------------------------------
// ChannelControllerBase
// ---------------------------------------------------------------------------

void
ChannelControllerBase::enqueue(const Request& req)
{
    if (req.size == 0)
        fatal("zero-size request");
    // The request is live from here; a multi-op one takes an in-flight
    // slot when its first op is admitted (frontSlot).
    ++live_;
    host_.push_back(req);
    hostPeak_ = std::max(hostPeak_, host_.size());
    // Keep the completion log's capacity ahead of everything enqueued so
    // recording a completion never allocates inside the scheduling loop.
    ++totalRequests_;
    if (retainCompletions_ && completions_.capacity() < totalRequests_) {
        completions_.reserve(
            std::max<std::size_t>({completions_.capacity() * 2,
                                   static_cast<std::size_t>(totalRequests_),
                                   64}));
    }
}

void
ChannelControllerBase::bindSource(RequestSource* src)
{
    source_ = src;
    // Prime the host window so host_.front() is the stream head before
    // the first scheduling step (idle() and drain() consult it).
    sourceDone_ = src == nullptr;
    if (src != nullptr)
        refillFromSource();
}

void
ChannelControllerBase::refillFromSource()
{
    Request r;
    while (host_.size() < kSourceWindow && source_->next(r)) {
        ++sourcePulled_;
        enqueue(r);
    }
    sourceDone_ = source_->exhausted();
}

void
ChannelControllerBase::resumeSource(RequestSource* src)
{
    if (src == nullptr) {
        if (!sourceDone_)
            fatal("cannot resume without a source: the checkpointed run "
                  "still had stream requests pending");
        source_ = nullptr;
        return;
    }
    // Fast-forward the fresh stream past the consumed prefix. Sources
    // regenerate deterministically (the reset() replay contract), so the
    // skipped requests are exactly the ones the restored host window /
    // queues already account for.
    Request r;
    for (std::uint64_t i = 0; i < sourcePulled_; ++i) {
        if (!src->next(r)) {
            fatal("resumed source ended after %llu of %llu checkpointed "
                  "pulls — not the stream the checkpoint was taken over",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(sourcePulled_));
        }
    }
    source_ = src;
    sourceDone_ = src->exhausted();
}

void
ChannelControllerBase::pumpArrivals()
{
    if (source_ != nullptr)
        refillFromSource();
    while (!host_.empty() && host_.front().arrival <= now_) {
        if (!admitOps())
            break;
        if (source_ != nullptr)
            refillFromSource();
    }
}

int
ChannelControllerBase::frontSlot(std::uint64_t total)
{
    if (total == 1)
        return -1;
    if (frontChunk_ == 0) {
        const Request& req = host_.front();
        ReqState st;
        st.id = req.id;
        st.arrival = req.arrival;
        st.opsRemaining = static_cast<int>(total);
        st.linkDelay = req.linkDelay;
        if (freeSlots_.empty()) {
            frontSlot_ = static_cast<int>(slots_.size());
            slots_.push_back(st);
            freeSlots_.reserve(slots_.capacity());
        } else {
            frontSlot_ = freeSlots_.back();
            freeSlots_.pop_back();
            slots_[static_cast<std::size_t>(frontSlot_)] = st;
        }
    }
    return frontSlot_;
}

void
ChannelControllerBase::noteOpDone(int slot, Tick data_end, bool poisoned,
                                  Tick retry_wait)
{
    if (static_cast<std::size_t>(slot) >= slots_.size() ||
        slots_[static_cast<std::size_t>(slot)].opsRemaining == 0)
        panic("completion for unknown request (free in-flight slot %d)",
              slot);
    ReqState& st = slots_[static_cast<std::size_t>(slot)];
    st.poisoned |= poisoned;
    if (telemetry_) {
        if (st.firstIssue == kTickInvalid)
            st.firstIssue = now_;
        st.retryTicks += retry_wait;
    }
    if (--st.opsRemaining == 0) {
        --live_;
        ++completedCount_;
        if (st.poisoned)
            ++poisonedCount_;
        Completion* c = nullptr;
        if (retainCompletions_) {
            completions_.push_back(Completion{st.id, data_end, st.poisoned});
            c = &completions_.back();
        }
        const double lat_ns = nsFromTicks(data_end - st.arrival);
        latencyNs_.sample(lat_ns);
        latencyHistNs_.sample(lat_ns);
        if (telemetry_) {
            telemetrySampleCompletion(st.arrival, data_end, st.firstIssue,
                                      st.retryTicks, st.linkDelay, c);
        }
        freeSlots_.push_back(slot);
    }
}

void
ChannelControllerBase::noteSingleOpDone(std::uint64_t req_id, Tick arrival,
                                        Tick data_end, bool poisoned,
                                        Tick retry_wait, Tick link_delay)
{
    --live_;
    ++completedCount_;
    if (poisoned)
        ++poisonedCount_;
    Completion* slot = nullptr;
    if (retainCompletions_) {
        completions_.push_back(Completion{req_id, data_end, poisoned});
        slot = &completions_.back();
    }
    const double lat_ns = nsFromTicks(data_end - arrival);
    latencyNs_.sample(lat_ns);
    latencyHistNs_.sample(lat_ns);
    if (telemetry_) {
        telemetrySampleCompletion(arrival, data_end, now_, retry_wait,
                                  link_delay, slot);
    }
}

void
ChannelControllerBase::initTelemetry(const TelemetryConfig& cfg,
                                     int num_banks)
{
    if (!cfg.counters)
        return;
    telemetry_ = true;
    stall_.init(num_banks);
    // One time-series sample per microsecond of completion time, in a
    // 64-entry ring that halves its resolution when it fills.
    series_.init(ticksFromNs(std::int64_t{1000}), 64);
}

void
ChannelControllerBase::telemetrySampleCompletion(Tick arrival, Tick data_end,
                                                 Tick first_issue,
                                                 Tick retry_ticks,
                                                 Tick link_delay,
                                                 Completion* c)
{
    // Exact decomposition: queue + service + retry == data_end - arrival
    // in ticks. Retry backoff is carved out of the pre-issue wait, so a
    // retry landing after the request's first issue can drive the queue
    // component negative — the Completion keeps it signed (the sum stays
    // exact); the histogram clamps at zero like every negative sample.
    if (first_issue == kTickInvalid)
        first_issue = data_end;
    const double queue_ns =
        nsFromTicks(first_issue - arrival - retry_ticks);
    const double service_ns = nsFromTicks(data_end - first_issue);
    const double retry_ns = nsFromTicks(retry_ticks);
    const double link_ns = nsFromTicks(link_delay);
    queueHistNs_.sample(queue_ns);
    serviceHistNs_.sample(service_ns);
    retryHistNs_.sample(retry_ns);
    linkHistNs_.sample(link_ns);
    if (c != nullptr) {
        c->queueNs = queue_ns;
        c->serviceNs = service_ns;
        c->retryNs = retry_ns;
        c->linkNs = link_ns;
    }
    if (series_.enabled()) {
        TimeSample cur;
        cur.completed = completedCount_;
        cur.bytes = bytesRead_ + bytesWritten_;
        cur.occupancy = live_;
        cur.stall = stall_.totals();
        series_.observe(data_end, cur);
    }
}

void
ChannelControllerBase::runUntil(Tick until)
{
    // Closed-interval window: exhaust every event at ticks <= until,
    // including cascades landing exactly on the bound (e.g. a retry
    // waking at `until` whose re-read then issues at the same tick).
    // stepOnce's clamps keep now_ <= until, so the only exit is "nothing
    // left in this window" — which makes any partition of time into
    // windows process the exact same event sequence as one big window.
    while (now_ <= until) {
        ++steps_;
        if (!stepOnce(until))
            break;
    }
}

Tick
ChannelControllerBase::drainUntil(Tick until)
{
    // Each call resumes the one drain loop where the last one stopped:
    // stepOnce never decides between event ticks, so where the bounds
    // fall cannot change what a drain does.
    while (!idle() && now_ <= until) {
        ++steps_;
        if (!stepOnce(until))
            break;
    }
    return idle() ? device().lastDataEnd() : kTickInvalid;
}

Tick
ChannelControllerBase::drain()
{
    drainUntil(kTickMax - 1);
    return device().lastDataEnd();
}

bool
ChannelControllerBase::idle() const
{
    // Every queued or outstanding operation belongs to a live request, so
    // no live requests implies empty op queues. A bound source with
    // requests left means pending work even when the host window drained.
    return host_.empty() && live_ == 0 && sourceDone_;
}

void
ChannelControllerBase::fillBaseStats(ControllerStats& s) const
{
    s.bytesRead = bytesRead_;
    s.bytesWritten = bytesWritten_;
    s.completedRequests = completedCount_;
    s.latencyMeanNs = latencyNs_.mean();
    s.latencyMaxNs = latencyNs_.max();
    s.latencyHistNs = latencyHistNs_;
    s.ceCount = faults_.ceCount();
    s.dueCount = faults_.dueCount();
    s.retryCount = faults_.retryCount();
    s.scrubCount = faults_.scrubCount();
    s.sparedRows = faults_.sparedRows();
    s.poisonedRequests = poisonedCount_;
    s.schedSteps = steps_;
    if (telemetry_) {
        s.stallTicks = stall_.totals();
        s.queueNsHist = queueHistNs_;
        s.serviceNsHist = serviceHistNs_;
        s.retryNsHist = retryHistNs_;
        s.linkNsHist = linkHistNs_;
        s.timeSeries = series_;
    }
    const auto& c = device().counters();
    s.acts = c.acts.value();
    s.pres = c.pres.value();
    s.reads = c.reads.value();
    s.writes = c.writes.value();
    s.refPbs = c.refPbs.value();
    s.refAbs = c.refAbs.value();
    s.rowCmds = c.rowCmds.value();
    s.colCmds = c.colCmds.value();
    s.finishedAt = device().lastDataEnd();
}

namespace
{

void
putRequest(CheckpointWriter& w, const Request& r)
{
    w.putU64(r.id);
    w.putU8(static_cast<std::uint8_t>(r.kind));
    w.putU64(r.addr);
    w.putU64(r.size);
    w.putI64(r.arrival);
    w.putI64(r.linkDelay);
}

Request
getRequest(CheckpointReader& r)
{
    Request q;
    q.id = r.getU64();
    q.kind = static_cast<ReqKind>(r.getU8());
    q.addr = r.getU64();
    q.size = r.getU64();
    q.arrival = r.getI64();
    q.linkDelay = r.getI64();
    return q;
}

} // namespace

void
ChannelControllerBase::saveBaseState(CheckpointWriter& w) const
{
    w.putI64(now_);
    faults_.saveState(w);
    w.putCount(host_.size());
    for (const Request& r : host_)
        putRequest(w, r);
    w.putU64(frontChunk_);
    w.putI32(frontSlot_);
    // Queued ops name their slots, so every slot round-trips in place,
    // free ones included, and so does the free list's order.
    w.putCount(slots_.size());
    for (const ReqState& st : slots_) {
        w.putU64(st.id);
        w.putI64(st.arrival);
        w.putI32(st.opsRemaining);
        w.putBool(st.poisoned);
        w.putI64(st.firstIssue);
        w.putI64(st.retryTicks);
        w.putI64(st.linkDelay);
    }
    w.putCount(freeSlots_.size());
    for (const int slot : freeSlots_)
        w.putI32(slot);
    w.putCount(completions_.size());
    for (const Completion& c : completions_) {
        w.putU64(c.id);
        w.putI64(c.finished);
        w.putBool(c.poisoned);
        w.putF64(c.queueNs);
        w.putF64(c.serviceNs);
        w.putF64(c.retryNs);
        w.putF64(c.linkNs);
    }
    latencyNs_.saveState(w);
    latencyHistNs_.saveState(w);
    w.putU64(bytesRead_);
    w.putU64(bytesWritten_);
    w.putU64(steps_);
    w.putU64(totalRequests_);
    w.putBool(sourceDone_);
    w.putU64(sourcePulled_);
    w.putU64(hostPeak_);
    w.putU64(completedCount_);
    w.putU64(poisonedCount_);
    w.putU64(live_);
    w.putBool(retainCompletions_);
    // Telemetry accumulators (empty structures when the tier is off —
    // the enable flags themselves are config-derived, not serialized).
    stall_.saveState(w);
    series_.saveState(w);
    queueHistNs_.saveState(w);
    serviceHistNs_.saveState(w);
    retryHistNs_.saveState(w);
    linkHistNs_.saveState(w);
}

void
ChannelControllerBase::loadBaseState(CheckpointReader& r)
{
    now_ = r.getI64();
    faults_.loadState(r);
    host_.clear();
    const std::size_t nhost = r.getCount();
    for (std::size_t i = 0; i < nhost; ++i)
        host_.push_back(getRequest(r));
    frontChunk_ = r.getU64();
    frontSlot_ = r.getI32();
    slots_.resize(r.getCount());
    for (ReqState& st : slots_) {
        st.id = r.getU64();
        st.arrival = r.getI64();
        st.opsRemaining = r.getI32();
        st.poisoned = r.getBool();
        st.firstIssue = r.getI64();
        st.retryTicks = r.getI64();
        st.linkDelay = r.getI64();
    }
    freeSlots_.reserve(slots_.capacity());
    freeSlots_.resize(r.getCount());
    for (int& slot : freeSlots_) {
        slot = r.getI32();
        if (static_cast<std::size_t>(slot) >= slots_.size())
            fatal("checkpoint frees in-flight slot %d of %zu", slot,
                  slots_.size());
    }
    completions_.clear();
    const std::size_t ncomp = r.getCount();
    completions_.reserve(ncomp);
    for (std::size_t i = 0; i < ncomp; ++i) {
        Completion c;
        c.id = r.getU64();
        c.finished = r.getI64();
        c.poisoned = r.getBool();
        c.queueNs = r.getF64();
        c.serviceNs = r.getF64();
        c.retryNs = r.getF64();
        c.linkNs = r.getF64();
        completions_.push_back(c);
    }
    latencyNs_.loadState(r);
    latencyHistNs_.loadState(r);
    bytesRead_ = r.getU64();
    bytesWritten_ = r.getU64();
    steps_ = r.getU64();
    totalRequests_ = r.getU64();
    sourceDone_ = r.getBool();
    sourcePulled_ = r.getU64();
    hostPeak_ = static_cast<std::size_t>(r.getU64());
    completedCount_ = r.getU64();
    poisonedCount_ = r.getU64();
    live_ = r.getU64();
    retainCompletions_ = r.getBool();
    stall_.loadState(r);
    series_.loadState(r);
    queueHistNs_.loadState(r);
    serviceHistNs_.loadState(r);
    retryHistNs_.loadState(r);
    linkHistNs_.loadState(r);
    // The source pointer is transient: the caller re-attaches a fresh
    // stream with resumeSource (or leaves it detached when none was
    // bound — sourceDone_ then restored as true).
    source_ = nullptr;
}

// ---------------------------------------------------------------------------
// Parallel execution substrate
// ---------------------------------------------------------------------------

int
defaultSimThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
parallelFor(int n, int threads, const std::function<void(int)>& fn)
{
    if (n <= 0)
        return;
    const int workers = std::min(std::max(threads, 1), n);
    if (workers == 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<int> next{0};
    const auto worker = [&] {
        for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto& t : pool)
        t.join();
}

// ---------------------------------------------------------------------------
// ChannelSimEngine
// ---------------------------------------------------------------------------

ChannelSimEngine::ChannelSimEngine(int threads) : threads_(threads) {}

ChannelSimEngine::~ChannelSimEngine() = default;

int
ChannelSimEngine::addChannel(std::unique_ptr<IMemoryController> mc)
{
    if (!mc)
        fatal("null controller added to engine");
    channels_.push_back(std::move(mc));
    return static_cast<int>(channels_.size()) - 1;
}

void
ChannelSimEngine::enqueue(int idx, const Request& req)
{
    channels_.at(static_cast<std::size_t>(idx))->enqueue(req);
}

void
ChannelSimEngine::enqueue(int idx, const std::vector<Request>& reqs)
{
    auto& mc = *channels_.at(static_cast<std::size_t>(idx));
    for (const auto& r : reqs)
        mc.enqueue(r);
}

void
ChannelSimEngine::bindSource(int idx, std::unique_ptr<RequestSource> src)
{
    auto& mc = *channels_.at(static_cast<std::size_t>(idx));
    if (sources_.size() < channels_.size())
        sources_.resize(channels_.size());
    mc.bindSource(src.get());
    sources_[static_cast<std::size_t>(idx)] = std::move(src);
}

void
ChannelSimEngine::resumeSource(int idx, std::unique_ptr<RequestSource> src)
{
    auto& mc = *channels_.at(static_cast<std::size_t>(idx));
    if (sources_.size() < channels_.size())
        sources_.resize(channels_.size());
    mc.resumeSource(src.get());
    sources_[static_cast<std::size_t>(idx)] = std::move(src);
}

void
ChannelSimEngine::bindFanOut(std::unique_ptr<StreamFanOut> fan)
{
    attachFanOut(std::move(fan), false);
}

void
ChannelSimEngine::resumeFanOut(std::unique_ptr<StreamFanOut> fan)
{
    attachFanOut(std::move(fan), true);
}

void
ChannelSimEngine::attachFanOut(std::unique_ptr<StreamFanOut> fan,
                               bool resume)
{
    if (!fan)
        fatal("null fan-out bound to engine");
    if (fan->numViews() != numChannels()) {
        fatal("fan-out deals %d views, the engine drives %d channels",
              fan->numViews(), numChannels());
    }
    for (int ch = 0; ch < numChannels(); ++ch) {
        if (resume)
            resumeSource(ch, fan->makeView(ch));
        else
            bindSource(ch, fan->makeView(ch));
    }
    fan_ = std::move(fan);
}

void
ChannelSimEngine::forEachWindow(Tick limit,
                                const std::function<void(Tick)>& step)
{
    if (fan_ == nullptr)
        return;
    for (Tick end = fan_->openWindow(kFanOutWindow); end < limit;
         end = fan_->openWindow(kFanOutWindow))
        step(end);
}

Tick
ChannelSimEngine::drainAll()
{
    // kTickInvalid until a channel reported its finish tick.
    std::vector<Tick> ends(channels_.size(), kTickInvalid);
    const auto drive = [&](const auto& call) {
        parallelFor(numChannels(), threads_, [&](int i) {
            Tick& end = ends[static_cast<std::size_t>(i)];
            if (end == kTickInvalid)
                end = call(*channels_[static_cast<std::size_t>(i)]);
        });
    };
    forEachWindow(kTickMax, [&](Tick until) {
        drive([until](IMemoryController& mc) { return mc.drainUntil(until); });
    });
    // One exact drain per channel still running; a finished channel is
    // never drained again (a wrapper's default drainUntil already did).
    drive([](IMemoryController& mc) { return mc.drain(); });
    Tick last = 0;
    for (const Tick t : ends)
        last = std::max(last, t);
    return last;
}

void
ChannelSimEngine::runAllUntil(Tick until)
{
    const auto run = [&](Tick to) {
        parallelFor(numChannels(), threads_, [&](int i) {
            channels_[static_cast<std::size_t>(i)]->runUntil(to);
        });
    };
    forEachWindow(until, run);
    run(until);
}

bool
ChannelSimEngine::idle() const
{
    for (const auto& c : channels_) {
        if (!c->idle())
            return false;
    }
    return true;
}

ControllerStats
ChannelSimEngine::totals() const
{
    ControllerStats sum;
    for (const auto& c : channels_)
        sum.merge(c->stats());
    sum.deriveBandwidths();
    return sum;
}

// ---------------------------------------------------------------------------
// Workload drivers and design-space sweeps
// ---------------------------------------------------------------------------

ControllerStats
runWorkload(IMemoryController& mc, RequestSource& source)
{
    mc.bindSource(&source);
    mc.drain();
    mc.bindSource(nullptr);
    return mc.stats();
}

ControllerStats
runWorkload(IMemoryController& mc, const std::vector<Request>& reqs)
{
    // Non-owning view: replaying a borrowed list must not copy it.
    ReplaySource src(SharedRequests(std::shared_ptr<void>(), &reqs));
    return runWorkload(mc, src);
}

SourceFactory
replayFactory(SharedRequests reqs)
{
    if (!reqs)
        fatal("null request list behind a replay factory");
    return [reqs] { return std::make_unique<ReplaySource>(reqs); };
}

std::vector<SweepOutcome>
runSweep(std::vector<SweepJob> jobs, int threads)
{
    std::vector<SweepOutcome> out(jobs.size());
    parallelFor(static_cast<int>(jobs.size()), threads, [&](int i) {
        auto& job = jobs[static_cast<std::size_t>(i)];
        auto& res = out[static_cast<std::size_t>(i)];
        res.label = job.label;
        res.mc = job.make();
        const auto source = job.source();
        if (!source)
            fatal("sweep job \"%s\" produced no source", job.label.c_str());
        res.stats = runWorkload(*res.mc, *source);
    });
    return out;
}

} // namespace rome
