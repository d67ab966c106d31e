#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <climits>
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
    if (req.addr + req.size < req.addr) {
        fatal("request %llu's byte range ends past 2^64 - 1",
              static_cast<unsigned long long>(req.id));
    }
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
        // ReqState::opsRemaining counts the ops in an int.
        if (total > static_cast<std::uint64_t>(INT_MAX)) {
            fatal("request %llu splits into %llu ops, more than %d",
                  static_cast<unsigned long long>(req.id),
                  static_cast<unsigned long long>(total), INT_MAX);
        }
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

template <class Ar, class Self>
void
ChannelControllerBase::baseFields(Ar& ar, Self& self)
{
    ar(self.now_, self.faults_);
    ar.seq(self.host_, [&ar](auto& r) { requestFields(ar, r); });
    ar(self.frontChunk_, self.frontSlot_);
    // Queued ops name their slots, so every slot round-trips in place,
    // free ones included, and so does the free list's order.
    ar.seq(self.slots_, [&ar](auto& st) {
        ar(st.id, st.arrival, st.opsRemaining, st.poisoned, st.firstIssue,
           st.retryTicks, st.linkDelay);
    });
    if constexpr (Ar::kLoading)
        self.freeSlots_.reserve(self.slots_.capacity());
    ar.seq(self.freeSlots_, [&](auto& slot) {
        ar(slot);
        if (Ar::kLoading &&
            static_cast<std::size_t>(slot) >= self.slots_.size()) {
            fatal("checkpoint frees in-flight slot %d of %zu", slot,
                  self.slots_.size());
        }
    });
    ar.seq(self.completions_, [&ar](auto& c) {
        ar(c.id, c.finished, c.poisoned, c.queueNs, c.serviceNs, c.retryNs,
           c.linkNs);
    });
    ar(self.latencyNs_, self.latencyHistNs_, self.bytesRead_,
       self.bytesWritten_, self.steps_, self.totalRequests_,
       self.sourceDone_, self.sourcePulled_, self.hostPeak_,
       self.completedCount_, self.poisonedCount_, self.live_,
       self.retainCompletions_);
    // Telemetry accumulators (empty structures when the tier is off —
    // the enable flags themselves are config-derived, not serialized).
    ar(self.stall_, self.series_, self.queueHistNs_, self.serviceHistNs_,
       self.retryHistNs_, self.linkHistNs_);
}

void
ChannelControllerBase::baseState(CheckpointWriter& w) const
{
    baseFields(w, *this);
}

void
ChannelControllerBase::baseState(CheckpointReader& r)
{
    baseFields(r, *this);
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
