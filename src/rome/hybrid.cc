#include "rome/hybrid.h"

#include <algorithm>

#include "common/log.h"

namespace rome
{

namespace
{

/** Lock-step drain window: long enough to amortize the loop, short
 *  enough that staged sibling requests are consumed promptly. */
constexpr Tick kDrainWindow = ticksFromNs(static_cast<std::int64_t>(1000));

RomeMcConfig
coarsePartitionConfig(const HybridConfig& cfg)
{
    RomeMcConfig mc;
    mc.faults = cfg.faults;
    mc.telemetry = cfg.telemetry;
    return mc;
}

McConfig
finePartitionConfig(const HybridConfig& cfg)
{
    McConfig mc;
    mc.faults = cfg.faults;
    mc.telemetry = cfg.telemetry;
    return mc;
}

} // namespace

HybridMc::HybridMc(const DramConfig& base, HybridConfig cfg)
    : cfg_(cfg),
      rome_(base, VbaDesign::adopted(), coarsePartitionConfig(cfg)),
      fine_(base, bestBaselineMapping(base.org), finePartitionConfig(cfg))
{
}

void
HybridMc::enqueue(const Request& req)
{
    if (partitionOf(req) == 0)
        rome_.enqueue(req);
    else
        fine_.enqueue(req);
}

void
HybridMc::PartitionFeed::rewind()
{
    fatal("hybrid partition feeds cannot replay; rebind the source");
}

bool
HybridMc::feedNext(int which, Request& out)
{
    auto& mine = staging_[static_cast<std::size_t>(which)];
    if (!mine.empty()) {
        out = mine.front();
        mine.pop_front();
        return true;
    }
    if (source_ == nullptr)
        return false;
    Request r;
    while (source_->next(r)) {
        ++pulledFromSource_;
        if (partitionOf(r) == which) {
            out = r;
            return true;
        }
        auto& theirs = staging_[static_cast<std::size_t>(1 - which)];
        theirs.push_back(r);
        stagingPeak_ = std::max(stagingPeak_, theirs.size());
    }
    return false;
}

void
HybridMc::bindSource(RequestSource* src)
{
    source_ = src;
    pulledFromSource_ = 0;
    if (src == nullptr) {
        rome_.bindSource(nullptr);
        fine_.bindSource(nullptr);
        staging_[0].clear();
        staging_[1].clear();
        return;
    }
    feeds_[0].attach(this, 0);
    feeds_[1].attach(this, 1);
    // Binding primes each partition's host window through its feed.
    rome_.bindSource(&feeds_[0]);
    fine_.bindSource(&feeds_[1]);
}

void
HybridMc::runUntil(Tick until)
{
    // Both partitions advance unconditionally — like any channel, an
    // idle partition's refresh calendar keeps firing inside the window.
    // That keeps the partition property exact: which window a partition
    // happens to finish its work in never decides how much calendar it
    // honors, so any slicing of [0, until] equals one runUntil(until).
    // The RoMe partition goes first so the fine share it stages this
    // window is visible to the fine partition's refill in the same
    // window (a fixed, drive-independent order).
    rome_.runUntil(until);
    fine_.runUntil(until);
}

Tick
HybridMc::drain()
{
    // Bounded lock-step: both partitions advance through shared time
    // windows, so each window's staged sibling share is consumed almost
    // immediately instead of accumulating while one partition drains to
    // completion. Controller decisions anchor to event ticks — never to
    // where a window lands — so this produces the same per-partition
    // command streams as sequential full drains, with staging bounded by
    // one window's pull span rather than the whole workload.
    Tick t = now();
    while (!idle()) {
        t += kDrainWindow;
        runUntil(t);
    }
    return std::max(rome_.device().lastDataEnd(),
                    fine_.device().lastDataEnd());
}

bool
HybridMc::idle() const
{
    return rome_.idle() && fine_.idle();
}

Tick
HybridMc::now() const
{
    return std::max(rome_.now(), fine_.now());
}

const std::vector<Completion>&
HybridMc::completions() const
{
    const auto& r = rome_.completions();
    const auto& f = fine_.completions();
    // Each partition appends in finish order, so merging only the
    // not-yet-seen tails keeps the interface's append-only guarantee:
    // entries handed out by an earlier call never move or disappear.
    mergedCompletions_.reserve(r.size() + f.size());
    while (romeMerged_ < r.size() || fineMerged_ < f.size()) {
        const bool take_rome =
            fineMerged_ == f.size() ||
            (romeMerged_ < r.size() &&
             r[romeMerged_].finished <= f[fineMerged_].finished);
        mergedCompletions_.push_back(take_rome ? r[romeMerged_++]
                                               : f[fineMerged_++]);
    }
    return mergedCompletions_;
}

const Accumulator&
HybridMc::latencyNs() const
{
    mergedLatency_.reset();
    mergedLatency_.merge(rome_.latencyNs());
    mergedLatency_.merge(fine_.latencyNs());
    return mergedLatency_;
}

const LatencyHistogram&
HybridMc::latencyHistogramNs() const
{
    mergedLatencyHist_.reset();
    mergedLatencyHist_.merge(rome_.latencyHistogramNs());
    mergedLatencyHist_.merge(fine_.latencyHistogramNs());
    return mergedLatencyHist_;
}

McComplexity
HybridMc::complexity() const
{
    const McComplexity r = rome_.complexity();
    const McComplexity f = fine_.complexity();
    McComplexity c;
    c.numTimingParams = r.numTimingParams + f.numTimingParams;
    c.numBankFsms = r.numBankFsms + f.numBankFsms;
    c.numBankStates = std::max(r.numBankStates, f.numBankStates);
    c.pagePolicy = f.pagePolicy + " (fine) / " + r.pagePolicy + " (coarse)";
    c.schedulingConcerns = f.schedulingConcerns;
    c.schedulingConcerns.insert(c.schedulingConcerns.end(),
                                r.schedulingConcerns.begin(),
                                r.schedulingConcerns.end());
    c.requestQueueDepth = r.requestQueueDepth + f.requestQueueDepth;
    return c;
}

ControllerStats
HybridMc::stats() const
{
    ControllerStats s = rome_.stats();
    s.merge(fine_.stats());
    s.deriveBandwidths();
    return s;
}

// ---- checkpointing -------------------------------------------------------

template <class Ar, class Self>
void
HybridMc::fields(Ar& ar, Self& self)
{
    for (auto& staged : self.staging_)
        ar.seq(staged, [&ar](auto& r) { requestFields(ar, r); });
    ar(self.stagingPeak_, self.pulledFromSource_);
    bool had_source = self.source_ != nullptr;
    ar(had_source);
    // Each feed's one-request lookahead is live router state: a refill
    // probing exhausted() peeks through the feed, which already pulled
    // the request off the shared stream (counted in pulledFromSource_).
    for (auto& f : self.feeds_) {
        Request peek{};
        bool have = f.peekState(peek);
        bool ended = f.endedState();
        ar(have);
        requestFields(ar, peek);
        ar(ended);
        if constexpr (Ar::kLoading)
            f.restoreStreamState(peek, have, ended);
    }
    if constexpr (Ar::kLoading) {
        self.source_ = nullptr;
        if (had_source) {
            // Reconnect the partitions to the (restored) feeds now; the
            // shared stream itself arrives via resumeSource before
            // running.
            self.feeds_[0].attach(&self, 0);
            self.feeds_[1].attach(&self, 1);
            self.rome_.attachResumedFeed(&self.feeds_[0]);
            self.fine_.attachResumedFeed(&self.feeds_[1]);
        }
    }
}

void
HybridMc::saveCheckpoint(CheckpointWriter& w) const
{
    rome_.saveCheckpoint(w);
    fine_.saveCheckpoint(w);
    fields(w, *this);
}

void
HybridMc::restoreCheckpoint(CheckpointReader& r)
{
    rome_.restoreCheckpoint(r);
    fine_.restoreCheckpoint(r);
    fields(r, *this);
    mergedCompletions_.clear();
    romeMerged_ = 0;
    fineMerged_ = 0;
}

void
HybridMc::resumeSource(RequestSource* src)
{
    if (src == nullptr) {
        source_ = nullptr;
        return;
    }
    Request r;
    for (std::uint64_t i = 0; i < pulledFromSource_; ++i) {
        if (!src->next(r)) {
            fatal("resumed source ended after %llu of %llu checkpointed "
                  "pulls — not the stream the checkpoint was taken over",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(pulledFromSource_));
        }
    }
    source_ = src;
}

double
HybridMc::effectiveBandwidth() const
{
    const Tick end = std::max(rome_.device().lastDataEnd(),
                              fine_.device().lastDataEnd());
    if (end == 0)
        return 0.0;
    return static_cast<double>(bytesCoarse() + bytesFine()) /
           nsFromTicks(end);
}

} // namespace rome
