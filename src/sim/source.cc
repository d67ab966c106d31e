#include "sim/source.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace rome
{

std::vector<Request>
collectRequests(RequestSource& src)
{
    std::vector<Request> out;
    Request r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

// ---------------------------------------------------------------------------
// StreamSource
// ---------------------------------------------------------------------------

StreamSource::StreamSource(const StreamPattern& p) : p_(p), rng_(p.seed)
{
    if (p_.requestBytes == 0)
        fatal("stream pattern needs a request size");
}

bool
StreamSource::produce(Request& out)
{
    if (offset_ >= p_.totalBytes)
        return false;
    bool write = false;
    if (p_.writeEveryNth > 0) {
        write = index_ % static_cast<std::uint64_t>(p_.writeEveryNth) ==
                static_cast<std::uint64_t>(p_.writeEveryNth) - 1;
    } else if (p_.writeFraction > 0.0) {
        write = rng_.uniform() < p_.writeFraction;
    }
    out = Request{id_++, write ? ReqKind::Write : ReqKind::Read,
                  p_.base + offset_, p_.requestBytes, 0};
    offset_ += p_.requestBytes;
    ++index_;
    return true;
}

void
StreamSource::rewind()
{
    rng_ = Rng(p_.seed);
    id_ = 1;
    index_ = 0;
    offset_ = 0;
}

// ---------------------------------------------------------------------------
// RandomSource
// ---------------------------------------------------------------------------

RandomSource::RandomSource(const RandomPattern& p) : p_(p), rng_(p.seed)
{
    if (p_.requestBytes == 0 || p_.capacity < p_.requestBytes)
        fatal("random pattern needs a request size within capacity");
}

bool
RandomSource::produce(Request& out)
{
    if (emitted_ >= p_.totalBytes)
        return false;
    const std::uint64_t addr =
        rng_.below(p_.capacity / p_.requestBytes) * p_.requestBytes;
    const bool write =
        p_.writeFraction > 0.0 && rng_.uniform() < p_.writeFraction;
    out = Request{id_++, write ? ReqKind::Write : ReqKind::Read, addr,
                  p_.requestBytes, 0};
    emitted_ += p_.requestBytes;
    return true;
}

void
RandomSource::rewind()
{
    rng_ = Rng(p_.seed);
    id_ = 1;
    emitted_ = 0;
}

// ---------------------------------------------------------------------------
// SparseMixSource
// ---------------------------------------------------------------------------

SparseMixSource::SparseMixSource(const SparseMixPattern& p)
    : p_(p), rng_(p.seed)
{
    if (p_.fineBytes == 0 || p_.coarseBytes == 0 ||
        p_.capacity < p_.fineBytes || p_.capacity < p_.coarseBytes)
        fatal("sparse mix pattern needs request sizes within capacity");
}

bool
SparseMixSource::produce(Request& out)
{
    if (emitted_ >= p_.totalBytes)
        return false;
    const bool fine = rng_.uniform() < p_.fineFraction;
    const std::uint64_t bytes = fine ? p_.fineBytes : p_.coarseBytes;
    const std::uint64_t addr = rng_.below(p_.capacity / bytes) * bytes;
    out = Request{id_++, ReqKind::Read, addr, bytes, 0};
    emitted_ += bytes;
    return true;
}

void
SparseMixSource::rewind()
{
    rng_ = Rng(p_.seed);
    id_ = 1;
    emitted_ = 0;
}

// ---------------------------------------------------------------------------
// ProfileSource
// ---------------------------------------------------------------------------

ProfileSource::ProfileSource(const ChannelWorkloadProfile& profile,
                             bool uniform_rows, std::uint64_t row_bytes,
                             std::uint64_t capacity)
    : p_(profile), rowBytes_(row_bytes), capacity_(capacity),
      largeReq_(uniform_rows ? row_bytes : profile.largeRequestBytes),
      smallReq_(uniform_rows ? row_bytes : profile.smallRequestBytes),
      rng_(profile.seed)
{
    if (p_.largeStreams <= 0 || p_.smallStreams <= 0)
        fatal("profile needs at least one stream per class");
    if (capacity_ <= p_.streamBytes)
        fatal("profile stream region exceeds capacity");
    start();
}

void
ProfileSource::rebase(Stream& s, std::uint64_t align)
{
    s.base = rng_.below(capacity_ - p_.streamBytes) / align * align;
    s.offset = 0;
    s.region = p_.streamBytes;
}

void
ProfileSource::start()
{
    large_.assign(static_cast<std::size_t>(p_.largeStreams), Stream{});
    small_.assign(static_cast<std::size_t>(p_.smallStreams), Stream{});
    for (auto& s : large_)
        rebase(s, largeReq_);
    for (auto& s : small_)
        rebase(s, smallReq_);
}

bool
ProfileSource::produce(Request& out)
{
    if (emitted_ >= p_.totalBytes)
        return false;
    const bool pick_small = rng_.uniform() < p_.smallFraction;
    auto& pool = pick_small ? small_ : large_;
    const std::uint64_t req = pick_small ? smallReq_ : largeReq_;
    auto& turn = pick_small ? sturn_ : lturn_;
    Stream& s = pool[turn];
    turn = (turn + 1) % pool.size();
    if (s.offset + req > s.region)
        rebase(s, req);
    const bool write = rng_.uniform() < p_.writeFraction;
    out = Request{id_++, write ? ReqKind::Write : ReqKind::Read,
                  s.base + s.offset, req, 0};
    s.offset += req;
    emitted_ += req;
    return true;
}

void
ProfileSource::rewind()
{
    rng_ = Rng(p_.seed);
    id_ = 1;
    emitted_ = 0;
    lturn_ = sturn_ = 0;
    start();
}

// ---------------------------------------------------------------------------
// ArrivalProcess
// ---------------------------------------------------------------------------

ArrivalProcess::ArrivalProcess(std::unique_ptr<RequestSource> inner,
                               ArrivalSpec spec)
    : inner_(std::move(inner)), spec_(spec), rng_(spec.seed)
{
    if (!inner_)
        fatal("arrival process needs an inner source");
    if (spec_.meanGap < 0)
        fatal("arrival process needs a nonnegative mean gap");
    if (spec_.model == ArrivalModel::Bursty && spec_.burstLen < 1)
        fatal("bursty arrivals need burstLen >= 1");
    restart();
}

void
ArrivalProcess::restart()
{
    rng_ = Rng(spec_.seed);
    clock_ = spec_.start;
    inBurst_ = 0;
}

Tick
ArrivalProcess::expGap(Tick mean)
{
    // Exponential inter-arrival with the given mean; u in [0, 1) keeps
    // -log1p(-u) finite.
    const double u = rng_.uniform();
    const double gap = -static_cast<double>(mean) * std::log1p(-u);
    return static_cast<Tick>(std::llround(gap));
}

bool
ArrivalProcess::produce(Request& out)
{
    if (!inner_->next(out))
        return false;
    out.arrival = clock_;
    switch (spec_.model) {
      case ArrivalModel::Fixed:
        clock_ += spec_.meanGap;
        break;
      case ArrivalModel::Poisson:
        clock_ += expGap(spec_.meanGap);
        break;
      case ArrivalModel::Bursty:
        if (++inBurst_ >= spec_.burstLen) {
            inBurst_ = 0;
            clock_ += expGap(spec_.meanGap *
                             static_cast<Tick>(spec_.burstLen));
        }
        break;
    }
    return true;
}

void
ArrivalProcess::rewind()
{
    inner_->reset();
    restart();
}

// ---------------------------------------------------------------------------
// MixSource
// ---------------------------------------------------------------------------

MixSource::MixSource(std::vector<std::unique_ptr<RequestSource>> parts,
                     bool reassign_ids)
    : parts_(std::move(parts)), reassignIds_(reassign_ids)
{
    if (parts_.empty())
        fatal("mix source needs at least one part");
    for (const auto& p : parts_) {
        if (!p)
            fatal("null part in mix source");
    }
}

bool
MixSource::produce(Request& out)
{
    std::size_t best = parts_.size();
    Tick best_at = kTickMax;
    for (std::size_t i = 0; i < parts_.size(); ++i) {
        const Tick at = parts_[i]->nextArrival();
        if (at < best_at) {
            best_at = at;
            best = i;
        }
    }
    if (best == parts_.size())
        return false;
    parts_[best]->next(out);
    if (reassignIds_)
        out.id = nextId_++;
    return true;
}

void
MixSource::rewind()
{
    for (auto& p : parts_)
        p->reset();
    nextId_ = 1;
}

// ---------------------------------------------------------------------------
// RepeatSource
// ---------------------------------------------------------------------------

RepeatSource::RepeatSource(std::unique_ptr<RequestSource> inner,
                           std::uint64_t times)
    : inner_(std::move(inner)), times_(times)
{
    if (!inner_)
        fatal("repeat source needs an inner source");
    if (times_ == 0)
        fatal("repeat source needs at least one round");
}

bool
RepeatSource::produce(Request& out)
{
    while (!inner_->next(out)) {
        if (++round_ >= times_)
            return false;
        arrivalBase_ = lastArrival_;
        inner_->reset();
    }
    out.id = nextId_++;
    out.arrival += arrivalBase_;
    lastArrival_ = out.arrival;
    return true;
}

void
RepeatSource::rewind()
{
    inner_->reset();
    round_ = 0;
    nextId_ = 1;
    arrivalBase_ = 0;
    lastArrival_ = 0;
}

// ---------------------------------------------------------------------------
// TakeSource
// ---------------------------------------------------------------------------

TakeSource::TakeSource(std::unique_ptr<RequestSource> inner,
                       std::uint64_t limit)
    : inner_(std::move(inner)), limit_(limit)
{
    if (!inner_)
        fatal("take source needs an inner source");
}

bool
TakeSource::produce(Request& out)
{
    if (taken_ >= limit_)
        return false;
    if (!inner_->next(out))
        return false;
    ++taken_;
    return true;
}

void
TakeSource::rewind()
{
    inner_->reset();
    taken_ = 0;
}

// ---------------------------------------------------------------------------
// SkipSource
// ---------------------------------------------------------------------------

SkipSource::SkipSource(std::unique_ptr<RequestSource> inner,
                       std::uint64_t count)
    : inner_(std::move(inner)), count_(count)
{
    if (!inner_)
        fatal("skip source needs an inner source");
}

bool
SkipSource::produce(Request& out)
{
    if (!skipped_) {
        // Lazy head trim: the prefix is consumed on the first pull, so
        // constructing the combinator stays O(1) even on huge traces.
        skipped_ = true;
        for (std::uint64_t i = 0; i < count_; ++i) {
            if (!inner_->next(out))
                return false;
        }
    }
    return inner_->next(out);
}

void
SkipSource::rewind()
{
    inner_->reset();
    skipped_ = false;
}

// ---------------------------------------------------------------------------
// trimWindow
// ---------------------------------------------------------------------------

std::unique_ptr<RequestSource>
trimWindow(std::unique_ptr<RequestSource> source, std::uint64_t skip_n,
           std::uint64_t take_n)
{
    if (!source)
        fatal("trimWindow needs an inner source");
    if (skip_n > 0)
        source = std::make_unique<SkipSource>(std::move(source), skip_n);
    if (take_n > 0)
        source = std::make_unique<TakeSource>(std::move(source), take_n);
    return source;
}

// ---------------------------------------------------------------------------
// ShardSource
// ---------------------------------------------------------------------------

ShardSource::ShardSource(std::unique_ptr<RequestSource> inner, int shard,
                         int num_shards, std::uint64_t stripe_bytes)
    : inner_(std::move(inner)), shard_(shard), shards_(num_shards),
      stripeBytes_(stripe_bytes)
{
    if (!inner_)
        fatal("shard source needs an inner source");
    if (num_shards < 1 || shard < 0 || shard >= num_shards)
        fatal("shard %d of %d out of range", shard, num_shards);
}

bool
ShardSource::produce(Request& out)
{
    Request r;
    while (inner_->next(r)) {
        if (shardOf(index_++, r.addr, shards_, stripeBytes_) == shard_) {
            out = r;
            return true;
        }
    }
    return false;
}

void
ShardSource::rewind()
{
    inner_->reset();
    index_ = 0;
}

// ---------------------------------------------------------------------------
// StreamFanOut
// ---------------------------------------------------------------------------

/** One view's pull handle: the fan-out's FIFO for it, produced on demand. */
class StreamFanOut::View final : public RequestSource
{
  public:
    View(StreamFanOut& fan, int v) : fan_(fan), v_(v) {}

  protected:
    bool
    produce(Request& out) override
    {
        if (batch_.empty() && !fan_.take(v_, batch_))
            return false;
        out = batch_.front();
        batch_.pop_front();
        fan_.yielded_[static_cast<std::size_t>(v_)].n.fetch_add(
            1, std::memory_order_relaxed);
        return true;
    }

    void
    rewind() override
    {
        fatal("fan-out view %d cannot rewind: the system stream is read "
              "once",
              v_);
    }

  private:
    StreamFanOut& fan_;
    int v_;
    /** Requests taken from the fan-out, yielded without its lock. */
    std::deque<Request> batch_;
};

StreamFanOut::StreamFanOut(std::unique_ptr<RequestSource> system,
                           int groups, int channels_per_group,
                           std::uint64_t stripe_bytes)
    : channelsPerGroup_(channels_per_group), stripeBytes_(stripe_bytes),
      system_(std::move(system))
{
    if (!system_)
        fatal("stream fan-out needs a system source");
    if (groups < 1 || channels_per_group < 1)
        fatal("stream fan-out needs at least one group and one channel "
              "per group (got %d x %d)",
              groups, channels_per_group);
    const std::size_t views = static_cast<std::size_t>(groups) *
                              static_cast<std::size_t>(channels_per_group);
    yielded_ = std::vector<YieldCount>(views);
    queues_.resize(views);
    groupDealt_.assign(static_cast<std::size_t>(groups), 0);
}

StreamFanOut::~StreamFanOut() = default;

std::unique_ptr<RequestSource>
StreamFanOut::makeView(int v)
{
    if (v < 0 || v >= numViews())
        fatal("fan-out view %d out of range (%d views)", v, numViews());
    return std::make_unique<View>(*this, v);
}

Tick
StreamFanOut::openWindow(std::uint64_t n)
{
    std::uint64_t yielded = 0;
    for (const YieldCount& y : yielded_)
        yielded += y.n.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu_);
    yieldedAtOpen_ = yielded;
    Request r;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!system_->next(r))
            return kTickMax;
        deal(r);
    }
    return r.arrival;
}

std::uint64_t
StreamFanOut::bufferedPeak() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return peak_;
}

void
StreamFanOut::deal(const Request& r)
{
    dealToGroup(0, r);
}

void
StreamFanOut::dealToGroup(int group, const Request& r)
{
    const auto g = static_cast<std::size_t>(group);
    const int ch = shardOf(groupDealt_[g]++, r.addr, channelsPerGroup_,
                           stripeBytes_);
    queues_[g * static_cast<std::size_t>(channelsPerGroup_) +
            static_cast<std::size_t>(ch)]
        .push_back(r);
    ++dealt_;
    peak_ = std::max(peak_, dealt_ - yieldedAtOpen_);
}

bool
StreamFanOut::take(int v, std::deque<Request>& batch)
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::deque<Request>& q = queues_[static_cast<std::size_t>(v)];
    Request r;
    while (q.empty()) {
        if (!system_->next(r))
            return false;
        deal(r);
    }
    batch.swap(q);
    return true;
}

} // namespace rome
