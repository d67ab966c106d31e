#include "sim/telemetry.h"

#include <algorithm>
#include <set>

#include "common/json_writer.h"
#include "common/log.h"

namespace rome
{

const char*
stallCauseName(StallCause c)
{
    switch (c) {
      case StallCause::NoRequest: return "noRequest";
      case StallCause::ActWindow: return "actWindow";
      case StallCause::CasChain: return "casChain";
      case StallCause::Refresh: return "refresh";
      case StallCause::BankBusy: return "bankBusy";
      case StallCause::WriteDrain: return "writeDrain";
      case StallCause::RetryBackoff: return "retryBackoff";
      case StallCause::LinkCredit: return "linkCredit";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// StallTable
// ---------------------------------------------------------------------------

template <class Ar, class Self>
void
StallTable::fields(Ar& ar, Self& self)
{
    const auto row = [&ar](auto& ticks) {
        for (auto& v : ticks)
            ar(v);
    };
    row(self.total_);
    // An armed table holds its configured rows; a disarmed one takes the
    // blob's.
    if (self.banks_.empty())
        ar.seq(self.banks_, row);
    else
        ar.fixed(self.banks_, "stall-table row", row);
}

void
StallTable::saveState(CheckpointWriter& w) const
{
    fields(w, *this);
}

void
StallTable::loadState(CheckpointReader& r)
{
    fields(r, *this);
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

void
TimeSeries::init(Tick period, int capacity)
{
    if (period <= 0)
        fatal("time series period must be positive");
    if (capacity < 4)
        fatal("time series needs at least 4 slots");
    period_ = period;
    next_ = period;
    capacity_ = capacity;
    samples_.clear();
    samples_.reserve(static_cast<std::size_t>(capacity));
}

void
TimeSeries::compact()
{
    const std::size_t n = samples_.size() / 2;
    for (std::size_t i = 0; i < n; ++i)
        samples_[i] = samples_[2 * i + 1];
    samples_.resize(n);
    period_ *= 2;
    // Re-align the next boundary to the coarser grid: sample i now covers
    // (i + 1) * period_, so the next one is one period past the end.
    next_ = static_cast<Tick>(samples_.size() + 1) * period_;
}

void
TimeSeries::merge(const TimeSeries& o)
{
    if (!o.enabled() || o.samples_.empty())
        return;
    if (!enabled() || samples_.empty()) {
        *this = o;
        return;
    }
    // Bring both sides to the same (coarser) period.
    TimeSeries rhs = o;
    while (period_ < rhs.period_)
        compact();
    while (rhs.period_ < period_)
        rhs.compact();
    // Pad the shorter side with its final snapshot: a channel that
    // finished early holds its final cumulative state thereafter.
    const std::size_t n = std::max(samples_.size(), rhs.samples_.size());
    while (samples_.size() < n)
        samples_.push_back(samples_.back());
    while (rhs.samples_.size() < n)
        rhs.samples_.push_back(rhs.samples_.back());
    for (std::size_t i = 0; i < n; ++i)
        samples_[i].add(rhs.samples_[i]);
    next_ = static_cast<Tick>(n + 1) * period_;
    capacity_ = std::max(capacity_, rhs.capacity_);
}

bool
TimeSeries::operator==(const TimeSeries& o) const
{
    if (period_ != o.period_ || samples_.size() != o.samples_.size())
        return false;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        const TimeSample& a = samples_[i];
        const TimeSample& b = o.samples_[i];
        if (a.completed != b.completed || a.bytes != b.bytes ||
            a.occupancy != b.occupancy || a.stall != b.stall)
            return false;
    }
    return true;
}

template <class Ar, class Self>
void
TimeSeries::fields(Ar& ar, Self& self)
{
    ar(self.period_, self.next_, self.capacity_);
    // The restore target's init() already reserved capacity_ samples.
    ar.seq(self.samples_, [&ar](auto& s) {
        ar(s.completed, s.bytes, s.occupancy);
        for (auto& v : s.stall)
            ar(v);
    });
}

void
TimeSeries::saveState(CheckpointWriter& w) const
{
    fields(w, *this);
}

void
TimeSeries::loadState(CheckpointReader& r)
{
    fields(r, *this);
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

namespace
{

/** Trace-event timestamps are microseconds. */
double
usFromTicks(Tick t)
{
    return nsFromTicks(t) / 1000.0;
}

} // namespace

std::string
chromeTraceJson(const std::vector<const TelemetrySink*>& sinks)
{
    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();
    for (const TelemetrySink* sink : sinks) {
        if (sink == nullptr)
            continue;
        const int pid = sink->channelId() + 1;
        // Metadata first: name the process and every track that carries
        // events (sorted, so the header is independent of event order).
        w.beginObject();
        w.key("name").value("process_name");
        w.key("ph").value("M");
        w.key("pid").value(pid);
        w.key("args").beginObject();
        w.key("name").value("channel " + std::to_string(sink->channelId()));
        w.endObject();
        w.endObject();
        std::set<std::int32_t> tracks;
        for (const TelemetrySink::Event& e : sink->events())
            tracks.insert(e.track);
        for (const std::int32_t track : tracks) {
            const int tid = track + 1; // kChannelTrack (-1) becomes tid 0
            w.beginObject();
            w.key("name").value("thread_name");
            w.key("ph").value("M");
            w.key("pid").value(pid);
            w.key("tid").value(tid);
            w.key("args").beginObject();
            w.key("name").value(
                track < 0 ? std::string("scheduler")
                          : "bank " + std::to_string(track));
            w.endObject();
            w.endObject();
        }
        for (const TelemetrySink::Event& e : sink->events()) {
            w.beginObject();
            w.key("name").value(e.name);
            w.key("ph").value(e.isInstant ? "i" : "X");
            w.key("pid").value(pid);
            w.key("tid").value(e.track + 1);
            w.key("ts").value(usFromTicks(e.start));
            if (e.isInstant)
                w.key("s").value("t");
            else
                w.key("dur").value(usFromTicks(e.dur));
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
writeChromeTrace(const std::string& path,
                 const std::vector<const TelemetrySink*>& sinks)
{
    return writeTextFile(path, chromeTraceJson(sinks));
}

} // namespace rome
