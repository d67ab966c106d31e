/**
 * @file
 * Telemetry substrate: stall-cause attribution, time-series sampling,
 * and the Perfetto/Chrome trace-event sink.
 *
 * The RoMe-vs-conventional comparison is fundamentally about *where time
 * goes* — row-granularity access trades CAS-chain serialization for
 * fewer ACT/PRE stalls — so the harness needs more than end-to-end
 * percentiles. This layer adds three opt-in views, all deterministic
 * functions of the sim clock:
 *
 *  - StallCause / StallTable: every tick a channel spends not issuing is
 *    charged to exactly one named cause at the moment the scheduler
 *    advances its clock (per bank and per channel). After a drain,
 *    sum(stallTicks) == now() by construction; the charge happens where
 *    now_ advances, so any runUntil slicing attributes identically.
 *  - TimeSeries: a fixed-capacity ring of cumulative samples (completed
 *    requests, useful bytes, occupancy, stall mix) taken every
 *    microsecond of completion time. When the ring fills it halves its
 *    resolution in place (drop-odd compaction), so arbitrary run lengths
 *    fit in constant memory with zero steady-state allocations.
 *  - TelemetrySink + writeChromeTrace: an event buffer of spans and
 *    instants that renders to Chrome trace-event JSON ("traceEvents"),
 *    loadable in Perfetto / chrome://tracing. One process per channel,
 *    one thread per bank (tid 0 is the channel-level scheduler track).
 *    Commands commit only on event ticks, so the emitted JSON is
 *    byte-identical across engine thread counts and runUntil slicings.
 *
 * Everything here is off by default. TelemetryConfig::counters gates the
 * stall/breakdown/time-series paths behind a single branch; with it
 * false the controllers are bit-identical to a build that never heard of
 * telemetry, at 0 allocs/step (proven by bench_sched_hotpath's counting
 * allocator).
 */

#ifndef ROME_SIM_TELEMETRY_H
#define ROME_SIM_TELEMETRY_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/types.h"

namespace rome
{

/**
 * Why a channel did not move data during a stretch of scheduler time.
 * Exactly one cause is charged per clock advance; precedence (when
 * several constraints end at the same tick) is the enum order below,
 * documented per controller at the charge sites.
 */
enum class StallCause : std::uint8_t
{
    /** No admissible request: queues empty or arrivals in the future. */
    NoRequest = 0,
    /** Activation-window bound (tFAW / tRRD) blocked the best ACT. */
    ActWindow,
    /** CAS-to-CAS chain spacing or read/write turnaround bound. */
    CasChain,
    /** Refresh owned the bank (or the refresh calendar won the gap). */
    Refresh,
    /** Bank / VBA core busy, FSM slot or outstanding-entry starvation. */
    BankBusy,
    /**
     * Write-drain hysteresis parked pending writes below the bar. No
     * stack charges it: the conventional MC drains whenever no read is
     * queued, and RoMe handles writes on arrival.
     */
    WriteDrain,
    /** ECC retry backoff was the next wake event. */
    RetryBackoff,
    /** Node-level link credit starvation (charged by sim/node.h). */
    LinkCredit,
};

inline constexpr std::size_t kNumStallCauses = 8;

/** Stable lower-case name of @p c ("noRequest", "actWindow", ...). */
const char* stallCauseName(StallCause c);

/** Per-cause tick totals, merge-added across channels / partitions. */
using StallTicks = std::array<std::uint64_t, kNumStallCauses>;

/** Opt-in telemetry knobs, carried by every controller config. */
struct TelemetryConfig
{
    /**
     * Master switch for the counter tier: stall attribution, latency
     * breakdown, and the time-series ring. Off (the default) keeps the
     * hot path bit-identical and allocation-free.
     */
    bool counters = false;
};

/**
 * Per-channel stall accounting: one StallTicks row per bank plus the
 * channel total. Rows are preallocated at init, so charging is two adds
 * and never allocates.
 */
class StallTable
{
  public:
    /** Size the per-bank rows and arm the table. */
    void
    init(int num_banks)
    {
        enabled_ = true;
        banks_.assign(static_cast<std::size_t>(num_banks), StallTicks{});
    }

    bool enabled() const { return enabled_; }

    /** Charge @p ticks to @p cause (and to @p bank when >= 0). */
    void
    charge(StallCause cause, Tick ticks, int bank = -1)
    {
        const auto c = static_cast<std::size_t>(cause);
        total_[c] += static_cast<std::uint64_t>(ticks);
        if (bank >= 0 && static_cast<std::size_t>(bank) < banks_.size())
            banks_[static_cast<std::size_t>(bank)][c] +=
                static_cast<std::uint64_t>(ticks);
    }

    const StallTicks& totals() const { return total_; }

    /** Sum over all causes — equals now() after a drain. */
    std::uint64_t
    totalTicks() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t v : total_)
            sum += v;
        return sum;
    }

    int numBanks() const { return static_cast<int>(banks_.size()); }

    const StallTicks&
    bank(int b) const
    {
        return banks_.at(static_cast<std::size_t>(b));
    }

    void saveState(CheckpointWriter& w) const;
    void loadState(CheckpointReader& r);

  private:
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& self);

    bool enabled_ = false;
    StallTicks total_{};
    std::vector<StallTicks> banks_;
};

/** One cumulative telemetry snapshot at a sample boundary. */
struct TimeSample
{
    /** Requests completed so far. */
    std::uint64_t completed = 0;
    /** Useful (requested) bytes moved so far. */
    std::uint64_t bytes = 0;
    /** Host requests in flight when the boundary was crossed. */
    std::uint64_t occupancy = 0;
    /** Cumulative stall mix. */
    StallTicks stall{};

    void
    add(const TimeSample& o)
    {
        completed += o.completed;
        bytes += o.bytes;
        occupancy += o.occupancy;
        for (std::size_t i = 0; i < kNumStallCauses; ++i)
            stall[i] += o.stall[i];
    }
};

/**
 * Fixed-capacity ring of cumulative samples. Sample i covers the
 * boundary (i + 1) * period(); when capacity is reached, drop-odd
 * compaction keeps every second sample and doubles the period, so the
 * ring spans any run length without allocating past init. Observations
 * ride the completion path (note*OpDone), whose call sequence is
 * invariant under slicing and thread count — the sampled series is
 * therefore deterministic too.
 */
class TimeSeries
{
  public:
    /** Arm with @p period ticks per sample and @p capacity slots. */
    void init(Tick period, int capacity);

    bool enabled() const { return period_ > 0; }

    /** Current sample period (doubles on every compaction). */
    Tick period() const { return period_; }

    /**
     * Record that the cumulative state at tick @p at is @p cur. Pushes
     * one sample per boundary crossed since the last observation (flat
     * regions repeat the same snapshot).
     */
    void
    observe(Tick at, const TimeSample& cur)
    {
        while (period_ > 0 && at >= next_) {
            if (static_cast<int>(samples_.size()) >= capacity_)
                compact();
            samples_.push_back(cur);
            next_ += period_;
        }
    }

    const std::vector<TimeSample>& samples() const { return samples_; }

    /**
     * Merge @p o into this series: the finer side is compacted until the
     * periods match, the shorter side is padded with its final snapshot
     * (a finished channel stays at its final cumulative state), then
     * samples add slot-wise.
     */
    void merge(const TimeSeries& o);

    bool operator==(const TimeSeries& o) const;

    void saveState(CheckpointWriter& w) const;
    void loadState(CheckpointReader& r);

  private:
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& self);

    /** Keep odd-indexed samples (boundaries 2P, 4P, ...), double P. */
    void compact();

    Tick period_ = 0;
    Tick next_ = 0;
    int capacity_ = 0;
    std::vector<TimeSample> samples_;
};

/**
 * Opt-in event buffer behind the Perfetto exporter. Spans cover command
 * busy windows; instants mark point events (retry,
 * fault, spare, checkpoint). Track kChannelTrack is the channel-level
 * scheduler lane; track b >= 0 is bank/VBA b. Event names must be
 * static-storage strings (the sink stores the pointers).
 *
 * This tier buffers unboundedly (one Event per command) — it is a
 * debugging instrument for bounded windows, not a perf-run companion.
 */
class TelemetrySink
{
  public:
    static constexpr int kChannelTrack = -1;

    explicit TelemetrySink(int channel_id = 0) : channel_(channel_id) {}

    struct Event
    {
        const char* name;
        Tick start;
        Tick dur; ///< 0 for instants
        std::int32_t track;
        bool isInstant;
    };

    void
    span(const char* name, int track, Tick start, Tick dur)
    {
        events_.push_back(Event{name, start, dur,
                                static_cast<std::int32_t>(track), false});
    }

    void
    instant(const char* name, int track, Tick at)
    {
        events_.push_back(
            Event{name, at, 0, static_cast<std::int32_t>(track), true});
    }

    const std::vector<Event>& events() const { return events_; }

    int channelId() const { return channel_; }

    void clear() { events_.clear(); }

  private:
    int channel_;
    std::vector<Event> events_;
};

/**
 * Render @p sinks as Chrome trace-event JSON (the "traceEvents" array
 * format Perfetto and chrome://tracing load directly). One process per
 * sink (pid = channelId + 1), one metadata-named thread per used track.
 * Deterministic: events render in recording order per sink, sinks in
 * the order given, timestamps derived only from sim ticks.
 */
std::string chromeTraceJson(const std::vector<const TelemetrySink*>& sinks);

/** chromeTraceJson to @p path; returns false (and warns) on failure. */
bool writeChromeTrace(const std::string& path,
                      const std::vector<const TelemetrySink*>& sinks);

} // namespace rome

#endif // ROME_SIM_TELEMETRY_H
