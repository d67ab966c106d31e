/**
 * @file
 * Pull-based workload sources.
 *
 * A RequestSource is the streaming frontend of the simulation: instead of
 * materializing a whole std::vector<Request> with arrival times baked in,
 * the engine *pulls* timestamped requests lazily — one host-buffer window
 * at a time — so a workload's footprint is O(queue depth), not O(request
 * count). That is what makes trace replay of multi-million-request
 * accelerator traces and open-loop arrival processes affordable.
 *
 * Contract:
 *  - next(out)      — pop the next request; false when the stream ends.
 *  - nextArrival()  — arrival tick of the next request without consuming
 *                     it (kTickMax when exhausted). Feeds the schedulers'
 *                     event calendars.
 *  - reset()        — rewind to the first request; a source must replay
 *                     the identical sequence after reset() (determinism is
 *                     asserted by tests/test_source.cc).
 *  - Requests must be yielded in nondecreasing arrival order (the
 *    controllers admit FIFO; MixSource merges by arrival to maintain
 *    this across tenants).
 *
 * Concrete sources:
 *  - ReplaySource    — adapter over an in-memory request list (the old
 *                      eager path, bit-compatible).
 *  - StreamSource / RandomSource / SparseMixSource / ProfileSource —
 *                      streaming ports of the sim/workloads.h generators;
 *                      the vector builders are now thin collectors over
 *                      these, so both paths yield identical requests.
 *  - TraceSource     — replays a recorded request trace file (sim/trace.h).
 *  - ArrivalProcess  — open-loop arrival shaping (fixed-rate, Poisson,
 *                      bursty) over any inner source.
 *  - MixSource       — arrival-ordered merge of several tenants' sources.
 *  - ShardSource     — per-channel shard of a system-wide source.
 *  - StreamFanOut    — one pass over a system-wide source, dealt to
 *                      per-channel views by the same shard rule.
 */

#ifndef ROME_SIM_SOURCE_H
#define ROME_SIM_SOURCE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "mc/request.h"
#include "sim/engine.h"
#include "sim/workloads.h"

namespace rome
{

/**
 * Abstract pull-based request stream. The public interface is
 * non-virtual: a one-request lookahead implemented here gives every
 * source a free nextArrival() peek, so subclasses only implement
 * produce() (emit the next request) and rewind() (restart the stream).
 */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;

    /** Pop the next request into @p out; false when the stream ended. */
    bool
    next(Request& out)
    {
        if (!havePeek_ && !fill())
            return false;
        out = peek_;
        havePeek_ = false;
        return true;
    }

    /** Arrival tick of the next request, kTickMax when exhausted. */
    Tick
    nextArrival()
    {
        if (!havePeek_ && !fill())
            return kTickMax;
        return peek_.arrival;
    }

    /** True when no request remains. */
    bool exhausted() { return !havePeek_ && !fill(); }

    /** Rewind to the first request (identical replay guaranteed). */
    void
    reset()
    {
        havePeek_ = false;
        ended_ = false;
        rewind();
    }

    // ---- checkpoint plumbing -------------------------------------------
    // The lookahead buffer is observable run state: a consumer that called
    // nextArrival()/exhausted() has already advanced the underlying stream
    // by one request. Checkpointing a consumer therefore records this peek
    // state and re-applies it onto a skip-forwarded fresh source.

    /** Copy the buffered peek into @p out; false when none is held. */
    bool
    peekState(Request& out) const
    {
        if (havePeek_)
            out = peek_;
        return havePeek_;
    }

    /** True when the stream already reported its end. */
    bool endedState() const { return ended_; }

    /** Reinstate a checkpointed lookahead buffer on this source. */
    void
    restoreStreamState(const Request& peek, bool have_peek, bool ended)
    {
        peek_ = peek;
        havePeek_ = have_peek;
        ended_ = ended;
    }

  protected:
    /** Emit the next request; false when the stream is over. */
    virtual bool produce(Request& out) = 0;

    /** Restart the stream from the beginning. */
    virtual void rewind() = 0;

  private:
    bool
    fill()
    {
        if (ended_ || !produce(peek_)) {
            ended_ = true;
            return false;
        }
        havePeek_ = true;
        return true;
    }

    Request peek_{};
    bool havePeek_ = false;
    bool ended_ = false;
};

/** Drain @p src into a vector (intended for tests and small workloads). */
std::vector<Request> collectRequests(RequestSource& src);

// ---------------------------------------------------------------------------
// Replay and generator sources
// ---------------------------------------------------------------------------

/** Replays an in-memory request list (the classic eager workload). */
class ReplaySource final : public RequestSource
{
  public:
    explicit ReplaySource(SharedRequests reqs) : reqs_(std::move(reqs)) {}
    explicit ReplaySource(std::vector<Request> reqs)
        : ReplaySource(shareRequests(std::move(reqs)))
    {
    }

  protected:
    bool
    produce(Request& out) override
    {
        if (pos_ >= reqs_->size())
            return false;
        out = (*reqs_)[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

  private:
    SharedRequests reqs_;
    std::size_t pos_ = 0;
};

/** Streaming generator of StreamPattern (see sim/workloads.h). */
class StreamSource final : public RequestSource
{
  public:
    explicit StreamSource(const StreamPattern& p);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    StreamPattern p_;
    Rng rng_;
    std::uint64_t id_ = 1;
    std::uint64_t index_ = 0;
    std::uint64_t offset_ = 0;
};

/** Streaming generator of RandomPattern. */
class RandomSource final : public RequestSource
{
  public:
    explicit RandomSource(const RandomPattern& p);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    RandomPattern p_;
    Rng rng_;
    std::uint64_t id_ = 1;
    std::uint64_t emitted_ = 0;
};

/** Streaming generator of SparseMixPattern. */
class SparseMixSource final : public RequestSource
{
  public:
    explicit SparseMixSource(const SparseMixPattern& p);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    SparseMixPattern p_;
    Rng rng_;
    std::uint64_t id_ = 1;
    std::uint64_t emitted_ = 0;
};

/** Streaming generator of the LLM decode channel-traffic profile. */
class ProfileSource final : public RequestSource
{
  public:
    ProfileSource(const ChannelWorkloadProfile& profile, bool uniform_rows,
                  std::uint64_t row_bytes, std::uint64_t capacity);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    /** One sequential stream with a finite region, rebasing on wrap. */
    struct Stream
    {
        std::uint64_t base = 0;
        std::uint64_t offset = 0;
        std::uint64_t region = 0;
    };

    void start();
    void rebase(Stream& s, std::uint64_t align);

    ChannelWorkloadProfile p_;
    std::uint64_t rowBytes_;
    std::uint64_t capacity_;
    std::uint64_t largeReq_;
    std::uint64_t smallReq_;
    Rng rng_;
    std::vector<Stream> large_;
    std::vector<Stream> small_;
    std::uint64_t id_ = 1;
    std::uint64_t emitted_ = 0;
    std::size_t lturn_ = 0;
    std::size_t sturn_ = 0;
};

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/** Open-loop inter-arrival models (§VII serving traffic shapes). */
enum class ArrivalModel
{
    /** One request every meanGap ticks. */
    Fixed,
    /** Poisson process: exponential gaps with mean meanGap. */
    Poisson,
    /**
     * Poisson-arriving bursts of burstLen simultaneous requests; burst
     * gaps have mean burstLen * meanGap, so the long-run request rate
     * matches Fixed/Poisson at the same meanGap.
     */
    Bursty,
};

/** Configuration of an ArrivalProcess. */
struct ArrivalSpec
{
    ArrivalModel model = ArrivalModel::Fixed;
    /** Mean inter-request gap in ticks (must be >= 0). */
    Tick meanGap = ticksFromNs(static_cast<std::int64_t>(100));
    /** Arrival tick of the first request (or first burst). */
    Tick start = 0;
    /** Requests per burst (Bursty only, >= 1). */
    int burstLen = 8;
    /** Seed of the exponential draws (Poisson / Bursty). */
    std::uint64_t seed = 9;
};

/**
 * Re-times an inner source with an open-loop arrival process: request
 * payloads (id, kind, addr, size) pass through unchanged, arrival ticks
 * are replaced by the configured process. This turns any closed-loop
 * generator (all arrivals at 0) into serving-style offered load.
 */
class ArrivalProcess final : public RequestSource
{
  public:
    ArrivalProcess(std::unique_ptr<RequestSource> inner, ArrivalSpec spec);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    void restart();
    Tick expGap(Tick mean);

    std::unique_ptr<RequestSource> inner_;
    ArrivalSpec spec_;
    Rng rng_;
    Tick clock_ = 0;
    int inBurst_ = 0;
};

/**
 * Multi-tenant mix: merges several sources by arrival time (ties resolved
 * by part index). Ids are reassigned sequentially so tenants with
 * overlapping id spaces can share one controller.
 */
class MixSource final : public RequestSource
{
  public:
    explicit MixSource(std::vector<std::unique_ptr<RequestSource>> parts,
                       bool reassign_ids = true);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    std::vector<std::unique_ptr<RequestSource>> parts_;
    bool reassignIds_;
    std::uint64_t nextId_ = 1;
};

/**
 * Replays the inner source @p times times back to back. Ids are
 * reassigned sequentially (uniqueness across rounds) and each round's
 * arrivals are rebased onto the previous round's last arrival tick, so
 * the output stays nondecreasing. Turns a short recorded trace into a
 * statistically meaningful serving stream without re-recording it.
 */
class RepeatSource final : public RequestSource
{
  public:
    RepeatSource(std::unique_ptr<RequestSource> inner, std::uint64_t times);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    std::unique_ptr<RequestSource> inner_;
    std::uint64_t times_;
    std::uint64_t round_ = 0;
    std::uint64_t nextId_ = 1;
    Tick arrivalBase_ = 0;
    Tick lastArrival_ = 0;
};

/**
 * Passes through the first @p limit requests of the inner source, then
 * ends the stream. Used to cap a long recorded trace for smoke runs
 * without re-recording it.
 */
class TakeSource final : public RequestSource
{
  public:
    TakeSource(std::unique_ptr<RequestSource> inner, std::uint64_t limit);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    std::unique_ptr<RequestSource> inner_;
    std::uint64_t limit_;
    std::uint64_t taken_ = 0;
};

/**
 * Drops the first @p count requests of the inner source and passes the
 * rest through unchanged (ids and arrival ticks included). The head-trim
 * mirror of TakeSource: chaining Skip(n) and Take(m) carves an arbitrary
 * window out of a long recorded trace — e.g. skipping a prefill warm-up
 * to measure the steady decode tail — without re-recording it.
 */
class SkipSource final : public RequestSource
{
  public:
    SkipSource(std::unique_ptr<RequestSource> inner, std::uint64_t count);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    std::unique_ptr<RequestSource> inner_;
    std::uint64_t count_;
    bool skipped_ = false;
};

/**
 * The channel-shard rule: the shard of @p num_shards a request with
 * running index @p index (0-based, within the stream being sharded) and
 * address @p addr belongs to. With stripe_bytes == 0 requests are dealt
 * round-robin by index; otherwise the address stripe
 * (addr / stripe_bytes) selects the shard, modeling system-level channel
 * interleaving.
 */
inline int
shardOf(std::uint64_t index, std::uint64_t addr, int num_shards,
        std::uint64_t stripe_bytes)
{
    const std::uint64_t key = stripe_bytes ? addr / stripe_bytes : index;
    return static_cast<int>(key % static_cast<std::uint64_t>(num_shards));
}

/**
 * One channel's shard of a system-wide stream: yields only the requests
 * shardOf assigns to @p shard of @p num_shards. Reads the whole inner
 * stream to yield its share; StreamFanOut deals every shard in one pass.
 */
class ShardSource final : public RequestSource
{
  public:
    ShardSource(std::unique_ptr<RequestSource> inner, int shard,
                int num_shards, std::uint64_t stripe_bytes = 0);

  protected:
    bool produce(Request& out) override;
    void rewind() override;

  private:
    std::unique_ptr<RequestSource> inner_;
    int shard_;
    int shards_;
    std::uint64_t stripeBytes_;
    std::uint64_t index_ = 0;
};

/**
 * Carve a window out of @p source: drop the first @p skip_n requests,
 * then pass through at most @p take_n. Sugar for the SkipSource +
 * TakeSource composition every trimming call site was spelling by hand —
 * e.g. skipping a prefill warm-up and capping the steady decode span for
 * a smoke run. @p take_n == 0 means "no cap" (skip only).
 */
std::unique_ptr<RequestSource>
trimWindow(std::unique_ptr<RequestSource> source, std::uint64_t skip_n,
           std::uint64_t take_n);

/**
 * One deterministic producer dealing a system-wide stream to per-channel
 * views: the channel fan-out of a serving run.
 *
 * The producer pulls the system stream exactly once and deals every
 * request into the FIFO of the view it belongs to. Views are grouped
 * (one group per cube); the default deal() puts each request on group
 * 0, where shardOf — by the group's running index or by address stripe —
 * picks one of the group's channels. A subclass can split requests
 * across groups first (the node router; sim/node.h). View v is channel
 * v % channelsPerGroup of group v / channelsPerGroup.
 *
 * Views pull on demand: a view with nothing left produces until its own
 * FIFO is non-empty or the system stream ends, so it yields exactly the
 * sequence a ShardSource over the same stream would, and runs dry at the
 * same point. Requests dealt to other views wait in their FIFOs until
 * those pull; ChannelSimEngine's lock-step windows keep that backlog to
 * about one window of requests plus each view's lookahead (below the
 * saturation knee — past it, also the requests that arrived but wait
 * for admission). Production and FIFOs sit behind one mutex, so views may
 * be driven from several engine threads; a view takes its whole FIFO per
 * lock, which keeps those threads from queueing on it. Which thread
 * triggers production never changes what a view yields.
 */
class StreamFanOut
{
  public:
    /** Deal @p system across @p groups x @p channels_per_group views. */
    StreamFanOut(std::unique_ptr<RequestSource> system, int groups,
                 int channels_per_group, std::uint64_t stripe_bytes = 0);
    virtual ~StreamFanOut();

    StreamFanOut(const StreamFanOut&) = delete;
    StreamFanOut& operator=(const StreamFanOut&) = delete;

    int numViews() const { return static_cast<int>(queues_.size()); }

    /**
     * A pull handle on view @p v. Make one per view: two handles would
     * split its requests between them. A handle must not outlive the
     * fan-out, and it cannot rewind (the system stream is read once).
     */
    std::unique_ptr<RequestSource> makeView(int v);

    /**
     * Open a lock-step window: deal the next @p n system requests now
     * (fewer when the stream ends first) and start a new accounting
     * window of bufferedPeak(). Returns the arrival tick of the last one
     * dealt — the window's end — or kTickMax once the system stream has
     * ended. Call it only while no view is being pulled.
     */
    Tick openWindow(std::uint64_t n);

    /**
     * High-water of dealt requests no view had yielded yet, counted per
     * window: the most requests dealt by a window's end that were still
     * unyielded when it opened (before the first window, since the
     * start). That bounds the true high-water from above and, unlike it,
     * does not depend on how engine threads interleave inside a window —
     * each window's production is set by what its views demand.
     */
    std::uint64_t bufferedPeak() const;

  protected:
    /** Deal one system request; the default shards it onto group 0. */
    virtual void deal(const Request& r);

    /** Shard @p r onto one of @p group's channels and queue it there. */
    void dealToGroup(int group, const Request& r);

  private:
    class View;

    /** Requests one view has yielded, on a cache line of its own: only
     *  the thread pulling that view adds to it. */
    struct alignas(64) YieldCount
    {
        std::atomic<std::uint64_t> n{0};
    };

    /**
     * Move view @p v's whole FIFO into the empty @p batch, producing
     * first while the FIFO is empty; false once the system stream ended
     * with nothing left for @p v.
     */
    bool take(int v, std::deque<Request>& batch);

    const int channelsPerGroup_;
    const std::uint64_t stripeBytes_;
    std::vector<YieldCount> yielded_;
    /** Guards every member below (pulls may come from engine threads). */
    mutable std::mutex mu_;
    std::unique_ptr<RequestSource> system_;
    /** Dealt, not yet taken, requests of each view. */
    std::vector<std::deque<Request>> queues_;
    /** Requests dealt to each group so far (its round-robin index). */
    std::vector<std::uint64_t> groupDealt_;
    std::uint64_t dealt_ = 0;
    /** Requests all views had yielded when the last window opened. */
    std::uint64_t yieldedAtOpen_ = 0;
    std::uint64_t peak_ = 0;
};

} // namespace rome

#endif // ROME_SIM_SOURCE_H
