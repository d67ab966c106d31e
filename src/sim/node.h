/**
 * @file
 * Multi-cube node model: interconnect links, request router, placement.
 *
 * A serving node is N RoMe/HBM4 cubes behind a front-end router and
 * per-cube interconnect links. The serving driver (sim/serving.h) deals
 * its system stream through the pieces below; a single cube is the node
 * with numCubes = 1 and LinkConfig::idealLink().
 *
 *  - LinkModel: a deterministic host→cube link with one-way latency,
 *    serialization bandwidth, and credit-based queuing. It is computed
 *    *feed-forward* from open-loop arrival times: a request's delivery
 *    tick depends only on the injection sequence so far, never on cube
 *    state — no lock-step coupling between cubes is needed, which is
 *    what lets it compose with controllers that are not slice-invariant
 *    (see ROADMAP). Per-link delivery times are provably nondecreasing,
 *    so routed per-cube streams honor the RequestSource arrival
 *    contract.
 *  - NodePlacement: KV-cache/weight placement expressed through the
 *    existing llm/parallelism.h descriptors. Pipeline stages partition
 *    the modeled address span into disjoint cube groups (a request's
 *    address selects its stage); tensor parallelism splits each
 *    request's payload across the tpDegree cubes of one stage replica.
 *  - NodeRouter: pluggable replica-selection policy — round-robin,
 *    cache-affinity (address-hash so KV-cache reuse lands on the owning
 *    cubes), load-aware (fewest outstanding link credits). Routing is a
 *    pure function of the request sequence, so two routers fed the same
 *    stream reach bit-identical decisions — which is also why a
 *    checkpoint needs no router or link state: a resumed run re-routes
 *    the stream from the start.
 *  - NodeFanOut: the node's one pass over the stream — a StreamFanOut
 *    that routes each re-timed system request and deals every slice to
 *    a channel of its cube by the cube's shard rule, arrival = link
 *    delivery tick. Its router's links carry the run's routing
 *    statistics (routed counts and bytes, queue delay, credit stalls).
 */

#ifndef ROME_SIM_NODE_H
#define ROME_SIM_NODE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "llm/parallelism.h"
#include "sim/source.h"

namespace rome
{

// ---------------------------------------------------------------------------
// LinkModel
// ---------------------------------------------------------------------------

/** One host→cube interconnect link. */
struct LinkConfig
{
    /** One-way propagation latency (ticks). */
    Tick latencyTicks = ticksFromNs(static_cast<std::int64_t>(200));
    /** Serialization bandwidth; <= 0 means infinite (no serialization). */
    double bytesPerNs = 2048.0;
    /**
     * Outstanding-message credits; <= 0 means unlimited. The default
     * covers the bandwidth-delay product (2048 B/ns x ~400 ns round
     * trip ≈ 800 KiB in flight) at KiB-scale messages, so credits
     * throttle only a genuinely congested link.
     */
    int credits = 1024;

    /** Latency-, bandwidth- and credit-free: delivery == injection. */
    bool
    ideal() const
    {
        return latencyTicks == 0 && bytesPerNs <= 0.0 && credits <= 0;
    }

    /** The bypass link: a node of one cube over it is a plain cube. */
    static LinkConfig
    idealLink()
    {
        LinkConfig c;
        c.latencyTicks = 0;
        c.bytesPerNs = 0.0;
        c.credits = 0;
        return c;
    }
};

/**
 * Deterministic feed-forward link. inject() maps an injection tick to a
 * delivery tick: messages serialize FIFO at the configured bandwidth,
 * wait for a free credit when all are outstanding (a credit returns one
 * link latency after delivery — a round-trip ack), then propagate.
 *
 *   start   = max(inject, link busy, oldest credit free)
 *   deliver = start + bytes/bandwidth + latency
 *
 * Successive delivery ticks are nondecreasing (each message's start is
 * at least the previous serialization end), so the credit FIFO and the
 * routed per-cube streams both stay ordered.
 */
class LinkModel
{
  public:
    explicit LinkModel(const LinkConfig& cfg) : cfg_(cfg) {}

    /** Inject @p bytes at @p at; returns the delivery tick at the cube. */
    Tick inject(Tick at, std::uint64_t bytes);

    /** Messages not yet acked at @p at (load-aware routing metric). */
    int outstandingAt(Tick at) const;

    /** Restart the link as new (stats cleared). */
    void reset();

    const LinkConfig& config() const { return cfg_; }
    std::uint64_t injectedMessages() const { return injected_; }
    std::uint64_t injectedBytes() const { return bytes_; }
    /** Distribution of start - inject (queuing + credit stall), ns. */
    const LatencyHistogram& queueDelayHistNs() const { return queueHist_; }
    /** Ticks injections waited on credit exhaustion alone (telemetry:
     *  feeds the node aggregate's StallCause::LinkCredit bucket). */
    std::uint64_t creditStallTicks() const { return creditStall_; }

  private:
    LinkConfig cfg_;
    Tick busyUntil_ = 0;
    /** Credit-return ticks of outstanding messages, oldest first. */
    std::deque<Tick> creditFree_;
    std::uint64_t injected_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t creditStall_ = 0;
    LatencyHistogram queueHist_;
};

// ---------------------------------------------------------------------------
// Placement and routing
// ---------------------------------------------------------------------------

/** Front-end replica-selection policy. */
enum class RouterPolicy
{
    /** Cycle through stage replicas per request. */
    RoundRobin,
    /**
     * Hash the request's affinity region (addr / affinityBytes) to a
     * replica, so repeated touches of one KV-cache region always land
     * on the cubes that own it.
     */
    CacheAffinity,
    /** Replica whose links have the fewest outstanding credits. */
    LoadAware,
};

const char* routerPolicyName(RouterPolicy p);

/**
 * How one model spreads across the node's cubes. Cubes split into
 * ppStages consecutive groups (pipeline stages own disjoint address
 * ranges of the modeled span); each stage's cubes split into replicas
 * of tpDegree consecutive cubes. Requires numCubes % ppStages == 0 and
 * cubesPerStage % tpDegree == 0 (validated by NodeRouter).
 */
struct NodePlacement
{
    /** Cubes one request's payload is striped across. */
    int tpDegree = 1;
    /** Disjoint cube groups selected by address range. */
    int ppStages = 1;

    /**
     * Largest placement the llm/parallelism.h descriptor admits on
     * @p num_cubes: ppStages clamps to a divisor of num_cubes, tpDegree
     * to the largest divisor of the per-stage cube count not exceeding
     * the descriptor's attention TP degree.
     */
    static NodePlacement fromParallelism(const Parallelism& p,
                                         int num_cubes);
};

/** Router + topology knobs shared by every router replica. */
struct NodeRouterConfig
{
    int numCubes = 1;
    RouterPolicy policy = RouterPolicy::RoundRobin;
    NodePlacement placement;
    /** Every host→cube link uses this config. */
    LinkConfig link;
    /** Affinity-hash region size (CacheAffinity). */
    std::uint64_t affinityBytes = 1ull << 20;
    /**
     * Modeled address span. Addresses wrap into it; each pipeline stage
     * owns span/ppStages of it. Defaults to one channel's capacity so
     * single-channel-scale workloads exercise every stage.
     */
    std::uint64_t spanBytes = 1ull << 30;
};

/** One tensor-parallel slice of a routed request. */
struct RoutedSlice
{
    int cube = 0;
    /** Payload slice; arrival is the link delivery tick at the cube. */
    Request req;
};

/**
 * Deterministic front-end router. route() consumes system requests in
 * arrival order and appends each request's slices (one per TP cube of
 * the chosen replica, skipping zero-byte slices) to @p out; a zero-size
 * request is fatal, as it is to a channel controller. All state —
 * round-robin cursors, link occupancy — advances as a pure function of
 * the consumed sequence, so two routers fed the same stream make
 * identical decisions.
 */
class NodeRouter
{
  public:
    explicit NodeRouter(const NodeRouterConfig& cfg);

    /** Route one system request; slices are appended to @p out. */
    void route(const Request& r, std::vector<RoutedSlice>& out);

    int cubesPerStage() const { return cubesPerStage_; }
    int replicasPerStage() const { return replicasPerStage_; }
    const LinkModel& link(int cube) const
    {
        return links_[static_cast<std::size_t>(cube)];
    }
    const NodeRouterConfig& config() const { return cfg_; }

  private:
    int stageOf(std::uint64_t addr) const;
    int pickReplica(int stage, const Request& r);

    NodeRouterConfig cfg_;
    int cubesPerStage_ = 1;
    int replicasPerStage_ = 1;
    std::vector<LinkModel> links_;
    /** Per-stage round-robin cursor. */
    std::vector<int> rrCursor_;
};

/**
 * The node's stream fan-out: routes every request of one (already
 * re-timed) system stream and deals each slice to a channel of its cube
 * — group = cube, shardOf over the cube's own running slice index or
 * address stripe. View v is channel v % channels_per_cube of cube
 * v / channels_per_cube. After the drive, router() holds the run's
 * routing statistics: per-link injected slices and bytes, queue-delay
 * histograms and credit-stall ticks.
 */
class NodeFanOut final : public StreamFanOut
{
  public:
    NodeFanOut(std::unique_ptr<RequestSource> system,
               const NodeRouterConfig& cfg, int channels_per_cube,
               std::uint64_t stripe_bytes = 0);

    /** The one router every request went through. */
    const NodeRouter& router() const { return router_; }

  protected:
    void deal(const Request& r) override;

  private:
    NodeRouter router_;
    std::vector<RoutedSlice> slices_;
};

} // namespace rome

#endif // ROME_SIM_NODE_H
