#include "sim/node.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/json_writer.h"
#include "common/log.h"

namespace rome
{

// ---------------------------------------------------------------------------
// LinkModel
// ---------------------------------------------------------------------------

Tick
LinkModel::inject(Tick at, std::uint64_t bytes)
{
    ++injected_;
    bytes_ += bytes;
    if (cfg_.ideal()) {
        // Bypass: delivery == injection, bit for bit. This is the link
        // the ServingDriver-equivalence proof runs over.
        queueHist_.sample(0.0);
        return at;
    }
    Tick start = std::max(at, busyUntil_);
    if (cfg_.credits > 0) {
        // Credit-free ticks are nondecreasing (delivery is monotone per
        // link), so the oldest outstanding message frees first: one
        // deque front is the exact stall bound.
        while (!creditFree_.empty() && creditFree_.front() <= start)
            creditFree_.pop_front();
        if (static_cast<int>(creditFree_.size()) >= cfg_.credits) {
            const Tick freed = creditFree_.front();
            if (freed > start) {
                creditStall_ +=
                    static_cast<std::uint64_t>(freed - start);
                start = freed;
            }
            creditFree_.pop_front();
        }
    }
    Tick ser = 0;
    if (cfg_.bytesPerNs > 0.0) {
        ser = static_cast<Tick>(
            std::ceil(static_cast<double>(bytes) *
                      static_cast<double>(kTicksPerNs) / cfg_.bytesPerNs));
    }
    const Tick deliver = start + ser + cfg_.latencyTicks;
    busyUntil_ = start + ser;
    if (cfg_.credits > 0)
        creditFree_.push_back(deliver + cfg_.latencyTicks);
    queueHist_.sample(nsFromTicks(start - at));
    return deliver;
}

int
LinkModel::outstandingAt(Tick at) const
{
    // creditFree_ is nondecreasing (delivery is monotone), so the
    // still-outstanding suffix is found by binary search — keeps the
    // load-aware policy O(log credits) per probe.
    const auto it =
        std::upper_bound(creditFree_.begin(), creditFree_.end(), at);
    return static_cast<int>(creditFree_.end() - it);
}

void
LinkModel::reset()
{
    busyUntil_ = 0;
    creditFree_.clear();
    injected_ = 0;
    bytes_ = 0;
    creditStall_ = 0;
    queueHist_ = LatencyHistogram{};
}

// ---------------------------------------------------------------------------
// Placement and routing
// ---------------------------------------------------------------------------

const char*
routerPolicyName(RouterPolicy p)
{
    switch (p) {
    case RouterPolicy::RoundRobin: return "roundrobin";
    case RouterPolicy::CacheAffinity: return "affinity";
    case RouterPolicy::LoadAware: return "loadaware";
    }
    return "?";
}

NodePlacement
NodePlacement::fromParallelism(const Parallelism& p, int num_cubes)
{
    if (num_cubes < 1)
        fatal("placement needs at least one cube");
    NodePlacement pl;
    int pp = std::max(1, std::min(p.ppStages, num_cubes));
    while (num_cubes % pp != 0)
        --pp;
    pl.ppStages = pp;
    const int per_stage = num_cubes / pp;
    int tp = std::max(1, std::min(p.tpAttention, per_stage));
    while (per_stage % tp != 0)
        --tp;
    pl.tpDegree = tp;
    return pl;
}

namespace
{

/** splitmix64 finalizer (same mix as common/random.h Rng seeding). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

NodeRouter::NodeRouter(const NodeRouterConfig& cfg) : cfg_(cfg)
{
    if (cfg_.numCubes < 1)
        fatal("router needs at least one cube");
    const NodePlacement& pl = cfg_.placement;
    if (pl.ppStages < 1 || cfg_.numCubes % pl.ppStages != 0) {
        fatal("pipeline stages (%d) must evenly divide the cube count "
              "(%d)",
              pl.ppStages, cfg_.numCubes);
    }
    cubesPerStage_ = cfg_.numCubes / pl.ppStages;
    if (pl.tpDegree < 1 || cubesPerStage_ % pl.tpDegree != 0) {
        fatal("TP degree (%d) must evenly divide the cubes per stage "
              "(%d)",
              pl.tpDegree, cubesPerStage_);
    }
    replicasPerStage_ = cubesPerStage_ / pl.tpDegree;
    if (cfg_.spanBytes == 0)
        fatal("router needs a nonzero address span");
    links_.reserve(static_cast<std::size_t>(cfg_.numCubes));
    for (int c = 0; c < cfg_.numCubes; ++c)
        links_.emplace_back(cfg_.link);
    rrCursor_.assign(static_cast<std::size_t>(pl.ppStages), 0);
}

int
NodeRouter::stageOf(std::uint64_t addr) const
{
    const std::uint64_t wrapped = addr % cfg_.spanBytes;
    const std::uint64_t stage =
        wrapped * static_cast<std::uint64_t>(cfg_.placement.ppStages) /
        cfg_.spanBytes;
    return static_cast<int>(stage);
}

int
NodeRouter::pickReplica(int stage, const Request& r)
{
    if (replicasPerStage_ == 1)
        return 0;
    switch (cfg_.policy) {
    case RouterPolicy::RoundRobin: {
        int& cur = rrCursor_[static_cast<std::size_t>(stage)];
        const int rep = cur;
        cur = (cur + 1) % replicasPerStage_;
        return rep;
    }
    case RouterPolicy::CacheAffinity: {
        const std::uint64_t region = r.addr / cfg_.affinityBytes;
        return static_cast<int>(
            mix64(region) %
            static_cast<std::uint64_t>(replicasPerStage_));
    }
    case RouterPolicy::LoadAware: {
        // Fewest outstanding link credits at injection time, summed over
        // the replica's TP cubes; ties break to the lowest index.
        const int base = stage * cubesPerStage_;
        int best = 0;
        int best_load = -1;
        for (int rep = 0; rep < replicasPerStage_; ++rep) {
            int load = 0;
            for (int i = 0; i < cfg_.placement.tpDegree; ++i) {
                const int cube = base + rep * cfg_.placement.tpDegree + i;
                load += links_[static_cast<std::size_t>(cube)]
                            .outstandingAt(r.arrival);
            }
            if (best_load < 0 || load < best_load) {
                best = rep;
                best_load = load;
            }
        }
        return best;
    }
    }
    return 0;
}

void
NodeRouter::route(const Request& r, std::vector<RoutedSlice>& out)
{
    const int stage = stageOf(r.addr);
    const int rep = pickReplica(stage, r);
    const int tp = cfg_.placement.tpDegree;
    const int base = stage * cubesPerStage_ + rep * tp;
    const std::uint64_t slice = r.size / static_cast<std::uint64_t>(tp);
    const std::uint64_t rem = r.size % static_cast<std::uint64_t>(tp);
    std::uint64_t offset = 0;
    for (int i = 0; i < tp; ++i) {
        const std::uint64_t sz =
            slice + (static_cast<std::uint64_t>(i) < rem ? 1 : 0);
        if (sz == 0)
            continue; // tiny request, fewer slices than TP cubes
        const int cube = base + i;
        RoutedSlice s;
        s.cube = cube;
        s.req = r;
        s.req.addr = r.addr + offset;
        s.req.size = sz;
        s.req.arrival =
            links_[static_cast<std::size_t>(cube)].inject(r.arrival, sz);
        // Telemetry: the slice remembers its link transit so the
        // controller can attribute the delay in the latency breakdown.
        s.req.linkDelay = s.req.arrival - r.arrival;
        out.push_back(s);
        offset += sz;
    }
}

// ---------------------------------------------------------------------------
// NodeFanOut
// ---------------------------------------------------------------------------

NodeFanOut::NodeFanOut(std::unique_ptr<RequestSource> system,
                       const NodeRouterConfig& cfg, int channels_per_cube,
                       std::uint64_t stripe_bytes)
    : StreamFanOut(std::move(system), cfg.numCubes, channels_per_cube,
                   stripe_bytes),
      router_(cfg)
{
}

void
NodeFanOut::deal(const Request& r)
{
    slices_.clear();
    router_.route(r, slices_);
    for (const RoutedSlice& s : slices_)
        dealToGroup(s.cube, s.req);
}

// ---------------------------------------------------------------------------
// NodeDriver
// ---------------------------------------------------------------------------

NodeDriver::NodeDriver(NodeConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.makeController)
        fatal("node driver needs a controller factory");
    if (!cfg_.makeSystemSource)
        fatal("node driver needs a system source factory");
    if (cfg_.numCubes < 1)
        fatal("node driver needs at least one cube");
    if (cfg_.channelsPerCube < 1)
        fatal("node driver needs at least one channel per cube");
    // Validate placement/topology eagerly (the router ctor checks).
    NodeRouter probe(routerConfig());
    (void)probe;
}

NodeRouterConfig
NodeDriver::routerConfig() const
{
    NodeRouterConfig rc;
    rc.numCubes = cfg_.numCubes;
    rc.policy = cfg_.policy;
    rc.placement = cfg_.placement;
    rc.link = cfg_.link;
    rc.affinityBytes = cfg_.affinityBytes;
    rc.spanBytes = cfg_.spanBytes;
    return rc;
}

NodeResult
NodeDriver::run(double offered_rps) const
{
    if (offered_rps <= 0.0)
        fatal("offered rate must be positive (got %g rps)", offered_rps);

    // Identical arrival construction to ServingDriver::run — the
    // single-cube ideal-link node is bit-identical to it because every
    // step below degenerates to the same operations in the same order.
    ArrivalSpec spec;
    spec.model = cfg_.arrivalModel;
    spec.seed = cfg_.arrivalSeed;
    spec.meanGap = std::max<Tick>(ticksFromNs(1e9 / offered_rps), 1);
    const double actual_rps = 1e9 / nsFromTicks(spec.meanGap);

    auto routed = std::make_unique<NodeFanOut>(
        std::make_unique<ArrivalProcess>(cfg_.makeSystemSource(), spec),
        routerConfig(), cfg_.channelsPerCube, cfg_.stripeBytes);
    const NodeFanOut& fan = *routed;
    ChannelSimEngine engine(cfg_.threads);
    for (int ch = 0; ch < fan.numViews(); ++ch) {
        auto mc = cfg_.makeController();
        if (!mc)
            fatal("node controller factory produced no controller");
        mc->setRetainCompletions(false);
        engine.addChannel(std::move(mc));
    }
    engine.bindFanOut(std::move(routed));

    NodeResult res;
    res.offeredRps = actual_rps;
    res.finishedAt = engine.drainAll();
    res.fanOutPeak = fan.bufferedPeak();
    res.perCube.resize(static_cast<std::size_t>(cfg_.numCubes));
    // Aggregate merges every channel snapshot in ascending cube/channel
    // order — the exact merge sequence ServingDriver uses for one cube,
    // extended cube-major. Per-cube stats merge the same snapshots.
    std::uint64_t credit_stall = 0;
    for (int cube = 0; cube < cfg_.numCubes; ++cube) {
        CubeResult& cr = res.perCube[static_cast<std::size_t>(cube)];
        for (int ch = 0; ch < cfg_.channelsPerCube; ++ch) {
            const ControllerStats s =
                engine.channel(cube * cfg_.channelsPerCube + ch).stats();
            res.aggregate.merge(s);
            cr.stats.merge(s);
        }
        cr.stats.deriveBandwidths();
        if (res.finishedAt > 0) {
            cr.achievedRps =
                static_cast<double>(cr.stats.completedRequests) /
                nsFromTicks(res.finishedAt) * 1e9;
        }
        // Routing statistics come from the fan-out's one router: every
        // slice it dealt to this cube crossed this link once.
        const LinkModel& link = fan.router().link(cube);
        cr.routedRequests = link.injectedMessages();
        cr.routedBytes = link.injectedBytes();
        res.linkQueueDelayNs.merge(link.queueDelayHistNs());
        credit_stall += link.creditStallTicks();
    }
    res.aggregate.deriveBandwidths();
    if (res.finishedAt > 0) {
        res.achievedRps =
            static_cast<double>(res.aggregate.completedRequests) /
            nsFromTicks(res.finishedAt) * 1e9;
    }

    // Telemetry: credit-exhaustion waits happen at the links, outside any
    // controller. Fold them into the node aggregate's LinkCredit stall
    // bucket — but only when the controllers themselves ran with
    // telemetry, so a telemetry-off node result stays bit-identical.
    std::uint64_t stall_total = 0;
    for (const std::uint64_t t : res.aggregate.stallTicks)
        stall_total += t;
    if (stall_total > 0 || res.aggregate.queueNsHist.count() > 0 ||
        res.aggregate.timeSeries.enabled()) {
        res.aggregate.stallTicks[static_cast<std::size_t>(
            StallCause::LinkCredit)] += credit_stall;
    }
    return res;
}

NodeRateSweep
runNodeRateSweep(const NodeDriver& driver,
                 const std::vector<double>& offered_rps,
                 double saturation_tolerance, int workers)
{
    NodeRateSweep sweep;
    sweep.points.resize(offered_rps.size());
    // Independent self-contained runs into per-index slots: the sharded
    // walk merges to exactly the serial curve (see runRateSweep).
    parallelFor(static_cast<int>(offered_rps.size()), workers, [&](int i) {
        const NodeResult res =
            driver.run(offered_rps[static_cast<std::size_t>(i)]);
        NodeRatePoint pt;
        pt.node = makeRatePoint(res.offeredRps, res.achievedRps,
                                res.aggregate, saturation_tolerance);
        pt.node.fanOutPeak = res.fanOutPeak;
        pt.perCubeAchievedRps.reserve(res.perCube.size());
        pt.perCubeRouted.reserve(res.perCube.size());
        for (const CubeResult& cr : res.perCube) {
            pt.perCubeAchievedRps.push_back(cr.achievedRps);
            pt.perCubeRouted.push_back(cr.routedRequests);
        }
        pt.linkQueueDelayMeanNs = res.linkQueueDelayNs.meanNs();
        pt.linkQueueDelayP99Ns = res.linkQueueDelayNs.percentileNs(99.0);
        sweep.points[static_cast<std::size_t>(i)] = std::move(pt);
    });
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        if (sweep.points[i].node.saturated) {
            sweep.kneeIndex = static_cast<int>(i);
            break;
        }
    }
    return sweep;
}

void
nodeRatePointJson(JsonWriter& w, const NodeRatePoint& pt)
{
    ratePointJson(w, pt.node);
    w.key("linkQueueDelayMeanNs").value(pt.linkQueueDelayMeanNs);
    w.key("linkQueueDelayP99Ns").value(pt.linkQueueDelayP99Ns);
    w.key("perCubeAchievedRps").beginArray();
    for (const double v : pt.perCubeAchievedRps)
        w.value(v);
    w.endArray();
    w.key("perCubeRouted").beginArray();
    for (const std::uint64_t v : pt.perCubeRouted)
        w.value(v);
    w.endArray();
}

} // namespace rome
