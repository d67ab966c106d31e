#include "sim/node.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

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
        // Bypass: delivery == injection, bit for bit. A one-cube node
        // over this link is a plain cube.
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
    if (r.size == 0)
        fatal("zero-size request");
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

} // namespace rome
