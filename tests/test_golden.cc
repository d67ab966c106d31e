/**
 * @file
 * Golden digests of the modelled outputs. A fixed corpus of runs is
 * reduced to ControllerStats::digest() values and checked against the
 * checked-in table tests/data/golden_digests.txt, so any change to what
 * the simulator computes fails here, in every build configuration:
 *
 *  - serve/<stack>/<trace>/<load>: HBM4, RoMe and the hybrid, each on a
 *    4-channel cube (the serving driver's one-cube ideal-link node) fed
 *    every .trace fixture in tests/data (capped at kTraceCap requests)
 *    at two offered loads with fixed inter-arrival gaps (no pinned value
 *    depends on libm's log1p);
 *  - node/<policy>: one 2-cube node point per RouterPolicy;
 *  - fault/<stack>: one fault-injected cube point per stack;
 *  - checkpoint/<stack>: a cube point saved a third of the way in and
 *    resumed from the blobs;
 *  - random/hbm4/<point>: the HBM4 cube on 512 B gathers at random
 *    addresses, one in three a write, at the two loads and resumed from
 *    a checkpoint taken a third of the way into the 1.2 load run;
 *  - stream/<stack>/<variant>: one controller draining a pre-enqueued
 *    sequential stream (every arrival at tick 0) across page policies,
 *    VBA designs, map orders, write mixes, mid-run arrivals, runUntil
 *    slicing and refresh cadences: the steady traffic whose schedule
 *    repeats with a fixed period;
 *  - sched/hbm4/<variant>: the conventional scheduler's corner paths —
 *    aged-QoS priorities with shallow queues, the pathological mapping
 *    with and without refresh, 32 B random traffic under the close and
 *    adaptive page policies, and write-drain hysteresis;
 *  - stalls/hbm4: a telemetry-counters cube point whose row hashes the
 *    stall-cause ticks as well as the digest (operator== and digest()
 *    leave telemetry out).
 *
 * A change that is meant to move modelled behaviour regenerates the table
 * with
 *
 *   ./test_golden --gtest_also_run_disabled_tests \
 *       --gtest_filter=Golden.DISABLED_Regenerate
 *
 * run from the build directory, and says why in CHANGES.md. A change
 * that is not meant to move it leaves the table byte-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dram/hbm4_config.h"
#include "mc/mc.h"
#include "rome/hybrid.h"
#include "rome/rome_mc.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "sim/serving.h"
#include "sim/source.h"
#include "sim/trace.h"
#include "sim/workloads.h"

namespace rome
{
namespace
{

using namespace rome::literals;

const std::string kDataDir = std::string(ROME_SOURCE_DIR) + "/tests/data";
const std::string kTablePath = kDataDir + "/golden_digests.txt";

/** Requests read from each trace fixture (keeps the corpus ~1 s). */
constexpr std::uint64_t kTraceCap = 400;
/** Requests of each random-gather run (likewise). */
constexpr std::uint64_t kRandomRequests = 2000;
/** Channels of every cube in the corpus. */
constexpr int kChannels = 4;

std::uint64_t
statsDigest(const ControllerStats& s)
{
    return s.digest();
}

/** The digest extended with the stall-cause ticks, in cause order. */
std::uint64_t
stallDigest(const ControllerStats& s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a over 64-bit words
    const auto word = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    word(s.digest());
    for (const std::uint64_t t : s.stallTicks)
        word(t);
    return h;
}

/**
 * One corpus row: a name, the run that produces its stats and the
 * reduction of those stats to the pinned value.
 */
struct GoldenCase
{
    std::string name;
    std::function<ControllerStats()> run;
    std::uint64_t (*reduce)(const ControllerStats&) = statsDigest;
};

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** @p s with spaces as '_' and everything but [A-Za-z0-9._-] dropped. */
std::string
slug(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == ' ')
            out += '_';
        else if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                 c == '-')
            out += c;
    }
    return out;
}

/** The trace fixtures, in name order. */
std::vector<std::string>
traceNames()
{
    std::vector<std::string> out;
    for (const auto& e : std::filesystem::directory_iterator(kDataDir)) {
        if (e.path().extension() == ".trace")
            out.push_back(e.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

SourceFactory
cappedTrace(const std::string& name)
{
    const std::string path = kDataDir + "/" + name;
    return [path] {
        return std::make_unique<TakeSource>(
            std::make_unique<TraceSource>(path), kTraceCap);
    };
}

/**
 * Offered request rate putting @p load of @p channels HBM4 channels'
 * peak bandwidth behind @p make's stream.
 */
double
rateForLoad(const SourceFactory& make, double load, int channels)
{
    auto src = make();
    std::uint64_t bytes = 0;
    std::uint64_t n = 0;
    Request r;
    while (src->next(r)) {
        bytes += r.size;
        ++n;
    }
    const double mean_bytes =
        static_cast<double>(bytes) /
        static_cast<double>(std::max<std::uint64_t>(n, 1));
    const double peak =
        hbm4Config().org.channelBandwidthBytesPerNs() * channels;
    return load * peak * 1e9 / mean_bytes;
}

FaultConfig
goldenFaults()
{
    FaultConfig f;
    f.enabled = true;
    f.seed = 31;
    f.transientLineRate = 1e-4;
    f.weakRowFraction = 0.02;
    f.stuckRowFraction = 0.01;
    return f;
}

/** Per-channel controller factories of the three stacks. */
ControllerFactory
stackFactory(const std::string& stack, bool faults)
{
    const DramConfig dram = hbm4Config();
    if (stack == "hbm4") {
        McConfig c;
        if (faults)
            c.faults = goldenFaults();
        return [dram, c] {
            return std::make_unique<ConventionalMc>(
                dram, bestBaselineMapping(dram.org), c);
        };
    }
    if (stack == "rome") {
        RomeMcConfig c;
        if (faults)
            c.faults = goldenFaults();
        return [dram, c] {
            return std::make_unique<RomeMc>(dram, VbaDesign::adopted(), c);
        };
    }
    HybridConfig c;
    if (faults)
        c.faults = goldenFaults();
    return [dram, c] { return std::make_unique<HybridMc>(dram, c); };
}

NodeConfig
cubeConfig(ControllerFactory make, SourceFactory source)
{
    NodeConfig cfg;
    cfg.makeController = std::move(make);
    cfg.makeSystemSource = std::move(source);
    cfg.channelsPerCube = kChannels;
    cfg.arrivalModel = ArrivalModel::Fixed;
    cfg.threads = 1;
    cfg.link = LinkConfig::idealLink();
    return cfg;
}

/** A pre-enqueued sequential stream of 4 KiB requests, all at tick 0. */
struct StreamSpec
{
    std::uint64_t total = 4_MiB;
    /** Every writeEvery-th request is a write (0: reads only). */
    int writeEvery = 0;
    /** Extra read bytes arriving at 40 us, mid-run (0: none). */
    std::uint64_t lateBytes = 0;
    /** Drive 40 uneven runUntil slices before the final drain. */
    bool sliced = false;
};

ControllerStats
drainStream(IMemoryController& mc, const StreamSpec& s)
{
    std::uint64_t id = 1;
    for (std::uint64_t off = 0; off < s.total; off += 4_KiB) {
        const bool wr = s.writeEvery > 0 &&
                        (off / 4_KiB) % s.writeEvery == 0;
        mc.enqueue({id++, wr ? ReqKind::Write : ReqKind::Read, off, 4_KiB,
                    0});
    }
    if (s.lateBytes > 0) {
        const Tick late = 40_us;
        mc.runUntil(late);
        for (std::uint64_t off = 0; off < s.lateBytes; off += 4_KiB)
            mc.enqueue({id++, ReqKind::Read, s.total + off, 4_KiB, late});
    }
    if (s.sliced) {
        Tick at = 0;
        for (int i = 0; i < 40; ++i) {
            at += 17_us + static_cast<Tick>(i) * 13;
            mc.runUntil(at);
        }
    }
    mc.drain();
    return mc.stats();
}

std::vector<GoldenCase>
goldenCorpus()
{
    std::vector<GoldenCase> out;
    const char* stacks[] = {"hbm4", "rome", "hybrid"};

    for (const std::string& trace : traceNames()) {
        const SourceFactory source = cappedTrace(trace);
        for (const double load : {0.5, 1.2}) {
            const double rps = rateForLoad(source, load, kChannels);
            for (const char* stack : stacks) {
                char name[128];
                std::snprintf(name, sizeof(name), "serve/%s/%s/load%.1f",
                              stack, trace.c_str(), load);
                out.push_back({name, [=] {
                    const NodeDriver driver(
                        cubeConfig(stackFactory(stack, false), source));
                    return driver.run(rps).aggregate;
                }});
            }
        }
    }

    const SourceFactory serving = cappedTrace("serving.trace");
    for (const RouterPolicy policy :
         {RouterPolicy::RoundRobin, RouterPolicy::CacheAffinity,
          RouterPolicy::LoadAware}) {
        out.push_back({std::string("node/") + routerPolicyName(policy), [=] {
            NodeConfig cfg;
            cfg.makeController = stackFactory("rome", false);
            cfg.makeSystemSource = serving;
            cfg.numCubes = 2;
            cfg.channelsPerCube = 2;
            cfg.arrivalModel = ArrivalModel::Fixed;
            cfg.threads = 1;
            cfg.policy = policy;
            const double rps = rateForLoad(serving, 0.8, 4);
            return NodeDriver(cfg).run(rps).aggregate;
        }});
    }

    for (const char* stack : stacks) {
        out.push_back({std::string("fault/") + stack, [=] {
            const NodeDriver driver(
                cubeConfig(stackFactory(stack, true), serving));
            const double rps = rateForLoad(serving, 0.8, kChannels);
            return driver.run(rps).aggregate;
        }});
    }

    for (const char* stack : {"hbm4", "rome"}) {
        out.push_back({std::string("checkpoint/") + stack, [=] {
            const NodeDriver driver(
                cubeConfig(stackFactory(stack, false), serving));
            const double rps = rateForLoad(serving, 0.8, kChannels);
            const Tick end = driver.run(rps).finishedAt;
            return driver.resume(driver.runToCheckpoint(rps, end / 3))
                .aggregate;
        }});
    }

    // 512 B gathers at random channel addresses, one in three a write:
    // many banks with work at once, ACT/PRE-heavy steps and turnarounds.
    RandomPattern gathers;
    gathers.requestBytes = 512;
    gathers.totalBytes = kRandomRequests * gathers.requestBytes;
    gathers.capacity = hbm4Config().org.channelCapacity();
    gathers.writeFraction = 1.0 / 3.0;
    gathers.seed = 23;
    const SourceFactory random = [gathers] {
        return std::make_unique<RandomSource>(gathers);
    };
    for (const double load : {0.5, 1.2}) {
        char name[64];
        std::snprintf(name, sizeof(name), "random/hbm4/load%.1f", load);
        out.push_back({name, [=] {
            const NodeDriver driver(
                cubeConfig(stackFactory("hbm4", false), random));
            return driver.run(rateForLoad(random, load, kChannels)).aggregate;
        }});
    }
    out.push_back({"random/hbm4/checkpoint", [=] {
        const NodeDriver driver(
            cubeConfig(stackFactory("hbm4", false), random));
        const double rps = rateForLoad(random, 1.2, kChannels);
        const Tick end = driver.run(rps).finishedAt;
        return driver.resume(driver.runToCheckpoint(rps, end / 3)).aggregate;
    }});

    // Conventional streams: refresh off unless named, open page policy.
    const DramConfig dram = hbm4Config();
    const auto hbm4_stream = [&](const std::string& name, McConfig c,
                                 StreamSpec spec) {
        out.push_back({"stream/hbm4/" + name, [=] {
            ConventionalMc mc(dram, bestBaselineMapping(dram.org), c);
            return drainStream(mc, spec);
        }});
    };
    McConfig no_ref;
    no_ref.refreshEnabled = false;
    hbm4_stream("open", no_ref, {8_MiB});
    hbm4_stream("open-sliced", no_ref, {8_MiB, 0, 0, true});
    hbm4_stream("mixed-writes", no_ref, {4_MiB, 4});
    hbm4_stream("late-arrivals", no_ref, {4_MiB, 0, 1_MiB});
    for (const PagePolicy pol : {PagePolicy::Close, PagePolicy::Adaptive}) {
        McConfig c = no_ref;
        c.pagePolicy = pol;
        hbm4_stream(pol == PagePolicy::Close ? "close" : "adaptive", c,
                    {4_MiB});
    }
    hbm4_stream("refresh", McConfig{}, {4_MiB});

    // Conventional scheduler corner paths, each the workload of a legacy
    // scheduler parity test (tests/test_mc.cc), replayed through one
    // controller.
    const auto hbm4_sched = [&](const std::string& name, McConfig c,
                                std::vector<Request> reqs,
                                bool pathological = false) {
        out.push_back({"sched/hbm4/" + name, [=] {
            const AddressMapping mapping =
                pathological ? standardMappings(dram.org).back()
                             : bestBaselineMapping(dram.org);
            ConventionalMc mc(dram, mapping, c);
            return runWorkload(mc, reqs);
        }});
    };
    {
        // Tight age threshold: forced CAS and aged conflict precharges;
        // shallow queues block admission.
        RandomPattern p;
        p.totalBytes = 128_KiB;
        p.requestBytes = 64;
        p.capacity = dram.org.channelCapacity();
        p.writeFraction = 0.25;
        p.seed = 3;
        McConfig c;
        c.readQueueDepth = 24;
        c.writeQueueDepth = 16;
        c.agePriorityThreshold = 300_ns;
        hbm4_sched("aged-qos", c, randomRequests(p));
    }
    {
        // The worst standard mapping piles traffic onto few banks: heavy
        // conflict-precharge representative selection.
        StreamPattern p;
        p.totalBytes = 256_KiB;
        p.requestBytes = 4_KiB;
        p.writeFraction = 0.2;
        p.seed = 17;
        McConfig c;
        hbm4_sched("pathological-refresh", c, streamRequests(p), true);
        c.refreshEnabled = false;
        hbm4_sched("pathological-no-refresh", c, streamRequests(p), true);
    }
    {
        RandomPattern p;
        p.totalBytes = 64_KiB;
        p.requestBytes = 32;
        p.capacity = dram.org.channelCapacity();
        p.writeFraction = 0.1;
        p.seed = 9;
        McConfig c;
        c.pagePolicy = PagePolicy::Close;
        hbm4_sched("fine-random-close", c, randomRequests(p));
        c.pagePolicy = PagePolicy::Adaptive;
        hbm4_sched("fine-random-adaptive", c, randomRequests(p));
    }
    {
        // Write bursts push occupancy through the high watermark; read
        // tails pull it back below the low one, so the drain toggles.
        std::vector<Request> reqs;
        std::uint64_t id = 1;
        std::uint64_t addr = 0;
        for (int block = 0; block < 4; ++block) {
            for (int i = 0; i < 96; ++i, addr += 4_KiB)
                reqs.push_back({id++, ReqKind::Write, addr, 4_KiB, 0});
            for (int i = 0; i < 24; ++i, addr += 4_KiB)
                reqs.push_back({id++, ReqKind::Read, addr, 4_KiB, 0});
        }
        hbm4_sched("write-drain", McConfig{}, reqs);
    }

    out.push_back({"stalls/hbm4", [=] {
        McConfig c;
        c.telemetry.counters = true;
        const NodeDriver driver(cubeConfig(
            [dram, c] {
                return std::make_unique<ConventionalMc>(
                    dram, bestBaselineMapping(dram.org), c);
            },
            serving));
        return driver.run(rateForLoad(serving, 0.8, kChannels)).aggregate;
    }, stallDigest});

    // RoMe streams: 64-entry queue, refresh off unless named.
    const auto rome_stream = [&](const std::string& name, DramConfig d,
                                 RomeMcConfig c, StreamSpec spec,
                                 VbaDesign design, RomeMapOrder order) {
        out.push_back({"stream/rome/" + name, [=] {
            RomeMc mc(d, design, c, order);
            return drainStream(mc, spec);
        }});
    };
    const VbaDesign adopted = VbaDesign::adopted();
    const RomeMapOrder vsr = RomeMapOrder::VbaSidRow;
    RomeMcConfig deep;
    deep.queueDepth = 64;
    deep.refreshEnabled = false;
    rome_stream("adopted", dram, deep, {32_MiB}, adopted, vsr);
    rome_stream("adopted-sliced", dram, deep, {16_MiB, 0, 0, true}, adopted,
                vsr);
    rome_stream("mixed-writes", dram, deep, {4_MiB, 4}, adopted, vsr);
    rome_stream("late-arrivals", dram, deep, {2_MiB, 0, 1_MiB}, adopted,
                vsr);
    for (const VbaDesign& d : VbaDesign::all())
        rome_stream("design-" + slug(d.name()), dram, deep, {4_MiB}, d, vsr);
    rome_stream("order-sid-vba-row", dram, deep, {2_MiB}, adopted,
                RomeMapOrder::SidVbaRow);
    rome_stream("order-row-vba-sid", dram, deep, {2_MiB}, adopted,
                RomeMapOrder::RowVbaSid);
    RomeMcConfig refresh = deep;
    refresh.refreshEnabled = true;
    rome_stream("refresh", dram, refresh, {32_MiB}, adopted, vsr);
    DramConfig lazy = dram;
    lazy.timing.tREFIbank *= 1000;
    rome_stream("lazy-refresh", lazy, refresh, {16_MiB}, adopted, vsr);
    return out;
}

/** The corpus's table text, one "<name> <digest>" line per case. */
std::string
renderTable(const std::vector<GoldenCase>& corpus)
{
    std::ostringstream os;
    os << "# ControllerStats::digest() of the tests/test_golden.cc corpus.\n"
       << "# Regenerate only for an intended change of modelled behaviour"
       << " (see tests/test_golden.cc).\n";
    for (const GoldenCase& c : corpus)
        os << c.name << ' ' << hex64(c.reduce(c.run())) << '\n';
    return os.str();
}

std::map<std::string, std::string>
readTable()
{
    std::map<std::string, std::string> rows;
    std::ifstream in(kTablePath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name;
        std::string digest;
        ls >> name >> digest;
        rows[name] = digest;
    }
    return rows;
}

TEST(Golden, CorpusDigestsMatchTheCheckedInTable)
{
    const std::map<std::string, std::string> table = readTable();
    ASSERT_FALSE(table.empty()) << "missing or empty " << kTablePath;
    const std::vector<GoldenCase> corpus = goldenCorpus();
    EXPECT_EQ(table.size(), corpus.size())
        << "the table and the corpus list different cases";
    for (const GoldenCase& c : corpus) {
        const auto it = table.find(c.name);
        if (it == table.end()) {
            ADD_FAILURE() << c.name << ": no row in " << kTablePath;
            continue;
        }
        EXPECT_EQ(hex64(c.reduce(c.run())), it->second)
            << c.name << ": modelled output moved";
    }
}

TEST(Golden, DigestCoversEveryComparedField)
{
    // Any field operator== compares must move the digest; telemetry and
    // step-count diagnostics, which it ignores, must not.
    ControllerStats base;
    base.latencyHistNs.sample(120.0);
    const std::uint64_t d = base.digest();

    ControllerStats s = base;
    s.refPbs = 1;
    EXPECT_NE(s.digest(), d);
    s = base;
    s.rowHitRate = 0.5;
    EXPECT_NE(s.digest(), d);
    s = base;
    s.latencyHistNs.sample(4000.0);
    EXPECT_NE(s.digest(), d);

    s = base;
    s.schedSteps = 99;
    s.stallTicks[0] = 7;
    s.queueNsHist.sample(10.0);
    EXPECT_TRUE(s == base);
    EXPECT_EQ(s.digest(), d);
}

TEST(Golden, DISABLED_Regenerate)
{
    std::ofstream out(kTablePath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kTablePath;
    out << renderTable(goldenCorpus());
}

} // namespace
} // namespace rome
