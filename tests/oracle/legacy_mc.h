/**
 * @file
 * The seed's conventional FR-FCFS scheduler, kept as a test-only oracle.
 *
 * Every step rebuilds the whole candidate set from flat per-queue vectors
 * of 32 B column ops: one RD/WR per open-row hit, one ACT per closed bank
 * and one conflict PRE per open bank (deduplicated per bank), the due
 * refreshes and the close/adaptive policies' idle PREs. It issues the
 * candidate with the earliest device-probed tick, ties going to priority,
 * then age, then collection order.
 *
 * It shares ChannelControllerBase with ConventionalMc (host window,
 * in-flight slots, completions, fault injector) and nothing else. Its
 * queues, admission, retry queue, spare rewrite, write-drain hysteresis,
 * refresh rotation, idle wake and policy constants are its own, so a
 * production change to any of them fails the parity tests instead of
 * moving both sides. It takes the production McConfig, so a parity input
 * gives both sides one config, and it does not checkpoint.
 */

#ifndef ROME_TESTS_ORACLE_LEGACY_MC_H
#define ROME_TESTS_ORACLE_LEGACY_MC_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/device.h"
#include "dram/hbm4_config.h"
#include "mc/addrmap.h"
#include "mc/mc.h"
#include "sim/engine.h"

namespace rome
{

/** Rescan-everything conventional scheduler for one channel. */
class LegacyConventionalMc : public ChannelControllerBase
{
  public:
    LegacyConventionalMc(const DramConfig& cfg, AddressMapping mapping,
                         McConfig mc_cfg);

    std::string name() const override { return "hbm4-legacy"; }
    const ChannelDevice& device() const override { return dev_; }
    /** The oracle claims no Table IV figures. */
    McComplexity complexity() const override { return {}; }
    ControllerStats stats() const override;

  private:
    /** One cache-line-sized column operation. */
    struct Op
    {
        DramAddress addr;
        std::uint64_t reqId;
        ReqKind kind;
        Tick arrival;
        /** The request's in-flight slot; -1 when this is its only op. */
        int slot = -1;
        /** Re-read attempts already spent clearing a CE. */
        int attempt = 0;
        /** ECC retry backoff absorbed so far (telemetry breakdown). */
        Tick retryWait = 0;
        /** Upstream link delay of the parent request (telemetry). */
        Tick linkDelay = 0;
    };

    /** A deferred re-read waiting out its ECC retry backoff. */
    struct PendingRetry
    {
        Op op;
        Tick readyAt;
    };

    /** Per-(PC, SID) refresh rotation state (cursor walks the banks). */
    struct RefreshUnit
    {
        int pc;
        int sid;
        RefreshRotation rot;
    };

    /** A schedulable command candidate. */
    struct Candidate
    {
        Command cmd;
        Tick earliest;
        int priority;     // smaller = more urgent
        Tick age;         // older first among equals
        int opIndex = -1; ///< index into the flat queue
        bool isWrite = false;
        bool isRefresh = false;
        int refreshUnit = -1;
    };

    bool admitOps() override;
    bool stepOnce(Tick until) override;
    void installCommandTrace() override { traceCommands(dev_); }

    void updateWriteDrain();
    void completeOp(const Op& op, Tick data_end);
    int pendingRefreshCount(const RefreshUnit& u) const;
    bool refreshBlocked(const DramAddress& a) const;
    Tick idleWakeTick(Tick adaptive_next) const;
    void collectRefreshCandidates();
    void collectOpCandidates();

    bool deferForFault(const Op& op, Tick data_end, bool& poisoned);
    void queueRetry(Op op, Tick ready_at);
    void pumpRetries();
    void runScrub();
    void applySpare(const SpareEvent& ev);

    DramConfig dramCfg_;
    AddressMapping map_;
    McConfig cfg_;
    ChannelDevice dev_;

    std::vector<Op> readQ_;
    std::vector<Op> writeQ_;
    /** Issued-but-incomplete column ops (count against queue depth). */
    SortedTicks readOutstanding_;
    SortedTicks writeOutstanding_;
    bool drainingWrites_ = false;
    std::vector<RefreshUnit> refreshUnits_;

    std::vector<PendingRetry> retryQ_;
    /** Earliest retry readiness (kTickMax when none), for idle wake. */
    Tick nextRetryAt_ = kTickMax;
    std::vector<SpareEvent> scrubEvents_;

    std::uint64_t casIssued_ = 0;

    // Per-step scratch, sized at construction and refilled every step.
    std::vector<Candidate> cands_;
    /** Per flat bank: a queued op hits the open row. */
    std::vector<char> hasHit_;
    /** Per flat bank: the step already offered its ACT / PRE. */
    std::vector<char> actSeen_;
    std::vector<char> preSeen_;
};

} // namespace rome

#endif // ROME_TESTS_ORACLE_LEGACY_MC_H
