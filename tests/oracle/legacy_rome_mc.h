/**
 * @file
 * The seed's RoMe scheduler, kept as a test-only oracle.
 *
 * FSM occupancy is two flat slot arrays, one per operating and one per
 * refreshing FSM. Every step rescans every slot: for the refresh due at
 * the rotation cursor, for the earliest free operate FSM, and for each
 * queued op's VBA. It issues the op that can go earliest, ties going to a
 * VBA other than the last issued one, then to age.
 *
 * It shares ChannelControllerBase with RomeMc (host window, in-flight
 * slots, completions, fault injector) and nothing else. Its queue,
 * admission, retry queue, spare rewrite, refresh rotation, idle wake,
 * default queue depth and FSM counts are its own, so a production change
 * to any of them fails the parity tests instead of moving both sides. It
 * takes the production RomeMcConfig, its generator honours
 * scalarLowering, and it does not checkpoint.
 */

#ifndef ROME_TESTS_ORACLE_LEGACY_ROME_MC_H
#define ROME_TESTS_ORACLE_LEGACY_ROME_MC_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dram/device.h"
#include "dram/hbm4_config.h"
#include "rome/cmdgen.h"
#include "rome/rome_command.h"
#include "rome/rome_mc.h"
#include "rome/rome_timing.h"
#include "rome/vba.h"
#include "sim/engine.h"

namespace rome
{

/** Slot-rescan RoMe scheduler for one channel. */
class LegacyRomeMc : public ChannelControllerBase
{
  public:
    LegacyRomeMc(const DramConfig& base, VbaDesign design, RomeMcConfig cfg,
                 RomeMapOrder map_order = RomeMapOrder::VbaSidRow);

    std::string name() const override { return "rome-legacy"; }
    const ChannelDevice& device() const override { return dev_; }
    const CommandGenerator& generator() const { return gen_; }
    /** The oracle claims no Table IV figures. */
    McComplexity complexity() const override { return {}; }
    ControllerStats stats() const override;

    /** Observable state of a VBA at time @p at. */
    VbaState vbaState(const VbaAddress& a, Tick at) const;
    int operateFsmHighWater() const { return opHighWater_; }
    int refreshFsmHighWater() const { return refHighWater_; }

  private:
    /** One queued row operation. */
    struct RowOp
    {
        RowCommand cmd;
        std::uint64_t reqId;
        Tick arrival;
        std::uint64_t usefulBytes;
        /** The request's in-flight slot; -1 when this is its only op. */
        int slot = -1;
        int attempt = 0;
        Tick retryWait = 0;
        Tick linkDelay = 0;
    };

    /** A row op awaiting its fault-retry backoff. */
    struct PendingRetry
    {
        RowOp op;
        Tick readyAt;
    };

    /** An FSM slot tracking an in-flight row operation or refresh. */
    struct FsmSlot
    {
        VbaAddress vba;
        Tick busyUntil = kTickInvalid;
        VbaState state = VbaState::Idle;
    };

    bool admitOps() override;
    bool stepOnce(Tick until) override;
    void installCommandTrace() override { traceCommands(dev_); }

    VbaAddress decodeRow(std::uint64_t addr) const;
    int vbaKey(const VbaAddress& a) const
    {
        return a.sid * map_.vbasPerSid() + a.vba;
    }
    bool vbaBusy(const VbaAddress& a, Tick at) const;
    int busyCount(const std::vector<FsmSlot>& slots, Tick at) const;
    void retireSlots(Tick at);

    bool deferForFault(const RowOp& op, Tick data_end, bool& poisoned);
    void queueRetry(RowOp op, Tick ready_at);
    void pumpRetries();
    void runScrub();
    void applySpare(const SpareEvent& ev);

    DramConfig baseCfg_;
    VbaMap map_;
    RomeMcConfig cfg_;
    RomeTimingParams timing_;
    /** (SID, VBA) pairs of the channel: the refresh rotation's targets. */
    int totalVbas_ = 0;
    RomeMapOrder mapOrder_;
    ChannelDevice dev_;
    CommandGenerator gen_;

    std::vector<RowOp> queue_;
    /** Issued-but-incomplete row ops (count against the queue depth). */
    SortedTicks outstanding_;
    std::vector<FsmSlot> opSlots_;
    std::vector<FsmSlot> refSlots_;

    /** Last issued data command, for Table III gap bookkeeping. */
    Tick lastRowCmdAt_ = kTickInvalid;
    bool lastRowCmdWasWrite_ = false;
    int lastRowCmdSid_ = -1;
    std::optional<VbaAddress> lastRowCmdVba_;

    RefreshRotation refresh_;

    std::vector<PendingRetry> retryQ_;
    Tick nextRetryAt_ = kTickMax;
    std::vector<SpareEvent> scrubEvents_;

    std::uint64_t overfetch_ = 0;
    int opHighWater_ = 0;
    int refHighWater_ = 0;
};

} // namespace rome

#endif // ROME_TESTS_ORACLE_LEGACY_ROME_MC_H
