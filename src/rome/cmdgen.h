/**
 * @file
 * The RoMe command generator (§IV-C), placed on the HBM logic die.
 *
 * It accepts row-level commands (RD_row / WR_row / REF) and lowers each one
 * into the fixed conventional command sequence of Figure 9:
 *
 *   RD_row on the adopted 7d × 8b VBA:
 *     [+tRRDS-tCCDS] ACT bankA      (the intentional alignment delay)
 *     [+tRRDS]       ACT bankB
 *     [ACT_B+tRCDRD-tCCDS, then every tCCDS] RD A/B interleaved, 32 each
 *     [last RD + tRTP] PRE A, PRE B
 *
 * Every lowered command is validated by the ChannelDevice against the full
 * conventional timing rule set. In steady state the sequence offsets are
 * constant ("predetermined commands at fixed intervals"); when the MC
 * requests an operation earlier than the device permits (e.g. back-to-back
 * on the same VBA), the generator stretches the schedule minimally instead
 * of violating timing — tests assert both behaviours.
 *
 * # Steady-state fast path
 *
 * The simulator exploits the fixed-interval structure directly: at
 * construction the generator records one scalar lowering of each op kind
 * on a scratch device into a CmdTemplate — a flat array of
 * (kind, PC, bank slot, column, tick offset) entries — and caches the
 * per-VBA lowering plans. execute() then asks the device to validate the
 * whole template against its floors, its row-bus calendar and its
 * column-bus floor in one pass (ChannelDevice::earliestSequence) and, when
 * it fits, commits every command in one pass (issueSequence) without
 * per-command probing or any heap allocation. Whenever the steady-state
 * check fails — back-to-back ops on the same VBA, refresh collisions,
 * row-bus slot collisions, cold or busy banks — the generator falls back
 * to the scalar per-command path, so results are bit-identical to
 * pre-template lowering (asserted across all VBA designs by
 * tests/test_lowering.cc).
 *
 * REF lowering implements the §V-B optimization: the two banks of a VBA are
 * refreshed back-to-back tRREFD apart, so the VBA stalls for
 * tRFCpb + tRREFD instead of 2 × tRFCpb.
 */

#ifndef ROME_ROME_CMDGEN_H
#define ROME_ROME_CMDGEN_H

#include <array>
#include <cstdint>

#include "common/checkpoint.h"
#include "common/types.h"
#include "dram/device.h"
#include "rome/rome_command.h"
#include "rome/vba.h"

namespace rome
{

/** Where the command generator sits (§IV-C placement trade-off). */
enum class CmdGenPlacement
{
    InMc,     ///< No C/A pin reduction; minimal DRAM-side change.
    LogicDie, ///< Adopted: cuts MC↔HBM C/A pins; one generator per channel.
    DramDie,  ///< Cuts TSVs too, but needs one generator per channel per die.
};

/** Lowers row-level commands onto a (physical) HBM channel. */
class CommandGenerator
{
  public:
    /**
     * @param map     VBA organization (owns the lowering plan).
     * @param dev     The channel device; must be built from
     *                map.deviceOrganization() / map.deviceTiming().
     * @param template_lowering  Use the precomputed-template fast path
     *                (results are bit-identical either way; disabling it
     *                exists for parity oracles and benchmarks).
     */
    CommandGenerator(const VbaMap& map, ChannelDevice& dev,
                     CmdGenPlacement placement = CmdGenPlacement::LogicDie,
                     bool template_lowering = true);

    /** Outcome of one lowered row operation. */
    struct RowOpResult
    {
        /** When the first conventional command issued. */
        Tick start = 0;
        /** Data occupies the channel in [dataFrom, dataUntil). */
        Tick dataFrom = 0;
        Tick dataUntil = 0;
        /** When every participating bank is idle again. */
        Tick vbaReadyAt = 0;
        /** Conventional commands issued for this operation. */
        int acts = 0;
        int cass = 0;
        int pres = 0;
        int refPbs = 0;
        /** Bytes transferred. */
        std::uint64_t bytes = 0;
    };

    /**
     * Execute @p cmd, starting no earlier than @p not_before. The MC is
     * responsible for inter-command row-level spacing (Table III); the
     * generator enforces conventional timing underneath.
     */
    RowOpResult execute(const RowCommand& cmd, Tick not_before);

    CmdGenPlacement placement() const { return placement_; }

    /** Row-level commands accepted so far (for energy accounting). */
    std::uint64_t rowCommandsAccepted() const { return rowCmds_; }

    /** True when the template fast path is enabled. */
    bool templateLowering() const { return templatesEnabled_; }

    /** Operations lowered via the one-pass template fast path. */
    std::uint64_t templateHits() const { return templateHits_; }

    /** Operations that fell back to scalar per-command lowering. */
    std::uint64_t templateFallbacks() const { return templateFallbacks_; }

    /**
     * Serialize / restore the accounting counters. The lowering plans and
     * templates are config-derived and rebuilt by construction; only the
     * accepted/hit/fallback tallies are mutable run state.
     */
    void saveState(CheckpointWriter& w) const { fields(w, *this); }
    void loadState(CheckpointReader& r) { fields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    fields(Ar& ar, Self& self)
    {
        ar(self.rowCmds_, self.templateHits_, self.templateFallbacks_);
    }

    /** One op kind's fixed-offset sequence and its relative outcome. */
    struct OpTemplate
    {
        CmdTemplate seq;
        /** RowOpResult with every tick relative to the anchor t0. */
        RowOpResult rel;
        /** Whether rel.dataFrom/dataUntil are meaningful (RD/WR only). */
        bool hasData = false;
    };

    RowOpResult executeRdWr(ChannelDevice& dev, const RowCommand& cmd,
                            Tick not_before);
    RowOpResult executeRef(ChannelDevice& dev, const RowCommand& cmd,
                           Tick not_before);

    /** Issue @p kind at @p a to every participating PC at the same tick. */
    ChannelDevice::IssueResult issueAll(ChannelDevice& dev,
                                        const VbaPlan& plan, CmdKind kind,
                                        const DramAddress& a, Tick when);

    /** Earliest tick every participating PC accepts @p kind at @p a. */
    Tick earliestAll(const ChannelDevice& dev, const VbaPlan& plan,
                     CmdKind kind, const DramAddress& a, Tick t0) const;

    /** Record one scalar lowering of @p kind into its OpTemplate. */
    void buildTemplate(RowCmdKind kind);

    const VbaMap& map_;
    ChannelDevice& dev_;
    CmdGenPlacement placement_;
    bool templatesEnabled_;
    /** Indexed by RowCmdKind. */
    std::array<OpTemplate, static_cast<std::size_t>(RowCmdKind::NumKinds)>
        templates_;
    std::uint64_t rowCmds_ = 0;
    std::uint64_t templateHits_ = 0;
    std::uint64_t templateFallbacks_ = 0;
};

} // namespace rome

#endif // ROME_ROME_CMDGEN_H
