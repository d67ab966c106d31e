/**
 * @file
 * HBM timing parameters (Table II of the paper) and the derived command-level
 * separations the device model enforces.
 *
 * JEDEC has not finalized HBM4 timings; like the paper we adopt the values of
 * prior studies (Table V). Parameters the paper does not list (tRTP, write
 * latency, turnaround bubbles) are set to HBM3-class values. They shift the
 * read/write turnaround corners of baseline and RoMe identically, and RoMe's
 * derived tRD_row/tWR_row: see those rows of bench/paper_claims.cc.
 */

#ifndef ROME_DRAM_TIMING_H
#define ROME_DRAM_TIMING_H

#include "common/types.h"

namespace rome
{

/** Timing parameter set for one DRAM configuration (all values in ticks). */
struct TimingParams
{
    // --- Bank-scope core timings -------------------------------------
    Tick tRC = 0;     ///< ACT to ACT, same bank.
    Tick tRAS = 0;    ///< ACT to PRE, same bank.
    Tick tRP = 0;     ///< PRE to ACT, same bank.
    Tick tRCDRD = 0;  ///< ACT to RD, same bank.
    Tick tRCDWR = 0;  ///< ACT to WR, same bank.
    Tick tRTP = 0;    ///< RD to PRE, same bank.
    Tick tWR = 0;     ///< WR command to PRE, same bank (command-level).

    // --- CAS-to-CAS ----------------------------------------------------
    Tick tCCDL = 0;   ///< RD/WR to RD/WR, same bank group.
    Tick tCCDS = 0;   ///< RD/WR to RD/WR, different bank group.
    Tick tCCDR = 0;   ///< RD/WR to RD/WR, different SID (rank).

    // --- ACT-to-ACT ----------------------------------------------------
    Tick tRRDL = 0;   ///< ACT to ACT, same bank group.
    Tick tRRDS = 0;   ///< ACT to ACT, different bank group.
    Tick tFAW = 0;    ///< Window admitting at most four ACTs per (PC, SID).

    // --- Data path -------------------------------------------------------
    Tick tCL = 0;     ///< RD command to first data beat.
    Tick tWL = 0;     ///< WR command to first data beat.
    Tick tBURST = 0;  ///< Data beats of one column access (per PC).

    // --- Bus turnaround ---------------------------------------------------
    // Turnarounds are command-to-command gaps. This matches the accounting
    // behind the paper's row-level parameters (Table V: tR2WS − tR2RS = 5 ns
    // and tW2RS − tW2WS = 7 ns are command-level deltas).
    Tick tRTW = 0;    ///< RD command to WR command, same PC.
    Tick tWTRS = 0;   ///< WR command to RD command, different BG.
    Tick tWTRL = 0;   ///< WR command to RD command, same BG.

    // --- Refresh ----------------------------------------------------------
    Tick tRFCab = 0;   ///< All-bank refresh cycle time.
    Tick tRFCpb = 0;   ///< Per-bank refresh cycle time.
    Tick tRREFD = 0;   ///< REFpb to REFpb, same (PC, SID).
    Tick tREFIab = 0;  ///< Average REFab interval per (PC, SID).
    Tick tREFIbank = 0; ///< Required refresh period of each bank.

    /** Number of timing parameters a conventional MC tracks (Table IV). */
    static constexpr int kNumMcVisibleParams = 15;
};

/**
 * HBM4 timing preset (Table V), 1 tick = 0.25 ns.
 *
 * Values the paper lists: tRC=45, tRP=16, tRAS=29, tCL=16,
 * tRCDRD=tRCDWR=16, tWR=16, tFAW=12, tCCDL=2, tCCDS=1, tCCDR=2, tRRD=2 (ns).
 */
TimingParams hbm4Timing();

} // namespace rome

#endif // ROME_DRAM_TIMING_H
