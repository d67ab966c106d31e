#include "dram/timing.h"

namespace rome
{

using namespace rome::literals;

TimingParams
hbm4Timing()
{
    TimingParams t;
    // Table V values.
    t.tRC = 45_ns;
    t.tRAS = 29_ns;
    t.tRP = 16_ns;
    t.tRCDRD = 16_ns;
    t.tRCDWR = 16_ns;
    t.tWR = 16_ns;
    t.tFAW = 12_ns;
    t.tCCDL = 2_ns;
    t.tCCDS = 1_ns;
    t.tCCDR = 2_ns;
    t.tRRDL = 2_ns;
    t.tRRDS = 2_ns;
    t.tCL = 16_ns;

    // Parameters not listed by the paper (HBM3-class; chosen so the derived
    // RoMe row-level turnarounds land on Table V: tR2WS = tR2RS + tRTW - 1
    // = 69 and tW2RS = tW2WS + tWTRS - 1 = 71; see rome/rome_timing.cc).
    t.tRTP = 2_ns;
    t.tWL = 12_ns;
    t.tBURST = 1_ns; // 32 B over 32 pins at 8 Gb/s
    t.tRTW = 6_ns;
    t.tWTRS = 8_ns;
    t.tWTRL = 10_ns;

    // Refresh (per-bank refresh per §V-B: tRFCpb 280 ns, tRREFD 8 ns).
    t.tRFCpb = 280_ns;
    t.tRREFD = 8_ns;
    t.tREFIbank = 3.9_us;
    return t;
}

} // namespace rome
