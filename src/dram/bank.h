/**
 * @file
 * Per-bank timing/state record.
 *
 * A conventional bank moves through the seven states of §II-D: Idle,
 * Activating, Active, Reading, Writing, Precharging, and Refreshing. The
 * record stores command timestamps; the observable state at any instant is
 * derived from them, which keeps the device model free of per-tick work.
 */

#ifndef ROME_DRAM_BANK_H
#define ROME_DRAM_BANK_H

#include "common/types.h"
#include "dram/timing.h"

namespace rome
{

/** Conventional bank states (paper §II-D; seven states). */
enum class BankState : int
{
    Idle,
    Activating,
    Active,
    Reading,
    Writing,
    Precharging,
    Refreshing,
    NumStates
};

inline constexpr int kNumConventionalBankStates =
    static_cast<int>(BankState::NumStates);

/** Timing history of one physical bank. */
struct BankRecord
{
    /** Row latched in the row buffer, or -1 when closed. */
    int openRow = -1;

    Tick lastAct = kTickInvalid;
    Tick lastPre = kTickInvalid;
    /** Last column command (read or write) to this bank. */
    Tick lastCas = kTickInvalid;
    bool lastCasWasWrite = false;
    /** Completion time of the in-flight / last refresh. */
    Tick refUntil = kTickInvalid;

    bool open() const { return openRow >= 0; }

    /** Derived observable state at time @p now. */
    BankState
    stateAt(Tick now, const TimingParams& t) const
    {
        if (refUntil != kTickInvalid && now < refUntil)
            return BankState::Refreshing;
        if (open()) {
            if (lastAct != kTickInvalid && now < lastAct + t.tRCDRD)
                return BankState::Activating;
            if (lastCas != kTickInvalid) {
                const Tick data_end = lastCasWasWrite
                    ? lastCas + t.tWL + t.tBURST
                    : lastCas + t.tCL + t.tBURST;
                if (now < data_end) {
                    return lastCasWasWrite ? BankState::Writing
                                           : BankState::Reading;
                }
            }
            return BankState::Active;
        }
        if (lastPre != kTickInvalid && now < lastPre + t.tRP)
            return BankState::Precharging;
        return BankState::Idle;
    }
};

} // namespace rome

#endif // ROME_DRAM_BANK_H
