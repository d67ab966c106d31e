/**
 * @file
 * Deterministic fault injection and ECC/recovery bookkeeping (§VII).
 *
 * The paper argues row granularity access changes the ECC story: one
 * SEC-DED codeword can protect a whole 4 KB row instead of one per 32 B
 * line. To exercise that claim live — not just as the offline parity
 * calculator in rome/ecc.h — the controllers consult a FaultInjector on
 * every read CAS. The injector decides, purely as a function of
 * (seed, bank, row, per-row access count, line), whether the accessed
 * codeword holds zero, one, or more raw bit errors, and the controller
 * maps that onto the SEC-DED outcome at its codeword granularity:
 * clean, corrected (CE), or detected-uncorrectable (DUE).
 *
 * Determinism contract: every decision derives from a splitmix64 hash
 * chain over counters the schedule itself produces. There is no RNG
 * stream to advance out of order, so two runs that issue the same CAS
 * sequence see the same faults — regardless of engine thread count or
 * where runUntil slices the drive. Retries re-read the row and advance
 * its access counter, so a transient fault naturally resamples while a
 * stuck-at fault persists.
 *
 * Fault kinds:
 *  - transient: per-line Bernoulli draw per access (rate
 *    transientLineRate); a re-read usually comes back clean.
 *  - weak row: a deterministic subset of rows (weakRowFraction) leaks
 *    one line after weakRowOnset reads since the last scrub; scrubbing
 *    the row resets it, a plain re-read does not.
 *  - stuck row: a deterministic subset of rows (stuckRowFraction) with a
 *    hard fault in every access; a stuckDueFraction of those have a
 *    2-bit fault (DUE under SEC-DED), the rest a persistent CE.
 *
 * Recovery state owned here (the controllers own the scheduling side):
 *  - per-row CE strike counts feeding the sparing threshold;
 *  - the spare map: rows remapped into a reserved region at the top of
 *    each bank (the top spareRowsPerBank rows, excluded from site
 *    faults so a spare is clean and sparing terminates);
 *  - the patrol-scrub cursor: scrub() sweeps rows in address order,
 *    resetting weak-row retention counters and sparing stuck rows it
 *    finds, scrubRowsPerRefresh rows per issued refresh.
 *
 * With cfg.enabled == false every hook reduces to one branch and the
 * injector holds no per-row state — the faults-off path stays
 * bit-identical to a build without the subsystem and allocation-free.
 */

#ifndef ROME_SIM_FAULT_H
#define ROME_SIM_FAULT_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/checkpoint.h"
#include "common/types.h"

namespace rome
{

/** SEC-DED outcome of one read access at codeword granularity. */
enum class EccVerdict
{
    Clean,
    /** Single-bit error, corrected inline (CE). */
    CorrectedError,
    /** Multi-bit error, detected but uncorrectable (DUE). */
    UncorrectableError,
};

/** Fault-injection and recovery-policy knobs (disabled by default). */
struct FaultConfig
{
    /** Master switch; false keeps every hook a single branch. */
    bool enabled = false;
    /** Seed of the site/event hash chain. */
    std::uint64_t seed = 1;
    /** Per-32B-line single-bit transient rate per access. */
    double transientLineRate = 0.0;
    /** Fraction of rows with a retention-weak line. */
    double weakRowFraction = 0.0;
    /** Reads since last scrub before a weak row starts leaking. */
    int weakRowOnset = 64;
    /** Fraction of rows with a stuck-at fault (persistent). */
    double stuckRowFraction = 0.0;
    /** Fraction of stuck rows whose fault is 2-bit (DUE, not CE). */
    double stuckDueFraction = 0.25;
    /** Re-read attempts per correctable error before giving up. */
    int retryLimit = 3;
    /** CE strikes on one row before it is spared. */
    int ceSpareThreshold = 3;
    /** Spare rows reserved at the top of each bank. */
    int spareRowsPerBank = 8;
    /** Patrol scrub woven into the refresh calendar. */
    bool scrubEnabled = true;
    /** Rows scrubbed per issued refresh. */
    int scrubRowsPerRefresh = 8;
};

/** A row remap decision: oldRow of bank now lives at newRow. */
struct SpareEvent
{
    int bank = 0;
    int oldRow = 0;
    /** Destination spare row; < 0 when the bank's spares ran out. */
    int newRow = -1;
};

/** Deterministic fault process + ECC verdicts + sparing/scrub state. */
class FaultInjector
{
  public:
    /**
     * Bind the injector to one controller's geometry: @p num_banks
     * fault domains (flat bank index for the conventional stack, VBA
     * key for RoMe) of @p rows_per_bank rows of @p lines_per_row 32 B
     * lines, read @p codeword_lines lines per ECC codeword (1 for the
     * conventional 32 B line code, lines_per_row for RoMe's whole-row
     * code).
     */
    void configure(const FaultConfig& cfg, int num_banks, int rows_per_bank,
                   int lines_per_row, int codeword_lines);

    bool enabled() const { return cfg_.enabled; }
    const FaultConfig& config() const { return cfg_; }

    /**
     * Classify one read access covering lines [line_lo, line_lo +
     * nlines) of (bank, row) — the caller passes exactly one codeword.
     * Advances the row's access counter (so retries resample
     * transients) and the CE/DUE counters.
     */
    EccVerdict classifyRead(int bank, int row, int line_lo, int nlines);

    /** Physical row serving @p row of @p bank (identity unless spared). */
    int
    remappedRow(int bank, int row) const
    {
        if (spareMap_.empty())
            return row;
        const auto it = spareMap_.find(key(bank, row));
        return it == spareMap_.end() ? row : it->second;
    }

    /**
     * Record a CE strike against (bank, row) after a retry budget was
     * exhausted; true when the row crossed the sparing threshold and a
     * spare is available (caller should spareRow() and remap).
     */
    bool noteCorrectable(int bank, int row);

    /**
     * Remap (bank, row) into the bank's spare region. Returns the
     * event (newRow < 0 when no spare remained — the row then stays in
     * place and keeps correcting).
     */
    SpareEvent spareRow(int bank, int row);

    /**
     * Patrol scrub: sweep the next scrubRowsPerRefresh rows (address
     * order, wrapping, spare region excluded), resetting weak-row
     * retention counters and striking/sparing stuck rows found. Spare
     * decisions are appended to @p out so the controller can rewrite
     * queued ops.
     */
    void scrub(std::vector<SpareEvent>& out);

    /**
     * When a retry issued now at @p attempt may re-enter the queue: the
     * base backoff doubles per attempt.
     */
    Tick
    retryReadyAt(Tick now, int attempt) const
    {
        const int shift = attempt < 10 ? attempt : 10;
        return now + (kRetryBackoff << shift);
    }

    /** Count one scheduled re-read. */
    void noteRetry() { ++retryCount_; }

    std::uint64_t ceCount() const { return ceCount_; }
    std::uint64_t dueCount() const { return dueCount_; }
    std::uint64_t retryCount() const { return retryCount_; }
    std::uint64_t scrubCount() const { return scrubCount_; }
    std::uint64_t sparedRows() const { return sparedRows_; }

    /** True when (bank, row) has a stuck-at fault site (testing aid). */
    bool stuckRow(int bank, int row) const;
    /** True when (bank, row) is a retention-weak site (testing aid). */
    bool weakRow(int bank, int row) const;

    /**
     * Serialize / restore the mutable fault state (per-row access and
     * strike counters, the spare map, the scrub cursor, outcome
     * counters). Configuration-derived fields (thresholds, geometry) are
     * reproduced by configure()-ing the restore target identically.
     */
    void saveState(CheckpointWriter& w) const;
    void loadState(CheckpointReader& r);

  private:
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& self);

    struct RowState
    {
        /** Total read accesses (keys the transient hash). */
        std::uint64_t accesses = 0;
        /** Reads since the last scrub (weak-row retention clock). */
        std::uint32_t readsSinceScrub = 0;
        /** Exhausted-retry CE strikes toward the sparing threshold. */
        std::uint32_t ceStrikes = 0;
    };

    static std::uint64_t
    key(int bank, int row)
    {
        return (static_cast<std::uint64_t>(bank) << 32) |
               static_cast<std::uint32_t>(row);
    }

    bool inSpareRegion(int row) const { return row >= firstSpareRow_; }
    bool spareAvailable(int bank) const;

    std::uint64_t siteHash(std::uint64_t salt, int bank, int row) const;
    std::uint64_t eventHash(int bank, int row, std::uint64_t access,
                            int line) const;

    /** Base ECC retry backoff. */
    static constexpr Tick kRetryBackoff = ticksFromNs(std::int64_t{100});

    FaultConfig cfg_{};
    int numBanks_ = 0;
    int rowsPerBank_ = 0;
    int linesPerRow_ = 0;
    int codewordLines_ = 1;
    /** First row of the reserved spare region (rowsPerBank - spares). */
    int firstSpareRow_ = 0;
    std::uint64_t transientThr_ = 0;
    std::uint64_t weakThr_ = 0;
    std::uint64_t stuckThr_ = 0;
    std::uint64_t stuckDueThr_ = 0;

    std::unordered_map<std::uint64_t, RowState> rows_;
    std::unordered_map<std::uint64_t, int> spareMap_;
    std::vector<int> spareUsed_;
    /** Patrol position over bank-major (bank, row) space. */
    std::uint64_t scrubCursor_ = 0;

    std::uint64_t ceCount_ = 0;
    std::uint64_t dueCount_ = 0;
    std::uint64_t retryCount_ = 0;
    std::uint64_t scrubCount_ = 0;
    std::uint64_t sparedRows_ = 0;
};

} // namespace rome

#endif // ROME_SIM_FAULT_H
