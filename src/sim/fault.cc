#include "sim/fault.h"

#include "common/log.h"

namespace rome
{

namespace
{

/** splitmix64 finalizer: the whole fault process is chains of this. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Bernoulli threshold on the full 64-bit hash range. */
inline std::uint64_t
rateThreshold(double rate)
{
    if (rate <= 0.0)
        return 0;
    if (rate >= 1.0)
        return ~0ULL;
    return static_cast<std::uint64_t>(rate * 0x1p64);
}

constexpr std::uint64_t kSaltWeak = 0x77656b72ULL;      // "wekr"
constexpr std::uint64_t kSaltWeakLine = 0x776b6c6eULL;  // "wkln"
constexpr std::uint64_t kSaltStuck = 0x73746b72ULL;     // "stkr"
constexpr std::uint64_t kSaltStuckDue = 0x73646565ULL;  // "sdee"
constexpr std::uint64_t kSaltTransient = 0x74726e73ULL; // "trns"

} // namespace

void
FaultInjector::configure(const FaultConfig& cfg, int num_banks,
                         int rows_per_bank, int lines_per_row,
                         int codeword_lines)
{
    cfg_ = cfg;
    numBanks_ = num_banks;
    rowsPerBank_ = rows_per_bank;
    linesPerRow_ = lines_per_row;
    codewordLines_ = codeword_lines;
    rows_.clear();
    spareMap_.clear();
    spareUsed_.clear();
    scrubCursor_ = 0;
    ceCount_ = dueCount_ = retryCount_ = scrubCount_ = sparedRows_ = 0;
    if (!cfg_.enabled)
        return;
    if (num_banks <= 0 || rows_per_bank <= 0 || lines_per_row <= 0)
        fatal("fault injector needs a positive geometry");
    if (cfg_.spareRowsPerBank < 0 ||
        cfg_.spareRowsPerBank >= rows_per_bank)
        fatal("spareRowsPerBank must leave data rows in the bank");
    if (cfg_.retryLimit < 0 || cfg_.ceSpareThreshold < 1)
        fatal("retryLimit must be >= 0 and ceSpareThreshold >= 1");
    firstSpareRow_ = rows_per_bank - cfg_.spareRowsPerBank;
    transientThr_ = rateThreshold(cfg_.transientLineRate);
    weakThr_ = rateThreshold(cfg_.weakRowFraction);
    stuckThr_ = rateThreshold(cfg_.stuckRowFraction);
    stuckDueThr_ = rateThreshold(cfg_.stuckDueFraction);
    spareUsed_.assign(static_cast<std::size_t>(num_banks), 0);
}

std::uint64_t
FaultInjector::siteHash(std::uint64_t salt, int bank, int row) const
{
    std::uint64_t h = mix64(cfg_.seed ^ salt);
    h = mix64(h ^ static_cast<std::uint64_t>(bank));
    return mix64(h ^ static_cast<std::uint64_t>(row));
}

std::uint64_t
FaultInjector::eventHash(int bank, int row, std::uint64_t access,
                         int line) const
{
    std::uint64_t h = mix64(cfg_.seed ^ kSaltTransient);
    h = mix64(h ^ static_cast<std::uint64_t>(bank));
    h = mix64(h ^ static_cast<std::uint64_t>(row));
    h = mix64(h ^ access);
    return mix64(h ^ static_cast<std::uint64_t>(line));
}

bool
FaultInjector::stuckRow(int bank, int row) const
{
    return cfg_.enabled && !inSpareRegion(row) &&
           siteHash(kSaltStuck, bank, row) < stuckThr_;
}

bool
FaultInjector::weakRow(int bank, int row) const
{
    return cfg_.enabled && !inSpareRegion(row) &&
           siteHash(kSaltWeak, bank, row) < weakThr_;
}

EccVerdict
FaultInjector::classifyRead(int bank, int row, int line_lo, int nlines)
{
    RowState& rs = rows_[key(bank, row)];
    const std::uint64_t access = rs.accesses++;
    ++rs.readsSinceScrub;

    int errs = 0;
    // Stuck-at sites fault on every access; the spare region holds none,
    // so a spared row reads clean of site faults by construction.
    if (siteHash(kSaltStuck, bank, row) < stuckThr_ && !inSpareRegion(row))
        errs += siteHash(kSaltStuckDue, bank, row) < stuckDueThr_ ? 2 : 1;
    // Retention-weak rows leak one deterministic line once enough reads
    // piled up since the last scrub refreshed the charge.
    if (errs < 2 && !inSpareRegion(row) &&
        siteHash(kSaltWeak, bank, row) < weakThr_ &&
        rs.readsSinceScrub >= static_cast<std::uint32_t>(cfg_.weakRowOnset)) {
        const int weak_line = static_cast<int>(
            siteHash(kSaltWeakLine, bank, row) %
            static_cast<std::uint64_t>(linesPerRow_));
        if (weak_line >= line_lo && weak_line < line_lo + nlines)
            ++errs;
    }
    // Transient single-bit flips, Bernoulli per line per access. The
    // access counter keys the hash, so a retry redraws every line.
    if (transientThr_ != 0) {
        for (int l = line_lo; l < line_lo + nlines && errs < 2; ++l) {
            if (eventHash(bank, row, access, l) < transientThr_)
                ++errs;
        }
    }

    if (errs == 0)
        return EccVerdict::Clean;
    if (errs == 1) {
        ++ceCount_;
        return EccVerdict::CorrectedError;
    }
    ++dueCount_;
    return EccVerdict::UncorrectableError;
}

bool
FaultInjector::spareAvailable(int bank) const
{
    return spareUsed_[static_cast<std::size_t>(bank)] <
           cfg_.spareRowsPerBank;
}

bool
FaultInjector::noteCorrectable(int bank, int row)
{
    if (inSpareRegion(row))
        return false;
    RowState& rs = rows_[key(bank, row)];
    ++rs.ceStrikes;
    return rs.ceStrikes >=
               static_cast<std::uint32_t>(cfg_.ceSpareThreshold) &&
           spareAvailable(bank);
}

SpareEvent
FaultInjector::spareRow(int bank, int row)
{
    SpareEvent ev{bank, row, -1};
    if (inSpareRegion(row) || !spareAvailable(bank))
        return ev;
    int& used = spareUsed_[static_cast<std::size_t>(bank)];
    ev.newRow = rowsPerBank_ - 1 - used;
    ++used;
    spareMap_[key(bank, row)] = ev.newRow;
    ++sparedRows_;
    return ev;
}

void
FaultInjector::scrub(std::vector<SpareEvent>& out)
{
    if (!cfg_.enabled || !cfg_.scrubEnabled)
        return;
    const std::uint64_t data_rows =
        static_cast<std::uint64_t>(numBanks_) *
        static_cast<std::uint64_t>(firstSpareRow_);
    if (data_rows == 0)
        return;
    for (int i = 0; i < cfg_.scrubRowsPerRefresh; ++i) {
        const std::uint64_t pos = scrubCursor_++ % data_rows;
        const int bank =
            static_cast<int>(pos / static_cast<std::uint64_t>(firstSpareRow_));
        const int row =
            static_cast<int>(pos % static_cast<std::uint64_t>(firstSpareRow_));
        ++scrubCount_;
        // Refresh the retention clock of any row we have state for.
        const auto it = rows_.find(key(bank, row));
        if (it != rows_.end())
            it->second.readsSinceScrub = 0;
        // The scrub read sees stuck sites like any access: strike them
        // and proactively spare once the threshold is crossed.
        if (siteHash(kSaltStuck, bank, row) < stuckThr_ &&
            spareMap_.find(key(bank, row)) == spareMap_.end()) {
            if (siteHash(kSaltStuckDue, bank, row) < stuckDueThr_)
                ++dueCount_;
            else
                ++ceCount_;
            RowState& rs = rows_[key(bank, row)];
            ++rs.ceStrikes;
            if (rs.ceStrikes >=
                    static_cast<std::uint32_t>(cfg_.ceSpareThreshold) &&
                spareAvailable(bank)) {
                const SpareEvent ev = spareRow(bank, row);
                if (ev.newRow >= 0)
                    out.push_back(ev);
            }
        }
    }
}

template <class Ar, class Self>
void
FaultInjector::fields(Ar& ar, Self& self)
{
    ar.sortedMap(self.rows_, [&ar](auto& k, auto& st) {
        ar(k, st.accesses, st.readsSinceScrub, st.ceStrikes);
    });
    ar.sortedMap(self.spareMap_, [&ar](auto& k, auto& row) { ar(k, row); });
    // A configured injector holds one spare tally per bank; an
    // unconfigured one takes the blob's.
    if (self.spareUsed_.empty())
        ar.seq(self.spareUsed_);
    else
        ar.fixed(self.spareUsed_, "fault-injector bank");
    ar(self.scrubCursor_, self.ceCount_, self.dueCount_, self.retryCount_,
       self.scrubCount_, self.sparedRows_);
}

void
FaultInjector::saveState(CheckpointWriter& w) const
{
    fields(w, *this);
}

void
FaultInjector::loadState(CheckpointReader& r)
{
    fields(r, *this);
}

} // namespace rome
