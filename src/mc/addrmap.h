/**
 * @file
 * Physical-address → DRAM-coordinate mapping (§II-D "address mapping unit").
 *
 * A mapping is an ordered list of fields consumed from the least-significant
 * end of the channel-local byte address (after the intra-column offset).
 * Each field is one contiguous slice of the address, so construction
 * precomputes every field's (shift, mask) and a decode is six
 * shift-and-masks. The evaluation sweeps mappings for both systems and
 * keeps the best (§VI-A), which bench_addrmap reproduces.
 */

#ifndef ROME_MC_ADDRMAP_H
#define ROME_MC_ADDRMAP_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/address.h"

namespace rome
{

/** Address-bit field kinds. */
enum class AddrField { Pc, Sid, Bg, Bank, Col, Row };

/** One field in LSB→MSB order; each field is listed at most once. */
struct AddrFieldSpec
{
    AddrField field;
    int bits;
};

/** Maps channel-local byte addresses to DRAM coordinates. */
class AddressMapping
{
  public:
    /**
     * Build a mapping for @p org with fields listed LSB→MSB in @p spec.
     * Each field's width must match the organization exactly, and no
     * field may be listed twice (checked); a field the organization
     * gives 0 bits may be omitted.
     */
    AddressMapping(const Organization& org,
                   const std::vector<AddrFieldSpec>& spec, std::string name);

    /** Decode a byte address (the intra-column offset is dropped). */
    DramAddress
    decode(std::uint64_t addr) const
    {
        const auto field = [&](AddrField f) {
            const auto i = static_cast<std::size_t>(f);
            return static_cast<int>((addr >> shift_[i]) & mask_[i]);
        };
        DramAddress out;
        out.pc = field(AddrField::Pc);
        out.sid = field(AddrField::Sid);
        out.bg = field(AddrField::Bg);
        out.bank = field(AddrField::Bank);
        out.row = field(AddrField::Row);
        out.col = field(AddrField::Col);
        return out;
    }

    /** log2 of the column size: the intra-column offset's width. */
    int columnShift() const { return colOffsetBits_; }

    /** Human-readable mapping name, e.g. "RoSiBaBgCoPc". */
    const std::string& name() const { return name_; }

  private:
    std::string name_;
    /** Each field's slice of the byte address, indexed by AddrField:
     *  (addr >> shift) & mask. An omitted 0-bit field decodes as 0. */
    std::array<std::uint64_t, 6> mask_{};
    std::array<std::uint8_t, 6> shift_{};
    int colOffsetBits_;
};

/**
 * Mapping presets, LSB→MSB after the 32 B column offset.
 *
 * The names read MSB→LSB in the Ramulator tradition: e.g. RoSiBaBgCoPc puts
 * the PC bit lowest (consecutive 32 B alternate PCs) and the row bits
 * highest.
 */
std::vector<AddressMapping> standardMappings(const Organization& org);

/** The mapping the baseline evaluation uses (best streaming bandwidth). */
AddressMapping bestBaselineMapping(const Organization& org);

} // namespace rome

#endif // ROME_MC_ADDRMAP_H
