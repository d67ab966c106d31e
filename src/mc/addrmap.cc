#include "mc/addrmap.h"

#include <bit>

#include "common/log.h"

namespace rome
{

namespace
{

int
log2Exact(std::uint64_t v, const char* what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        fatal("%s (%llu) must be a power of two", what,
              static_cast<unsigned long long>(v));
    return static_cast<int>(std::bit_width(v)) - 1;
}

int
fieldWidth(const Organization& org, AddrField f)
{
    switch (f) {
      case AddrField::Pc:
        return log2Exact(static_cast<std::uint64_t>(org.pcsPerChannel),
                         "pcsPerChannel");
      case AddrField::Sid:
        return log2Exact(static_cast<std::uint64_t>(org.sidsPerChannel),
                         "sidsPerChannel");
      case AddrField::Bg:
        return log2Exact(static_cast<std::uint64_t>(org.bankGroupsPerSid),
                         "bankGroupsPerSid");
      case AddrField::Bank:
        return log2Exact(static_cast<std::uint64_t>(org.banksPerGroup),
                         "banksPerGroup");
      case AddrField::Col:
        return log2Exact(static_cast<std::uint64_t>(org.columnsPerRow()),
                         "columnsPerRow");
      case AddrField::Row:
        return log2Exact(static_cast<std::uint64_t>(org.rowsPerBank),
                         "rowsPerBank");
    }
    panic("unknown field");
}

} // namespace

AddressMapping::AddressMapping(const Organization& org,
                               const std::vector<AddrFieldSpec>& spec,
                               std::string name)
    : name_(std::move(name)),
      colOffsetBits_(log2Exact(org.columnBytes, "columnBytes"))
{
    // Each field is one slice whose width covers the organization exactly.
    bool listed[6] = {false, false, false, false, false, false};
    int shift = colOffsetBits_;
    for (const auto& s : spec) {
        const auto f = static_cast<std::size_t>(s.field);
        if (listed[f]) {
            fatal("mapping %s: field %d is listed twice", name_.c_str(),
                  static_cast<int>(s.field));
        }
        listed[f] = true;
        if (s.bits != fieldWidth(org, s.field)) {
            fatal("mapping %s: field %d covers %d bits, organization needs "
                  "%d",
                  name_.c_str(), static_cast<int>(s.field), s.bits,
                  fieldWidth(org, s.field));
        }
        mask_[f] = (std::uint64_t{1} << s.bits) - 1;
        shift_[f] = static_cast<std::uint8_t>(shift);
        shift += s.bits;
    }
    const AddrField all[] = {AddrField::Pc, AddrField::Sid, AddrField::Bg,
                             AddrField::Bank, AddrField::Col, AddrField::Row};
    for (AddrField f : all) {
        if (!listed[static_cast<std::size_t>(f)] && fieldWidth(org, f) != 0) {
            fatal("mapping %s: field %d covers 0 bits, organization needs "
                  "%d",
                  name_.c_str(), static_cast<int>(f), fieldWidth(org, f));
        }
    }
}

std::vector<AddressMapping>
standardMappings(const Organization& org)
{
    const int cb = fieldWidth(org, AddrField::Col);
    const int rb = fieldWidth(org, AddrField::Row);
    const int pb = fieldWidth(org, AddrField::Pc);
    const int sb = fieldWidth(org, AddrField::Sid);
    const int gb = fieldWidth(org, AddrField::Bg);
    const int bb = fieldWidth(org, AddrField::Bank);

    std::vector<AddressMapping> maps;
    // Names read MSB→LSB; specs are LSB→MSB.
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Col, cb},
            {AddrField::Bg, gb}, {AddrField::Bank, bb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiBaBgCoPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Bg, gb},
            {AddrField::Col, cb}, {AddrField::Bank, bb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiBaCoBgPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Col, cb},
            {AddrField::Bank, bb}, {AddrField::Bg, gb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiBgBaCoPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Bg, gb},
            {AddrField::Bank, bb}, {AddrField::Col, cb}, {AddrField::Sid, sb},
            {AddrField::Row, rb}},
        "RoSiCoBaBgPc");
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Col, cb},
            {AddrField::Bg, gb}, {AddrField::Bank, bb}, {AddrField::Row, rb},
            {AddrField::Sid, sb}},
        "SiRoBaBgCoPc");
    // Pathological: row bits below the column bits (row-buffer thrash).
    maps.emplace_back(org,
        std::vector<AddrFieldSpec>{{AddrField::Pc, pb}, {AddrField::Row, rb},
            {AddrField::Col, cb}, {AddrField::Bg, gb}, {AddrField::Bank, bb},
            {AddrField::Sid, sb}},
        "SiBaBgCoRoPc");
    return maps;
}

AddressMapping
bestBaselineMapping(const Organization& org)
{
    // RoSiBaCoBgPc: the BG bits sit directly above the PC bit, so a
    // sequential stream alternates bank groups every 64 B and sustains the
    // tCCDS cadence (a single bank group is limited to tCCDL, i.e. half the
    // bandwidth — §II-C). bench_addrmap reproduces this sweep.
    return standardMappings(org)[1];
}

} // namespace rome
