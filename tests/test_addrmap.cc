/**
 * @file
 * Address-mapping tests: decode against a bit-by-bit reference,
 * bijectivity over the channel space, interleaving order of the presets,
 * and configuration validation.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "dram/hbm4_config.h"
#include "mc/addrmap.h"

namespace rome
{
namespace
{

using namespace rome::literals;

std::tuple<int, int, int, int, int, int>
key(const DramAddress& a)
{
    return {a.pc, a.sid, a.bg, a.bank, a.row, a.col};
}

int
widthOf(std::uint64_t count)
{
    return static_cast<int>(std::bit_width(count)) - 1;
}

/**
 * Reference decode, one address bit at a time: the fields, listed
 * LSB→MSB, take consecutive bits above the intra-column offset.
 */
DramAddress
referenceDecode(const Organization& org,
                const std::vector<AddrFieldSpec>& spec, std::uint64_t addr)
{
    DramAddress out;
    int bit = widthOf(org.columnBytes);
    for (const AddrFieldSpec& f : spec) {
        int* dst = nullptr;
        switch (f.field) {
          case AddrField::Pc: dst = &out.pc; break;
          case AddrField::Sid: dst = &out.sid; break;
          case AddrField::Bg: dst = &out.bg; break;
          case AddrField::Bank: dst = &out.bank; break;
          case AddrField::Col: dst = &out.col; break;
          case AddrField::Row: dst = &out.row; break;
        }
        for (int b = 0; b < f.bits; ++b, ++bit) {
            if ((addr >> bit) & 1)
                *dst |= 1 << b;
        }
    }
    return out;
}

/**
 * The LSB→MSB spec a preset's name spells: two-letter fields read
 * MSB→LSB ("RoSiBaCoBgPc"), each as wide as @p org requires.
 */
std::vector<AddrFieldSpec>
specFromName(const Organization& org, const std::string& name)
{
    std::vector<AddrFieldSpec> spec;
    for (std::size_t i = name.size(); i >= 2; i -= 2) {
        const std::string f = name.substr(i - 2, 2);
        if (f == "Pc")
            spec.push_back({AddrField::Pc, widthOf(org.pcsPerChannel)});
        else if (f == "Si")
            spec.push_back({AddrField::Sid, widthOf(org.sidsPerChannel)});
        else if (f == "Bg")
            spec.push_back({AddrField::Bg, widthOf(org.bankGroupsPerSid)});
        else if (f == "Ba")
            spec.push_back({AddrField::Bank, widthOf(org.banksPerGroup)});
        else if (f == "Co")
            spec.push_back({AddrField::Col, widthOf(org.columnsPerRow())});
        else if (f == "Ro")
            spec.push_back({AddrField::Row, widthOf(org.rowsPerBank)});
        else
            ADD_FAILURE() << "unknown field " << f << " in " << name;
    }
    return spec;
}

TEST(AddrMap, PresetsMatchBitByBitReference)
{
    const Organization org = hbm4Config().org;
    const auto maps = standardMappings(org);
    EXPECT_EQ(maps.size(), 6u);
    for (const auto& m : maps) {
        // The preset decodes as the fields its name spells.
        const auto spec = specFromName(org, m.name());
        ASSERT_EQ(spec.size(), 6u) << m.name();
        const std::uint64_t stride = 32 * 1009;
        std::uint64_t i = 0;
        for (std::uint64_t a = 0; a < org.channelCapacity();
             a += stride, ++i) {
            // A varying intra-column offset, which decode must drop.
            const std::uint64_t addr = a + i % org.columnBytes;
            ASSERT_EQ(key(m.decode(addr)),
                      key(referenceDecode(org, spec, addr)))
                << m.name() << " at addr " << addr;
        }
    }
}

TEST(AddrMap, PresetsAreBijectiveOnSample)
{
    const Organization org = hbm4Config().org;
    for (const auto& m : standardMappings(org)) {
        std::set<std::tuple<int, int, int, int, int, int>> seen;
        // Stride through the space with a large odd stride to sample all
        // field combinations.
        const std::uint64_t stride = 32 * 1009;
        for (std::uint64_t a = 0; a < org.channelCapacity();
             a += stride) {
            const DramAddress d = m.decode(a);
            ASSERT_TRUE(seen.insert(key(d)).second)
                << m.name() << " collides at addr " << a;
        }
    }
}

TEST(AddrMap, DecodedCoordinatesAreInRange)
{
    const Organization org = hbm4Config().org;
    for (const auto& m : standardMappings(org)) {
        const std::uint64_t stride = 32 * 4093;
        for (std::uint64_t a = 0; a < org.channelCapacity(); a += stride) {
            const DramAddress d = m.decode(a);
            ASSERT_NO_THROW(checkAddress(org, d)) << m.name();
        }
    }
}

TEST(AddrMap, DefaultMappingInterleavesPcThenBg)
{
    const Organization org = hbm4Config().org;
    const AddressMapping m = bestBaselineMapping(org);
    EXPECT_EQ(m.name(), "RoSiBaCoBgPc");

    // Consecutive 32 B lines alternate pseudo channels.
    EXPECT_EQ(m.decode(0).pc, 0);
    EXPECT_EQ(m.decode(32).pc, 1);
    // Consecutive 64 B blocks rotate bank groups.
    EXPECT_EQ(m.decode(0).bg, 0);
    EXPECT_EQ(m.decode(64).bg, 1);
    EXPECT_EQ(m.decode(128).bg, 2);
    EXPECT_EQ(m.decode(192).bg, 3);
    EXPECT_EQ(m.decode(256).bg, 0);
    EXPECT_EQ(m.decode(256).col, 1);
    // Same row while within the 8 KB (2 PC × 4 BG × 1 KB-row slice) region.
    EXPECT_EQ(m.decode(0).row, m.decode(8 * 1024 - 32).row);
}

TEST(AddrMap, RowMajorPresetFillsRowBeforeSwitchingBank)
{
    const Organization org = hbm4Config().org;
    const AddressMapping m = standardMappings(org)[0]; // RoSiBaBgCoPc
    // Within 2 KB (both PCs of one bank's row) the bank does not change.
    const DramAddress a0 = m.decode(0);
    const DramAddress a1 = m.decode(2047);
    EXPECT_TRUE(a0.sameBank(a1) || (a0.pc != a1.pc && a0.bg == a1.bg &&
                                    a0.bank == a1.bank));
    // The next 2 KB lands in the following bank group.
    EXPECT_EQ(m.decode(2048).bg, 1);
}

TEST(AddrMap, PathologicalMappingThrashesRows)
{
    const Organization org = hbm4Config().org;
    const AddressMapping m = standardMappings(org).back(); // SiBaBgCoRoPc
    // Consecutive 64 B land in different rows of the same bank.
    const DramAddress a0 = m.decode(0);
    const DramAddress a1 = m.decode(64);
    EXPECT_TRUE(a0.sameBank(a1));
    EXPECT_NE(a0.row, a1.row);
}

TEST(AddrMap, MisconfiguredWidthsAreFatal)
{
    const Organization org = hbm4Config().org;
    EXPECT_THROW(
        AddressMapping(org,
                       {{AddrField::Pc, 2}, {AddrField::Col, 5},
                        {AddrField::Bg, 2}, {AddrField::Bank, 2},
                        {AddrField::Sid, 2}, {AddrField::Row, 13}},
                       "bad"),
        std::runtime_error);
    // Every field is one slice: listing one twice is fatal, whether it
    // repeats at full width or splits its width (Col as 2 + 3 bits).
    std::vector<AddrFieldSpec> twice = specFromName(org, "RoSiBaBgCoPc");
    ASSERT_EQ(twice[0].field, AddrField::Pc);
    twice.push_back(twice[0]);
    EXPECT_THROW(AddressMapping(org, twice, "twice"), std::runtime_error);
    std::vector<AddrFieldSpec> split = specFromName(org, "RoSiBaBgCoPc");
    ASSERT_EQ(split[1].field, AddrField::Col);
    ASSERT_EQ(split[1].bits, 5);
    split[1].bits = 2;
    split.push_back({AddrField::Col, 3});
    EXPECT_THROW(AddressMapping(org, split, "split"), std::runtime_error);
}

TEST(AddrMap, ZeroWidthFieldMayBeOmitted)
{
    // One pseudo channel: Pc needs 0 bits, so a spec may leave it out.
    Organization org = hbm4Config().org;
    org.pcsPerChannel = 1;
    std::vector<AddrFieldSpec> spec = specFromName(org, "RoSiBaCoBg");
    ASSERT_EQ(spec.size(), 5u);
    const AddressMapping m(org, spec, "RoSiBaCoBg");
    const std::uint64_t stride = 32 * 1009;
    for (std::uint64_t a = 0; a < org.channelCapacity(); a += stride) {
        const DramAddress d = m.decode(a);
        ASSERT_EQ(d.pc, 0) << a;
        ASSERT_EQ(key(d), key(referenceDecode(org, spec, a))) << a;
        ASSERT_NO_THROW(checkAddress(org, d)) << a;
    }
    // The other fields still need their full widths.
    spec.pop_back();
    EXPECT_THROW(AddressMapping(org, spec, "RoSiBaCo"), std::runtime_error);
}

} // namespace
} // namespace rome
