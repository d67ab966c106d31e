/**
 * @file
 * Deterministic byte mutations for the binary-reader fuzz tests
 * (checkpoint blobs and binary traces).
 */

#ifndef ROME_TESTS_MUTATE_H
#define ROME_TESTS_MUTATE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace rome
{

/**
 * Call @p fn on @p count mutated copies of @p bytes. Copies cycle through
 * a single-byte XOR, an 8-byte run of 0xFF and a truncation, each at a
 * position drawn from @p seed.
 */
template <class Fn>
void
forEachMutant(const std::vector<std::uint8_t>& bytes, std::uint64_t seed,
              int count, Fn fn)
{
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        std::vector<std::uint8_t> m = bytes;
        const std::size_t at = rng.below(bytes.size());
        switch (i % 3) {
          case 0:
            m[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
            break;
          case 1:
            std::fill(m.begin() + static_cast<std::ptrdiff_t>(at),
                      m.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(at + 8, m.size())),
                      std::uint8_t{0xff});
            break;
          default:
            m.resize(at);
            break;
        }
        fn(m);
    }
}

} // namespace rome

#endif // ROME_TESTS_MUTATE_H
