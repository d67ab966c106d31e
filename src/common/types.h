/**
 * @file
 * Fundamental types and unit conversions shared across the RoMe libraries.
 *
 * Simulation time is kept in integer ticks where one tick is 0.25 ns. This
 * keeps every HBM4 timing parameter from the paper (all integer nanoseconds)
 * exact while still allowing sub-nanosecond offsets such as half of the 1 ns
 * burst time of a 32 B transfer on an 8 Gbps pseudo channel.
 */

#ifndef ROME_COMMON_TYPES_H
#define ROME_COMMON_TYPES_H

#include <cstdint>
#include <limits>

namespace rome
{

/** Simulation time in ticks (1 tick = 0.25 ns). */
using Tick = std::int64_t;

/** Number of ticks per nanosecond. */
inline constexpr Tick kTicksPerNs = 4;

/** Sentinel for "no time" / unscheduled. */
inline constexpr Tick kTickInvalid = std::numeric_limits<Tick>::min();

/** Largest representable tick, used as "never". */
inline constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

/** Convert nanoseconds to ticks (exact for multiples of 0.25 ns). */
constexpr Tick
ticksFromNs(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs) + 0.5);
}

/** Convert an integral nanosecond count to ticks. */
constexpr Tick
ticksFromNs(std::int64_t ns)
{
    return ns * kTicksPerNs;
}

/** Convert ticks to (fractional) nanoseconds. */
constexpr double
nsFromTicks(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

namespace literals
{

/** Tick literal: 16_ns. */
constexpr Tick operator""_ns(unsigned long long ns)
{
    return static_cast<Tick>(ns) * kTicksPerNs;
}

/** Tick literal: 3.9_us. */
constexpr Tick operator""_us(long double us)
{
    return static_cast<Tick>(us * 1000.0L * static_cast<long double>(kTicksPerNs));
}

/** Tick literal: 32_us. */
constexpr Tick operator""_us(unsigned long long us)
{
    return static_cast<Tick>(us) * 1000 * kTicksPerNs;
}

/** Tick literal for milliseconds: 32_ms. */
constexpr Tick operator""_ms(unsigned long long ms)
{
    return static_cast<Tick>(ms) * 1000 * 1000 * kTicksPerNs;
}

/** Byte-size literal: 32_B. */
constexpr std::uint64_t operator""_B(unsigned long long b)
{
    return b;
}

/** Byte-size literal: 4_KiB. */
constexpr std::uint64_t operator""_KiB(unsigned long long k)
{
    return k * 1024ULL;
}

/** Byte-size literal: 12_MiB. */
constexpr std::uint64_t operator""_MiB(unsigned long long m)
{
    return m * 1024ULL * 1024ULL;
}

/** Byte-size literal: 32_GiB. */
constexpr std::uint64_t operator""_GiB(unsigned long long g)
{
    return g * 1024ULL * 1024ULL * 1024ULL;
}

} // namespace literals

/** Bytes-per-second from (pins × Gbps) style arithmetic helpers. */
constexpr double
gbpsToBytesPerNs(double gbps)
{
    // 1 Gb/s = 1 bit per ns; divide by 8 for bytes.
    return gbps / 8.0;
}

} // namespace rome

#endif // ROME_COMMON_TYPES_H
