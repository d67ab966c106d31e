/**
 * @file
 * Versioned binary checkpoint substrate.
 *
 * A checkpoint is a flat byte stream: a fixed envelope (magic "RMCK",
 * format version, the producing controller's name()) followed by the
 * producer's mutable state in a fixed field order. Only *mutable* state
 * is serialized — anything derived from configuration (device geometry,
 * timing tables, lowering templates, fault-site thresholds) is reproduced
 * by constructing the restore target with the same configuration, which
 * the envelope's name check anchors.
 *
 * Encoding: explicit little-endian integers, IEEE doubles bit-cast
 * through uint64, strings and sequences length-prefixed. The reader
 * bounds-checks every access and fatals on underrun, bad magic, version
 * mismatch, or trailing bytes (finish()), so a truncated or mispaired
 * blob fails loudly instead of silently corrupting a resumed run.
 *
 * Restore contract (proven by tests/test_checkpoint.cc): restoring a
 * blob into a freshly constructed controller of the same configuration
 * and continuing with runUntil produces bit-identical stats, latency
 * histograms and completions to a run that never checkpointed.
 */

#ifndef ROME_COMMON_CHECKPOINT_H
#define ROME_COMMON_CHECKPOINT_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.h"

namespace rome
{

/** Checkpoint format version; bump on any field-order change. */
// v2: telemetry state (stall tables, breakdown histograms, time-series
// ring, per-request/op issue+retry/link fields) joined the stream.
// v3: the controllers' fast-forward counters and the conventional
// stack's admission-order ring left the stream.
// v4: the conventional stack's per-step PRE dedupe stamps left the
// stream.
// v5: the base state's source window and the conventional stack's
// read-queue occupancy accumulator left the stream.
// v6: in-flight slots replaced the id-keyed in-flight table, ops carry
// their slot instead of a single-op flag, and outstanding-op CAMs list
// their live entries in release order.
// v7: the device writes one column-bus tick per PC instead of its slot
// list.
inline constexpr std::uint32_t kCheckpointVersion = 7;

/** Envelope magic ("RMCK" little-endian). */
inline constexpr std::uint32_t kCheckpointMagic = 0x4b434d52u;

/** Append-only binary encoder of one checkpoint blob. */
class CheckpointWriter
{
  public:
    void
    putU8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void putI64(std::int64_t v) { putU64(static_cast<std::uint64_t>(v)); }

    void putI32(std::int32_t v) { putU32(static_cast<std::uint32_t>(v)); }

    void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

    void
    putStr(const std::string& s)
    {
        putU64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Sequence length prefix (pairs with CheckpointReader::getCount). */
    void putCount(std::size_t n) { putU64(n); }

    const std::vector<std::uint8_t>& data() const { return buf_; }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked decoder over one checkpoint blob. */
class CheckpointReader
{
  public:
    explicit CheckpointReader(const std::vector<std::uint8_t>& data)
        : data_(data)
    {
    }

    std::uint8_t
    getU8()
    {
        need(1);
        return data_[pos_++];
    }

    bool getBool() { return getU8() != 0; }

    std::uint32_t
    getU32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    getU64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int64_t getI64() { return static_cast<std::int64_t>(getU64()); }

    std::int32_t getI32() { return static_cast<std::int32_t>(getU32()); }

    double getF64() { return std::bit_cast<double>(getU64()); }

    std::string
    getStr()
    {
        const std::uint64_t n = getU64();
        need(n);
        std::string s(reinterpret_cast<const char*>(&data_[pos_]),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    std::size_t
    getCount()
    {
        const std::uint64_t n = getU64();
        // A count can never exceed the remaining bytes (every element is
        // at least one byte) — catches corrupt blobs before a giant
        // resize.
        if (n > data_.size() - pos_)
            fatal("checkpoint count %llu exceeds remaining %zu bytes",
                  static_cast<unsigned long long>(n), data_.size() - pos_);
        return static_cast<std::size_t>(n);
    }

    /** Every byte must have been consumed — field-order drift detector. */
    void
    finish() const
    {
        if (pos_ != data_.size()) {
            fatal("checkpoint has %zu trailing bytes (read %zu of %zu)",
                  data_.size() - pos_, pos_, data_.size());
        }
    }

  private:
    void
    need(std::uint64_t n) const
    {
        if (pos_ + n > data_.size()) {
            fatal("checkpoint underrun: need %llu bytes at offset %zu of "
                  "%zu",
                  static_cast<unsigned long long>(n), pos_, data_.size());
        }
    }

    const std::vector<std::uint8_t>& data_;
    std::size_t pos_ = 0;
};

} // namespace rome

#endif // ROME_COMMON_CHECKPOINT_H
