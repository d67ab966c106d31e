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
 * Field lists: each checkpointed type names its fields once, in a private
 * `template <class Ar, class Self> static void fields(Ar&, Self&)`. Its
 * save runs the list with a CheckpointWriter, which encodes every field,
 * and its load runs the same list with a CheckpointReader, which decodes
 * into it, so the two directions cannot drift apart. Both archives take:
 *
 *   ar(a, b, ...)          each field at its type's width: bool and other
 *                          one-byte integers one byte, 32-bit integers four,
 *                          64-bit integers (Tick, size_t) eight, double its
 *                          bits, a scoped enum one byte, and a member with
 *                          saveState/loadState through those;
 *   ar.seq(v, each)        the element count, then each(element); the
 *                          reader first resizes v to the count;
 *   ar.fixed(v, what, each) the same bytes as seq, but the reader fatals
 *                          unless the count equals v's configured size;
 *   ar.sortedMap(m, each)  a hash map's count, then each(key, value) in
 *                          ascending key order, so equal maps encode to
 *                          equal bytes.
 *
 * seq and fixed without `each` encode every element with ar(element).
 * Steps that only a load needs (resets, re-attachments, index checks) test
 * Ar::kLoading. Encodings that differ by direction, such as a sparse
 * histogram, keep explicit save and load bodies.
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
 * histograms and completions to a run that never checkpointed. A field
 * added to a list moves the bytes, so it bumps kCheckpointVersion and
 * regenerates that test's pinned blob table.
 */

#ifndef ROME_COMMON_CHECKPOINT_H
#define ROME_COMMON_CHECKPOINT_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
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
    static constexpr bool kLoading = false;

    void
    putU8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

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

    // ---- field lists (see the file comment) -----------------------------

    template <class... T>
    void
    operator()(const T&... fields)
    {
        (put(fields), ...);
    }

    template <class Seq, class Each>
    void
    seq(const Seq& v, Each each)
    {
        putCount(v.size());
        for (const auto& e : v)
            each(e);
    }

    template <class Seq>
    void
    seq(const Seq& v)
    {
        seq(v, [this](const auto& e) { (*this)(e); });
    }

    template <class Seq, class... Each>
    void
    fixed(const Seq& v, const char*, Each... each)
    {
        seq(v, each...);
    }

    template <class Map, class Each>
    void
    sortedMap(const Map& m, Each each)
    {
        std::vector<typename Map::key_type> keys;
        keys.reserve(m.size());
        for (const auto& kv : m)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        putCount(keys.size());
        for (const auto& k : keys)
            each(k, m.at(k));
    }

  private:
    template <class T>
    void
    put(const T& v)
    {
        if constexpr (std::is_same_v<T, double>) {
            putF64(v);
        } else if constexpr (std::is_class_v<T>) {
            v.saveState(*this);
        } else if constexpr (std::is_enum_v<T> || sizeof(T) == 1) {
            putU8(static_cast<std::uint8_t>(v));
        } else if constexpr (sizeof(T) == 4) {
            putU32(static_cast<std::uint32_t>(v));
        } else {
            static_assert(sizeof(T) == 8, "no checkpoint width for T");
            putU64(static_cast<std::uint64_t>(v));
        }
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked decoder over one checkpoint blob. */
class CheckpointReader
{
  public:
    static constexpr bool kLoading = true;

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

    // ---- field lists (see the file comment) -----------------------------

    template <class... T>
    void
    operator()(T&... fields)
    {
        (get(fields), ...);
    }

    template <class Seq, class Each>
    void
    seq(Seq& v, Each each)
    {
        v.resize(getCount());
        for (auto& e : v)
            each(e);
    }

    template <class Seq>
    void
    seq(Seq& v)
    {
        seq(v, [this](auto& e) { (*this)(e); });
    }

    template <class Seq, class Each>
    void
    fixed(Seq& v, const char* what, Each each)
    {
        const std::size_t n = getCount();
        if (n != v.size()) {
            fatal("checkpoint holds %zu %s entries, the restore target %zu",
                  n, what, v.size());
        }
        for (auto& e : v)
            each(e);
    }

    template <class Seq>
    void
    fixed(Seq& v, const char* what)
    {
        fixed(v, what, [this](auto& e) { (*this)(e); });
    }

    template <class Map, class Each>
    void
    sortedMap(Map& m, Each each)
    {
        m.clear();
        for (std::size_t n = getCount(); n > 0; --n) {
            typename Map::key_type k{};
            typename Map::mapped_type v{};
            each(k, v);
            m.emplace(k, v);
        }
    }

  private:
    template <class T>
    void
    get(T& v)
    {
        if constexpr (std::is_same_v<T, double>) {
            v = getF64();
        } else if constexpr (std::is_class_v<T>) {
            v.loadState(*this);
        } else if constexpr (std::is_enum_v<T> || sizeof(T) == 1) {
            v = static_cast<T>(getU8());
        } else if constexpr (sizeof(T) == 4) {
            v = static_cast<T>(getU32());
        } else {
            static_assert(sizeof(T) == 8, "no checkpoint width for T");
            v = static_cast<T>(getU64());
        }
    }

    void
    need(std::uint64_t n) const
    {
        // Against the remaining bytes: pos_ + n wraps for n near 2^64.
        if (n > data_.size() - pos_) {
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
