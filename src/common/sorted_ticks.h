/**
 * @file
 * A multiset of ticks kept in one sorted array: the outstanding-op CAMs,
 * RoMe's FSM windows and the device's row-bus slot calendars all keep
 * their entries in it.
 */

#ifndef ROME_COMMON_SORTED_TICKS_H
#define ROME_COMMON_SORTED_TICKS_H

#include <cstddef>
#include <vector>

#include "common/checkpoint.h"
#include "common/types.h"

namespace rome
{

/**
 * Entries live in one array sorted ascending, behind a cursor over the
 * already-released prefix. A push appends and moves the entry back past
 * any later one; release advances the cursor and erases the released
 * prefix once it is at least half the array. Callers that push in tick
 * order (the conventional controller's data ends, its row-bus slots)
 * never move an entry, so every operation is O(1) amortized; RoMe's FSM
 * windows and lowered row operations can arrive out of order and move
 * back a few places. The array's capacity persists, so a warmed-up buffer
 * releases and pushes without touching the heap allocator.
 */
class SortedTicks
{
  public:
    /** Release every entry at or before @p t. */
    void
    release(Tick t)
    {
        while (head_ < ticks_.size() && ticks_[head_] <= t)
            ++head_;
        if (head_ != 0 && 2 * head_ >= ticks_.size()) {
            ticks_.erase(ticks_.begin(),
                         ticks_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    void
    push(Tick t)
    {
        ticks_.push_back(t);
        std::size_t i = ticks_.size() - 1;
        for (; i > head_ && ticks_[i - 1] > t; --i)
            ticks_[i] = ticks_[i - 1];
        ticks_[i] = t;
    }

    std::size_t size() const { return ticks_.size() - head_; }

    /** The live entries, ascending. */
    const Tick* begin() const { return ticks_.data() + head_; }
    const Tick* end() const { return ticks_.data() + ticks_.size(); }

    /** The latest live entry (size() must be nonzero). */
    Tick back() const { return ticks_.back(); }

    /** Earliest live entry after @p t, or kTickMax when none. */
    Tick
    firstAfter(Tick t) const
    {
        // Callers release up to their clock before asking about it, so the
        // first live entry is usually the answer.
        for (std::size_t i = head_; i < ticks_.size(); ++i) {
            if (ticks_[i] > t)
                return ticks_[i];
        }
        return kTickMax;
    }

    /** The live entries, ascending; a load restores them unreleased. */
    void saveState(CheckpointWriter& w) const { w.seq(*this); }

    void
    loadState(CheckpointReader& r)
    {
        r.seq(ticks_);
        head_ = 0;
    }

  private:
    /** Sorted ascending; [0, head_) is already released. */
    std::vector<Tick> ticks_;
    std::size_t head_ = 0;
};

} // namespace rome

#endif // ROME_COMMON_SORTED_TICKS_H
