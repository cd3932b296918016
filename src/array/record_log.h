#ifndef ABR_ARRAY_RECORD_LOG_H_
#define ABR_ARRAY_RECORD_LOG_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/request.h"
#include "util/types.h"

namespace abr::array {

/// The array's shared submission log: one writer (the coordinator) appends
/// requests in time order; every member worker reads the whole log through
/// its own cursor and picks out its own records.
///
/// Storage is a chain of fixed-size segments, so published entries never
/// move under a reader. The writer makes entries visible by publishing a
/// watermark word — (entry count << 1) | sealed — with release ordering; a
/// reader loads it with acquire and may read every entry below the count.
/// "Sealed" tells readers no further entry will arrive until the writer
/// unseals (between barrier steps). Segments every cursor has passed are
/// recycled, so a steady stream of windows allocates nothing.
class RecordLog {
 public:
  struct Entry {
    Micros time = 0;
    BlockNo block = 0;
    /// Members the coordinator routed the entry to (RAID1); 0 for RAID0.
    std::uint64_t members = 0;
    sched::IoType type = sched::IoType::kRead;
    /// RAID0: the owning member when the coordinator routed and counted
    /// the entry itself (`block` is then that member's local block), or -1
    /// when each member's worker routes it by address and its owner counts
    /// it.
    std::int32_t owner = -1;
  };

  static constexpr std::uint64_t kSegmentEntries = 4096;

  struct Segment {
    std::uint64_t base = 0;    // log index of entries[0]
    Segment* next = nullptr;   // linked before any entry of it is published
    Entry entries[kSegmentEntries];
  };

  /// A reader's position: the index of the next entry to read and the
  /// segment holding it (or the full segment just before it).
  struct Cursor {
    Segment* segment = nullptr;
    std::uint64_t index = 0;
  };

  RecordLog() { head_ = tail_ = Acquire(0); }

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  // --- Writer (coordinator) ----------------------------------------------

  void Append(const Entry& e) {
    if (size_ - tail_->base == kSegmentEntries) {
      Segment* s = Acquire(size_);
      tail_->next = s;
      tail_ = s;
    }
    tail_->entries[size_ - tail_->base] = e;
    ++size_;
  }

  /// Entries appended so far (published or not).
  std::uint64_t size() const { return size_; }

  /// Makes every appended entry visible; `sealed` says none will follow
  /// until a later Publish(false, ...). Wakes waiting readers when
  /// `notify`.
  void Publish(bool sealed, bool notify) {
    word_.store((size_ << 1) | (sealed ? 1 : 0), std::memory_order_release);
    if (notify) word_.notify_all();
  }

  /// Where a reader starting now would begin: past every appended entry.
  Cursor End() const { return Cursor{tail_, size_}; }

  /// Recycles every segment all `cursors` have moved past. Only while no
  /// reader runs.
  void Release(const std::vector<Cursor*>& cursors) {
    std::uint64_t low = size_;
    for (Cursor* c : cursors) {
      while (c->index - c->segment->base >= kSegmentEntries &&
             c->segment->next != nullptr) {
        c->segment = c->segment->next;
      }
      low = std::min(low, c->index);
    }
    while (head_ != tail_ && head_->base + kSegmentEntries <= low) {
      Segment* s = head_;
      head_ = s->next;
      free_.push_back(s);
    }
  }

  // --- Readers (member workers) ------------------------------------------

  /// (published count << 1) | sealed.
  std::uint64_t Watermark() const {
    return word_.load(std::memory_order_acquire);
  }

  /// Blocks until the watermark differs from `seen`.
  void Wait(std::uint64_t seen) const {
    word_.wait(seen, std::memory_order_acquire);
  }

  /// The entry at `c`, which must be below the published count.
  static const Entry& At(Cursor& c) {
    if (c.index - c.segment->base == kSegmentEntries) {
      c.segment = c.segment->next;
    }
    return c.segment->entries[c.index - c.segment->base];
  }

 private:
  Segment* Acquire(std::uint64_t base) {
    Segment* s;
    if (free_.empty()) {
      owned_.push_back(std::make_unique<Segment>());
      s = owned_.back().get();
    } else {
      s = free_.back();
      free_.pop_back();
    }
    s->base = base;
    s->next = nullptr;
    return s;
  }

  std::vector<std::unique_ptr<Segment>> owned_;
  std::vector<Segment*> free_;
  Segment* head_ = nullptr;
  Segment* tail_ = nullptr;
  std::uint64_t size_ = 0;
  std::atomic<std::uint64_t> word_{1};  // empty and sealed
};

}  // namespace abr::array

#endif  // ABR_ARRAY_RECORD_LOG_H_
