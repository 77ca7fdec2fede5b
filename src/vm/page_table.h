// Per-address-space page table.
//
// The MIPS TLB has no hardware reference bits, so IRIX approximates reference
// information by periodically *invalidating* mappings: the next touch of an
// invalidated page takes a soft fault whose handler re-validates the mapping
// and thereby proves the page is live (Section 4.3). The PTE therefore keeps
// `resident` (a frame holds the data) separate from `valid` (a touch proceeds
// without faulting). Prefetched pages arrive resident-but-not-valid because
// prefetch completion deliberately skips TLB/PTE validation (Section 3.1.2).

#ifndef TMH_SRC_VM_PAGE_TABLE_H_
#define TMH_SRC_VM_PAGE_TABLE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/vm/types.h"

namespace tmh {

// Why a resident page is currently invalid — determines the fault flavor
// charged when it is next touched.
enum class InvalidReason : uint8_t {
  kNone = 0,          // page is valid
  kFreshPrefetch,     // never validated since prefetch completion (cheap refill)
  kDaemonInvalidated, // paging daemon cleared it to sample the reference bit
  kReleasePending,    // a release request cleared it; re-touch cancels the release
  kMonitorSampled,    // access monitor cleared it to sample for an access
};

struct Pte {
  FrameId frame = kNoFrame;
  bool resident = false;
  bool valid = false;
  InvalidReason invalid_reason = InvalidReason::kNone;
  // True once the page has been written at least once; a never-written page is
  // zero-filled on first touch instead of paged in from swap.
  bool ever_materialized = false;
  // Slow-tier residency (memory-tiering extension). 0 = not held in a slow
  // tier; k > 0 = the page's contents live in slow tier k (1-based), in that
  // tier's frame `tier_frame`. A tiered page is never `resident`: promotion
  // back to DRAM goes through the normal fault path.
  uint8_t tier = 0;
  FrameId tier_frame = kNoFrame;
};

class PageTable {
 public:
  explicit PageTable(VPage num_pages)
      : ptes_(static_cast<size_t>(num_pages)),
        valid_words_((static_cast<size_t>(num_pages) + 63) / 64, 0),
        resident_words_(valid_words_.size(), 0) {}

  [[nodiscard]] VPage size() const { return static_cast<VPage>(ptes_.size()); }

  [[nodiscard]] Pte& at(VPage vpage) {
    assert(vpage >= 0 && vpage < size());
    return ptes_[static_cast<size_t>(vpage)];
  }
  [[nodiscard]] const Pte& at(VPage vpage) const {
    assert(vpage >= 0 && vpage < size());
    return ptes_[static_cast<size_t>(vpage)];
  }

  // Number of resident pages (the process's RSS in pages). Maintained by the
  // kernel on map/unmap, kept here for cheap Eq. 1 evaluation.
  [[nodiscard]] int64_t resident_count() const { return resident_count_; }
  void IncrementResident() { ++resident_count_; }
  void DecrementResident() {
    assert(resident_count_ > 0);
    --resident_count_;
  }

  // --- packed planes ----------------------------------------------------------
  // Two bit planes mirror the PTE array, one bit per page, 64 pages per word,
  // tail bits past size() always clear:
  //   valid plane    — bit v is `at(v).resident && at(v).valid`, the exact
  //                    predicate of DoTouch's no-fault fast path. DoTouchRun's
  //                    bulk path and the interpreter's span planner test
  //                    touches against it instead of loading PTEs.
  //   resident plane — bit v is `at(v).resident`. NextResident() scans it a
  //                    word at a time, so a walk over a mostly non-resident
  //                    range (the access monitor's scheme loops) costs one
  //                    load per 64 pages plus one step per resident page.
  // The kernel calls SyncPlanes(v) after every mutation of page v's
  // resident/valid fields; the invariant checker (I-PT) compares both planes
  // word by word against the PTE array on every full pass.

  void SyncPlanes(VPage vpage) {
    assert(vpage >= 0 && vpage < size());
    const Pte& pte = ptes_[static_cast<size_t>(vpage)];
    const size_t w = Word(vpage);
    const uint64_t mask = Mask(vpage);
    if (pte.resident) {
      resident_words_[w] |= mask;
    } else {
      resident_words_[w] &= ~mask;
    }
    if (pte.resident && pte.valid) {
      valid_words_[w] |= mask;
    } else {
      valid_words_[w] &= ~mask;
    }
  }

  // True iff page `vpage` is resident-and-valid.
  [[nodiscard]] bool Touchable(VPage vpage) const {
    assert(vpage >= 0 && vpage < size());
    return (valid_words_[Word(vpage)] & Mask(vpage)) != 0;
  }

  // First resident page in [from, end), or `end` if there is none.
  [[nodiscard]] VPage NextResident(VPage from, VPage end) const {
    assert(from >= 0 && end <= size());
    if (from >= end) {
      return end;
    }
    size_t w = Word(from);
    const size_t last = Word(end - 1);
    uint64_t bits = resident_words_[w] & (~0ULL << (static_cast<uint64_t>(from) % 64));
    while (bits == 0) {
      if (++w > last) {
        return end;
      }
      bits = resident_words_[w];
    }
    const auto v = static_cast<VPage>(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    return v < end ? v : end;
  }

  [[nodiscard]] const uint64_t* valid_words() const { return valid_words_.data(); }
  [[nodiscard]] const uint64_t* resident_words() const { return resident_words_.data(); }

 private:
  static size_t Word(VPage vpage) { return static_cast<size_t>(vpage) / 64; }
  static uint64_t Mask(VPage vpage) { return 1ULL << (static_cast<uint64_t>(vpage) % 64); }

  std::vector<Pte> ptes_;
  std::vector<uint64_t> valid_words_;
  std::vector<uint64_t> resident_words_;
  int64_t resident_count_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_VM_PAGE_TABLE_H_
