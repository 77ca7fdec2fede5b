// Per-process virtual address space.

#ifndef TMH_SRC_OS_ADDRESS_SPACE_H_
#define TMH_SRC_OS_ADDRESS_SPACE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/os/lock.h"
#include "src/sim/counters.h"
#include "src/vm/page_table.h"
#include "src/vm/residency_bitmap.h"
#include "src/vm/types.h"

namespace tmh {

// What a never-resident page contains.
enum class Backing : uint8_t {
  kZeroFill,  // anonymous memory: first touch is a zero-fill fault, no I/O
  kSwap,      // out-of-core data: present on the swap stripe from the start
};

// A contiguous virtual region with uniform backing.
struct Region {
  std::string name;
  VPage first_page = 0;
  VPage page_count = 0;
  Backing backing = Backing::kZeroFill;
};

// Per-address-space counters used by Table 3 and Figure 9.
#define TMH_AS_STATS(X) \
  X(pages_stolen_from)        /* reclaimed by the paging daemon */        \
  X(pages_released)           /* freed via explicit release requests */   \
  X(release_requests)         /* syscalls issued */                       \
  X(release_pages_requested)                                              \
  X(releases_skipped)         /* releaser found the page re-referenced */ \
  X(prefetches_issued)                                                    \
  X(prefetches_dropped)       /* no free memory at request time */        \
  X(prefetches_noop)          /* page already resident */                 \
  X(rescued_from_steal)       /* rescued pages the daemon had freed */    \
  X(rescued_from_release)     /* rescued pages a release had freed */     \
  X(invalidations_received)   /* daemon reference-bit sampling */
struct AsStats {
  TMH_AS_STATS(TMH_COUNTER_MEMBER)
};
TMH_COUNTER_TABLE(AsStats, TMH_AS_STATS)

class AddressSpace {
 public:
  AddressSpace(AsId id, std::string name, VPage num_pages, int64_t swap_base_slot)
      : id_(id),
        name_(std::move(name)),
        page_table_(num_pages),
        memory_lock_("aslock:" + name_),
        swap_base_slot_(swap_base_slot) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  [[nodiscard]] AsId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] VPage num_pages() const { return page_table_.size(); }

  [[nodiscard]] PageTable& page_table() { return page_table_; }
  [[nodiscard]] const PageTable& page_table() const { return page_table_; }
  [[nodiscard]] MemoryLock& memory_lock() { return memory_lock_; }

  // Swap slot backing a given virtual page (each AS owns a disjoint extent).
  [[nodiscard]] int64_t SwapSlot(VPage vpage) const { return swap_base_slot_ + vpage; }

  void AddRegion(Region region) {
    assert(region.first_page >= 0 &&
           region.first_page + region.page_count <= page_table_.size());
    regions_.push_back(std::move(region));
  }
  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }

  // Backing of `vpage` (pages outside any region are zero-fill).
  [[nodiscard]] Backing BackingOf(VPage vpage) const {
    for (const Region& r : regions_) {
      if (vpage >= r.first_page && vpage < r.first_page + r.page_count) {
        return r.backing;
      }
    }
    return Backing::kZeroFill;
  }

  // --- PagingDirected policy module attachment -------------------------------
  // Created lazily when a process attaches the PM; covers the whole AS, with
  // bits initially set and cleared for the attached range (Section 3.1.1).
  void AttachPagingDirected(VPage first_page, VPage page_count) {
    if (bitmap_ == nullptr) {
      bitmap_ = std::make_unique<ResidencyBitmap>(page_table_.size());
      bitmap_->SetAll();
    }
    bitmap_->ClearRange(first_page, page_count);
  }
  [[nodiscard]] bool HasPagingDirected() const { return bitmap_ != nullptr; }
  [[nodiscard]] ResidencyBitmap* bitmap() { return bitmap_.get(); }
  [[nodiscard]] const ResidencyBitmap* bitmap() const { return bitmap_.get(); }

  // Free-memory level observed when the shared header was last written
  // (threshold-notification extension; maintained by the kernel).
  [[nodiscard]] int64_t header_free_snapshot() const { return header_free_snapshot_; }
  void set_header_free_snapshot(int64_t free_pages) { header_free_snapshot_ = free_pages; }

  // Home memory node (NUMA-style shard) assigned by the kernel at creation:
  // id % num_nodes. Allocation prefers this node's free list.
  [[nodiscard]] int home_node() const { return home_node_; }
  void set_home_node(int node) { home_node_ = node; }

  // Whether the kernel's over-maxrss index currently lists this AS. Cached
  // here so the index is touched only when the resident count actually
  // crosses the maxrss boundary (O(1) on every other map/unmap).
  [[nodiscard]] bool over_maxrss_marked() const { return over_maxrss_marked_; }
  void set_over_maxrss_marked(bool marked) { over_maxrss_marked_ = marked; }

  // Per-process clock cursor for the local-replacement extension.
  [[nodiscard]] VPage local_clock_cursor() const { return local_clock_cursor_; }
  void set_local_clock_cursor(VPage cursor) { local_clock_cursor_ = cursor; }

  [[nodiscard]] AsStats& stats() { return stats_; }
  [[nodiscard]] const AsStats& stats() const { return stats_; }

  // --- reactive eviction (VINO-style, Section 2.2's contrasted alternative) --
  // When registered, the paging daemon asks the application which of its pages
  // to reclaim instead of aging them with the clock. The handler returns up to
  // `count` victim page numbers. This implements the *reactive* model the
  // paper argues is insufficient: it improves the app's own replacement but
  // cannot isolate other processes from the memory hog.
  using EvictionHandler = std::function<std::vector<VPage>(int64_t count)>;
  void set_eviction_handler(EvictionHandler handler) {
    eviction_handler_ = std::move(handler);
  }
  [[nodiscard]] bool HasEvictionHandler() const { return eviction_handler_ != nullptr; }
  [[nodiscard]] std::vector<VPage> AskEvictionHandler(int64_t count) const {
    return eviction_handler_(count);
  }

 private:
  const AsId id_;
  const std::string name_;
  PageTable page_table_;
  MemoryLock memory_lock_;
  const int64_t swap_base_slot_;
  std::vector<Region> regions_;
  std::unique_ptr<ResidencyBitmap> bitmap_;
  EvictionHandler eviction_handler_;
  int64_t header_free_snapshot_ = 0;
  VPage local_clock_cursor_ = 0;
  int home_node_ = 0;
  bool over_maxrss_marked_ = false;
  AsStats stats_;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_ADDRESS_SPACE_H_
