// The adaptive run-time layer (Sections 2.3.2 and 3.3).
//
// Sits between the compiler-inserted hints and the OS. It filters obviously
// bad hints (bitmap residency check; per-tag "last release" dedup that keeps
// issued releases one or more iterations behind the compiler's stream), feeds
// prefetches to the user-level thread pool, and applies one of two release
// policies:
//   * aggressive — survivors of the filters are issued to the OS immediately;
//   * buffered   — priority-0 releases (no reuse) are issued immediately,
//     while releases with reuse are buffered in per-tag queues indexed by a
//     priority list; only when the process's memory usage approaches the OS's
//     recommended upper limit does the layer issue a batch (~100 pages) from
//     the lowest-priority queues, round-robin across the tags at each
//     priority and oldest page first within a queue (drain_newest_first
//     selects the MRU variant).
//
// All methods run inline in the application thread (user level): they return
// the CPU cost of their own work and append any syscall Ops (kRelease) the
// caller must execute.

#ifndef TMH_SRC_RUNTIME_RUNTIME_LAYER_H_
#define TMH_SRC_RUNTIME_RUNTIME_LAYER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/os/address_space.h"
#include "src/os/thread.h"
#include "src/runtime/prefetch_pool.h"
#include "src/sim/counters.h"
#include "src/sim/time.h"
#include "src/vm/types.h"

namespace tmh {

struct RuntimeOptions {
  bool buffered = false;            // false = aggressive releasing
  int release_batch = 100;          // pages issued per drain (Section 3.3)
  int64_t limit_margin_pages = 32;  // "close to the upper limit" threshold
  int num_prefetch_threads = 8;
  // Order in which a near-limit drain issues pages from a tag's queue.
  // false (paper-faithful): oldest buffered first — matches Figure 9's FFTPDE
  // evidence, where most of B's issued releases were already stale because the
  // paging daemon had beaten the drain to the oldest pages. true: newest
  // first, an MRU variant explored by the ablate_priority bench.
  bool drain_newest_first = false;
  // Reactive (VINO-style) mode: release hints become *eviction candidates*
  // instead of pro-active releases; the OS pulls them through the address
  // space's eviction handler when it needs memory (Section 2.2's contrasted
  // alternative, implemented for comparison).
  bool reactive = false;
  // User-level costs. The compiler emits one combined prefetch/release call
  // per site (Figure 5), so the marginal cost per checked hint is small.
  SimDuration hint_check_cost = 40 * kNsec;  // bitmap + tag-filter check
  SimDuration enqueue_cost = 300 * kNsec;    // queue insert + signal
};

#define TMH_RUNTIME_STATS(X) \
  X(prefetch_hints)                                                           \
  X(prefetch_filtered_resident)     /* bitmap said already in memory */       \
  X(prefetch_enqueued)                                                        \
  X(release_hints)                                                            \
  X(release_filtered_not_resident)                                            \
  X(release_filtered_same_page)     /* tag filter: page still in use */       \
  X(releases_issued_immediate)      /* aggressive or priority 0 */            \
  X(releases_buffered)                                                        \
  X(release_drains)                 /* near-limit batch issues */             \
  X(releases_issued_from_buffer)                                              \
  X(buffer_stale_dropped)           /* buffered page no longer resident */    \
  X(tag_flushes)                                                              \
  X(reactive_candidates)            /* candidates recorded (reactive mode) */ \
  X(reactive_served)                /* victims handed to the OS on request */
struct RuntimeStats {
  TMH_RUNTIME_STATS(TMH_COUNTER_MEMBER)
};
TMH_COUNTER_TABLE(RuntimeStats, TMH_RUNTIME_STATS)

class RuntimeLayer {
 public:
  RuntimeLayer(Kernel* kernel, AddressSpace* as, const RuntimeOptions& options);

  RuntimeLayer(const RuntimeLayer&) = delete;
  RuntimeLayer& operator=(const RuntimeLayer&) = delete;

  // Handles a compiler prefetch hint for `page`. Returns the user-time cost.
  SimDuration OnPrefetchHint(VPage page);

  // Handles a compiler release hint; `tag` is the directive's compiler tag
  // (>= 0). Appends any resulting kRelease syscall Ops to `out` and returns
  // the user-time cost.
  SimDuration OnReleaseHint(VPage page, int32_t priority, int32_t tag, std::vector<Op>& out);

  // Batch forms for hints the compiled code evaluates every iteration of a
  // run that stays inside one page (unknown-bound loops): one real hint plus
  // `repeats - 1` immediately-filtered duplicates, in O(1).
  //
  // The release batch is identical to `repeats` single calls: the repeats
  // name the same page and die in the tag filter either way. The prefetch
  // batch is not, when the page is cold: each single call would enqueue
  // again (a pool duplicate), count in prefetch_enqueued and charge
  // enqueue_cost, while the batch books the repeats as
  // prefetch_filtered_resident at hint_check_cost each. On a resident page
  // the two agree. The batch is the run-time layer's defined behaviour for a
  // run's repeated hints; callers must not substitute either form for the
  // other.
  SimDuration OnPrefetchHintBatch(VPage page, int64_t repeats);
  SimDuration OnReleaseHintBatch(VPage page, int32_t priority, int32_t tag, int64_t repeats,
                                 std::vector<Op>& out);

  // Nest epilogue: pushes the tag filter's held-back page through the policy.
  SimDuration FlushTag(int32_t tag, std::vector<Op>& out);

  // Reactive mode: serves up to `count` eviction victims to the OS, lowest
  // reuse priority first, oldest candidates first, skipping stale entries.
  // Wire it up with:  as->set_eviction_handler([&](int64_t n) {
  //                     return layer.TakeEvictionCandidates(n); });
  std::vector<VPage> TakeEvictionCandidates(int64_t count);

  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  [[nodiscard]] PrefetchPool& pool() { return pool_; }
  [[nodiscard]] size_t buffered_pages() const { return buffered_pages_; }

 private:
  // A release that survived the filters enters the policy here.
  void PolicyAccept(VPage page, int32_t priority, int32_t tag, std::vector<Op>& out);
  // Issues up to release_batch pages from the lowest-priority queues if the
  // process is close to its recommended upper limit.
  void MaybeDrain(std::vector<Op>& out);
  void EmitRelease(VPage page, int32_t priority, int32_t tag, std::vector<Op>& out);

  Kernel* kernel_;
  AddressSpace* as_;
  RuntimeOptions options_;
  PrefetchPool pool_;

  // All per-tag state is indexed by the tag itself: the compiler hands out
  // tags densely from 0 (CompileNest's next_tag, also for adaptive nests), so
  // each vector grows on demand to the largest tag seen and never shrinks.
  //
  // Tag filter: the page of the last release hint per tag, kNoVPage when
  // nothing is held back (never hinted, or flushed).
  std::vector<VPage> last_release_;

  // Buffered policy state: per-tag release queues, grouped by priority.
  struct TagQueue {
    std::deque<VPage> pages;  // hint order; drained from the front (or back)
    int32_t priority = 0;     // set when the queue first buffers a page
  };
  std::vector<TagQueue> tag_queues_;
  // Priority list: priority -> tags at that priority, in first-buffered order
  // (the drain's round-robin order). A tag stays listed once its queue empties.
  std::map<int32_t, std::vector<int32_t>> priority_list_;
  size_t buffered_pages_ = 0;

  // Reactive mode: eviction candidates by priority, oldest first.
  std::map<int32_t, std::deque<VPage>> reactive_candidates_;

  RuntimeStats stats_;
};

}  // namespace tmh

#endif  // TMH_SRC_RUNTIME_RUNTIME_LAYER_H_
