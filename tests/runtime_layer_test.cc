// Tests for the run-time layer: hint filtering, the one-behind tag filter,
// the aggressive and buffered release policies, and the prefetch pool.

#include "src/runtime/runtime_layer.h"

#include <gtest/gtest.h>

#include <set>

#include "src/runtime/prefetch_pool.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

class RuntimeLayerTest : public ::testing::Test {
 protected:
  RuntimeLayerTest() : kernel_(TestMachine(128)) {
    kernel_.StartDaemons();
    as_ = MakeSwapAs(kernel_, "app", 64);
    as_->AttachPagingDirected(0, 64);
    kernel_.UpdateSharedHeader(as_);
  }

  RuntimeLayer& Layer(bool buffered, int batch = 10) {
    RuntimeOptions options;
    options.buffered = buffered;
    options.release_batch = batch;
    options.num_prefetch_threads = 2;
    layer_ = std::make_unique<RuntimeLayer>(&kernel_, as_, options);
    return *layer_;
  }

  // Marks pages [first, first+count) resident in the bitmap (as the OS would).
  void MarkResident(VPage first, VPage count) {
    for (VPage p = first; p < first + count; ++p) {
      as_->bitmap()->Set(p);
    }
  }

  Kernel kernel_;
  AddressSpace* as_ = nullptr;
  std::unique_ptr<RuntimeLayer> layer_;
};

TEST_F(RuntimeLayerTest, PrefetchHintFiltersResidentPages) {
  RuntimeLayer& layer = Layer(false);
  MarkResident(3, 1);
  layer.OnPrefetchHint(3);
  EXPECT_EQ(layer.stats().prefetch_filtered_resident, 1u);
  EXPECT_EQ(layer.stats().prefetch_enqueued, 0u);
  EXPECT_EQ(layer.pool().enqueued(), 0u);
}

TEST_F(RuntimeLayerTest, PrefetchHintEnqueuesColdPages) {
  RuntimeLayer& layer = Layer(false);
  layer.OnPrefetchHint(5);
  EXPECT_EQ(layer.stats().prefetch_enqueued, 1u);
  EXPECT_EQ(layer.pool().enqueued(), 1u);
}

TEST_F(RuntimeLayerTest, PrefetchHintIgnoresOutOfRangePages) {
  RuntimeLayer& layer = Layer(false);
  layer.OnPrefetchHint(-1);
  layer.OnPrefetchHint(1 << 20);
  EXPECT_EQ(layer.stats().prefetch_enqueued, 0u);
}

TEST_F(RuntimeLayerTest, PoolDeduplicatesQueuedPages) {
  RuntimeLayer& layer = Layer(false);
  layer.OnPrefetchHint(5);
  layer.OnPrefetchHint(5);
  EXPECT_EQ(layer.pool().enqueued(), 1u);
  EXPECT_EQ(layer.pool().duplicates(), 1u);
}

TEST_F(RuntimeLayerTest, TagFilterHoldsFirstReleaseBack) {
  RuntimeLayer& layer = Layer(false);
  MarkResident(0, 8);
  std::vector<Op> out;
  layer.OnReleaseHint(0, 0, /*tag=*/1, out);
  EXPECT_TRUE(out.empty());  // first request for the tag is only recorded
}

TEST_F(RuntimeLayerTest, TagFilterDropsRepeatOfSamePage) {
  RuntimeLayer& layer = Layer(false);
  MarkResident(0, 8);
  std::vector<Op> out;
  layer.OnReleaseHint(0, 0, 1, out);
  layer.OnReleaseHint(0, 0, 1, out);
  layer.OnReleaseHint(0, 0, 1, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(layer.stats().release_filtered_same_page, 2u);
}

TEST_F(RuntimeLayerTest, TagFilterRunsOnePageBehind) {
  RuntimeLayer& layer = Layer(false);
  MarkResident(0, 8);
  std::vector<Op> out;
  layer.OnReleaseHint(0, 0, 1, out);  // recorded
  layer.OnReleaseHint(1, 0, 1, out);  // issues page 0
  layer.OnReleaseHint(2, 0, 1, out);  // issues page 1
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vpage, 0);
  EXPECT_EQ(out[1].vpage, 1);
  EXPECT_EQ(out[0].kind, Op::Kind::kRelease);
}

TEST_F(RuntimeLayerTest, SeparateTagsFilterIndependently) {
  RuntimeLayer& layer = Layer(false);
  MarkResident(0, 16);
  std::vector<Op> out;
  layer.OnReleaseHint(0, 0, 1, out);
  layer.OnReleaseHint(8, 0, 2, out);  // different tag: no interference
  EXPECT_TRUE(out.empty());
  layer.OnReleaseHint(1, 0, 1, out);
  layer.OnReleaseHint(9, 0, 2, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vpage, 0);
  EXPECT_EQ(out[1].vpage, 8);
}

TEST_F(RuntimeLayerTest, NonResidentReleaseTargetIsFiltered) {
  RuntimeLayer& layer = Layer(false);
  // Page 0 is NOT resident: the policy must drop it when it surfaces.
  MarkResident(1, 1);
  std::vector<Op> out;
  layer.OnReleaseHint(0, 0, 1, out);
  layer.OnReleaseHint(1, 0, 1, out);  // surfaces page 0
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(layer.stats().release_filtered_not_resident, 1u);
}

TEST_F(RuntimeLayerTest, FlushTagIssuesHeldBackPage) {
  RuntimeLayer& layer = Layer(false);
  MarkResident(0, 8);
  std::vector<Op> out;
  layer.OnReleaseHint(4, 0, 1, out);
  EXPECT_TRUE(out.empty());
  layer.FlushTag(1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vpage, 4);
  // Flushing again is a no-op.
  out.clear();
  layer.FlushTag(1, out);
  EXPECT_TRUE(out.empty());
}

TEST_F(RuntimeLayerTest, AggressivePolicyIssuesImmediately) {
  RuntimeLayer& layer = Layer(/*buffered=*/false);
  MarkResident(0, 8);
  std::vector<Op> out;
  layer.OnReleaseHint(0, /*priority=*/3, 1, out);  // even with reuse priority
  layer.OnReleaseHint(1, 3, 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(layer.stats().releases_issued_immediate, 1u);
  EXPECT_EQ(layer.buffered_pages(), 0u);
}

TEST_F(RuntimeLayerTest, BufferedPolicyIssuesPriorityZeroImmediately) {
  RuntimeLayer& layer = Layer(/*buffered=*/true);
  MarkResident(0, 8);
  std::vector<Op> out;
  layer.OnReleaseHint(0, 0, 1, out);
  layer.OnReleaseHint(1, 0, 1, out);
  ASSERT_EQ(out.size(), 1u);  // no-reuse releases skip the buffer
  EXPECT_EQ(layer.stats().releases_issued_immediate, 1u);
}

TEST_F(RuntimeLayerTest, BufferedPolicyBuffersReuseReleasesUntilNearLimit) {
  RuntimeLayer& layer = Layer(/*buffered=*/true);
  MarkResident(0, 16);
  // Plenty of headroom: usage far below the limit.
  as_->bitmap()->SetHeader(/*current=*/16, /*upper=*/1000);
  std::vector<Op> out;
  for (VPage p = 0; p < 6; ++p) {
    layer.OnReleaseHint(p, /*priority=*/1, 1, out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(layer.buffered_pages(), 5u);  // one held by the tag filter
  EXPECT_EQ(layer.stats().releases_buffered, 5u);
}

TEST_F(RuntimeLayerTest, NearLimitDrainsLowestPriorityFirst) {
  RuntimeLayer& layer = Layer(/*buffered=*/true, /*batch=*/3);
  MarkResident(0, 32);
  as_->bitmap()->SetHeader(16, 1000);  // far from limit: buffer freely
  std::vector<Op> out;
  for (VPage p = 0; p < 5; ++p) {
    layer.OnReleaseHint(p, /*priority=*/2, /*tag=*/1, out);       // early reuse
    layer.OnReleaseHint(16 + p, /*priority=*/1, /*tag=*/2, out);  // later reuse
  }
  ASSERT_TRUE(out.empty());
  // Now approach the limit and trigger one more hint.
  as_->bitmap()->SetHeader(999, 1000);
  layer.OnReleaseHint(5, 2, 1, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(layer.stats().release_drains, 1u);
  // All issued pages come from the priority-1 queue (pages 16..).
  for (const Op& op : out) {
    EXPECT_GE(op.vpage, 16);
  }
  EXPECT_LE(out.size(), 3u);  // bounded by the batch parameter
}

TEST_F(RuntimeLayerTest, DrainRespectsBatchSize) {
  RuntimeLayer& layer = Layer(/*buffered=*/true, /*batch=*/4);
  MarkResident(0, 32);
  as_->bitmap()->SetHeader(16, 1000);
  std::vector<Op> out;
  for (VPage p = 0; p < 20; ++p) {
    layer.OnReleaseHint(p, 1, 1, out);
  }
  as_->bitmap()->SetHeader(999, 1000);
  layer.OnReleaseHint(20, 1, 1, out);
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(RuntimeLayerTest, DrainOldestFirstByDefault) {
  RuntimeLayer& layer = Layer(/*buffered=*/true, /*batch=*/2);
  MarkResident(0, 32);
  as_->bitmap()->SetHeader(16, 1000);
  std::vector<Op> out;
  for (VPage p = 0; p < 6; ++p) {
    layer.OnReleaseHint(p, 1, 1, out);
  }
  as_->bitmap()->SetHeader(999, 1000);
  layer.OnReleaseHint(6, 1, 1, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vpage, 0);  // FIFO: oldest buffered first
  EXPECT_EQ(out[1].vpage, 1);
}

TEST_F(RuntimeLayerTest, DrainNewestFirstWhenConfigured) {
  RuntimeOptions options;
  options.buffered = true;
  options.release_batch = 2;
  options.drain_newest_first = true;
  options.num_prefetch_threads = 2;
  layer_ = std::make_unique<RuntimeLayer>(&kernel_, as_, options);
  MarkResident(0, 32);
  as_->bitmap()->SetHeader(16, 1000);
  std::vector<Op> out;
  for (VPage p = 0; p < 6; ++p) {
    layer_->OnReleaseHint(p, 1, 1, out);
  }
  as_->bitmap()->SetHeader(999, 1000);
  layer_->OnReleaseHint(6, 1, 1, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vpage, 5);  // MRU: newest buffered first
  EXPECT_EQ(out[1].vpage, 4);
}

TEST_F(RuntimeLayerTest, DrainDropsStaleBufferedPages) {
  RuntimeLayer& layer = Layer(/*buffered=*/true, /*batch=*/8);
  MarkResident(0, 8);
  as_->bitmap()->SetHeader(16, 1000);
  std::vector<Op> out;
  for (VPage p = 0; p < 6; ++p) {
    layer.OnReleaseHint(p, 1, 1, out);
  }
  // Pages 0..2 get reclaimed behind the layer's back (daemon steal).
  for (VPage p = 0; p <= 2; ++p) {
    as_->bitmap()->Clear(p);
  }
  as_->bitmap()->SetHeader(999, 1000);
  layer.OnReleaseHint(6, 1, 1, out);
  EXPECT_EQ(layer.stats().buffer_stale_dropped, 3u);
  for (const Op& op : out) {
    EXPECT_GT(op.vpage, 2);
  }
}

TEST_F(RuntimeLayerTest, BatchFormsMatchRepeatedSingles) {
  RuntimeLayer& a = Layer(false);
  MarkResident(0, 8);
  std::vector<Op> out;
  const SimDuration batch_cost = a.OnReleaseHintBatch(0, 0, 1, 5, out);
  EXPECT_EQ(a.stats().release_hints, 5u);
  EXPECT_EQ(a.stats().release_filtered_same_page, 4u);
  EXPECT_GT(batch_cost, 0);
  EXPECT_TRUE(out.empty());

  const SimDuration pf_cost = a.OnPrefetchHintBatch(20, 3);  // page 20 is cold
  EXPECT_EQ(a.stats().prefetch_hints, 3u);
  EXPECT_EQ(a.pool().enqueued(), 1u);
  EXPECT_GT(pf_cost, 0);
}

TEST_F(RuntimeLayerTest, PrefetchBatchOnColdPageIsNotRepeatedSingles) {
  // On a cold page each single hint enqueues again (a pool duplicate), counts
  // as enqueued and charges enqueue_cost; the batch enqueues once and books
  // the repeats as resident-filtered checks. Pinned as it is: every
  // unknown-bound program's simulated time depends on the batch's accounting.
  RuntimeLayer& batch = Layer(false);
  RuntimeOptions options;
  options.num_prefetch_threads = 2;
  RuntimeLayer singles(&kernel_, as_, options);
  const RuntimeOptions& costs = batch.options();
  constexpr int64_t kRepeats = 4;

  const SimDuration batch_cost = batch.OnPrefetchHintBatch(20, kRepeats);  // page 20 is cold
  SimDuration singles_cost = 0;
  for (int64_t i = 0; i < kRepeats; ++i) {
    singles_cost += singles.OnPrefetchHint(20);
  }
  EXPECT_EQ(batch_cost, costs.enqueue_cost + kRepeats * costs.hint_check_cost);
  EXPECT_EQ(singles_cost, kRepeats * (costs.enqueue_cost + costs.hint_check_cost));
  EXPECT_EQ(batch.stats().prefetch_hints, static_cast<uint64_t>(kRepeats));
  EXPECT_EQ(singles.stats().prefetch_hints, static_cast<uint64_t>(kRepeats));
  EXPECT_EQ(batch.stats().prefetch_enqueued, 1u);
  EXPECT_EQ(singles.stats().prefetch_enqueued, static_cast<uint64_t>(kRepeats));
  EXPECT_EQ(batch.stats().prefetch_filtered_resident, static_cast<uint64_t>(kRepeats - 1));
  EXPECT_EQ(singles.stats().prefetch_filtered_resident, 0u);
  EXPECT_EQ(batch.pool().enqueued(), 1u);
  EXPECT_EQ(batch.pool().duplicates(), 0u);
  EXPECT_EQ(singles.pool().enqueued(), 1u);
  EXPECT_EQ(singles.pool().duplicates(), static_cast<uint64_t>(kRepeats - 1));

  // On a resident page the two agree.
  MarkResident(21, 1);
  const SimDuration resident_batch = batch.OnPrefetchHintBatch(21, kRepeats);
  SimDuration resident_singles = 0;
  for (int64_t i = 0; i < kRepeats; ++i) {
    resident_singles += singles.OnPrefetchHint(21);
  }
  EXPECT_EQ(resident_batch, resident_singles);
  EXPECT_EQ(batch.stats().prefetch_filtered_resident, static_cast<uint64_t>(2 * kRepeats - 1));
  EXPECT_EQ(singles.stats().prefetch_filtered_resident, static_cast<uint64_t>(kRepeats));
  EXPECT_EQ(batch.pool().enqueued(), 1u);
  EXPECT_EQ(singles.pool().enqueued(), 1u);
}

TEST_F(RuntimeLayerTest, TagFilterNeverDropsALivePage) {
  // The one-behind filter may only hold back the single most recent hint per
  // tag; everything older must surface, and the flush must emit the holdout.
  RuntimeLayer& layer = Layer(false);
  MarkResident(0, 32);
  std::vector<Op> out;
  for (VPage p = 0; p < 32; ++p) {
    layer.OnReleaseHint(p, 0, /*tag=*/1, out);
    // The page named by the newest hint (still live inside the loop nest)
    // must never be among the issued releases.
    for (const Op& op : out) {
      EXPECT_LT(op.vpage, p);
    }
  }
  layer.FlushTag(1, out);
  ASSERT_EQ(out.size(), 32u);
  std::set<VPage> released;
  for (const Op& op : out) {
    EXPECT_EQ(op.kind, Op::Kind::kRelease);
    released.insert(op.vpage);
  }
  EXPECT_EQ(released.size(), 32u);  // every page surfaced, none dropped
}

TEST_F(RuntimeLayerTest, BatchResolutionMatchesEquivalentSingles) {
  // OnReleaseHintBatch(page, n) is the compiled form of n identical single
  // hints; the emitted ops and every counter must match the single-call path.
  RuntimeLayer& batch = Layer(false);
  RuntimeOptions options;
  options.buffered = false;
  options.num_prefetch_threads = 2;
  RuntimeLayer singles(&kernel_, as_, options);
  MarkResident(0, 16);

  const struct { VPage page; int64_t repeats; } hints[] = {
      {0, 3}, {1, 1}, {2, 4}, {5, 2}, {7, 1}};
  std::vector<Op> out_batch;
  std::vector<Op> out_singles;
  for (const auto& h : hints) {
    batch.OnReleaseHintBatch(h.page, 0, /*tag=*/1, h.repeats, out_batch);
    for (int64_t i = 0; i < h.repeats; ++i) {
      singles.OnReleaseHint(h.page, 0, /*tag=*/1, out_singles);
    }
  }
  ASSERT_EQ(out_batch.size(), out_singles.size());
  for (size_t i = 0; i < out_batch.size(); ++i) {
    EXPECT_EQ(out_batch[i].kind, out_singles[i].kind);
    EXPECT_EQ(out_batch[i].vpage, out_singles[i].vpage);
  }
  EXPECT_EQ(batch.stats().release_hints, singles.stats().release_hints);
  EXPECT_EQ(batch.stats().release_filtered_same_page,
            singles.stats().release_filtered_same_page);
  EXPECT_EQ(batch.stats().release_filtered_not_resident,
            singles.stats().release_filtered_not_resident);
  EXPECT_EQ(batch.stats().releases_issued_immediate,
            singles.stats().releases_issued_immediate);
}

TEST_F(RuntimeLayerTest, BufferedBatchResolutionMatchesSinglesThroughDrain) {
  RuntimeLayer& batch = Layer(/*buffered=*/true, /*batch=*/4);
  RuntimeOptions options;
  options.buffered = true;
  options.release_batch = 4;
  options.num_prefetch_threads = 2;
  RuntimeLayer singles(&kernel_, as_, options);
  MarkResident(0, 16);
  as_->bitmap()->SetHeader(16, 1000);  // headroom: buffer reuse releases

  std::vector<Op> out_batch;
  std::vector<Op> out_singles;
  for (VPage p = 0; p < 8; ++p) {
    batch.OnReleaseHintBatch(p, /*priority=*/1, /*tag=*/1, 2, out_batch);
    singles.OnReleaseHint(p, 1, 1, out_singles);
    singles.OnReleaseHint(p, 1, 1, out_singles);
  }
  EXPECT_EQ(batch.buffered_pages(), singles.buffered_pages());
  // Near the limit both must drain the same pages in the same order.
  as_->bitmap()->SetHeader(999, 1000);
  batch.OnReleaseHintBatch(8, 1, 1, 2, out_batch);
  singles.OnReleaseHint(8, 1, 1, out_singles);
  singles.OnReleaseHint(8, 1, 1, out_singles);
  ASSERT_EQ(out_batch.size(), out_singles.size());
  for (size_t i = 0; i < out_batch.size(); ++i) {
    EXPECT_EQ(out_batch[i].vpage, out_singles[i].vpage);
  }
  EXPECT_EQ(batch.stats().release_drains, singles.stats().release_drains);
  EXPECT_EQ(batch.stats().releases_buffered, singles.stats().releases_buffered);
}

TEST_F(RuntimeLayerTest, PoolWorkersIssuePrefetchesToKernel) {
  RuntimeLayer& layer = Layer(false);
  layer.OnPrefetchHint(2);
  layer.OnPrefetchHint(3);
  // Drive the simulation so the pool threads run.
  kernel_.RunUntilDone([&] {
    return as_->page_table().at(2).resident && as_->page_table().at(3).resident;
  });
  EXPECT_EQ(kernel_.stats().prefetch_io, 2u);
  EXPECT_FALSE(as_->page_table().at(2).valid);  // prefetch does not validate
}

TEST_F(RuntimeLayerTest, PoolQueueCapDropsOverflow) {
  RuntimeOptions options;
  options.num_prefetch_threads = 1;
  layer_ = std::make_unique<RuntimeLayer>(&kernel_, as_, options);
  // The pool's internal cap is 1024; push past it without running the sim.
  for (VPage p = 0; p < static_cast<VPage>(2000); ++p) {
    layer_->pool().Enqueue(p % 64);
  }
  EXPECT_GT(layer_->pool().duplicates(), 0u);
  EXPECT_LE(layer_->pool().queue_depth(), 1024u);
}

}  // namespace
}  // namespace tmh
