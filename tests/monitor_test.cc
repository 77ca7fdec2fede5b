// Tests for src/monitor: the kernel's monitoring entry points, the region
// sampler's split/merge dynamics (determinism and the region-count bound), and
// the schemes engine flowing through the standard release path under checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/experiment.h"
#include "src/monitor/access_monitor.h"
#include "src/sim/rng.h"
#include "src/vm/page_table.h"
#include "src/workloads/workloads.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

// --- kernel entry points ------------------------------------------------------

TEST(MonitorKernelTest, SamplePageInvalidatesAndSoftFaultRevalidates) {
  Kernel kernel(TestMachine());
  kernel.StartDaemons();
  AddressSpace* as = MakeAnonAs(kernel, "a", 8);
  ScriptProgram prog({Op::Touch(0, /*write=*/true, kMsec)});
  Thread* t = kernel.Spawn("t", as, &prog);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));

  Pte& pte = as->page_table().at(0);
  ASSERT_TRUE(pte.resident);
  ASSERT_TRUE(pte.valid);

  EXPECT_FALSE(kernel.MonitorSamplePage(as, 5));   // never materialized
  EXPECT_FALSE(kernel.MonitorSamplePage(as, -1));  // out of range
  EXPECT_TRUE(kernel.MonitorSamplePage(as, 0));
  EXPECT_TRUE(pte.resident);
  EXPECT_FALSE(pte.valid);
  EXPECT_EQ(pte.invalid_reason, InvalidReason::kMonitorSampled);
  EXPECT_FALSE(kernel.frames().referenced(pte.frame));
  EXPECT_EQ(kernel.stats().monitor_invalidations, 1u);
  // Already invalid: not sampleable again until revalidated.
  EXPECT_FALSE(kernel.MonitorSamplePage(as, 0));

  ScriptProgram retouch({Op::Touch(0, /*write=*/false, kMsec)});
  Thread* t2 = kernel.Spawn("t2", as, &retouch);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t2}));
  EXPECT_TRUE(pte.valid);
  EXPECT_EQ(pte.invalid_reason, InvalidReason::kNone);
  EXPECT_TRUE(kernel.frames().referenced(pte.frame));
  EXPECT_EQ(kernel.stats().monitor_soft_faults, 1u);
  EXPECT_EQ(kernel.stats().soft_faults, 1u);
}

TEST(MonitorKernelTest, EnqueueReleaseFlowsThroughReleaser) {
  Kernel kernel(TestMachine());
  kernel.StartDaemons();
  AddressSpace* as = MakeAnonAs(kernel, "a", 8);
  ScriptProgram prog({Op::Touch(0, /*write=*/true, kMsec), Op::Touch(1, /*write=*/true, kMsec)});
  Thread* t = kernel.Spawn("t", as, &prog);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));

  EXPECT_TRUE(kernel.MonitorEnqueueRelease(as, 0));
  EXPECT_FALSE(kernel.MonitorEnqueueRelease(as, 0));  // already queued
  EXPECT_FALSE(kernel.MonitorEnqueueRelease(as, 5));  // not resident
  EXPECT_EQ(as->page_table().at(0).invalid_reason, InvalidReason::kReleasePending);
  kernel.MonitorPublishReleases(as);
  EXPECT_EQ(kernel.stats().monitor_releases_enqueued, 1u);
  EXPECT_EQ(kernel.stats().release_pages_enqueued, 1u);

  // Let the woken releaser drain the queue.
  ScriptProgram sleeper({Op::Sleep(500 * kMsec)});
  Thread* ts = kernel.Spawn("s", as, &sleeper);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ts}));
  EXPECT_EQ(kernel.stats().releaser_pages_freed, 1u);
  EXPECT_FALSE(as->page_table().at(0).resident);
  EXPECT_TRUE(as->page_table().at(1).resident);  // untouched by the monitor
}

TEST(MonitorKernelTest, ResidentPlaneFollowsMapAndUnmap) {
  Kernel kernel(TestMachine());
  kernel.StartDaemons();
  AddressSpace* as = MakeAnonAs(kernel, "a", 100);
  ScriptProgram prog({Op::Touch(3, /*write=*/true, kMsec), Op::Touch(70, /*write=*/true, kMsec)});
  Thread* t = kernel.Spawn("t", as, &prog);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  const PageTable& pt = as->page_table();
  EXPECT_EQ(pt.NextResident(0, 100), 3);  // MapFrame set the bits
  EXPECT_EQ(pt.NextResident(4, 100), 70);

  ASSERT_TRUE(kernel.MonitorEnqueueRelease(as, 3));
  kernel.MonitorPublishReleases(as);
  ScriptProgram sleeper({Op::Sleep(500 * kMsec)});
  Thread* ts = kernel.Spawn("s", as, &sleeper);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ts}));
  ASSERT_FALSE(pt.at(3).resident);
  EXPECT_EQ(pt.NextResident(0, 100), 70);  // UnmapFrame cleared page 3's bit
}

TEST(MonitorKernelTest, EnqueueReleaseClearsPagingDirectedBitmap) {
  Kernel kernel(TestMachine());
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "a", 8);
  as->AttachPagingDirected(0, as->num_pages());
  kernel.UpdateSharedHeader(as);
  ScriptProgram prog({Op::Touch(0, /*write=*/true, kMsec)});
  Thread* t = kernel.Spawn("t", as, &prog);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(as->bitmap()->Test(0));

  EXPECT_TRUE(kernel.MonitorEnqueueRelease(as, 0));
  // Same protocol as the release syscall: bit cleared so a re-reference before
  // the releaser gets there re-sets it (rescue signal).
  EXPECT_FALSE(as->bitmap()->Test(0));
}

TEST(MonitorKernelTest, ProtectPageSetsReferenceBit) {
  Kernel kernel(TestMachine());
  kernel.StartDaemons();
  AddressSpace* as = MakeAnonAs(kernel, "a", 8);
  ScriptProgram prog({Op::Touch(0, /*write=*/true, kMsec)});
  Thread* t = kernel.Spawn("t", as, &prog);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));

  const Pte& pte = as->page_table().at(0);
  ASSERT_TRUE(kernel.MonitorSamplePage(as, 0));  // clears the reference bit
  ASSERT_FALSE(kernel.frames().referenced(pte.frame));
  EXPECT_TRUE(kernel.MonitorProtectPage(as, 0));
  EXPECT_TRUE(kernel.frames().referenced(pte.frame));
  EXPECT_FALSE(kernel.MonitorProtectPage(as, 5));  // not resident
  EXPECT_EQ(kernel.stats().monitor_pages_protected, 1u);
}

// --- configuration -----------------------------------------------------------

TEST(MonitorConfigTest, ValidateRejectsConfigsThatCannotRun) {
  EXPECT_EQ(MonitorConfig{}.Validate(), "");
  auto rejected = [](auto mutate) {
    MonitorConfig config;
    mutate(config);
    return !config.Validate().empty();
  };
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.sample_period = 0; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.samples_per_aggregation = 0; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.min_regions = 0; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.max_regions = c.min_regions - 1; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.merge_threshold = -1; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.cold_max_accesses = -1; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.cold_min_age = -1; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.cold_quota_pages = -1; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.hot_min_accesses = -1; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.demote_tier = -1; }));
  // The floor is the kernel's minimum slice: 1 ns and 1 ns short of it are
  // rejected, the slice itself is accepted.
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.sample_period = 1; }));
  EXPECT_TRUE(rejected([](MonitorConfig& c) { c.sample_period = kMinSlice - 1; }));
  EXPECT_FALSE(rejected([](MonitorConfig& c) { c.sample_period = kMinSlice; }));
  EXPECT_FALSE(rejected([](MonitorConfig& c) { c.min_regions = c.max_regions = 1; }));
  // The fuzzer's monitor draws (period 5-40 ms, max_regions 16-128, min
  // regions capped at max) must all stay valid.
  for (const int64_t period_ms : {5, 40}) {
    for (const int64_t max_regions : {16, 128}) {
      MonitorConfig config;
      config.sample_period = period_ms * kMsec;
      config.max_regions = max_regions;
      config.min_regions = std::min<int64_t>(MonitorConfig{}.min_regions, max_regions);
      EXPECT_EQ(config.Validate(), "");
    }
  }
}

TEST(MonitorConfigDeathTest, ConstructorAbortsOnInvalidConfig) {
  MonitorConfig config;
  config.sample_period = 0;
  EXPECT_DEATH(
      {
        Kernel kernel(TestMachine());
        AccessMonitor monitor(kernel, config);
      },
      "sample period");
}

// --- region sampler dynamics --------------------------------------------------

// Touches uniformly random pages of its address space forever.
class RandomToucher : public Program {
 public:
  RandomToucher(VPage n, uint64_t seed) : n_(n), rng_(seed) {}

  Op Next(Kernel& kernel) override {
    (void)kernel;
    return Op::Touch(static_cast<VPage>(rng_.NextBelow(static_cast<uint64_t>(n_))),
                     /*write=*/false, kMsec);
  }

 private:
  VPage n_;
  Rng rng_;
};

// Adversarial (uniform random) access keeps every region's sampled behavior
// noisy — maximal split pressure — yet the region count must respect the
// configured bound, and the regions must always partition the address space.
TEST(AccessMonitorTest, RegionCountBoundedUnderAdversarialPattern) {
  Kernel kernel(TestMachine(96));
  MonitorConfig config;
  config.sample_period = 5 * kMsec;
  config.samples_per_aggregation = 2;
  config.min_regions = 4;
  config.max_regions = 16;
  config.release_cold = false;  // isolate the split/merge dynamics
  AccessMonitor monitor(kernel, config);
  kernel.StartDaemons();
  AddressSpace* as = MakeAnonAs(kernel, "rand", 64);
  RandomToucher prog(64, /*seed=*/7);
  kernel.Spawn("rand", as, &prog);
  monitor.Start();
  const SimTime deadline = 2 * kSec;
  kernel.RunUntilDone([&] { return kernel.Now() >= deadline; });

  EXPECT_GT(monitor.stats().aggregations, 0u);
  EXPECT_GT(monitor.stats().region_splits, 0u);
  EXPECT_LE(monitor.stats().max_regions_seen, 16u);
  const std::vector<MonitorRegion>* regions = monitor.RegionsFor(as->id());
  ASSERT_NE(regions, nullptr);
  ASSERT_GE(regions->size(), 4u);
  ASSERT_LE(regions->size(), 16u);
  // The regions partition [0, num_pages): contiguous, nonempty, gap-free.
  EXPECT_EQ(regions->front().begin, 0);
  EXPECT_EQ(regions->back().end, 64);
  for (size_t i = 0; i < regions->size(); ++i) {
    EXPECT_LT((*regions)[i].begin, (*regions)[i].end);
    if (i > 0) {
      EXPECT_EQ((*regions)[i - 1].end, (*regions)[i].begin);
    }
  }
}

TEST(AccessMonitorTest, UntargetedAddressSpaceIsNeverSampled) {
  Kernel kernel(TestMachine(96));
  MonitorConfig config;
  config.sample_period = 5 * kMsec;
  AccessMonitor monitor(kernel, config);
  kernel.StartDaemons();
  AddressSpace* target = MakeAnonAs(kernel, "target", 32);
  AddressSpace* bystander = MakeAnonAs(kernel, "bystander", 32);
  monitor.AddTarget(target);
  RandomToucher p1(32, 3);
  RandomToucher p2(32, 4);
  kernel.Spawn("t1", target, &p1);
  kernel.Spawn("t2", bystander, &p2);
  monitor.Start();
  const SimTime deadline = kSec;
  kernel.RunUntilDone([&] { return kernel.Now() >= deadline; });

  EXPECT_NE(monitor.RegionsFor(target->id()), nullptr);
  EXPECT_EQ(monitor.RegionsFor(bystander->id()), nullptr);
  EXPECT_EQ(bystander->stats().invalidations_received, 0u);
  EXPECT_GT(target->stats().invalidations_received, 0u);
}

// Writes every 5th page of a 300-page space once (cold, sparsely resident,
// and 300 % 64 != 0), then reads a 16-page cluster round-robin forever (hot).
class SparseThenHot : public Program {
 public:
  static constexpr VPage kPages = 300;
  static constexpr VPage kHotBegin = 128;
  static constexpr VPage kHotPages = 16;

  Op Next(Kernel& kernel) override {
    (void)kernel;
    if (next_cold_ < kPages) {
      const VPage p = next_cold_;
      next_cold_ += 5;
      return Op::Touch(p, /*write=*/true, 100 * kUsec);
    }
    const VPage p = kHotBegin + hot_step_ % kHotPages;
    ++hot_step_;
    return Op::Touch(p, /*write=*/false, 100 * kUsec);
  }

 private:
  VPage next_cold_ = 0;
  VPage hot_step_ = 0;
};

std::string CountersLine(const MonitorStats& stats) {
  std::string line;
  ForEachCounter(stats, [&](const char* name, uint64_t value) {
    line += std::string(name) + "=" + std::to_string(value) + " ";
  });
  return line;
}

// Both scheme loops fire on a sparsely resident space: the cold pages are
// released and the hot cluster is protected. The counters are pinned to the
// values of the page-by-page region walk, so the resident-page walk must
// visit exactly the pages that walk acted on, in the same order.
TEST(AccessMonitorTest, ColdAndHotSchemesOnSparseSpaceArePinned) {
  Kernel kernel(TestMachine(96));
  MonitorConfig config;
  config.sample_period = 5 * kMsec;
  config.samples_per_aggregation = 4;
  config.min_regions = 4;
  config.max_regions = 32;
  config.cold_min_age = 1;
  config.cold_quota_pages = 16;
  config.protect_hot = true;
  config.hot_min_accesses = 1;
  AccessMonitor monitor(kernel, config);
  kernel.StartDaemons();
  AddressSpace* as = MakeAnonAs(kernel, "sparse", SparseThenHot::kPages);
  SparseThenHot prog;
  kernel.Spawn("sparse", as, &prog);
  monitor.Start();
  const SimTime deadline = 2 * kSec;
  kernel.RunUntilDone([&] { return kernel.Now() >= deadline; });

  const MonitorStats& stats = monitor.stats();
  EXPECT_GT(stats.cold_pages_enqueued, 0u);
  EXPECT_GT(stats.hot_pages_protected, 0u);
  EXPECT_EQ(CountersLine(stats),
            "ticks=399 aggregations=99 samples_armed=428 samples_checked=2549 "
            "samples_hit=417 region_splits=240 region_merges=237 max_regions_seen=8 "
            "cold_regions_actioned=384 cold_pages_enqueued=662 hot_regions_actioned=124 "
            "hot_pages_protected=966 ");
  const KernelStats& ks = kernel.stats();
  EXPECT_EQ(ks.monitor_invalidations, 428u);
  EXPECT_EQ(ks.monitor_soft_faults, 417u);
  EXPECT_EQ(ks.monitor_releases_enqueued, 662u);
  EXPECT_EQ(ks.monitor_pages_protected, 966u);
  EXPECT_EQ(ks.releaser_pages_freed, 662u);
}

// --- end-to-end: determinism and checks ---------------------------------------

ExperimentSpec MonitoredMatvecSpec() {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = 4 * 1024 * 1024;  // out-of-core at scale 0.05
  spec.workload = MakeMatvec(0.05);
  spec.version = AppVersion::kOriginal;
  spec.monitor = true;
  spec.monitor_config.protect_hot = true;
  return spec;
}

TEST(AccessMonitorTest, SplitMergeDeterministicAcrossRuns) {
  const ExperimentSpec spec = MonitoredMatvecSpec();
  const ExperimentResult a = RunExperiment(spec);
  const ExperimentResult b = RunExperiment(spec);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(a.monitor.has_value());
  ASSERT_TRUE(b.monitor.has_value());
  EXPECT_EQ(a.monitor->ticks, b.monitor->ticks);
  EXPECT_EQ(a.monitor->samples_armed, b.monitor->samples_armed);
  EXPECT_EQ(a.monitor->samples_hit, b.monitor->samples_hit);
  EXPECT_EQ(a.monitor->region_splits, b.monitor->region_splits);
  EXPECT_EQ(a.monitor->region_merges, b.monitor->region_merges);
  EXPECT_EQ(a.monitor->cold_pages_enqueued, b.monitor->cold_pages_enqueued);
  EXPECT_EQ(a.kernel.hard_faults, b.kernel.hard_faults);
  EXPECT_EQ(a.kernel.monitor_soft_faults, b.kernel.monitor_soft_faults);
  EXPECT_EQ(a.kernel.monitor_releases_enqueued, b.kernel.monitor_releases_enqueued);
  EXPECT_EQ(a.app.wall, b.app.wall);
  EXPECT_GT(a.monitor->samples_checked, 0u);
}

TEST(AccessMonitorTest, MonitoredRunPassesInvariantChecks) {
  ExperimentSpec spec = MonitoredMatvecSpec();
  spec.checks = true;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.check_failure.empty()) << result.check_failure;
  EXPECT_GT(result.checks_run, 0u);
  ASSERT_TRUE(result.monitor.has_value());
  EXPECT_GT(result.monitor->ticks, 0u);
}

TEST(AccessMonitorTest, NoMonitorMeansNoMonitorWork) {
  ExperimentSpec spec = MonitoredMatvecSpec();
  spec.monitor = false;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(result.monitor.has_value());
  EXPECT_EQ(result.kernel.monitor_invalidations, 0u);
  EXPECT_EQ(result.kernel.monitor_soft_faults, 0u);
  EXPECT_EQ(result.kernel.monitor_releases_enqueued, 0u);
  EXPECT_EQ(result.kernel.monitor_pages_protected, 0u);
}

}  // namespace
}  // namespace tmh
