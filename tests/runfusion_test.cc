// Differential tests for the fused touch-run fast path: the interpreter's
// batched kTouchRun stream must be bit-for-bit equivalent to the per-touch
// stream — identical time breakdowns, fault counts, kernel counters, and
// event totals. The checker forces the exact per-touch replay; the monitor
// and the event log see nothing of a valid-PTE touch, so they keep the bulk
// tier with an unchanged view of the run.

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/check/fuzz_scenario.h"
#include "src/core/experiment.h"
#include "src/workloads/extra.h"
#include "src/workloads/workloads.h"

namespace tmh {
namespace {

MachineConfig SmallMachine() {
  MachineConfig config;
  config.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  return config;
}

ExperimentSpec ProgramSpec(const SourceProgram& workload, AppVersion version, bool fuse,
                           bool adaptive = false) {
  ExperimentSpec spec;
  spec.machine = SmallMachine();
  spec.workload = workload;
  spec.version = version;
  spec.adaptive = adaptive;
  spec.fuse_touch_runs = fuse;
  return spec;
}

ExperimentSpec MatvecSpec(AppVersion version, bool fuse) {
  return ProgramSpec(MakeMatvec(0.1), version, fuse);
}

// KernelStats minus the touch_runs_* counters, which exist precisely to tell
// the two paths apart. Everything else must match exactly.
KernelStats WithoutRunCounters(KernelStats stats) {
  stats.touch_runs_bulk = 0;
  stats.touch_runs_replayed = 0;
  return stats;
}

void ExpectIdentical(const ExperimentResult& fused, const ExperimentResult& plain,
                     const char* label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(fused.completed);
  ASSERT_TRUE(plain.completed);
  // Time breakdown, to the nanosecond.
  EXPECT_EQ(fused.app.times.user, plain.app.times.user);
  EXPECT_EQ(fused.app.times.system, plain.app.times.system);
  EXPECT_EQ(fused.app.times.resource_stall, plain.app.times.resource_stall);
  EXPECT_EQ(fused.app.times.io_stall, plain.app.times.io_stall);
  EXPECT_EQ(fused.app.wall, plain.app.wall);
  // Fault classes.
  EXPECT_EQ(fused.app.faults.hard_faults, plain.app.faults.hard_faults);
  EXPECT_EQ(fused.app.faults.soft_faults, plain.app.faults.soft_faults);
  EXPECT_EQ(fused.app.faults.rescue_faults, plain.app.faults.rescue_faults);
  EXPECT_EQ(fused.app.faults.release_saves, plain.app.faults.release_saves);
  EXPECT_EQ(fused.app.faults.zero_fill_faults, plain.app.faults.zero_fill_faults);
  // The interpreter and the run-time layer do the same logical work either
  // way (both structs are all uint64_t, so a byte compare is exact).
  EXPECT_EQ(0, std::memcmp(&fused.app.interp, &plain.app.interp, sizeof(InterpreterStats)));
  ASSERT_EQ(fused.app.runtime.has_value(), plain.app.runtime.has_value());
  if (fused.app.runtime.has_value()) {
    EXPECT_EQ(0, std::memcmp(&*fused.app.runtime, &*plain.app.runtime, sizeof(RuntimeStats)));
  }
  // Kernel-wide counters (all uint64_t, so a byte compare is exact).
  const KernelStats a = WithoutRunCounters(fused.kernel);
  const KernelStats b = WithoutRunCounters(plain.kernel);
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(KernelStats)));
  EXPECT_EQ(fused.swap_reads, plain.swap_reads);
  EXPECT_EQ(fused.swap_writes, plain.swap_writes);
  // Fusion batches ops, not events: slice boundaries, faults, I/O, and wakes
  // all land at the same instants, so the event total is preserved too.
  EXPECT_EQ(fused.sim_events, plain.sim_events);
}

TEST(RunFusionTest, FusedMatchesUnfusedExactly) {
  // Every paper program in every version: lockstep affine streams (EMBAR,
  // MATVEC), indirect nests whose steps touch a varying set of pages (BUK,
  // CGM), three-deep odometers (MGRID), and FFTPDE's clamped twiddle
  // reference, whose one-iteration steps mostly touch nothing.
  for (const WorkloadInfo& info : AllWorkloads()) {
    const SourceProgram workload = info.factory(0.05);
    for (const AppVersion version : AllVersions()) {
      const std::string label = info.name + "/" + VersionLabel(version);
      const ExperimentResult fused = RunExperiment(ProgramSpec(workload, version, true));
      const ExperimentResult plain = RunExperiment(ProgramSpec(workload, version, false));
      ExpectIdentical(fused, plain, label.c_str());
      EXPECT_EQ(plain.kernel.touch_runs_bulk + plain.kernel.touch_runs_replayed, 0u) << label;
      if (info.name == "BUK" || info.name == "CGM" || info.name == "FFTPDE") {
        EXPECT_GT(fused.kernel.touch_runs_bulk + fused.kernel.touch_runs_replayed, 0u) << label;
      }
    }
  }
  // Adaptive recompilation re-specializes the unknown-bound nests on entry,
  // turning every-iteration hints into page-crossing hints.
  for (const char* name : {"MGRID", "FFTPDE"}) {
    const SourceProgram workload = FindWorkload(name)->factory(0.05);
    for (const AppVersion version : AllVersions()) {
      const std::string label = std::string(name) + "/" + VersionLabel(version) + "/adaptive";
      const ExperimentResult fused = RunExperiment(ProgramSpec(workload, version, true, true));
      const ExperimentResult plain = RunExperiment(ProgramSpec(workload, version, false, true));
      ExpectIdentical(fused, plain, label.c_str());
    }
  }
  // MATVEC at twice the footprint, far out of core. The toggle is real for
  // the uninstrumented program, which plans spans straight through
  // non-resident pages (replay reproduces the faults).
  for (const AppVersion version : AllVersions()) {
    const ExperimentResult fused = RunExperiment(MatvecSpec(version, true));
    const ExperimentResult plain = RunExperiment(MatvecSpec(version, false));
    ExpectIdentical(fused, plain, VersionLabel(version));
    EXPECT_EQ(plain.kernel.touch_runs_bulk + plain.kernel.touch_runs_replayed, 0u)
        << VersionLabel(version);
    if (version == AppVersion::kOriginal) {
      EXPECT_GT(fused.kernel.touch_runs_bulk + fused.kernel.touch_runs_replayed, 0u);
    }
  }
}

TEST(RunFusionTest, BulkPathEngagesWhenResident) {
  // An in-core run (default 75MB machine, 3.75MB workload) never faults after
  // warm-up, so whole spans must validate word-parallel and charge in bulk.
  ExperimentSpec spec;
  spec.workload = MakeMatvec(0.05);
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.kernel.touch_runs_bulk, 0u);
}

TEST(RunFusionTest, CheckedRunTakesPerTouchPathAndStaysClean) {
  ExperimentSpec spec = MatvecSpec(AppVersion::kOriginal, true);
  spec.checks = true;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.check_failure, "");
  EXPECT_GT(result.checks_run, 0u);
  // The checker needs the per-op narration: no bulk validation may run, and
  // the fused ops the interpreter still emits must all degrade to replay.
  EXPECT_EQ(result.kernel.touch_runs_bulk, 0u);
  EXPECT_GT(result.kernel.touch_runs_replayed, 0u);
}

TEST(RunFusionTest, MonitoredAndLoggedRunTakesBulkPath) {
  // Neither the monitor nor the event log sees a valid-PTE touch (a sampled
  // page is invalid, so never Touchable), so a monitored, event-logged run
  // keeps the bulk tier and must match its unfused twin event for event. In
  // core (default 75MB machine) so whole spans are resident.
  ExperimentSpec fused_spec = ProgramSpec(MakeMatvec(0.05), AppVersion::kOriginal, true);
  fused_spec.machine = MachineConfig{};
  fused_spec.monitor = true;
  fused_spec.observe = true;
  ExperimentSpec plain_spec = fused_spec;
  plain_spec.fuse_touch_runs = false;
  const ExperimentResult fused = RunExperiment(fused_spec);
  const ExperimentResult plain = RunExperiment(plain_spec);
  EXPECT_GT(fused.kernel.touch_runs_bulk, 0u);
  ExpectIdentical(fused, plain, "monitored+logged");
  ASSERT_TRUE(fused.monitor.has_value());
  ASSERT_TRUE(plain.monitor.has_value());
  EXPECT_EQ(0, std::memcmp(&*fused.monitor, &*plain.monitor, sizeof(MonitorStats)));
  EXPECT_GT(fused.event_log.events().size(), 0u);
  EXPECT_EQ(fused.event_log.events(), plain.event_log.events());
}

TEST(RunFusionTest, FuzzScenarioCountersIdenticalAcrossRunPaths) {
  // Multiprogrammed scenarios from the fuzz generator (no checker attached,
  // so the bulk path is live): per-app and kernel-wide counters must be
  // identical with the fusion toggled per app.
  for (const uint64_t seed : {401u, 402u, 403u}) {
    SCOPED_TRACE(seed);
    MultiExperimentSpec fused_spec = ToSpec(MakeScenario(seed));
    MultiExperimentSpec plain_spec = ToSpec(MakeScenario(seed));
    for (MultiAppSpec& app : plain_spec.apps) {
      app.fuse_touch_runs = false;
    }
    const MultiExperimentResult fused = RunMultiExperiment(fused_spec);
    const MultiExperimentResult plain = RunMultiExperiment(plain_spec);
    ASSERT_EQ(fused.completed, plain.completed);
    ASSERT_EQ(fused.apps.size(), plain.apps.size());
    for (size_t i = 0; i < fused.apps.size(); ++i) {
      EXPECT_EQ(fused.apps[i].wall, plain.apps[i].wall) << "app " << i;
      EXPECT_EQ(fused.apps[i].times.user, plain.apps[i].times.user) << "app " << i;
      EXPECT_EQ(fused.apps[i].faults.hard_faults, plain.apps[i].faults.hard_faults)
          << "app " << i;
      EXPECT_EQ(fused.apps[i].interp.page_touches, plain.apps[i].interp.page_touches)
          << "app " << i;
    }
    const KernelStats a = WithoutRunCounters(fused.kernel);
    const KernelStats b = WithoutRunCounters(plain.kernel);
    EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(KernelStats)));
    EXPECT_EQ(fused.sim_events, plain.sim_events);
    EXPECT_EQ(fused.swap_reads, plain.swap_reads);
    EXPECT_EQ(fused.swap_writes, plain.swap_writes);
  }
}

}  // namespace
}  // namespace tmh
