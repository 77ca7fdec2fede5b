// perfbench — the repository benchmark's measuring half (perfbench/run.py
// builds it, runs it and turns its output into metrics).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --spans-out PATH
//
// Every experiment runs through RunMirror, a copy of RunExperiment's wiring
// made from public calls only (CompileVersion, Kernel, StartDaemons,
// CreateAddressSpace/AddRegion, RuntimeLayer, Interpreter, Spawn,
// RunUntilThreadsDone). Because the mirror owns that wiring, a traced pass can
// time each layer from outside: a Program decorator wraps Interpreter::Next and
// InteractiveTask::Next, and a VmChecker decorator wraps the InvariantChecker.
// Nothing inside the library is instrumented.
//
// One process:
//   1. runs every experiment once through RunExperiment (the reference, which
//      also warms caches), and the injected-corruption self-check;
//   2. runs passes over the experiment list until --seconds have elapsed:
//      untraced only with --trace 0, alternating untraced/traced with
//      --trace 1. Every experiment is timed by the wall clock and by the
//      process CPU clock; untraced passes also time the host-speed
//      calibration before the first experiment and after each one;
//   3. checks every mirrored experiment against the reference digest;
//   4. writes its spans (aggregated in memory) to --spans-out and prints one
//      JSON summary line on stdout.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/workloads/workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using tmh::AppVersion;
using tmh::ExperimentResult;
using tmh::ExperimentSpec;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU seconds this process has run. Unlike the wall clock it leaves out the
// time the process waits for a CPU, which other tenants of a shared host can
// double from one run to the next.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workloads. Each returns the experiment list of one pass; the seed reaches
// the program only through the generated inputs: the BUK/CGM key streams, the
// interactive task's think times, the access monitor's sample placement.

struct Experiment {
  std::string label;
  ExperimentSpec spec;
  // Run only in traced processes, in untraced passes: the unobserved twin of
  // an observed experiment, the base of sim.observe_overhead_s.
  bool twin = false;
};

tmh::MachineConfig ScaledMachine(double scale) {
  tmh::MachineConfig machine;
  machine.user_memory_bytes =
      static_cast<int64_t>(static_cast<double>(machine.user_memory_bytes) * scale);
  return machine;
}

tmh::SourceProgram MakeProgram(const std::string& name, double scale, uint64_t seed) {
  if (name == "BUK") return tmh::MakeBuk(scale, SplitMix64(seed ^ 0xb0c));
  if (name == "CGM") return tmh::MakeCgm(scale, SplitMix64(seed ^ 0xc021));
  for (const tmh::WorkloadInfo& info : tmh::AllWorkloads()) {
    if (info.name == name) return info.factory(scale);
  }
  std::fprintf(stderr, "perfbench: unknown program %s\n", name.c_str());
  std::exit(2);
}

Experiment MakeExperiment(const std::string& program, double scale, uint64_t seed,
                          AppVersion version) {
  Experiment e;
  e.label = program + "/" + tmh::VersionLabel(version);
  e.spec.machine = ScaledMachine(scale);
  e.spec.workload = MakeProgram(program, scale, seed);
  e.spec.version = version;
  return e;
}

// Adds the interactive task with a think time of `sleep_s` seconds +-1%, the
// offset drawn from the seed and the label, so that the response time varies
// with the seed like every other outcome.
void AddInteractive(Experiment& e, int sleep_s, uint64_t seed) {
  e.label += "+int" + std::to_string(sleep_s) + "s";
  const double u =
      static_cast<double>(SplitMix64(Fnv1a(e.label.data(), e.label.size(), seed)) >> 11) *
      0x1.0p-53;
  e.spec.with_interactive = true;
  e.spec.interactive.sleep_time =
      static_cast<tmh::SimDuration>(static_cast<double>(sleep_s * tmh::kSec) * (0.99 + 0.02 * u));
}

// The six paper programs x O,P,R,B at a reduced scale, beside the interactive
// task at the paper's 5 s sleep (the Fig. 10b configuration).
constexpr double kGridScale = 0.1;

std::vector<Experiment> Fig07Grid(uint64_t seed) {
  std::vector<Experiment> list;
  for (const tmh::WorkloadInfo& info : tmh::AllWorkloads()) {
    for (const AppVersion version : tmh::AllVersions()) {
      list.push_back(MakeExperiment(info.name, kGridScale, seed, version));
      AddInteractive(list.back(), 5, seed);
    }
  }
  return list;
}

// Fig. 10a at full scale: MATVEC x O,P,R,B x sleep, plus MATVEC-O with the
// access monitor per sleep (the ext_monitor comparison).
const int kSleeps[] = {1, 2, 5, 10, 20};

Experiment MonitoredMatvec(uint64_t seed, int sleep_s) {
  Experiment e = MakeExperiment("MATVEC", 1.0, seed, AppVersion::kOriginal);
  AddInteractive(e, sleep_s, seed);
  e.spec.monitor = true;
  e.spec.monitor_config.seed = SplitMix64(seed ^ (0x3011 + static_cast<uint64_t>(sleep_s)));
  e.label += "+mon";
  return e;
}

std::vector<Experiment> Fig10aInteractive(uint64_t seed) {
  std::vector<Experiment> list;
  for (const int sleep_s : kSleeps) {
    for (const AppVersion version : tmh::AllVersions()) {
      list.push_back(MakeExperiment("MATVEC", 1.0, seed, version));
      AddInteractive(list.back(), sleep_s, seed);
    }
    list.push_back(MonitoredMatvec(seed, sleep_s));
  }
  return list;
}

// The two debugging modes: small MATVEC and BUK runs under the invariant
// checker with its default (oracle on, full pass every event), and a slice of
// the Fig. 10a grid with observability on. The checked part takes about two
// thirds of the host time, so that check is the largest layer; with equal
// halves, os (most of the observed half) outweighs it.
constexpr double kCheckedScale = 0.05;
const int kObservedSleeps[] = {2, 5, 20};

std::vector<Experiment> Instrumented(uint64_t seed, bool traced_process) {
  std::vector<Experiment> list;
  for (const char* program : {"MATVEC", "BUK"}) {
    for (const AppVersion version : {AppVersion::kOriginal, AppVersion::kRelease}) {
      list.push_back(MakeExperiment(program, kCheckedScale, seed, version));
      list.back().spec.checks = true;
      list.back().label += "+checks";
    }
  }
  std::vector<Experiment> twins;
  for (const int sleep_s : kObservedSleeps) {
    for (const AppVersion version : {AppVersion::kOriginal, AppVersion::kPrefetch}) {
      Experiment e = MakeExperiment("MATVEC", 1.0, seed, version);
      AddInteractive(e, sleep_s, seed);
      if (traced_process) {
        twins.push_back(e);
        twins.back().twin = true;
        twins.back().label += "+obs-twin";
      }
      e.spec.observe = true;
      e.label += "+obs";
      list.push_back(std::move(e));
    }
  }
  list.insert(list.end(), twins.begin(), twins.end());
  return list;
}

// Set-up-only repetitions of each experiment per untraced pass (set up and
// torn down without running). Spread over the whole run, their median is
// steadier than one set-up per pass or a burst of repeats in one moment.
constexpr int kSetupRepeats = 5;

// Host-speed calibration. Other tenants of a shared host change its speed by
// up to 2x for tens of seconds at a time, and CPU time moves with it. Between
// the experiments of an untraced pass, perfbench times a fixed piece of work
// of its own: the "hold" model of an event queue, which pops the earliest of
// kEvents pending event times and pushes it back a random delay later. Like
// the simulator, it is branchy and works out of a small heap, and its CPU
// time followed the simulator's across runs more closely than did pointer
// chases over 1-32 MB, strided read-modify-writes, an ALU chain, a
// switch-dispatch loop or the same hold model on heaps of 1-32 MB. It calls
// nothing in the library, so a change to the library does not change its
// work. run.py divides each experiment's CPU time by the calibrations around
// it.
class Calibration {
 public:
  // CPU seconds for one run; every run does the same work.
  double Run() {
    const double start = CpuSeconds();
    std::vector<uint64_t>& h = heap_;
    h.clear();
    uint64_t r = 0x243f6a8885a308d3ULL;
    for (int i = 0; i < kEvents; ++i) {
      r = SplitMix64(r);
      h.push_back(r % kMaxDelay);
    }
    std::make_heap(h.begin(), h.end(), std::greater<>());
    for (int i = 0; i < kHolds; ++i) {
      std::pop_heap(h.begin(), h.end(), std::greater<>());
      r = SplitMix64(r);
      h.back() += r % kMaxDelay;
      std::push_heap(h.begin(), h.end(), std::greater<>());
    }
    checksum_ = checksum_ + h.front();
    return CpuSeconds() - start;
  }

 private:
  static constexpr int kEvents = 8192;
  static constexpr int kHolds = 20000;
  static constexpr uint64_t kMaxDelay = 100000;
  std::vector<uint64_t> heap_;
  volatile uint64_t checksum_ = 0;  // keeps the work from being optimized away
};

// ---------------------------------------------------------------------------
// Tracing: sampled spans around the library's public entry points.

// Calls between samples average kSamplePeriod. A clock read on every
// Interpreter::Next doubles the grid's host time; one in 64 costs about 1%.
constexpr uint64_t kSamplePeriod = 64;

// One wrapped entry point. Counts every call and samples a pseudo-random one
// in kSamplePeriod (a random stride avoids aliasing with periodic op streams).
// Samples alternate between timing the call and timing an empty pair of clock
// reads at the same site: the empty pairs measure, in place, the clock cost
// that the timed calls carry, and the estimate subtracts it.
class SampledSpan {
 public:
  explicit SampledSpan(uint64_t seed) : rng_(SplitMix64(seed) | 1) { countdown_ = Stride(); }

  template <typename F>
  decltype(auto) Time(F&& call) {
    ++calls_;
    if (--countdown_ != 0) {
      return call();
    }
    countdown_ = Stride();
    if ((timed_ + empty_) % 2 == 1) {
      const Clock::time_point start = Clock::now();
      empty_s_ += Seconds(start, Clock::now());
      ++empty_;
      return call();
    }
    ++timed_;
    struct Stop {
      SampledSpan* span;
      Clock::time_point start;
      ~Stop() { span->timed_s_ += Seconds(start, Clock::now()); }
    } stop{this, Clock::now()};
    return call();
  }

  [[nodiscard]] uint64_t calls() const { return calls_; }
  [[nodiscard]] uint64_t sampled() const { return timed_ + empty_; }
  // Mean clock cost inside one timed interval.
  [[nodiscard]] double timer_s() const {
    return empty_ == 0 ? 0.0 : empty_s_ / static_cast<double>(empty_);
  }
  // Estimated seconds over all calls: the timed mean less the clock cost,
  // scaled to the call count.
  [[nodiscard]] double Estimate() const {
    if (timed_ == 0) {
      return 0;
    }
    const double mean = std::max(0.0, timed_s_ / static_cast<double>(timed_) - timer_s());
    return mean * static_cast<double>(calls_);
  }

 private:
  uint64_t Stride() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return 1 + rng_ % (2 * kSamplePeriod - 1);
  }

  uint64_t rng_;
  uint64_t countdown_ = 1;
  uint64_t calls_ = 0;
  uint64_t timed_ = 0;
  uint64_t empty_ = 0;
  double timed_s_ = 0;
  double empty_s_ = 0;
};

struct LayerSpans {
  SampledSpan next{1};
  SampledSpan interactive_next{2};
  SampledSpan vm_event{3};
  SampledSpan quiescent{4};
};

class TimedProgram : public tmh::Program {
 public:
  TimedProgram(tmh::Program* inner, SampledSpan* span) : inner_(inner), span_(span) {}
  tmh::Op Next(tmh::Kernel& kernel) override {
    return span_->Time([&] { return inner_->Next(kernel); });
  }

 private:
  tmh::Program* inner_;
  SampledSpan* span_;
};

class TimedChecker : public tmh::VmChecker {
 public:
  TimedChecker(tmh::VmChecker* inner, LayerSpans* spans) : inner_(inner), spans_(spans) {}
  void OnVmEvent(const tmh::VmHookEvent& event) override {
    spans_->vm_event.Time([&] { inner_->OnVmEvent(event); });
  }
  void OnQuiescent(tmh::Kernel& kernel) override {
    spans_->quiescent.Time([&] { inner_->OnQuiescent(kernel); });
  }

 private:
  tmh::VmChecker* inner_;
  LayerSpans* spans_;
};

// Host seconds of one mirrored experiment, by phase.
struct Phases {
  double compile = 0;
  double setup = 0;        // kernel, address spaces, run-time layer, interpreter, ...
  double setup_cpu = 0;    // compile + setup, in CPU seconds
  double run = 0;          // RunUntilThreadsDone
  double final_check = 0;  // end-of-run InvariantChecker::CheckNow
};

// ---------------------------------------------------------------------------
// The mirror of RunExperiment (src/core/experiment.cc), public calls only.

tmh::InteractiveMetrics CollectInteractive(const tmh::InteractiveTask& task,
                                           const tmh::Thread* thread) {
  tmh::InteractiveMetrics m;
  m.sweeps = task.sweeps_completed();
  m.responses = task.response_series();
  m.faults = thread->faults();
  tmh::Accumulator warm;  // the first sweep zero-fills the data set; excluded
  for (size_t i = 1; i < m.responses.size(); ++i) {
    warm.Add(static_cast<double>(m.responses[i]));
  }
  const tmh::Accumulator& all = warm.count() > 0 ? warm : task.response_times();
  m.mean_response_ns = all.mean();
  m.max_response_ns = all.max();
  if (m.sweeps > 1) {
    m.hard_faults_per_sweep = static_cast<double>(thread->faults().hard_faults) /
                              static_cast<double>(m.sweeps - 1);
  }
  m.mean_fault_service_ns = thread->fault_service().mean();
  return m;
}

struct MirrorExtras {
  uint64_t checker_events = 0;
  uint64_t event_log_events = 0;
  double fault_service_ns = 0;  // summed over the app's and the interactive task's faults
  uint64_t fault_service_count = 0;
  uint64_t pool_dropped_full = 0;
};

// Everything one experiment keeps alive while it runs. Members are destroyed
// in reverse order: the kernel outlives everything attached to it, and the
// checker detaches itself before its decorator goes away.
struct Launched {
  std::unique_ptr<const tmh::CompiledProgram> compiled;
  std::unique_ptr<tmh::Kernel> kernel;
  std::unique_ptr<TimedChecker> timed_checker;
  std::unique_ptr<tmh::InvariantChecker> checker;
  std::unique_ptr<tmh::RuntimeLayer> runtime;
  std::unique_ptr<tmh::Interpreter> interp;
  std::unique_ptr<TimedProgram> timed_interp;
  tmh::Thread* app_thread = nullptr;
  std::unique_ptr<tmh::AccessMonitor> monitor;
  std::unique_ptr<tmh::InteractiveTask> interactive;
  std::unique_ptr<TimedProgram> timed_interactive;
  tmh::Thread* interactive_thread = nullptr;
};

// Compiles and wires one experiment, up to the point RunExperiment calls
// RunUntilThreadsDone. `spans` non-null: wrap the entry points for tracing.
std::unique_ptr<Launched> Launch(const ExperimentSpec& spec, LayerSpans* spans,
                                 Phases* phases) {
  auto l = std::make_unique<Launched>();
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  l->compiled = std::make_unique<const tmh::CompiledProgram>(
      tmh::CompileVersion(spec.workload, spec.machine, spec.version, spec.adaptive, spec.oracle));
  const Clock::time_point t1 = Clock::now();

  l->kernel = std::make_unique<tmh::Kernel>(spec.machine);
  tmh::Kernel& kernel = *l->kernel;
  if (spec.observe) {
    kernel.EnableObservability();
  }
  if (spec.checks) {
    l->checker = std::make_unique<tmh::InvariantChecker>(kernel, spec.check_options);
    if (spans != nullptr) {
      l->timed_checker = std::make_unique<TimedChecker>(l->checker.get(), spans);
      kernel.AttachChecker(l->timed_checker.get());
    }
  }
  kernel.StartDaemons();

  const tmh::SourceProgram& source = spec.workload;
  const tmh::ArrayLayout& layout = l->compiled->layout;
  tmh::AddressSpace* as = kernel.CreateAddressSpace(
      source.name, (layout.total_pages() + source.text_pages) * spec.machine.page_size_bytes);
  for (size_t a = 0; a < source.arrays.size(); ++a) {
    const tmh::ArrayDecl& array = source.arrays[a];
    as->AddRegion(tmh::Region{array.name, layout.base_page(static_cast<int32_t>(a)),
                              layout.PageCount(static_cast<int32_t>(a)),
                              array.on_disk ? tmh::Backing::kSwap : tmh::Backing::kZeroFill});
  }
  if (source.text_pages > 0) {
    as->AddRegion(
        tmh::Region{"text", layout.total_pages(), source.text_pages, tmh::Backing::kZeroFill});
  }
  if (spec.version != AppVersion::kOriginal) {
    as->AttachPagingDirected(0, as->num_pages());
    kernel.UpdateSharedHeader(as);
    tmh::RuntimeOptions options = spec.runtime;
    options.buffered = spec.version == AppVersion::kBuffered;
    options.reactive = spec.version == AppVersion::kReactive;
    l->runtime = std::make_unique<tmh::RuntimeLayer>(&kernel, as, options);
    if (options.reactive) {
      tmh::RuntimeLayer* layer = l->runtime.get();
      as->set_eviction_handler(
          [layer](int64_t count) { return layer->TakeEvictionCandidates(count); });
    }
  }
  l->interp = std::make_unique<tmh::Interpreter>(l->compiled.get(), as, l->runtime.get());
  l->interp->set_fuse_touch_runs(spec.fuse_touch_runs);
  tmh::Program* program = l->interp.get();
  if (spans != nullptr) {
    l->timed_interp = std::make_unique<TimedProgram>(program, &spans->next);
    program = l->timed_interp.get();
  }
  l->app_thread = kernel.Spawn(source.name, as, program);

  if (spec.monitor) {
    l->monitor = std::make_unique<tmh::AccessMonitor>(kernel, spec.monitor_config);
    l->monitor->AddTarget(as);
    l->monitor->Start();
  }
  if (spec.with_interactive) {
    const int64_t pages = spec.interactive.data_pages + spec.interactive.text_pages;
    tmh::AddressSpace* ias =
        kernel.CreateAddressSpace("interactive", pages * spec.machine.page_size_bytes);
    ias->AddRegion(tmh::Region{"data", 0, pages, tmh::Backing::kZeroFill});
    l->interactive = std::make_unique<tmh::InteractiveTask>(ias, spec.interactive);
    tmh::Program* iprogram = l->interactive.get();
    if (spans != nullptr) {
      l->timed_interactive = std::make_unique<TimedProgram>(iprogram, &spans->interactive_next);
      iprogram = l->timed_interactive.get();
    }
    l->interactive_thread = kernel.Spawn("interactive", ias, iprogram);
    l->interactive->BindThread(l->interactive_thread);
  }
  if (spec.trace_period > 0) {
    kernel.StartTracing(spec.trace_period);
  }
  phases->compile = Seconds(t0, t1);
  phases->setup = Seconds(t1, Clock::now());
  phases->setup_cpu = CpuSeconds() - cpu0;
  return l;
}

ExperimentResult RunMirror(const ExperimentSpec& spec, LayerSpans* spans, Phases* phases,
                           MirrorExtras* extras) {
  const std::unique_ptr<Launched> l = Launch(spec, spans, phases);
  tmh::Kernel& kernel = *l->kernel;
  const Clock::time_point t0 = Clock::now();
  ExperimentResult result;
  result.completed = kernel.RunUntilThreadsDone({l->app_thread}, spec.max_events);
  const Clock::time_point t1 = Clock::now();
  if (l->checker != nullptr) {
    l->checker->CheckNow(kernel);
    result.check_failure = l->checker->failure();
    result.checks_run = l->checker->checks_run();
    extras->checker_events = l->checker->events_seen();
  }
  phases->run = Seconds(t0, t1);
  phases->final_check = Seconds(t1, Clock::now());

  tmh::AppMetrics& app = result.app;
  const tmh::Thread* thread = l->app_thread;
  app.times = thread->times();
  app.faults = thread->faults();
  app.interp = l->interp->stats();
  app.compile = l->compiled->stats;
  if (l->runtime != nullptr) {
    app.runtime = l->runtime->stats();
    extras->pool_dropped_full = l->runtime->pool().dropped_full();
  }
  extras->fault_service_ns = thread->fault_service().sum();
  extras->fault_service_count = thread->fault_service().count();
  if (l->interactive != nullptr) {
    result.interactive = CollectInteractive(*l->interactive, l->interactive_thread);
    extras->fault_service_ns += l->interactive_thread->fault_service().sum();
    extras->fault_service_count += l->interactive_thread->fault_service().count();
  }
  if (l->monitor != nullptr) {
    result.monitor = l->monitor->stats();
  }
  result.kernel = kernel.stats();
  result.swap_reads = kernel.swap().reads();
  result.swap_writes = kernel.swap().writes();
  result.sim_events = kernel.event_queue().ExecutedCount();
  if (spec.observe) {
    extras->event_log_events = kernel.event_log().events().size();
  }
  return result;  // teardown lands in the caller's experiment span
}

// ---------------------------------------------------------------------------
// The simulated digest: everything a simulator-only change must leave
// bit-identical. Hashes whole stat structs, so a counter added to one is
// covered without editing this list.

class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::has_unique_object_representations_v<T>, "padding would be hashed");
    hash_ = Fnv1a(&value, sizeof(T), hash_);
  }
  [[nodiscard]] uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = Fnv1a(nullptr, 0);
};

uint64_t SimDigest(const ExperimentResult& r) {
  Digest d;
  d.Add(r.app.times);
  d.Add(r.app.faults);
  d.Add(r.kernel);
  d.Add(r.sim_events);
  d.Add(r.app.interp.page_touches);
  d.Add(r.app.interp.iterations);
  d.Add(r.swap_reads);
  d.Add(r.swap_writes);
  d.Add(r.checks_run);
  d.Add(static_cast<uint8_t>(r.completed));
  if (r.interactive.has_value()) {
    d.Add(r.interactive->faults);
    for (const tmh::SimDuration response : r.interactive->responses) {
      d.Add(response);
    }
  }
  if (r.monitor.has_value()) {
    d.Add(*r.monitor);
  }
  return d.value();
}

// Why an experiment failed, or empty if it did not.
std::string Failure(const ExperimentResult& r) {
  if (!r.completed) return "did not complete";
  if (!r.check_failure.empty()) return "checker: " + r.check_failure.substr(0, 200);
  return "";
}

// ---------------------------------------------------------------------------
// Output helpers.

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Per-experiment counts, named after the per-layer metric (or the numerator /
// denominator of a ratio) they feed. Identical on every pass of one seed.
std::string CountsJson(const ExperimentResult& r, const MirrorExtras& x) {
  const tmh::KernelStats& k = r.kernel;
  const tmh::RuntimeStats rs = r.app.runtime.value_or(tmh::RuntimeStats{});
  const tmh::MonitorStats ms = r.monitor.value_or(tmh::MonitorStats{});
  const tmh::InteractiveMetrics im = r.interactive.value_or(tmh::InteractiveMetrics{});
  auto d = [](auto v) { return static_cast<double>(v); };
  const std::pair<const char*, double> fields[] = {
      {"sim_exec_ns", d(r.app.times.Execution())},
      {"sim_hard_faults", d(r.app.faults.hard_faults)},
      {"interactive", r.interactive.has_value() ? 1.0 : 0.0},
      {"interactive_resp_ns", im.mean_response_ns},
      {"compiler.prefetch_directives", d(r.app.compile.prefetch_directives)},
      {"compiler.release_directives", d(r.app.compile.release_directives)},
      {"runtime.page_touches", d(r.app.interp.page_touches)},
      {"runtime.iterations", d(r.app.interp.iterations)},
      {"runtime.prefetch_hints", d(rs.prefetch_hints)},
      {"runtime.release_hints", d(rs.release_hints)},
      {"runtime.hints_filtered", d(rs.prefetch_filtered_resident +
                                   rs.release_filtered_not_resident +
                                   rs.release_filtered_same_page)},
      {"runtime.prefetch_enqueued", d(rs.prefetch_enqueued)},
      {"runtime.release_drains", d(rs.release_drains)},
      {"runtime.buffer_stale_dropped", d(rs.buffer_stale_dropped)},
      {"runtime.pool_dropped_full", d(x.pool_dropped_full)},
      {"os.touch_runs_bulk", d(k.touch_runs_bulk)},
      {"os.touch_runs_replayed", d(k.touch_runs_replayed)},
      {"os.hard_faults", d(k.hard_faults)},
      {"os.soft_faults", d(k.soft_faults)},
      {"os.daemon_activations", d(k.daemon_activations)},
      {"os.daemon_pages_stolen", d(k.daemon_pages_stolen)},
      {"os.releaser_pages_freed", d(k.releaser_pages_freed)},
      {"os.releaser_skipped", d(k.releaser_skipped)},
      {"os.rescues", d(k.rescued_daemon_freed + k.rescued_release_freed)},
      {"os.memory_waits", d(k.memory_waits)},
      {"os.prefetch_requests", d(k.prefetch_requests)},
      {"os.prefetch_dropped", d(k.prefetch_dropped)},
      {"disk.swap_reads", d(r.swap_reads)},
      {"disk.swap_writes", d(r.swap_writes)},
      {"disk.readahead_reads", d(k.readahead_reads)},
      {"disk.fault_service_ns", x.fault_service_ns},
      {"disk.fault_service_count", d(x.fault_service_count)},
      {"sim.events", d(r.sim_events)},
      {"sim.event_log_events", d(x.event_log_events)},
      {"monitor.samples_armed", d(ms.samples_armed)},
      {"monitor.samples_checked", d(ms.samples_checked)},
      {"monitor.samples_hit", d(ms.samples_hit)},
      {"monitor.cold_pages_enqueued", d(ms.cold_pages_enqueued)},
      {"check.vm_events", d(x.checker_events)},
      {"check.checks_run", d(r.checks_run)},
      {"workloads.interactive_sweeps", d(im.sweeps)},
  };
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    char field[128];
    std::snprintf(field, sizeof(field), "%s\"%s\":%.17g", out.size() > 1 ? "," : "", name,
                  value);
    out += field;
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fig07_grid|fig10a_interactive|"
               "instrumented --seed N --seconds S --trace 0|1 --spans-out PATH\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (args.spans_out.empty()) Usage("--spans-out is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const bool traced_process = args.trace == 1;
  std::vector<Experiment> experiments;
  if (args.workload == "fig07_grid") {
    experiments = Fig07Grid(args.seed);
  } else if (args.workload == "fig10a_interactive") {
    experiments = Fig10aInteractive(args.seed);
  } else if (args.workload == "instrumented") {
    experiments = Instrumented(args.seed, traced_process);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  uint64_t attempted = 0;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    failures.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  };

  // 1. Reference: the library's own entry point, on the same specs.
  std::vector<uint64_t> reference(experiments.size());
  for (size_t i = 0; i < experiments.size(); ++i) {
    const ExperimentResult r = tmh::RunExperiment(experiments[i].spec);
    reference[i] = SimDigest(r);
    ++attempted;
    if (const std::string why = Failure(r); !why.empty()) {
      fail(experiments[i].label + " (RunExperiment): " + why);
    }
  }

  // Self-check: a bitmap bit flipped mid-run must be caught by the same
  // classification every experiment goes through.
  bool selfcheck_detected = false;
  {
    Experiment e = MakeExperiment("MATVEC", kCheckedScale, args.seed, AppVersion::kRelease);
    e.spec.checks = true;
    e.spec.check_options.inject_bitmap_flip_after = 200;
    Phases phases;
    MirrorExtras extras;
    selfcheck_detected = !Failure(RunMirror(e.spec, nullptr, &phases, &extras)).empty();
    if (!selfcheck_detected) {
      fail("self-check: injected bitmap corruption was not detected");
    }
  }

  // 2. Measured passes.
  std::FILE* spans = std::fopen(args.spans_out.c_str(), "w");
  if (spans == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    return 2;
  }
  std::vector<std::string> span_lines;
  auto span = [&](int pass, bool traced, int exp, const char* name, const char* parent,
                  double s, uint64_t calls = 0, uint64_t sampled = 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"pass\":%d,\"traced\":%d,\"exp\":%d,\"span\":\"%s\",\"parent\":%s%s%s,"
                  "\"s\":%.9f,\"calls\":%" PRIu64 ",\"sampled\":%" PRIu64 "}\n",
                  pass, traced ? 1 : 0, exp, name, parent ? "\"" : "", parent ? parent : "null",
                  parent ? "\"" : "", s, calls, sampled);
    span_lines.emplace_back(line);
  };

  Calibration calibration;
  // Per experiment, each set-up repetition's CPU time over the calibration
  // just before it.
  std::vector<std::vector<double>> setups(experiments.size());
  std::vector<std::string> counts(experiments.size());
  const Clock::time_point start = Clock::now();
  int pass = 0;
  while (Seconds(start, Clock::now()) < args.seconds || (traced_process && pass < 2)) {
    const bool traced = traced_process && pass % 2 == 1;
    const Clock::time_point pass_start = Clock::now();
    double calib_before = traced ? 0.0 : calibration.Run();
    for (size_t i = 0; i < experiments.size(); ++i) {
      const Experiment& e = experiments[i];
      if (traced && e.twin) {
        continue;
      }
      for (int r = 0; r < kSetupRepeats && !traced; ++r) {
        Phases phases;
        Launch(e.spec, nullptr, &phases);
        setups[i].push_back(phases.setup_cpu / calib_before);
      }
      LayerSpans layers;
      Phases phases;
      MirrorExtras extras;
      const double cpu0 = CpuSeconds();
      const Clock::time_point t0 = Clock::now();
      const ExperimentResult r = RunMirror(e.spec, traced ? &layers : nullptr, &phases, &extras);
      const double experiment_s = Seconds(t0, Clock::now());
      const double experiment_cpu = CpuSeconds() - cpu0;
      ++attempted;
      std::string why = Failure(r);
      if (why.empty() && SimDigest(r) != reference[i]) {
        why = "simulated digest differs from RunExperiment";
      }
      if (!why.empty()) {
        fail(e.label + " (pass " + std::to_string(pass) + (traced ? ", traced" : "") +
             "): " + why);
      }
      if (counts[i].empty()) {
        counts[i] = CountsJson(r, extras);
      }
      const int id = static_cast<int>(i);
      span(pass, traced, id, "experiment", "pass", experiment_s);
      span(pass, traced, id, "experiment.cpu", nullptr, experiment_cpu);
      if (!traced) {
        const double calib_after = calibration.Run();
        span(pass, traced, id, "experiment.calib", nullptr, (calib_before + calib_after) / 2);
        calib_before = calib_after;
      }
      span(pass, traced, id, "compiler.compile", "experiment", phases.compile);
      span(pass, traced, id, "os.setup", "experiment", phases.setup);
      span(pass, traced, id, "os.run", "experiment", phases.run);
      span(pass, traced, id, "check.final", "experiment", phases.final_check);
      if (traced) {
        const struct {
          const char* name;
          const SampledSpan& s;
        } leaves[] = {{"runtime.next", layers.next},
                      {"workloads.interactive_next", layers.interactive_next},
                      {"check.vm_event", layers.vm_event},
                      {"check.quiescent", layers.quiescent}};
        uint64_t sampled = 0;
        double timer_s = 0;
        for (const auto& leaf : leaves) {
          span(pass, traced, id, leaf.name, "os.run", leaf.s.Estimate(), leaf.s.calls(),
               leaf.s.sampled());
          sampled += leaf.s.sampled();
          // Each sample reads the clock twice inside os.run.
          timer_s += 2 * leaf.s.timer_s() * static_cast<double>(leaf.s.sampled());
        }
        span(pass, traced, id, "trace.timer", "os.run", timer_s, sampled, sampled);
      }
    }
    span(pass, traced, -1, "pass", nullptr, Seconds(pass_start, Clock::now()));
    ++pass;
  }
  // "setup": the median set-up CPU time, in calibration runs.
  for (size_t i = 0; i < experiments.size(); ++i) {
    std::vector<double>& v = setups[i];
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    span(-1, false, static_cast<int>(i), "setup", nullptr, v[v.size() / 2], v.size());
  }
  for (const std::string& line : span_lines) {
    std::fputs(line.c_str(), spans);
  }
  const bool spans_ok = std::fclose(spans) == 0;
  if (!spans_ok) {
    fail("could not write spans to " + args.spans_out);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%d,\"passes\":%d,"
              "\"attempted\":%" PRIu64 ",\"failed\":%zu,"
              "\"selfcheck_detected\":%s,\"peak_rss_mb\":%.3f,",
              args.workload.c_str(), args.seed, args.trace, pass, attempted,
              failures.size(), selfcheck_detected ? "true" : "false",
              static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::printf("\"build\":{\"type\":\"%s\",\"flags\":\"%s\",\"lto\":\"%s\",\"compiler\":\"%s\"},",
              PERFBENCH_BUILD_TYPE, JsonEscape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_LTO,
              PERFBENCH_COMPILER);
  std::printf("\"failures\":[");
  for (size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", JsonEscape(failures[i]).c_str());
  }
  std::printf("],\"experiments\":[");
  for (size_t i = 0; i < experiments.size(); ++i) {
    std::printf("%s{\"id\":%zu,\"label\":\"%s\",\"twin\":%s,\"counts\":%s}", i ? "," : "", i,
                experiments[i].label.c_str(), experiments[i].twin ? "true" : "false",
                counts[i].empty() ? "{}" : counts[i].c_str());
  }
  std::printf("]}\n");
  return 0;
}
