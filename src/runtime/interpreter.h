// Executes a CompiledProgram as a stream of kernel Ops — the stand-in for the
// specialized executable the compiler generates (Figure 4).
//
// The interpreter walks the loop nests at page granularity. One *step* runs
// the innermost loop for as many iterations as every reference stays within
// its page (one iteration in nests with indirect references): it touches each
// reference whose page changed (plus, every 16th step, one text/stack page),
// burns the step's compute time, and invokes the run-time layer at the
// compiler's hint sites. Consecutive steps are fused into one kTouchRun op
// (see TouchRunDesc); a lone step goes out as its kTouch ops plus one kCompute.
// Loop splitting appears as:
//   * prologue  — on nest entry the first `distance` pages of each prefetched
//     reference are requested (software-pipelining startup);
//   * steady state — hints fire at page crossings (or every iteration for
//     unknown-bound/indirect references, where the run-time layer filters);
//   * epilogue  — the run-time layer's one-behind tag filter is flushed.
//
// With a null RuntimeLayer the interpreter is the original program (version O
// in the paper's graphs): it touches the same pages and burns the same user
// time but issues no hints.

#ifndef TMH_SRC_RUNTIME_INTERPRETER_H_
#define TMH_SRC_RUNTIME_INTERPRETER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/compiler/compile.h"
#include "src/os/kernel.h"
#include "src/os/thread.h"
#include "src/runtime/runtime_layer.h"
#include "src/sim/counters.h"

namespace tmh {

#define TMH_INTERPRETER_STATS(X) \
  X(iterations)           /* innermost iterations executed */           \
  X(page_touches)         /* array page touches (page crossings) */     \
  X(nests_entered)                                                      \
  X(repeats_done)                                                       \
  X(adaptive_recompiles)  /* nests re-specialized with actual bounds */
struct InterpreterStats {
  TMH_INTERPRETER_STATS(TMH_COUNTER_MEMBER)
};
TMH_COUNTER_TABLE(InterpreterStats, TMH_INTERPRETER_STATS)

// Strength-reduced address of one array reference within one pass of the
// innermost loop. The element index is `row_base + coeff * iv`: the outer
// loops' part is folded into `row_base` on nest entry and after every odometer
// cascade (Rebase), so evaluating it costs no AffineExpr walk. Indirect
// references read the result through their index array; every result is
// clamped to the array's extent.
//
// Between page crossings an affine reference needs no arithmetic at all:
// Refresh() computes its page and the trip at which the interpreter's run
// length rule next cuts a run for it (run_end), and — while the element stays
// inside the array and moves by exactly the stride that rule assumes — every
// trip before that one keeps the same page and a run bound of
// run_end - trip, so the cursor stays fresh until then (Stale).
class RefCursor {
 public:
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  RefCursor(const SourceProgram& source, const ArrayLayout& layout, const LoopNest& nest,
            const ArrayRef& ref);

  // Re-derives the outer loops' part from `ivs` and marks the cursor stale.
  void Rebase(const std::vector<int64_t>& ivs);
  // Element index at innermost induction value `iv`.
  [[nodiscard]] int64_t Element(int64_t iv) const;
  [[nodiscard]] int64_t PageAt(int64_t iv) const {
    return base_page_ + PageOfByte(Element(iv) * element_size_);
  }

  // True when page() and run_end() no longer hold at inner trip `trip`.
  [[nodiscard]] bool Stale(int64_t trip) const { return trip >= fresh_until_; }
  // Recomputes page() and run_end() at inner trip `trip` (induction value `iv`).
  void Refresh(int64_t trip, int64_t iv);
  [[nodiscard]] int64_t page() const { return page_; }
  // First trip at which the run-length rule stops a run for this reference
  // (kNever when it imposes no bound).
  [[nodiscard]] int64_t run_end() const { return run_end_; }

 private:
  // Page index of byte offset `byte` (>= 0) within the array.
  [[nodiscard]] int64_t PageOfByte(int64_t byte) const { return byte / page_size_; }

  const AffineExpr* expr_;
  const std::vector<int64_t>* index_values_ = nullptr;  // indirect refs only
  int64_t depth_;
  int64_t step_;            // innermost loop step
  int64_t coeff_;           // innermost coefficient as AffineExpr::Eval applies it
  // Bytes per trip the run-length rule assumes: the expression's last
  // coefficient, which is the innermost one unless coeffs is shorter or
  // longer than the nest.
  int64_t run_delta_;
  int64_t last_element_;
  int64_t element_size_;
  int64_t base_page_;
  int64_t page_size_;
  int64_t row_base_ = 0;
  int64_t page_ = -1;
  int64_t run_end_ = kNever;
  int64_t fresh_until_ = 0;
};

class Interpreter : public Program {
 public:
  // `runtime` may be null (original, un-instrumented program). `program` and
  // `runtime` must outlive the interpreter.
  Interpreter(const CompiledProgram* program, AddressSpace* as, RuntimeLayer* runtime);

  Op Next(Kernel& kernel) override;

  [[nodiscard]] const InterpreterStats& stats() const { return stats_; }

  // Run fusion: batch consecutive steps into one kTouchRun op (checked by the
  // kernel) instead of per-page kTouch ops. On by default; differential tests
  // force it off to compare the fused and unfused streams bit for bit.
  void set_fuse_touch_runs(bool v) { fuse_touch_runs_ = v; }

 private:
  // Virtual page of ref `r` at the current iteration vector, with the
  // innermost loop shifted by `inner_shift` iterations.
  [[nodiscard]] int64_t PageOfRef(size_t r, int64_t inner_shift) const;

  void EnterNest();
  void Step(Kernel& kernel);  // advances program state, pushes pending ops
  // Plans one span of steps and emits it: a lone step as per-page kTouch ops
  // plus one kCompute, two or more as one kTouchRun op.
  void RunIterations(Kernel& kernel);
  // Plans one step: records its touches and cost, fires its hints, advances
  // the odometer. Returns false once the nest's last step has been planned.
  bool PlanStep(std::vector<Op>& sysops);
  void ExitNest();
  [[nodiscard]] int64_t RunLength() const;
  void FireDirectivesForCrossing(size_t ref_idx, int64_t page, std::vector<Op>& sysops,
                                 SimDuration* cost);
  void FireEveryIterationDirectives(int64_t run, std::vector<Op>& sysops, SimDuration* cost);

  const CompiledProgram* prog_;
  AddressSpace* as_;
  RuntimeLayer* runtime_;  // null => version O

  int64_t repeat_done_ = 0;
  size_t nest_idx_ = 0;
  // The nest currently executing: the statically compiled one, or — with
  // adaptive recompilation — a variant re-specialized to the actual bounds.
  const CompiledNest* active_nest_ = nullptr;
  CompiledNest adaptive_nest_;
  // Text/stack touch rotation (see SourceProgram::text_pages).
  int64_t text_base_ = 0;
  int64_t text_cursor_ = 0;
  uint64_t batch_counter_ = 0;
  bool in_nest_ = false;
  bool done_ = false;
  std::vector<int64_t> ivs_;
  int64_t trip_ = 0;   // innermost iterations done in the current inner pass
  int64_t trips_ = 0;  // innermost iterations per inner pass
  std::vector<RefCursor> cursors_;  // per ref
  std::vector<int64_t> last_page_;  // per ref; -1 = none
  bool nest_has_indirect_ = false;
  // Hint directives of the active nest: the crossing directives of ref r are
  // crossing_dirs_[crossing_begin_[r] .. crossing_begin_[r + 1]), in compiled
  // order; every-iteration directives are kept apart, also in compiled order.
  std::vector<const HintDirective*> crossing_dirs_;
  std::vector<size_t> crossing_begin_;
  std::vector<const HintDirective*> every_dirs_;
  // Emitted-op FIFO: a vector drained through a cursor (and rewound when it
  // empties) instead of a deque, so the steady state allocates nothing.
  std::vector<Op> pending_;
  size_t pending_head_ = 0;
  // Per-call scratch, hoisted out of the hot paths so each RunIterations()
  // reuses capacity instead of reallocating.
  std::vector<Op> sysops_scratch_;

  // The span being planned. The descriptor and both arrays back the emitted
  // kTouchRun op by pointer; they are stable until the op completes because
  // Next() is only called after full completion, and the next span
  // overwrites them only then.
  bool fuse_touch_runs_ = true;
  TouchRunDesc run_desc_;
  std::vector<RunTouch> run_touches_;
  std::vector<RunStep> run_steps_;

  InterpreterStats stats_;
};

}  // namespace tmh

#endif  // TMH_SRC_RUNTIME_INTERPRETER_H_
