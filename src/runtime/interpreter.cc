#include "src/runtime/interpreter.h"

#include <algorithm>
#include <cassert>

namespace tmh {
namespace {

// First tag of nest `nest_idx`'s adaptive range. A nest compiles to at most a
// prefetch and a release directive per ref, so the static tags lie below
// 2 * (all refs) and each nest's range is as wide as twice its ref count:
// the ranges are disjoint from the static tags and from each other, and the
// run-time layer's tag-indexed state stays dense.
int32_t AdaptiveTagBase(const CompiledProgram& prog, size_t nest_idx) {
  size_t refs_total = 0;
  size_t refs_before = 0;
  for (size_t i = 0; i < prog.nests.size(); ++i) {
    const size_t refs = prog.nests[i].nest.refs.size();
    refs_total += refs;
    refs_before += i < nest_idx ? refs : 0;
  }
  return static_cast<int32_t>(2 * (refs_total + refs_before));
}

}  // namespace

RefCursor::RefCursor(const SourceProgram& source, const ArrayLayout& layout,
                     const LoopNest& nest, const ArrayRef& ref)
    : expr_(ref.runtime_affine != nullptr ? ref.runtime_affine.get() : &ref.affine),
      depth_(nest.depth()),
      step_(nest.loops.back().step),
      element_size_(source.arrays[static_cast<size_t>(ref.array)].element_size),
      base_page_(layout.base_page(ref.array)),
      page_size_(layout.page_size()) {
  const size_t inner = static_cast<size_t>(depth_ - 1);
  coeff_ = inner < expr_->coeffs.size() ? expr_->coeffs[inner] : 0;
  run_delta_ = (expr_->coeffs.empty() ? 0 : expr_->coeffs.back()) * step_ * element_size_;
  last_element_ =
      std::max<int64_t>(source.arrays[static_cast<size_t>(ref.array)].num_elements - 1, 0);
  if (ref.IsIndirect()) {
    index_values_ = source.arrays[static_cast<size_t>(ref.index_array)].index_values.get();
    assert(index_values_ != nullptr && !index_values_->empty());
  }
}

void RefCursor::Rebase(const std::vector<int64_t>& ivs) {
  int64_t value = expr_->constant;
  const size_t outer = std::min(expr_->coeffs.size(), static_cast<size_t>(depth_ - 1));
  for (size_t d = 0; d < outer; ++d) {
    value += expr_->coeffs[d] * ivs[d];
  }
  row_base_ = value;
  fresh_until_ = 0;
}

int64_t RefCursor::Element(int64_t iv) const {
  int64_t value = row_base_ + coeff_ * iv;
  if (index_values_ != nullptr) {
    const int64_t pos =
        std::clamp<int64_t>(value, 0, static_cast<int64_t>(index_values_->size()) - 1);
    value = (*index_values_)[static_cast<size_t>(pos)];
  }
  return std::clamp<int64_t>(value, 0, last_element_);
}

void RefCursor::Refresh(int64_t trip, int64_t iv) {
  const int64_t element = Element(iv);
  const int64_t byte = element * element_size_;
  page_ = base_page_ + PageOfByte(byte);
  fresh_until_ = trip + 1;
  run_end_ = kNever;
  if (index_values_ != nullptr) {
    return;  // nests with indirect refs run one iteration per step
  }
  if (run_delta_ == 0) {
    if (coeff_ == 0) {
      fresh_until_ = kNever;  // invariant in this inner pass
    }
    return;
  }
  // Iterations until the byte offset leaves its page, at run_delta_ bytes per
  // iteration.
  const int64_t offset = byte - (page_ - base_page_) * page_size_;
  const int64_t until = run_delta_ > 0 ? (page_size_ - offset + run_delta_ - 1) / run_delta_
                                       : offset / -run_delta_ + 1;
  run_end_ = trip + std::max<int64_t>(until, 1);
  // Closed form: if the element really moves by run_delta_ bytes per trip and
  // stays unclamped through trip run_end_ - 1, the offset at any earlier trip
  // t is offset + (t - trip) * run_delta_ — same page, and the formula above
  // gives exactly run_end_ - t. Otherwise (clamped at the array's extent, or
  // coeffs not one per loop) recompute every trip.
  const int64_t unclamped = row_base_ + coeff_ * iv;
  const int64_t last = unclamped + coeff_ * step_ * (run_end_ - trip - 1);
  if (coeff_ * step_ * element_size_ == run_delta_ && unclamped == element && last >= 0 &&
      last <= last_element_) {
    fresh_until_ = run_end_;
  }
}

Interpreter::Interpreter(const CompiledProgram* program, AddressSpace* as, RuntimeLayer* runtime)
    : prog_(program), as_(as), runtime_(runtime) {
  assert(prog_ != nullptr && as_ != nullptr);
  text_base_ = prog_->layout.total_pages();  // text/stack live above the arrays
}

Op Interpreter::Next(Kernel& kernel) {
  while (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
    if (done_) {
      return Op::Exit();
    }
    Step(kernel);
  }
  return pending_[pending_head_++];
}

void Interpreter::Step(Kernel& kernel) {
  if (!in_nest_) {
    if (nest_idx_ >= prog_->nests.size()) {
      nest_idx_ = 0;
      ++repeat_done_;
      ++stats_.repeats_done;
      if (repeat_done_ >= prog_->source.repeat) {
        done_ = true;
      }
      return;
    }
    EnterNest();
    return;
  }
  RunIterations(kernel);
}

void Interpreter::EnterNest() {
  active_nest_ = &prog_->nests[nest_idx_];
  // Adaptive recompilation (the paper's future-work fix for unknown bounds):
  // on nest entry the actual trip counts are known, so re-run the analysis
  // and hint insertion against them. Hints then strip-mine to page crossings
  // and the locality analysis sees real volumes. Tags come from a per-nest
  // range disjoint from the static ones so the run-time layer's filters keep
  // working across entries.
  if (prog_->options.adaptive_recompilation && !active_nest_->analysis.bounds_known &&
      runtime_ != nullptr) {
    LoopNest specialized = active_nest_->nest;
    for (Loop& loop : specialized.loops) {
      loop.upper_known = true;
    }
    int32_t tag = AdaptiveTagBase(*prog_, nest_idx_);
    adaptive_nest_ = CompileNest(prog_->source, specialized, prog_->layout, prog_->target,
                                 prog_->options, &tag, nullptr);
    active_nest_ = &adaptive_nest_;
    ++stats_.adaptive_recompiles;
  }
  const CompiledNest& compiled = *active_nest_;
  const LoopNest& nest = compiled.nest;
  // Zero-trip nests are skipped outright.
  for (const Loop& loop : nest.loops) {
    if (loop.upper <= loop.lower) {
      ++nest_idx_;
      return;
    }
  }
  ivs_.clear();
  for (const Loop& loop : nest.loops) {
    ivs_.push_back(loop.lower);
  }
  const Loop& inner = nest.loops.back();
  trips_ = (inner.upper - inner.lower + inner.step - 1) / inner.step;
  trip_ = 0;
  cursors_.clear();
  nest_has_indirect_ = false;
  for (const ArrayRef& ref : nest.refs) {
    cursors_.emplace_back(prog_->source, prog_->layout, nest, ref);
    cursors_.back().Rebase(ivs_);
    nest_has_indirect_ = nest_has_indirect_ || ref.IsIndirect();
  }
  last_page_.assign(nest.refs.size(), -1);
  crossing_dirs_.clear();
  crossing_begin_.clear();
  every_dirs_.clear();
  for (size_t r = 0; r < nest.refs.size(); ++r) {
    crossing_begin_.push_back(crossing_dirs_.size());
    for (const HintDirective& d : compiled.directives) {
      if (static_cast<size_t>(d.ref) == r && !d.every_iteration) {
        crossing_dirs_.push_back(&d);
      }
    }
  }
  crossing_begin_.push_back(crossing_dirs_.size());
  for (const HintDirective& d : compiled.directives) {
    if (d.every_iteration) {
      every_dirs_.push_back(&d);
    }
  }
  in_nest_ = true;
  ++stats_.nests_entered;

  // Prologue: software-pipelining startup prefetches.
  if (runtime_ != nullptr) {
    SimDuration cost = 0;
    for (const HintDirective& d : compiled.directives) {
      if (d.kind != HintDirective::Kind::kPrefetch) {
        continue;
      }
      const auto r = static_cast<size_t>(d.ref);
      const ArrayRef& ref = nest.refs[r];
      if (ref.IsIndirect()) {
        const int64_t ahead = std::min<int64_t>(d.distance, trips_ - 1);
        for (int64_t k = 0; k <= ahead; ++k) {
          cost += runtime_->OnPrefetchHint(PageOfRef(r, k));
        }
      } else {
        const int64_t first = PageOfRef(r, 0);
        const int64_t array_base = prog_->layout.base_page(ref.array);
        const int64_t array_end = array_base + prog_->layout.PageCount(ref.array) - 1;
        for (int64_t k = 0; k <= d.distance; ++k) {
          const int64_t page = std::clamp(first + k * d.direction, array_base, array_end);
          cost += runtime_->OnPrefetchHint(page);
        }
      }
    }
    if (cost > 0) {
      pending_.push_back(Op::Compute(cost));
    }
  }
}

int64_t Interpreter::PageOfRef(size_t r, int64_t inner_shift) const {
  return cursors_[r].PageAt(ivs_.back() + inner_shift * active_nest_->nest.loops.back().step);
}

// Every cursor must be fresh at trip_.
int64_t Interpreter::RunLength() const {
  if (nest_has_indirect_) {
    return 1;  // indirect targets change every iteration
  }
  int64_t run = trips_ - trip_;
  for (const RefCursor& cursor : cursors_) {
    run = std::min(run, cursor.run_end() - trip_);
  }
  return std::max<int64_t>(run, 1);
}

void Interpreter::FireDirectivesForCrossing(size_t ref_idx, int64_t page,
                                            std::vector<Op>& sysops, SimDuration* cost) {
  const ArrayRef& ref = active_nest_->nest.refs[ref_idx];
  for (size_t i = crossing_begin_[ref_idx]; i < crossing_begin_[ref_idx + 1]; ++i) {
    const HintDirective& d = *crossing_dirs_[i];
    if (d.kind == HintDirective::Kind::kPrefetch) {
      const int64_t array_base = prog_->layout.base_page(ref.array);
      const int64_t array_end = array_base + prog_->layout.PageCount(ref.array) - 1;
      const int64_t target = std::clamp(page + d.distance * d.direction, array_base, array_end);
      *cost += runtime_->OnPrefetchHint(target);
    } else {
      *cost += runtime_->OnReleaseHint(page, d.priority, d.tag, sysops);
    }
  }
}

void Interpreter::FireEveryIterationDirectives(int64_t run, std::vector<Op>& sysops,
                                               SimDuration* cost) {
  const LoopNest& nest = active_nest_->nest;
  for (const HintDirective* d : every_dirs_) {
    const auto r = static_cast<size_t>(d->ref);
    const ArrayRef& ref = nest.refs[r];
    const int64_t page = cursors_[r].page();
    if (d->kind == HintDirective::Kind::kPrefetch) {
      // The generated code computes the real future address each iteration;
      // within a one-page run the target is the same, so batch the filtering.
      const int64_t array_base = prog_->layout.base_page(ref.array);
      const int64_t target =
          ref.IsIndirect()
              ? PageOfRef(r, d->distance)
              : std::clamp(page + d->distance * d->direction, array_base,
                           array_base + prog_->layout.PageCount(ref.array) - 1);
      *cost += runtime_->OnPrefetchHintBatch(target, run);
    } else {
      *cost += runtime_->OnReleaseHintBatch(page, d->priority, d->tag, run, sysops);
    }
  }
}

bool Interpreter::PlanStep(std::vector<Op>& sysops) {
  const LoopNest& nest = active_nest_->nest;
  SimDuration hint_cost = 0;

  // The process's text and stack are referenced continuously; rotating the
  // touch keeps the whole small set live without per-iteration overhead.
  if (prog_->source.text_pages > 0 && (batch_counter_++ & 15) == 0) {
    run_touches_.push_back(
        RunTouch{text_base_ + (text_cursor_++ % prog_->source.text_pages), false});
  }

  // Touches: one per reference whose page changed. A fresh cursor's page is
  // the one it had at its last refresh, so only stale cursors can cross.
  for (size_t r = 0; r < cursors_.size(); ++r) {
    RefCursor& cursor = cursors_[r];
    if (!cursor.Stale(trip_)) {
      continue;
    }
    cursor.Refresh(trip_, ivs_.back());
    const int64_t page = cursor.page();
    if (page == last_page_[r]) {
      continue;
    }
    last_page_[r] = page;
    run_touches_.push_back(RunTouch{page, nest.refs[r].is_write});
    ++stats_.page_touches;
    if (runtime_ != nullptr) {
      FireDirectivesForCrossing(r, page, sysops, &hint_cost);
    }
  }
  const int64_t run = RunLength();
  if (runtime_ != nullptr) {
    FireEveryIterationDirectives(run, sysops, &hint_cost);
  }
  run_steps_.push_back(RunStep{static_cast<int64_t>(run_touches_.size()),
                               run * nest.compute_per_iteration + hint_cost});
  stats_.iterations += run;

  // Advance the odometer by `run` innermost iterations.
  trip_ += run;
  ivs_.back() += run * nest.loops.back().step;
  if (trip_ < trips_) {
    return true;
  }
  for (size_t d = nest.loops.size(); d-- > 1;) {
    if (ivs_[d] < nest.loops[d].upper) {
      break;
    }
    ivs_[d] = nest.loops[d].lower;
    ivs_[d - 1] += nest.loops[d - 1].step;
  }
  if (ivs_[0] >= nest.loops[0].upper) {
    return false;
  }
  trip_ = 0;
  for (RefCursor& cursor : cursors_) {
    cursor.Rebase(ivs_);
  }
  return true;
}

void Interpreter::RunIterations(Kernel& kernel) {
  // Plan steps until the span must end. Hint directives fire at plan time in
  // exactly the per-step order, which matches the unfused stream only if
  // every step before the last runs in this same slice without blocking:
  // sim time is frozen within a slice, so eager firing then lands at the
  // same instant in the same order, but a fault would let daemon,
  // prefetch-completion, or other-thread events run before the later hints
  // fire, and those hints read the residency bitmap. So another step joins
  // the span only if, after the step just planned,
  //   * the planned charges so far (compute + hints + touch_hit per touch,
  //     exactly what the unfused slice loop accumulates) leave the slice
  //     live, mirroring RunSlice's `elapsed >= budget` check;
  //   * with a run-time layer, every page that step touches is
  //     resident-and-valid now (a constant-cost, state-free touch);
  //   * that step produced no sysop (a kRelease must execute before any later
  //     hint evaluates), and the nest goes on.
  // The final step carries no such burden — nothing fires after it — so it
  // may fault; the kernel replays it per page. The uninstrumented program
  // fires nothing at plan time and so plans straight through pages that are
  // not resident yet: the kernel's replay reproduces faults, blocks, and
  // slice boundaries op for op.
  const int64_t max_steps = fuse_touch_runs_ ? TouchRunDesc::kMaxSteps : 1;
  const SimDuration budget_left = kernel.SliceBudgetRemaining();
  const SimDuration touch_hit = kernel.config().costs.touch_hit;
  const PageTable& pt = as_->page_table();
  std::vector<Op>& sysops = sysops_scratch_;
  sysops.clear();
  run_touches_.clear();
  run_steps_.clear();
  SimDuration planned = 0;
  bool nest_goes_on = true;
  while (true) {
    const size_t first_touch = run_touches_.size();
    nest_goes_on = PlanStep(sysops);
    const RunStep& step = run_steps_.back();
    planned += step.cost + (step.touch_end - static_cast<int64_t>(first_touch)) * touch_hit;
    if (!nest_goes_on || !sysops.empty() ||
        static_cast<int64_t>(run_steps_.size()) >= max_steps || planned >= budget_left) {
      break;
    }
    if (runtime_ != nullptr &&
        !std::all_of(run_touches_.begin() + static_cast<std::ptrdiff_t>(first_touch),
                     run_touches_.end(),
                     [&pt](const RunTouch& touch) { return pt.Touchable(touch.page); })) {
      break;
    }
  }

  if (run_steps_.size() == 1) {
    for (const RunTouch& touch : run_touches_) {
      Op op = Op::Touch(touch.page, touch.is_write, 0);
      op.as = as_;
      pending_.push_back(op);
    }
    pending_.push_back(Op::Compute(run_steps_[0].cost));
  } else {
    run_desc_ = TouchRunDesc{.touches = run_touches_.data(),
                             .steps = run_steps_.data(),
                             .num_steps = static_cast<int64_t>(run_steps_.size())};
    Op op = Op::TouchRun(&run_desc_);
    op.as = as_;
    pending_.push_back(op);
  }
  for (Op& op : sysops) {
    pending_.push_back(op);
  }
  if (!nest_goes_on) {
    ExitNest();
  }
}

void Interpreter::ExitNest() {
  const CompiledNest& compiled = *active_nest_;
  if (runtime_ != nullptr) {
    // Epilogue: flush the one-behind tag filter for this nest's releases.
    SimDuration cost = 0;
    std::vector<Op>& sysops = sysops_scratch_;
    sysops.clear();
    for (const HintDirective& d : compiled.directives) {
      if (d.kind == HintDirective::Kind::kRelease) {
        cost += runtime_->FlushTag(d.tag, sysops);
      }
    }
    if (cost > 0) {
      pending_.push_back(Op::Compute(cost));
    }
    for (Op& op : sysops) {
      pending_.push_back(op);
    }
  }
  in_nest_ = false;
  ++nest_idx_;
}

}  // namespace tmh
