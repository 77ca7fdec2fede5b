#include "src/check/invariants.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "src/os/kernel.h"
#include "src/os/releaser.h"

namespace tmh {
namespace {

// True when a page-in is in flight for (as, vpage) on its linked frame: the
// frame carries the page's identity, is mid-I/O, and does not yet hold valid
// contents (a writeback in flight has contents_valid == true).
inline bool PageInInFlight(const FrameTable& frames, FrameId f, AsId as, VPage vpage) {
  return frames.IsPage(f, as, vpage) && frames.io_busy(f) && !frames.mapped(f) &&
         !frames.contents_valid(f);
}

// The residency-bitmap bit I-BM requires for a materialized page: set iff the
// page holds an allocated frame — resident and not release-pending, or a
// page-in in flight on its linked frame.
inline bool BitmapBitExpected(const FrameTable& frames, const Pte& pte, AsId as, VPage vpage) {
  if (pte.resident) {
    return pte.invalid_reason != InvalidReason::kReleasePending;
  }
  return pte.frame != kNoFrame && PageInInFlight(frames, pte.frame, as, vpage);
}

}  // namespace

InvariantChecker::InvariantChecker(Kernel& kernel, CheckOptions options)
    : kernel_(&kernel), options_(options) {
  if (options_.tail > 0) {
    tail_.resize(options_.tail);
  }
  if (options_.full_check_period == 0) {
    options_.full_check_period = 1;
  }
  oracle_.SeedFromKernel(kernel);
  kernel.AttachChecker(this);
}

InvariantChecker::~InvariantChecker() { kernel_->AttachChecker(nullptr); }

void InvariantChecker::OnVmEvent(const VmHookEvent& event) {
  if (!tail_.empty()) {
    tail_[tail_next_] = event;
    tail_next_ = (tail_next_ + 1) % tail_.size();
    tail_wrapped_ = tail_wrapped_ || tail_next_ == 0;
  }
  ++events_seen_;
  ++mutations_since_check_;
  if (!failure_.empty() || !options_.with_oracle) {
    return;
  }
  oracle_.Apply(event);
  if (!oracle_.ok()) {
    Fail(event.when, "oracle", oracle_.failure());
  }
}

void InvariantChecker::OnQuiescent(Kernel& kernel) {
  if (!failure_.empty() || mutations_since_check_ < options_.full_check_period) {
    return;
  }
  mutations_since_check_ = 0;
  ++checks_run_;
  MaybeInject(kernel);
  Validate(kernel);
}

bool InvariantChecker::CheckNow(Kernel& kernel) {
  if (failure_.empty()) {
    mutations_since_check_ = 0;
    ++checks_run_;
    Validate(kernel);
  }
  return ok();
}

void InvariantChecker::MaybeInject(Kernel& kernel) {
  if (injected_ || options_.inject_bitmap_flip_after == 0 ||
      checks_run_ < options_.inject_bitmap_flip_after) {
    return;
  }
  // Flip the bit of the first materialized page of the first PagingDirected
  // address space. I-BM fully determines the bit for materialized pages, so
  // either flip direction is a detectable corruption.
  for (const auto& as : kernel.address_spaces()) {
    if (!as->HasPagingDirected()) {
      continue;
    }
    for (VPage v = 0; v < as->num_pages(); ++v) {
      if (!as->page_table().at(v).ever_materialized) {
        continue;
      }
      if (as->bitmap()->Test(v)) {
        as->bitmap()->Clear(v);
      } else {
        as->bitmap()->Set(v);
      }
      injected_ = true;
      return;
    }
  }
}

void InvariantChecker::Fail(SimTime now, const std::string& invariant,
                            const std::string& detail) {
  if (!failure_.empty()) {
    return;
  }
  std::ostringstream os;
  os << "invariant " << invariant << " violated at t=" << now << "ns: " << detail
     << "\n  after " << events_seen_ << " VM events, " << checks_run_
     << " full checks" << TailDump();
  failure_ = os.str();
}

std::string InvariantChecker::TailDump() const {
  if (tail_.empty() || (!tail_wrapped_ && tail_next_ == 0)) {
    return "";
  }
  std::ostringstream os;
  os << "\n  recent VM events (oldest first):";
  const size_t count = tail_wrapped_ ? tail_.size() : tail_next_;
  const size_t start = tail_wrapped_ ? tail_next_ : 0;
  for (size_t i = 0; i < count; ++i) {
    const VmHookEvent& e = tail_[(start + i) % tail_.size()];
    os << "\n    t=" << e.when << " " << VmHookOpName(e.op) << " as=" << e.as
       << " vpage=" << e.vpage << " frame=" << e.frame << " a=" << e.a << " b=" << e.b;
  }
  return os.str();
}

bool InvariantChecker::ReleaseQueued(Kernel& kernel, const AddressSpace& as, VPage v) {
  if (queued_built_pass_ != pass_) {
    // Mark every queued page once per pass: the kernel's release queue plus
    // the releaser's gathered-but-unresolved batch. A page is queued in this
    // pass iff its mark equals pass_, so no mark is ever cleared.
    queued_built_pass_ = pass_;
    const auto mark = [this](const AddressSpace& owner, VPage page) {
      const auto id = static_cast<size_t>(owner.id());
      if (id >= queued_.size()) {
        queued_.resize(id + 1);
      }
      std::vector<uint64_t>& pages = queued_[id];
      if (pages.size() < static_cast<size_t>(owner.num_pages())) {
        pages.resize(static_cast<size_t>(owner.num_pages()), 0);
      }
      if (page >= 0 && page < owner.num_pages()) {
        pages[static_cast<size_t>(page)] = pass_;
      }
    };
    for (const Kernel::ReleaseWorkItem& item : kernel.release_work()) {
      mark(*item.as, item.vpage);
    }
    if (kernel.has_daemons()) {
      if (const AddressSpace* batch_as = kernel.releaser().batch_as()) {
        for (const Releaser::BatchEntry& entry : kernel.releaser().UnresolvedBatch()) {
          mark(*batch_as, entry.vpage);
        }
      }
    }
  }
  const auto id = static_cast<size_t>(as.id());
  return id < queued_.size() && static_cast<size_t>(v) < queued_[id].size() &&
         queued_[id][static_cast<size_t>(v)] == pass_;
}

bool InvariantChecker::CheckPage(Kernel& kernel, const AddressSpace& as, VPage v) {
  const SimTime now = kernel.Now();
  const FrameTable& frames = kernel.frames();
  const int64_t num_frames = frames.size();
  const Pte& pte = as.page_table().at(v);
  if (pte.resident) {
    if (pte.frame < 0 || pte.frame >= num_frames) {
      Fail(now, "I-PT",
           "resident page as=" + std::to_string(as.id()) + " vpage=" +
               std::to_string(v) + " has invalid frame " + std::to_string(pte.frame));
      return false;
    }
    if (!frames.mapped(pte.frame) || !frames.IsPage(pte.frame, as.id(), v)) {
      Fail(now, "I-PT",
           "resident page as=" + std::to_string(as.id()) + " vpage=" +
               std::to_string(v) + " frame=" + std::to_string(pte.frame) +
               " does not carry the page's identity");
      return false;
    }
    if (!pte.ever_materialized) {
      Fail(now, "I-PT",
           "resident page as=" + std::to_string(as.id()) + " vpage=" +
               std::to_string(v) + " was never materialized");
      return false;
    }
    if (pte.valid && pte.invalid_reason != InvalidReason::kNone) {
      Fail(now, "I-PT",
           "valid page as=" + std::to_string(as.id()) + " vpage=" +
               std::to_string(v) + " carries an invalid_reason");
      return false;
    }
  } else {
    if (pte.valid) {
      Fail(now, "I-PT",
           "non-resident page as=" + std::to_string(as.id()) + " vpage=" +
               std::to_string(v) + " is marked valid");
      return false;
    }
    if (pte.frame != kNoFrame) {
      // I-RL: a dangling link must still name a frame with this identity
      // (AllocateFrame breaks the link before reassigning the frame).
      if (pte.frame < 0 || pte.frame >= num_frames) {
        Fail(now, "I-RL",
             "rescue link as=" + std::to_string(as.id()) + " vpage=" +
                 std::to_string(v) + " names invalid frame " +
                 std::to_string(pte.frame));
        return false;
      }
      if (!frames.IsPage(pte.frame, as.id(), v)) {
        Fail(now, "I-RL",
             "rescue link as=" + std::to_string(as.id()) + " vpage=" +
                 std::to_string(v) + " frame=" + std::to_string(pte.frame) +
                 " points at a frame now owned by as=" +
                 std::to_string(frames.owner(pte.frame)) +
                 " vpage=" + std::to_string(frames.vpage(pte.frame)));
        return false;
      }
    }
  }
  if (pte.tier != 0) {
    // I-TIER (page side): a tiered page is never resident, keeps no DRAM
    // rescue link, and its tier frame must carry the page's identity.
    const auto& planes = kernel.tier_planes();
    if (static_cast<size_t>(pte.tier) > planes.size()) {
      Fail(now, "I-TIER",
           "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
               " names slow tier " + std::to_string(pte.tier) +
               " but the machine has " + std::to_string(planes.size()));
      return false;
    }
    if (pte.resident) {
      Fail(now, "I-TIER",
           "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
               " is resident while demoted to tier " + std::to_string(pte.tier));
      return false;
    }
    if (pte.frame != kNoFrame) {
      Fail(now, "I-TIER",
           "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
               " keeps DRAM rescue link " + std::to_string(pte.frame) +
               " while demoted");
      return false;
    }
    const Kernel::TierPlane& plane = planes[static_cast<size_t>(pte.tier - 1)];
    if (pte.tier_frame < 0 || pte.tier_frame >= plane.frames) {
      Fail(now, "I-TIER",
           "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
               " names out-of-range tier frame " + std::to_string(pte.tier_frame));
      return false;
    }
    const size_t ti = static_cast<size_t>(pte.tier_frame);
    if (plane.owner[ti] != as.id() || plane.vpage[ti] != v) {
      Fail(now, "I-TIER",
           "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
               " tier frame " + std::to_string(pte.tier_frame) +
               " does not carry the page's identity");
      return false;
    }
  }
  if (pte.invalid_reason == InvalidReason::kReleasePending) {
    if (!pte.resident) {
      Fail(now, "I-RQ",
           "release-pending page as=" + std::to_string(as.id()) + " vpage=" +
               std::to_string(v) + " is not resident");
      return false;
    }
    if (!ReleaseQueued(kernel, as, v)) {
      Fail(now, "I-RQ",
           "release-pending page as=" + std::to_string(as.id()) + " vpage=" +
               std::to_string(v) +
               " is neither queued nor in the releaser's unresolved batch");
      return false;
    }
  }
  return true;
}

void InvariantChecker::Validate(Kernel& kernel) {
  ++pass_;
  const bool with_oracle = options_.with_oracle;
  const SimTime now = kernel.Now();
  const FrameTable& frames = kernel.frames();
  const FramePool& free_list = kernel.free_list();
  const int64_t num_frames = frames.size();

  // I-FL: walk the intrusive links of every node's list once into the scratch
  // snapshot (node order) and check its structure, plus per-node range
  // containment — a shard must only ever hold frames from its own contiguous
  // range. The walk stops at an out-of-range id (its links cannot be followed)
  // and after size()+1 frames (a cycle), so corrupt links are reported, not
  // chased.
  free_walk_.clear();
  node_walk_end_.clear();
  const auto walk_limit = static_cast<size_t>(free_list.size()) + 1;
  for (int node = 0; node < free_list.num_nodes(); ++node) {
    free_list.WalkNode(node, [&](FrameId f) {
      if (free_walk_.size() >= walk_limit) {
        return false;
      }
      free_walk_.push_back(f);
      return f >= 0 && f < num_frames;
    });
    node_walk_end_.push_back(free_walk_.size());
  }
  if (static_cast<int64_t>(free_walk_.size()) != free_list.size()) {
    Fail(now, "I-FL",
         "free-list link walk found " + std::to_string(free_walk_.size()) +
             " frames but size() is " + std::to_string(free_list.size()));
    return;
  }
  on_free_.assign(static_cast<size_t>(num_frames), 0);
  for (const FrameId f : free_walk_) {
    if (f < 0 || f >= num_frames) {
      Fail(now, "I-FL", "free list contains out-of-range frame " + std::to_string(f));
      return;
    }
    if (on_free_[static_cast<size_t>(f)] != 0) {
      Fail(now, "I-FL", "free list contains frame " + std::to_string(f) + " twice");
      return;
    }
    on_free_[static_cast<size_t>(f)] = 1;
    const bool mapped = frames.mapped(f);
    const bool io_busy = frames.io_busy(f);
    if (mapped || io_busy || frames.dirty(f)) {
      Fail(now, "I-FL",
           "free frame " + std::to_string(f) + " is " +
               (mapped ? "mapped" : io_busy ? "io-busy" : "dirty"));
      return;
    }
  }
  size_t node_begin = 0;
  for (int node = 0; node < free_list.num_nodes(); ++node) {
    const size_t node_end = node_walk_end_[static_cast<size_t>(node)];
    for (size_t i = node_begin; i < node_end; ++i) {
      const FrameId f = free_walk_[i];
      if (free_list.NodeOf(f) != node) {
        Fail(now, "I-FL",
             "node " + std::to_string(node) + " free list holds frame " +
                 std::to_string(f) + " owned by node " +
                 std::to_string(free_list.NodeOf(f)));
        return;
      }
    }
    const auto walked = static_cast<int64_t>(node_end - node_begin);
    if (walked != free_list.node_size(node)) {
      Fail(now, "I-FL",
           "node " + std::to_string(node) + " link walk found " +
               std::to_string(walked) + " frames but node_size() is " +
               std::to_string(free_list.node_size(node)));
      return;
    }
    node_begin = node_end;
  }

  // I-FT + I-ONE over the frame table. The same walk finds the first frame
  // whose dirty bit differs from the oracle's; that is reported in the
  // oracle section below, keeping the order in which checks fail.
  const auto& address_spaces = kernel.address_spaces();
  FrameId dirty_mismatch = kNoFrame;
  for (FrameId f = 0; f < num_frames; ++f) {
    if (with_oracle && dirty_mismatch == kNoFrame &&
        frames.dirty(f) != oracle_.IsDirty(f)) {
      dirty_mismatch = f;
    }
    if (frames.mapped(f)) {
      const AsId owner = frames.owner(f);
      const VPage vpage = frames.vpage(f);
      if (owner < 0 || static_cast<size_t>(owner) >= address_spaces.size()) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " has invalid owner " +
                 std::to_string(owner));
        return;
      }
      const AddressSpace& as = *address_spaces[static_cast<size_t>(owner)];
      if (vpage < 0 || vpage >= as.num_pages()) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " has out-of-range vpage " +
                 std::to_string(vpage));
        return;
      }
      const Pte& pte = as.page_table().at(vpage);
      if (!pte.resident || pte.frame != f) {
        Fail(now, "I-FT",
             "mapped frame " + std::to_string(f) + " (as=" + std::to_string(owner) +
                 " vpage=" + std::to_string(vpage) + ") not reflected in the PTE");
        return;
      }
      if (frames.io_busy(f)) {
        Fail(now, "I-ONE", "frame " + std::to_string(f) + " is mapped while io-busy");
        return;
      }
    } else if (on_free_[static_cast<size_t>(f)] == 0 && !frames.io_busy(f)) {
      Fail(now, "I-ONE",
           "frame " + std::to_string(f) +
               " is in limbo: not mapped, not free-listed, not io-busy");
      return;
    }
  }

  // I-PT, I-RL, I-TIER (page side), I-RQ and I-BM in one walk over each
  // address space's page table. The walk also finds each address space's
  // first page whose frame differs from the oracle's; I-BM and oracle
  // mismatches are reported at their own places below, keeping the order in
  // which checks fail.
  oracle_page_mismatch_.assign(address_spaces.size(), kNoVPage);
  for (size_t ai = 0; ai < address_spaces.size(); ++ai) {
    const AddressSpace& as = *address_spaces[ai];
    const PageTable& pt = as.page_table();
    // I-BM covers materialized pages only: never-touched pages keep whatever
    // AttachPagingDirected left (bits outside the attached range are set).
    // Assumes attachment precedes materialization, as the runtime layer
    // guarantees.
    const ResidencyBitmap* bm = as.HasPagingDirected() ? as.bitmap() : nullptr;
    VPage bm_mismatch = kNoVPage;
    VPage oracle_mismatch = kNoVPage;
    const std::span<const FrameId> model_frames = oracle_.PageFrames(as.id());
    int64_t resident = 0;
    // The packed planes are rebuilt from the PTEs one 64-page word at a time
    // and compared whole, so stray tail bits are caught too.
    const uint64_t* valid_plane = pt.valid_words();
    const uint64_t* resident_plane = pt.resident_words();
    VPage plane_mismatch = kNoVPage;
    for (VPage base = 0; base < as.num_pages(); base += 64) {
      const VPage word_end = std::min<VPage>(base + 64, as.num_pages());
      uint64_t valid_bits = 0;
      uint64_t resident_bits = 0;
      for (VPage v = base; v < word_end; ++v) {
        const Pte& pte = pt.at(v);
        if (pte.resident) {
          ++resident;
          const uint64_t bit = 1ULL << (v - base);
          resident_bits |= bit;
          if (pte.valid) {
            valid_bits |= bit;
          }
        }
        // A quiet page (non-resident, unlinked, untiered, invalid, not
        // release-pending) gives the page-side checks nothing to test.
        const bool quiet = !pte.resident && !pte.valid && pte.frame == kNoFrame &&
                           pte.tier == 0 &&
                           pte.invalid_reason != InvalidReason::kReleasePending;
        if (!quiet && !CheckPage(kernel, as, v)) {
          return;
        }
        if (bm != nullptr && bm_mismatch == kNoVPage && pte.ever_materialized &&
            bm->Test(v) != BitmapBitExpected(frames, pte, as.id(), v)) {
          bm_mismatch = v;
        }
        const FrameId model =
            static_cast<size_t>(v) < model_frames.size() ? model_frames[static_cast<size_t>(v)]
                                                        : kNoFrame;
        if (with_oracle && oracle_mismatch == kNoVPage &&
            model != (pte.resident ? pte.frame : kNoFrame)) {
          oracle_mismatch = v;
        }
      }
      const size_t w = static_cast<size_t>(base / 64);
      const uint64_t diff = (valid_bits ^ valid_plane[w]) | (resident_bits ^ resident_plane[w]);
      if (plane_mismatch == kNoVPage && diff != 0) {
        plane_mismatch = base + std::countr_zero(diff);
      }
    }
    oracle_page_mismatch_[ai] = oracle_mismatch;
    if (resident != pt.resident_count()) {
      Fail(now, "I-PT",
           "as=" + std::to_string(as.id()) + " resident_count() is " +
               std::to_string(pt.resident_count()) + " but recount found " +
               std::to_string(resident));
      return;
    }
    if (plane_mismatch != kNoVPage) {
      // A bit past the last page has no PTE and must be clear.
      const VPage v = plane_mismatch;
      const bool want_resident = v < as.num_pages() && pt.at(v).resident;
      const bool want_valid = want_resident && pt.at(v).valid;
      const size_t w = static_cast<size_t>(v / 64);
      const uint64_t mask = 1ULL << (v % 64);
      const bool valid_set = (valid_plane[w] & mask) != 0;
      const bool valid_bad = valid_set != want_valid;
      const bool set = valid_bad ? valid_set : (resident_plane[w] & mask) != 0;
      Fail(now, "I-PT",
           "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) + " " +
               (valid_bad ? "valid" : "resident") + " plane bit is " +
               (set ? "set" : "clear") + " but the PTE requires " + (set ? "clear" : "set"));
      return;
    }

    if (bm_mismatch != kNoVPage) {
      const VPage v = bm_mismatch;
      const bool expect_set = BitmapBitExpected(frames, pt.at(v), as.id(), v);
      Fail(now, "I-BM",
           "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
               " bitmap bit is " + (bm->Test(v) ? "set" : "clear") +
               " but the page state requires " + (expect_set ? "set" : "clear"));
      return;
    }
  }

  // I-TIER (plane side): each slow tier partitions its frames between the
  // free pool and occupied identity entries, with every occupied entry
  // mirrored by the owning page's PTE (the page-side pass above checked the
  // other direction).
  for (size_t pi = 0; pi < kernel.tier_planes().size(); ++pi) {
    const Kernel::TierPlane& plane = kernel.tier_planes()[pi];
    const std::string tname = "tier " + std::to_string(pi + 1);
    int64_t occupied = 0;
    for (FrameId tf = 0; tf < plane.frames; ++tf) {
      const size_t i = static_cast<size_t>(tf);
      if (plane.owner[i] == kNoAs) {
        if (!plane.pool->Contains(tf)) {
          Fail(now, "I-TIER",
               tname + " frame " + std::to_string(tf) +
                   " is in limbo: unowned but not on the free pool");
          return;
        }
        continue;
      }
      ++occupied;
      if (plane.pool->Contains(tf)) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) +
                 " is occupied yet on the free pool");
        return;
      }
      if (plane.owner[i] < 0 ||
          static_cast<size_t>(plane.owner[i]) >= address_spaces.size()) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) + " has invalid owner " +
                 std::to_string(plane.owner[i]));
        return;
      }
      const AddressSpace& as = *address_spaces[static_cast<size_t>(plane.owner[i])];
      if (plane.vpage[i] < 0 || plane.vpage[i] >= as.num_pages()) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) + " has out-of-range vpage " +
                 std::to_string(plane.vpage[i]));
        return;
      }
      const Pte& pte = as.page_table().at(plane.vpage[i]);
      if (pte.tier != static_cast<uint8_t>(pi + 1) || pte.tier_frame != tf) {
        Fail(now, "I-TIER",
             tname + " frame " + std::to_string(tf) + " (as=" +
                 std::to_string(plane.owner[i]) + " vpage=" +
                 std::to_string(plane.vpage[i]) + ") not reflected in the PTE");
        return;
      }
    }
    if (occupied + plane.pool->size() != plane.frames) {
      Fail(now, "I-TIER",
           tname + " frames leak: " + std::to_string(occupied) + " occupied + " +
               std::to_string(plane.pool->size()) + " pooled != " +
               std::to_string(plane.frames));
      return;
    }
  }

  // Oracle cross-validation: the reference model must agree exactly,
  // node by node (byte-honest per node).
  if (with_oracle) {
    if (oracle_.num_nodes() != free_list.num_nodes()) {
      Fail(now, "oracle", "node count differs from the reference model");
      return;
    }
    node_begin = 0;
    for (int node = 0; node < free_list.num_nodes(); ++node) {
      const std::deque<FrameId>& ofree = oracle_.free_node(node);
      const size_t node_end = node_walk_end_[static_cast<size_t>(node)];
      const auto kfree = free_walk_.begin() + static_cast<std::ptrdiff_t>(node_begin);
      const bool same = ofree.size() == node_end - node_begin &&
                        std::equal(ofree.begin(), ofree.end(), kfree);
      node_begin = node_end;
      if (!same) {
        Fail(now, "oracle",
             "node " + std::to_string(node) +
                 " free-list order differs from the reference model");
        return;
      }
    }
    for (size_t ai = 0; ai < address_spaces.size(); ++ai) {
      const AddressSpace& as = *address_spaces[ai];
      if (oracle_.ResidentCount(as.id()) != as.page_table().resident_count()) {
        Fail(now, "oracle",
             "as=" + std::to_string(as.id()) + " resident count " +
                 std::to_string(as.page_table().resident_count()) +
                 " differs from the model's " +
                 std::to_string(oracle_.ResidentCount(as.id())));
        return;
      }
      if (const VPage v = oracle_page_mismatch_[ai]; v != kNoVPage) {
        const Pte& pte = as.page_table().at(v);
        Fail(now, "oracle",
             "as=" + std::to_string(as.id()) + " vpage=" + std::to_string(v) +
                 " kernel frame " + std::to_string(pte.resident ? pte.frame : kNoFrame) +
                 " != model frame " + std::to_string(oracle_.FrameOf(as.id(), v)));
        return;
      }
    }
    if (dirty_mismatch != kNoFrame) {
      const bool kernel_dirty = frames.dirty(dirty_mismatch);
      Fail(now, "oracle",
           "frame " + std::to_string(dirty_mismatch) + " dirty bit is " +
               (kernel_dirty ? "set" : "clear") + " but the model has it " +
               (kernel_dirty ? "clear" : "set"));
      return;
    }
    // Tier cross-validation: per-tier free-list order, occupied page sets,
    // and carried dirty bits must match the model exactly.
    if (oracle_.num_slow_tiers() !=
        static_cast<int>(kernel.tier_planes().size())) {
      Fail(now, "oracle", "slow-tier count differs from the reference model");
      return;
    }
    for (size_t pi = 0; pi < kernel.tier_planes().size(); ++pi) {
      const Kernel::TierPlane& plane = kernel.tier_planes()[pi];
      const VmOracle::TierModel& model = oracle_.tier(static_cast<int>(pi));
      const std::string tname = "tier " + std::to_string(pi + 1);
      size_t walked = 0;
      bool same = true;
      plane.pool->WalkNode(0, [&](FrameId tf) {
        same = walked < model.free.size() && model.free[walked] == tf;
        ++walked;
        return same;
      });
      if (!same || walked != model.free.size()) {
        Fail(now, "oracle",
             tname + " free-list order differs from the reference model");
        return;
      }
      int64_t occupied = 0;
      for (FrameId tf = 0; tf < plane.frames; ++tf) {
        const size_t i = static_cast<size_t>(tf);
        if (plane.owner[i] == kNoAs) {
          continue;
        }
        ++occupied;
        const auto it = model.pages.find({plane.owner[i], plane.vpage[i]});
        if (it == model.pages.end() || it->second.tf != tf) {
          Fail(now, "oracle",
               tname + " frame " + std::to_string(tf) + " (as=" +
                   std::to_string(plane.owner[i]) + " vpage=" +
                   std::to_string(plane.vpage[i]) +
                   ") is not where the reference model has it");
          return;
        }
        if (it->second.dirty != (plane.dirty[i] != 0)) {
          Fail(now, "oracle",
               tname + " frame " + std::to_string(tf) +
                   " carried dirty bit differs from the reference model");
          return;
        }
      }
      if (occupied != static_cast<int64_t>(model.pages.size())) {
        Fail(now, "oracle",
             tname + " occupancy " + std::to_string(occupied) +
                 " differs from the model's " + std::to_string(model.pages.size()));
        return;
      }
    }
  }
}

}  // namespace tmh
