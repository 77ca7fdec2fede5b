#include "src/check/oracle.h"

#include <algorithm>
#include <sstream>

#include "src/os/kernel.h"

namespace tmh {

void VmOracle::SeedFromKernel(const Kernel& kernel) {
  free_.clear();
  frame_of_.clear();
  resident_count_.clear();
  mapped_as_.clear();
  mapped_vpage_.clear();
  dirty_.clear();
  writeback_.clear();
  on_free_.clear();
  const FrameTable& frames = kernel.frames();
  if (frames.size() > 0) {
    GrowFrames(static_cast<FrameId>(frames.size() - 1));
  }
  // Re-derive the sharded pool's shape, then snapshot each node's list.
  const FramePool& pool = kernel.free_list();
  frames_per_node_ = pool.frames_per_node();
  free_.resize(static_cast<size_t>(pool.num_nodes()));
  total_free_ = 0;
  for (int node = 0; node < pool.num_nodes(); ++node) {
    std::deque<FrameId>& list = free_[static_cast<size_t>(node)];
    pool.WalkNode(node, [&](FrameId f) {
      list.push_back(f);
      on_free_[static_cast<size_t>(f)] = 1;
      return true;
    });
    total_free_ += static_cast<int64_t>(list.size());
  }
  for (const auto& as : kernel.address_spaces()) {
    for (VPage v = 0; v < as->num_pages(); ++v) {
      const Pte& pte = as->page_table().at(v);
      if (pte.resident) {
        GrowPages(as->id(), v);
        frame_of_[static_cast<size_t>(as->id())][static_cast<size_t>(v)] = pte.frame;
        ++resident_count_[static_cast<size_t>(as->id())];
        mapped_as_[static_cast<size_t>(pte.frame)] = as->id();
        mapped_vpage_[static_cast<size_t>(pte.frame)] = v;
      }
    }
  }
  for (FrameId f = 0; f < static_cast<FrameId>(frames.size()); ++f) {
    if (frames.dirty(f)) {
      dirty_[static_cast<size_t>(f)] = 1;
      writeback_[static_cast<size_t>(f)] = frames.io_busy(f) ? 1 : 0;
    }
  }
  // Slow tiers (memory-tiering extension): snapshot each plane's free pool in
  // pop order and its occupied-frame identity arrays.
  tiers_.clear();
  for (const Kernel::TierPlane& plane : kernel.tier_planes()) {
    TierModel model;
    plane.pool->WalkNode(0, [&](FrameId tf) {
      model.free.push_back(tf);
      return true;
    });
    for (FrameId tf = 0; tf < plane.frames; ++tf) {
      const size_t i = static_cast<size_t>(tf);
      if (plane.owner[i] != kNoAs) {
        model.pages[{plane.owner[i], plane.vpage[i]}] =
            TierEntry{tf, plane.dirty[i] != 0};
      }
    }
    tiers_.push_back(std::move(model));
  }
  maxrss_pages_ = kernel.config().tunables.maxrss_pages;
  min_freemem_pages_ = kernel.config().tunables.min_freemem_pages;
}

void VmOracle::GrowFrames(FrameId f) {
  const size_t n = static_cast<size_t>(f) + 1;
  if (n > dirty_.size()) {
    mapped_as_.resize(n, kNoAs);
    mapped_vpage_.resize(n, kNoVPage);
    dirty_.resize(n, 0);
    writeback_.resize(n, 0);
    on_free_.resize(n, 0);
  }
}

void VmOracle::GrowPages(AsId as, VPage vpage) {
  const auto a = static_cast<size_t>(as);
  if (a >= frame_of_.size()) {
    frame_of_.resize(a + 1);
    resident_count_.resize(a + 1, 0);
  }
  std::vector<FrameId>& pages = frame_of_[a];
  if (static_cast<size_t>(vpage) >= pages.size()) {
    pages.resize(static_cast<size_t>(vpage) + 1, kNoFrame);
  }
}

int64_t VmOracle::UpperLimit(AsId as) const {
  // Eq. 1 sees total free memory: shards partition the pool, they do not
  // change how much of it is free.
  const int64_t upper =
      std::min(maxrss_pages_, ResidentCount(as) + total_free_ - min_freemem_pages_);
  return std::max<int64_t>(upper, 0);
}

void VmOracle::Diverge(const VmHookEvent& event, const std::string& what) {
  if (!failure_.empty()) {
    return;
  }
  std::ostringstream os;
  os << "oracle divergence on " << VmHookOpName(event.op) << " (as=" << event.as
     << " vpage=" << event.vpage << " frame=" << event.frame << " a=" << event.a
     << " b=" << event.b << " t=" << event.when << "): " << what;
  failure_ = os.str();
}

void VmOracle::Apply(const VmHookEvent& event) {
  if (!failure_.empty()) {
    return;
  }
  switch (event.op) {
    case VmHookOp::kAlloc:
    case VmHookOp::kMap:
    case VmHookOp::kUnmap:
    case VmHookOp::kFreePushHead:
    case VmHookOp::kFreePushTail:
    case VmHookOp::kRescue:
    case VmHookOp::kWritebackBegin:
    case VmHookOp::kWritebackEnd:
    case VmHookOp::kDirty:
    case VmHookOp::kDemote:
    case VmHookOp::kPromote:
      // These index the per-frame arrays by the hook's DRAM frame.
      if (event.frame < 0) {
        Diverge(event, "operation names no frame");
        return;
      }
      GrowFrames(event.frame);
      break;
    default:
      break;
  }
  switch (event.op) {
    case VmHookOp::kAlloc: {
      if (total_free_ == 0) {
        Diverge(event, "allocation from an empty free list");
        return;
      }
      // The pool must serve the faulting process's home node (as % nodes),
      // falling back to the nearest non-empty node in ascending wrap order.
      const int nodes = num_nodes();
      const int home = static_cast<int>(event.as % nodes);
      int node = home;
      while (free_[static_cast<size_t>(node)].empty()) {
        node = (node + 1) % nodes;
      }
      std::deque<FrameId>& list = free_[static_cast<size_t>(node)];
      if (list.front() != event.frame) {
        Diverge(event, "allocation did not pop the free-list head of node " +
                           std::to_string(node) + " (model head=" +
                           std::to_string(list.front()) + ")");
        return;
      }
      if (IsDirty(event.frame)) {
        Diverge(event, "allocated frame is dirty in the model");
        return;
      }
      list.pop_front();
      on_free_[static_cast<size_t>(event.frame)] = 0;
      --total_free_;
      break;
    }
    case VmHookOp::kMap: {
      if (event.as < 0 || event.vpage < 0) {
        Diverge(event, "mapping a page with no address-space or page id");
        return;
      }
      if (IsResident(event.as, event.vpage)) {
        Diverge(event, "mapping an already-resident page");
        return;
      }
      if (InFreeList(event.frame)) {
        Diverge(event, "mapping a frame still on the free list");
        return;
      }
      const auto f = static_cast<size_t>(event.frame);
      if (mapped_as_[f] != kNoAs) {
        Diverge(event, "frame already mapped by as=" + std::to_string(mapped_as_[f]));
        return;
      }
      GrowPages(event.as, event.vpage);
      frame_of_[static_cast<size_t>(event.as)][static_cast<size_t>(event.vpage)] =
          event.frame;
      ++resident_count_[static_cast<size_t>(event.as)];
      mapped_as_[f] = event.as;
      mapped_vpage_[f] = event.vpage;
      break;
    }
    case VmHookOp::kUnmap: {
      const FrameId model = FrameOf(event.as, event.vpage);
      if (model == kNoFrame) {
        Diverge(event, "unmapping a page the model has non-resident");
        return;
      }
      if (model != event.frame) {
        Diverge(event, "unmap frame mismatch (model frame=" + std::to_string(model) + ")");
        return;
      }
      frame_of_[static_cast<size_t>(event.as)][static_cast<size_t>(event.vpage)] =
          kNoFrame;
      --resident_count_[static_cast<size_t>(event.as)];
      mapped_as_[static_cast<size_t>(event.frame)] = kNoAs;
      mapped_vpage_[static_cast<size_t>(event.frame)] = kNoVPage;
      break;
    }
    case VmHookOp::kFreePushHead:
    case VmHookOp::kFreePushTail: {
      if (InFreeList(event.frame)) {
        Diverge(event, "double free: frame already on the model free list");
        return;
      }
      if (const AsId owner = mapped_as_[static_cast<size_t>(event.frame)];
          owner != kNoAs) {
        Diverge(event, "freeing a frame still mapped by as=" + std::to_string(owner));
        return;
      }
      if (IsDirty(event.frame)) {
        Diverge(event, "freeing a dirty frame without a writeback");
        return;
      }
      // Pushes route to the pushed frame's node — never the freeing
      // process's — so a shard only ever holds its own frame range.
      std::deque<FrameId>& list = free_[static_cast<size_t>(NodeOf(event.frame))];
      if (event.op == VmHookOp::kFreePushHead) {
        list.push_front(event.frame);
      } else {
        list.push_back(event.frame);
      }
      on_free_[static_cast<size_t>(event.frame)] = 1;
      ++total_free_;
      break;
    }
    case VmHookOp::kRescue: {
      if (!InFreeList(event.frame)) {
        Diverge(event, "rescue of a frame not on the model free list");
        return;
      }
      std::deque<FrameId>& list = free_[static_cast<size_t>(NodeOf(event.frame))];
      list.erase(std::find(list.begin(), list.end(), event.frame));
      on_free_[static_cast<size_t>(event.frame)] = 0;
      --total_free_;
      ++rescues_;
      break;
    }
    case VmHookOp::kWritebackBegin: {
      const auto f = static_cast<size_t>(event.frame);
      if (dirty_[f] == 0) {
        Diverge(event, "writeback of a frame the model has clean");
        return;
      }
      if (writeback_[f] != 0) {
        Diverge(event, "duplicate in-flight writeback");
        return;
      }
      writeback_[f] = 1;
      ++writebacks_;
      break;
    }
    case VmHookOp::kWritebackEnd: {
      const auto f = static_cast<size_t>(event.frame);
      if (writeback_[f] == 0) {
        Diverge(event, "writeback completion without a matching begin");
        return;
      }
      writeback_[f] = 0;
      if (dirty_[f] == 0) {
        Diverge(event, "writeback completion on a clean frame");
        return;
      }
      dirty_[f] = 0;
      break;
    }
    case VmHookOp::kDirty: {
      uint8_t& dirty = dirty_[static_cast<size_t>(event.frame)];
      if (dirty != 0) {
        Diverge(event, "clean->dirty transition on an already-dirty frame");
        return;
      }
      dirty = 1;
      break;
    }
    case VmHookOp::kValidate:
    case VmHookOp::kInvalidate:
    case VmHookOp::kReleaseSkip:
      break;  // validity is a kernel-side refinement; no structural change
    case VmHookOp::kReleaseEnqueue:
      ++releases_enqueued_;
      break;
    case VmHookOp::kReleaserBatch:
      releaser_freed_ += static_cast<uint64_t>(event.a);
      break;
    case VmHookOp::kDaemonSweep:
      daemon_stolen_ += static_cast<uint64_t>(event.a);
      break;
    case VmHookOp::kHeaderUpdate: {
      // The kernel publishes lazily but always from live state, so at the
      // moment of the hook the model must agree exactly (Eq. 1).
      const int64_t current = ResidentCount(event.as);
      const int64_t upper = UpperLimit(event.as);
      if (event.a != current) {
        Diverge(event, "published current usage != model resident count (" +
                           std::to_string(current) + ")");
        return;
      }
      if (event.b != upper) {
        Diverge(event, "published upper limit != model Eq. 1 value (" +
                           std::to_string(upper) + ")");
        return;
      }
      break;
    }
    case VmHookOp::kDemote: {
      // Fires with the page still resident on the DRAM frame; the ordinary
      // kUnmap / kFreePush stream follows. The contents migrate carrying the
      // dirty bit, so the DRAM frame turns clean here (no writeback) and the
      // upcoming free push must pass the dirty check.
      const int tier = static_cast<int>(event.a);
      if (tier < 1 || tier > num_slow_tiers()) {
        Diverge(event, "demotion into a tier the model does not have");
        return;
      }
      TierModel& model = tiers_[static_cast<size_t>(tier - 1)];
      if (FrameOf(event.as, event.vpage) != event.frame) {
        Diverge(event, "demoted page not resident on the hook's frame");
        return;
      }
      if (model.pages.count({event.as, event.vpage}) != 0) {
        Diverge(event, "demoted page already occupies a frame in that tier");
        return;
      }
      if (model.free.empty() || model.free.front() != event.b) {
        Diverge(event, "demotion did not pop the tier free-list head");
        return;
      }
      model.free.pop_front();
      const bool carried = dirty_[static_cast<size_t>(event.frame)] != 0;
      dirty_[static_cast<size_t>(event.frame)] = 0;
      model.pages[{event.as, event.vpage}] =
          TierEntry{static_cast<FrameId>(event.b), carried};
      break;
    }
    case VmHookOp::kPromote: {
      // Fires after kMap, so the model must already see the page resident on
      // the fresh DRAM frame; the carried dirty bit is restored hook-free.
      const int tier = static_cast<int>(event.a);
      if (tier < 1 || tier > num_slow_tiers()) {
        Diverge(event, "promotion out of a tier the model does not have");
        return;
      }
      TierModel& model = tiers_[static_cast<size_t>(tier - 1)];
      const auto it = model.pages.find({event.as, event.vpage});
      if (it == model.pages.end()) {
        Diverge(event, "promotion of a page the model has outside that tier");
        return;
      }
      if (it->second.tf != event.b) {
        Diverge(event, "promotion tier-frame mismatch (model tf=" +
                           std::to_string(it->second.tf) + ")");
        return;
      }
      if (FrameOf(event.as, event.vpage) != event.frame) {
        Diverge(event, "promoted page not resident on the hook's frame");
        return;
      }
      if (it->second.dirty) {
        uint8_t& dirty = dirty_[static_cast<size_t>(event.frame)];
        if (dirty != 0) {
          Diverge(event, "carried dirty bit restored onto an already-dirty frame");
          return;
        }
        dirty = 1;
      }
      model.free.push_front(it->second.tf);
      model.pages.erase(it);
      break;
    }
    case VmHookOp::kTierEvict: {
      // Capacity eviction inside the hierarchy: the victim's tier frame goes
      // back to its pool head; the page cascades one tier deeper (b > 0,
      // popping the deeper pool's head) or falls out to disk (b == 0).
      const int from = static_cast<int>(event.a);
      const int to = static_cast<int>(event.b);
      if (from < 1 || from > num_slow_tiers() || to < 0 || to > num_slow_tiers()) {
        Diverge(event, "tier eviction between tiers the model does not have");
        return;
      }
      TierModel& src = tiers_[static_cast<size_t>(from - 1)];
      const auto it = src.pages.find({event.as, event.vpage});
      if (it == src.pages.end()) {
        Diverge(event, "tier eviction of a page the model has outside the tier");
        return;
      }
      const TierEntry victim = it->second;
      if (to > 0) {
        TierModel& dst = tiers_[static_cast<size_t>(to - 1)];
        if (dst.free.empty() || dst.free.front() != event.frame) {
          Diverge(event, "cascaded eviction did not pop the deeper free-list head");
          return;
        }
        if (dst.pages.count({event.as, event.vpage}) != 0) {
          Diverge(event, "cascaded page already occupies a frame in the deeper tier");
          return;
        }
        dst.free.pop_front();
        dst.pages[{event.as, event.vpage}] = TierEntry{event.frame, victim.dirty};
      }
      src.pages.erase(it);
      src.free.push_front(victim.tf);
      break;
    }
  }
}

}  // namespace tmh
