#include "src/runtime/prefetch_pool.h"

#include <string>

namespace tmh {

PrefetchPool::PrefetchPool(Kernel* kernel, AddressSpace* as, int num_threads, size_t max_queue)
    : kernel_(kernel),
      as_(as),
      queued_(static_cast<size_t>(as->num_pages()), 0),
      max_queue_(max_queue) {
  if (kernel_->observing()) {
    hist_queue_wait_ = kernel_->metrics().GetHistogram(
        "prefetch.queue_wait_ns", ExponentialBounds(1000.0, 2.0, 26),
        {{"as", as_->name()}});
  }
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(this));
    worker_threads_.push_back(kernel_->Spawn(as_->name() + ":pf" + std::to_string(i), as_,
                                             workers_.back().get(), /*is_daemon=*/true));
  }
}

void PrefetchPool::Enqueue(VPage page) {
  uint8_t& queued = queued_[static_cast<size_t>(page)];
  if (queued != 0) {
    ++duplicates_;
    return;
  }
  if (queue_.size() >= max_queue_) {
    ++dropped_full_;
    return;
  }
  queued = 1;
  queue_.push_back({page, kernel_->Now()});
  ++enqueued_;
  kernel_->Signal(&wq_);
}

Op PrefetchPool::Worker::Next(Kernel& kernel) {
  if (pool_->queue_.empty()) {
    return Op::Wait(&pool_->wq_);
  }
  const Request request = pool_->queue_.front();
  pool_->queue_.pop_front();
  pool_->queued_[static_cast<size_t>(request.page)] = 0;
  if (pool_->hist_queue_wait_ != nullptr) {
    pool_->hist_queue_wait_->Add(static_cast<double>(kernel.Now() - request.enqueued_at));
  }
  Op op = Op::Prefetch(request.page);
  op.as = pool_->as_;
  return op;
}

}  // namespace tmh
