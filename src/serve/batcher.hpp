// mixq/serve/batcher.hpp
//
// Micro-batching policy of the daemon: the worker blocks (indefinitely)
// for the first request, then coalesces follow-ups into the same batch
// until either `max_batch` requests are collected or `max_wait_us` has
// elapsed since the first one was taken. The added latency is therefore
// at most max_wait_us on top of queue wait for every request, while
// bursts fill whole batches and amortize the batch dispatch across the
// worker lanes.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/queue.hpp"

namespace mixq::serve {

struct BatcherConfig {
  int max_batch{8};               ///< coalesce at most this many requests
  std::int64_t max_wait_us{2000}; ///< wait horizon after the first request
};

class MicroBatcher {
 public:
  MicroBatcher(RequestQueue& queue, BatcherConfig cfg)
      : queue_(&queue), cfg_(cfg) {
    if (cfg_.max_batch < 1) cfg_.max_batch = 1;
    if (cfg_.max_wait_us < 0) cfg_.max_wait_us = 0;
  }

  /// Collect the next micro-batch into `out` (cleared first). Returns
  /// false -- with `out` empty -- only when the queue is closed and fully
  /// drained, i.e. the serving loop should exit.
  bool next_batch(std::vector<Request>& out) {
    out.clear();
    Request first;
    if (!queue_->pop(first)) return false;
    out.push_back(std::move(first));
    // The window is anchored to when the worker TAKES the first request
    // (not its enqueue time): under sustained load the worker pops late,
    // and an enqueue-anchored window would already be expired -- batching
    // would degrade to batch-of-1 exactly when it matters most.
    const auto deadline =
        Clock::now() + std::chrono::microseconds(cfg_.max_wait_us);
    while (static_cast<int>(out.size()) < cfg_.max_batch) {
      // Already-queued requests come back immediately; an empty queue is
      // waited on until the batch window closes (pop_until returns false
      // only once the queue is empty AND the deadline passed or it was
      // closed -- either way the batch is done).
      Request r;
      if (!queue_->pop_until(r, deadline)) break;
      out.push_back(std::move(r));
    }
    return true;
  }

 private:
  RequestQueue* queue_;
  BatcherConfig cfg_;
};

}  // namespace mixq::serve
