// The request-completion contract shared by every hartd ack site: the shard
// workers, the dispatcher's inline answers, the replication quorum release
// and the follower applier. Header-only, so hart_repl keeps depending on
// nothing from hart_server but headers.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "server/proto.h"

namespace hart::server {

/// Threads to wake once a run of completions is fully recorded — the
/// userspace counterpart of Linux's wake_q. An ack that completes a request
/// some thread is blocked on appends that thread's condition variable here
/// instead of notifying it; whoever fired the acks calls wake_all() once,
/// right after its last ack. A pipelined caller woken for its oldest id
/// then finds the rest of the batch already complete instead of sleeping
/// (and being woken) once per response.
class WakeList {
 public:
  WakeList() = default;
  WakeList(const WakeList&) = delete;
  WakeList& operator=(const WakeList&) = delete;
  /// Never strands a waiter, even if the drain point was skipped.
  ~WakeList() { wake_all(); }

  /// Shared so the condition variable outlives a waiter that returns (on
  /// a spurious wake-up) before the list is drained.
  void add(std::shared_ptr<common::CondVar> cv) {
    cvs_.push_back(std::move(cv));
  }

  /// Notify every queued waiter once and empty the list (its capacity is
  /// kept, so a worker reusing one list per batch does not allocate).
  void wake_all() {
    for (const auto& cv : cvs_) cv->notify_one();
    cvs_.clear();
  }

 private:
  std::vector<std::shared_ptr<common::CondVar>> cvs_;
};

/// Completion callback: invoked exactly once per request with its response
/// and the caller's wake list. Record the response, queue any waiter on
/// `wake`, and never notify directly.
using Ack = std::function<void(Response, WakeList&)>;

}  // namespace hart::server
