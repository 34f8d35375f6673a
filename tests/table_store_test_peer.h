// Test access to solver::MappedTableStore's publisher thread. Holding the
// publisher keeps accepted publications queued (temp file written, name not
// yet published), which is how the store tests pin what load(), store(),
// clear() and the destructor do with pending keys without racing the
// background fsync.
#pragma once

#include <mutex>

#include "solver/table_store.h"

namespace nowsched::solver {

struct MappedTableStoreTestPeer {
  /// Pauses (held = true) or resumes the publisher. A held store still
  /// accepts up to kMaxQueuedPublications spills; flush(), stats() and
  /// clear() wait until it is resumed. The destructor publishes the queue
  /// regardless.
  static void hold_publisher(MappedTableStore& store, bool held) {
    {
      std::lock_guard<std::mutex> lock(store.publish_mutex_);
      store.held_ = held;
    }
    store.work_cv_.notify_all();
  }
};

}  // namespace nowsched::solver
