// Fixed-size thread pool with a blocking parallel_for and a counter-based
// task-graph (DAG) executor.
//
// Two execution disciplines, matched to the two shapes the solvers have:
//   * parallel_for / parallel_for_chunks — level-synchronous: all iterations
//     of one dispatch are independent and the call is a full barrier. Right
//     for the policy-evaluation DP, whose states within a level are
//     independent.
//   * run_dag(TaskGraph) — wavefront: tasks carry explicit dependency edges
//     and start the moment their last predecessor finishes, with no global
//     barrier anywhere. Right for the fast solver's (level, block) grid,
//     where a per-block barrier per level was measured to cost more than the
//     blocks' own work (see DESIGN.md "Parallel solver architecture").
//
// Thread-safety contract: a ThreadPool object may be driven from one
// submitting thread at a time (parallel_for*/run_dag are blocking calls and
// are not reentrant — do not call them from inside a task running on the
// same pool). Worker threads only ever touch the tasks handed to them.
// Happens-before: everything a task wrote is visible to every task that
// depends on it (run_dag releases dependents through an acq_rel counter
// decrement, and the task queue hands tasks over under a mutex), and
// everything any task wrote is visible to the submitting thread when the
// blocking call returns.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace nowsched::util {

/// A directed acyclic graph of tasks for ThreadPool::run_dag. Build it on
/// one thread: add_task() returns dense ids 0, 1, 2, …; add_edge(a, b)
/// declares "b runs after a". The builder itself does not reject cycles;
/// run_dag verifies acyclicity with a counter pass before executing
/// anything and throws std::logic_error on a cyclic graph (no task runs).
class TaskGraph {
 public:
  using TaskId = std::size_t;

  /// Adds a task; returns its id. `fn` must be invocable exactly once.
  TaskId add_task(std::function<void()> fn);

  /// Declares that `after` must not start until `before` has finished.
  /// Both ids must already exist. Duplicate edges are allowed (each one
  /// counts — callers should add an edge at most once per ordered pair).
  void add_edge(TaskId before, TaskId after);

  std::size_t size() const noexcept { return nodes_.size(); }

 private:
  friend class ThreadPool;
  struct Node {
    std::function<void()> fn;
    std::vector<TaskId> dependents;  // edges out of this node
    std::size_t num_deps = 0;        // edges into this node
  };
  std::vector<Node> nodes_;
};

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Run fn(i) for i in [begin, end), split into ~4x-oversubscribed chunks,
  /// blocking until all complete. Exceptions from fn propagate (first one
  /// wins). Serial fallback when the range is smaller than two grains or
  /// the pool has 1 thread.
  ///
  /// `grain` is the minimum indices per dispatched chunk — the knob that
  /// matches dispatch overhead to body weight. The default (64) suits
  /// cheap table-index bodies like the DP loops; pass 1 for heavy bodies
  /// (e.g. BatchRunner's whole-session tasks, ms-scale each), where a
  /// 64-wide grain would leave small ranges entirely serial and large ones
  /// load-imbalanced.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 64);

  /// Run fn(chunk_begin, chunk_end) over contiguous chunks; lower dispatch
  /// overhead for very cheap per-index bodies. Same `grain` semantics as
  /// parallel_for.
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t, std::size_t)>& fn,
                           std::size_t grain = 64);

  /// Execute every task in `graph` respecting its edges, blocking until all
  /// have finished. Tasks with no unfinished predecessors run concurrently;
  /// there is no barrier of any kind between "generations" — a task starts
  /// the instant its own dependency counter reaches zero.
  ///
  /// Determinism: with size() <= 1 the graph runs inline on the calling
  /// thread in a fixed topological order (ready tasks execute in ascending
  /// id order), so a 1-thread pool is bit-for-bit reproducible.
  ///
  /// Errors: the first exception thrown by a task is captured and rethrown
  /// to the caller after the graph drains. Transitive dependents of the
  /// failed task are reliably cancelled (their bodies are skipped — the
  /// failure is published before their counters release); cancellation of
  /// concurrently-starting tasks on *independent* branches is best-effort
  /// only, so side-effectful tasks may still run after another branch threw.
  /// Cancelled tasks still release their dependents, so the drain always
  /// terminates and the pool stays usable afterwards.
  ///
  /// The graph is consumed: task functions may be destroyed by execution;
  /// reuse of a TaskGraph object after run_dag is undefined.
  void run_dag(TaskGraph& graph);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Parses a NOWSCHED_THREADS-style value. Returns the thread count (0 means
/// "use the hardware default") and leaves *warning empty on success; on a
/// malformed value ("4abc", "-1", "", overflow) returns 0 and stores a
/// one-line diagnostic in *warning. Exposed for tests; global_pool() applies
/// it to the real environment variable.
std::size_t threads_from_env_value(const char* value, std::string* warning);

/// Process-wide pool for library internals (lazily constructed, never torn
/// down before exit). Size honours NOWSCHED_THREADS when set; a malformed
/// value is diagnosed once on stderr and falls back to the hardware default
/// rather than being silently misread.
ThreadPool& global_pool();

}  // namespace nowsched::util
