#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>

namespace nowsched::util {

TaskGraph::TaskId TaskGraph::add_task(std::function<void()> fn) {
  nodes_.push_back(Node{std::move(fn), {}, 0});
  return nodes_.size() - 1;
}

void TaskGraph::add_edge(TaskId before, TaskId after) {
  if (before >= nodes_.size() || after >= nodes_.size()) {
    throw std::out_of_range("TaskGraph::add_edge: unknown task id");
  }
  if (before == after) {
    throw std::logic_error("TaskGraph::add_edge: self-edge");
  }
  nodes_[before].dependents.push_back(after);
  ++nodes_[after].num_deps;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// Stack-allocated completion latch for blocking dispatch calls. The "done"
/// transition is made and notified *under the mutex*: the waiter can only
/// observe it while holding the same mutex, so it cannot return (and destroy
/// this object) while the last worker is still inside count_down() — the
/// decrement-then-lock race a bare atomic predicate would have.
class CompletionLatch {
 public:
  explicit CompletionLatch(std::size_t count) : remaining_(count) {}

  /// Called once per task; the call that retires the last task flips done.
  void count_down() {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
      done_cv_.notify_one();
    }
  }

  /// Blocks until all `count` tasks have counted down. `count` must be > 0.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return done_; });
  }

 private:
  std::atomic<std::size_t> remaining_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
};

}  // namespace

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t min_chunk = std::max<std::size_t>(grain, 1);
  if (size() <= 1 || n < 2 * min_chunk) {
    fn(begin, end);
    return;
  }
  const std::size_t target_chunks = std::min(n / min_chunk, 4 * size());
  const std::size_t chunk = (n + target_chunks - 1) / target_chunks;

  std::size_t chunks = 0;
  for (std::size_t lo = begin; lo < end; lo += chunk) ++chunks;

  struct State {
    explicit State(std::size_t count) : latch(count) {}
    CompletionLatch latch;
    std::exception_ptr error;
    std::mutex error_mutex;
  } state(chunks);

  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    enqueue([&state, &fn, lo, hi] {
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.error_mutex);
        if (!state.error) state.error = std::current_exception();
      }
      state.latch.count_down();
    });
  }
  state.latch.wait();
  if (state.error) std::rethrow_exception(state.error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

namespace {

/// Kahn counter pass over the graph's nodes: returns false iff some task
/// never becomes ready (i.e. the edge set contains a cycle). Touches only a
/// scratch copy of the in-degree counters.
template <typename Nodes>
bool dag_is_acyclic(const Nodes& nodes) {
  std::vector<std::size_t> deps(nodes.size());
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    deps[i] = nodes[i].num_deps;
    if (deps[i] == 0) ready.push_back(i);
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const std::size_t id = ready.back();
    ready.pop_back();
    ++seen;
    for (const std::size_t dep : nodes[id].dependents) {
      if (--deps[dep] == 0) ready.push_back(dep);
    }
  }
  return seen == nodes.size();
}

}  // namespace

void ThreadPool::run_dag(TaskGraph& graph) {
  const std::size_t n = graph.nodes_.size();
  if (n == 0) return;

  if (!dag_is_acyclic(graph.nodes_)) {
    throw std::logic_error("ThreadPool::run_dag: task graph has a cycle");
  }

  if (size() <= 1) {
    // Serial fallback: fixed topological order — among ready tasks, lowest
    // id first — so a 1-thread pool is deterministic. First exception wins;
    // remaining task bodies are skipped but the walk completes (dependency
    // bookkeeping does not matter once nothing else will run).
    std::vector<std::size_t> deps(n);
    for (std::size_t i = 0; i < n; ++i) deps[i] = graph.nodes_[i].num_deps;
    // A min-ordered ready list keeps the order stable under out-of-id-order
    // edge insertion; the solver's graphs release dependents in id order
    // anyway, so this stays cheap (push_back + sorted insertion point).
    std::vector<std::size_t> ready;
    auto push_ready = [&ready](std::size_t id) {
      ready.insert(std::lower_bound(ready.begin(), ready.end(), id,
                                    std::greater<std::size_t>()),
                   id);  // descending storage: back() is the smallest id
    };
    for (std::size_t i = n; i-- > 0;) {
      if (graph.nodes_[i].num_deps == 0) push_ready(i);
    }
    std::exception_ptr error;
    while (!ready.empty()) {
      const std::size_t id = ready.back();
      ready.pop_back();
      if (!error) {
        try {
          graph.nodes_[id].fn();
        } catch (...) {
          error = std::current_exception();
        }
      }
      for (const std::size_t dep : graph.nodes_[id].dependents) {
        if (--deps[dep] == 0) push_ready(dep);
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  struct State {
    explicit State(std::size_t count)
        : deps(count), latch(count), cancelled(false) {}
    std::vector<std::atomic<std::size_t>> deps;  // per-task in-degree
    CompletionLatch latch;                       // tasks not yet finished
    std::atomic<bool> cancelled;                 // set on first exception
    std::exception_ptr error;
    std::mutex error_mutex;
  } state(n);
  for (std::size_t i = 0; i < n; ++i) {
    state.deps[i].store(graph.nodes_[i].num_deps, std::memory_order_relaxed);
  }

  // run(id) executes one task and releases its dependents. The acq_rel
  // fetch_sub on a dependent's counter is what publishes this task's writes
  // to the dependent: the thread that takes the counter to zero has
  // acquire-read every predecessor's release-decrement, and the queue mutex
  // carries the handover to whichever worker actually runs it.
  std::function<void(std::size_t)> run = [this, &state, &graph,
                                          &run](std::size_t id) {
    if (!state.cancelled.load(std::memory_order_acquire)) {
      try {
        graph.nodes_[id].fn();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state.error_mutex);
          if (!state.error) state.error = std::current_exception();
        }
        state.cancelled.store(true, std::memory_order_release);
      }
    }
    for (const std::size_t dep : graph.nodes_[id].dependents) {
      if (state.deps[dep].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        enqueue([&run, dep] { run(dep); });
      }
    }
    state.latch.count_down();
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (graph.nodes_[i].num_deps == 0) {
      enqueue([&run, i] { run(i); });
    }
  }
  state.latch.wait();
  if (state.error) std::rethrow_exception(state.error);
}

std::size_t threads_from_env_value(const char* value, std::string* warning) {
  if (warning) warning->clear();
  if (value == nullptr) return 0;
  const std::string s(value);
  auto fail = [&](const char* why) -> std::size_t {
    if (warning) {
      *warning = "NOWSCHED_THREADS=\"" + s + "\" " + why +
                 "; using the hardware default";
    }
    return 0;
  };
  if (s.empty()) return fail("is empty (expected a positive integer)");
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) {
    return fail("is not a number (expected a positive integer)");
  }
  if (errno == ERANGE || parsed > std::numeric_limits<int>::max()) {
    return fail("overflows (expected a positive integer)");
  }
  if (parsed <= 0) {
    return fail("must be a positive integer");
  }
  return static_cast<std::size_t>(parsed);
}

ThreadPool& global_pool() {
  static ThreadPool* pool = [] {
    std::string warning;
    const std::size_t threads =
        threads_from_env_value(std::getenv("NOWSCHED_THREADS"), &warning);
    if (!warning.empty()) {
      std::fprintf(stderr, "nowsched: %s\n", warning.c_str());
    }
    return new ThreadPool(threads);
  }();
  return *pool;
}

}  // namespace nowsched::util
