// A small work-stealing thread pool shared by every parallel subsystem —
// the campaign runner (one Testbed per cell) and the sharded forwarder
// engine (one shard world per task, re-dispatched every epoch).
//
// Each worker owns a deque: it pushes and pops work at the back (LIFO, warm
// caches) and victims are robbed from the front (FIFO, oldest tasks first —
// the classic Chase-Lev discipline, here with a per-deque mutex because
// tasks are whole simulations or simulation epochs, i.e. milliseconds to
// seconds each; lock traffic is noise at that granularity). `parallel_for`
// partitions an index space round-robin across workers so the initial
// distribution is balanced even before any stealing happens.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace doxlab::util {

class ThreadPool {
 public:
  /// Spawns `workers` worker threads. The caller of parallel_for runs tasks
  /// too, so a pool runs on workers + 1 threads; with 0 workers it starts
  /// no thread and parallel_for runs every task inline, in index order.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers for a run on `threads` threads in all, the caller being the
  /// last of them: threads - 1, where `threads` <= 0 means one per
  /// hardware thread.
  static std::size_t workers_for(int threads);

  /// Worker threads, not counting the caller.
  std::size_t thread_count() const { return workers_.size(); }

  /// Runs fn(0) .. fn(count-1) across the pool and waits for all of them.
  /// The calling thread participates: it drains queued tasks alongside the
  /// workers and only sleeps once every task has been picked up. If any
  /// invocation throws, the first exception (by completion order) is
  /// rethrown after every task finished or was abandoned; remaining queued
  /// tasks still run.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Batch;  // one parallel_for invocation's completion state

  struct Task {
    const std::function<void(std::size_t)>* fn;
    std::size_t index;
    Batch* batch;
  };

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t worker_index);
  /// Pops from own back, then steals from other fronts. Returns false when
  /// no work is available anywhere.
  bool try_get_task(std::size_t self, Task& out);
  /// Steal for a thread without a queue of its own (the parallel_for
  /// caller): robs every queue front-first.
  bool try_steal_task(Task& out);
  static void run_task(const Task& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::size_t queued_ = 0;  // tasks not yet picked up, guarded by wake_mutex_
  bool shutdown_ = false;
};

}  // namespace doxlab::util
