#include "util/thread_pool.h"

#include <atomic>
#include <exception>

namespace doxlab::util {

struct ThreadPool::Batch {
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::mutex error_mutex;
  std::exception_ptr first_error;
};

ThreadPool::ThreadPool(std::size_t workers) {
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

std::size_t ThreadPool::workers_for(int threads) {
  if (threads > 0) return static_cast<std::size_t>(threads) - 1;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 1 ? hardware - 1 : 0;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  Batch batch;
  batch.remaining.store(count, std::memory_order_relaxed);

  // Round-robin initial distribution; stealing evens out any imbalance.
  for (std::size_t i = 0; i < count; ++i) {
    WorkerQueue& queue = *queues_[i % queues_.size()];
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_back(Task{&fn, i, &batch});
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    queued_ += count;
  }
  wake_cv_.notify_all();

  // The calling thread participates: drain queued tasks alongside the
  // workers until none are left, then sleep out the stragglers still
  // running on workers. With a single-worker pool this is what keeps two
  // interdependent tasks from serializing onto one thread.
  Task task;
  while (batch.remaining.load(std::memory_order_acquire) > 0 &&
         try_steal_task(task)) {
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      --queued_;
    }
    run_task(task);
  }

  std::unique_lock<std::mutex> lock(batch.done_mutex);
  batch.done_cv.wait(lock, [&] {
    return batch.remaining.load(std::memory_order_acquire) == 0;
  });
  lock.unlock();

  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [&] { return shutdown_ || queued_ > 0; });
      if (shutdown_ && queued_ == 0) return;
    }
    Task task;
    while (try_get_task(worker_index, task)) {
      {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        --queued_;
      }
      run_task(task);
    }
  }
}

bool ThreadPool::try_steal_task(Task& out) {
  // The caller owns no deque, so it robs every queue from the front, the
  // same FIFO discipline worker-to-worker steals use.
  for (auto& queue_ptr : queues_) {
    WorkerQueue& queue = *queue_ptr;
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (!queue.tasks.empty()) {
      out = queue.tasks.front();
      queue.tasks.pop_front();
      return true;
    }
  }
  return false;
}

bool ThreadPool::try_get_task(std::size_t self, Task& out) {
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = own.tasks.back();
      own.tasks.pop_back();
      return true;
    }
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = victim.tasks.front();
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(const Task& task) {
  Batch& batch = *task.batch;
  try {
    (*task.fn)(task.index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(batch.error_mutex);
    if (!batch.first_error) batch.first_error = std::current_exception();
  }
  // Decrement and notify under the mutex. `batch` lives on the caller's
  // stack: once the count reaches zero the caller may return, so no task
  // may touch the batch after that. The caller takes this mutex before it
  // returns, and this is the last use of the batch here.
  std::lock_guard<std::mutex> lock(batch.done_mutex);
  if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    batch.done_cv.notify_all();
  }
}

}  // namespace doxlab::util
