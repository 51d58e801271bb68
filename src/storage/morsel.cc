#include "storage/morsel.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

namespace mqo {

namespace {

/// True while the current thread is inside a parallel region — on threads
/// owned by the pool, and on a submitting thread for the duration of its
/// slot-0 body. A body that itself calls RunOnWorkers must not re-enter the
/// pool: pool threads may all be busy running it, and the submitter already
/// holds the (non-recursive) submit lock. Nested calls run inline instead.
thread_local bool t_in_parallel_region = false;

/// The process-wide persistent worker pool. One job runs at a time (the
/// executors drive pipelines sequentially from one thread; a submit mutex
/// serializes any concurrent callers). Threads park on a condition variable
/// between jobs and the pool grows to the largest worker count requested.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool* pool = new WorkerPool();  // leaked: threads live for
    return *pool;                                // the process lifetime
  }

  /// Runs body(slot) for slots [1, workers) on pool threads while the
  /// caller runs slot 0, returning once every slot finished.
  void Run(size_t workers, const std::function<void(size_t)>& body) {
    std::lock_guard<std::mutex> submit_lock(submit_mu_);
    auto job = std::make_shared<Job>();
    job->body = &body;
    job->end_slot = workers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < workers - 1) {
        threads_.emplace_back([this] { ThreadMain(); });
      }
      job_ = job;
      ++generation_;
      work_cv_.notify_all();
    }
    // Even if slot 0 throws, workers still hold a pointer into the caller's
    // `body`: wait for them to drain the job before unwinding, then rethrow.
    std::exception_ptr slot0_error;
    try {
      body(0);
    } catch (...) {
      slot0_error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return job->done == job->end_slot - 1; });
      job_ = nullptr;
    }
    if (slot0_error) std::rethrow_exception(slot0_error);
  }

  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  /// One dispatched RunOnWorkers call. Slots are claimed from the job's own
  /// counter, so a thread waking up late for an old job finds it exhausted
  /// and never touches a newer job's slots.
  struct Job {
    const std::function<void(size_t)>* body = nullptr;
    std::atomic<size_t> next_slot{1};
    size_t end_slot = 0;
    std::atomic<size_t> done{0};  ///< Completed slots excluding slot 0.
  };

  void ThreadMain() {
    t_in_parallel_region = true;
    uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          return job_ != nullptr && generation_ != seen_generation;
        });
        seen_generation = generation_;
        job = job_;
      }
      for (;;) {
        const size_t slot = job->next_slot.fetch_add(1);
        if (slot >= job->end_slot) break;
        (*job->body)(slot);
        std::lock_guard<std::mutex> lock(mu_);
        if (++job->done == job->end_slot - 1) done_cv_.notify_all();
      }
    }
  }

  std::mutex submit_mu_;  ///< Serializes Run() callers.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  uint64_t generation_ = 0;
  std::vector<std::thread> threads_;
};

}  // namespace

size_t AdaptiveMorselRows(size_t num_rows, size_t workers) {
  workers = std::max<size_t>(workers, 1);
  const size_t target = workers * kMorselsPerWorkerTarget;
  const size_t rows = (num_rows + target - 1) / target;
  return std::min(kMaxMorselRows, std::max(kMinMorselRows, rows));
}

size_t ResolveMorselRows(size_t num_rows, int num_threads,
                         size_t morsel_rows) {
  if (morsel_rows != kAdaptiveMorselRows) return morsel_rows;
  return AdaptiveMorselRows(
      num_rows, num_threads > 1 ? static_cast<size_t>(num_threads) : 1);
}

std::vector<Morsel> MakeMorsels(size_t num_rows, size_t morsel_rows) {
  std::vector<Morsel> morsels;
  if (num_rows == 0) return morsels;
  if (morsel_rows == 0) morsel_rows = num_rows;
  morsels.reserve((num_rows + morsel_rows - 1) / morsel_rows);
  for (size_t begin = 0; begin < num_rows; begin += morsel_rows) {
    const size_t end = std::min(num_rows, begin + morsel_rows);
    morsels.push_back(
        {static_cast<uint32_t>(begin), static_cast<uint32_t>(end)});
  }
  return morsels;
}

void RunOnWorkers(size_t workers, const std::function<void(size_t)>& body) {
  if (workers <= 1 || t_in_parallel_region) {
    for (size_t slot = 0; slot < std::max<size_t>(workers, 1); ++slot) {
      body(slot);
    }
    return;
  }
  // Mark the submitting thread for the duration of its slot-0 body so a
  // nested call from inside it runs inline instead of re-locking the pool;
  // the guard resets the flag even when the body throws.
  struct RegionGuard {
    ~RegionGuard() { t_in_parallel_region = false; }
  } guard;
  t_in_parallel_region = true;
  WorkerPool::Instance().Run(workers, body);
}

size_t WorkerPoolSize() { return WorkerPool::Instance().size(); }

void ParallelFor(size_t num_tasks, int num_threads,
                 const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  const size_t workers = std::min<size_t>(
      num_threads > 1 ? static_cast<size_t>(num_threads) : 1, num_tasks);
  if (workers <= 1) {
    for (size_t i = 0; i < num_tasks; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  RunOnWorkers(workers, [&](size_t) {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      fn(i);
    }
  });
}

}  // namespace mqo
