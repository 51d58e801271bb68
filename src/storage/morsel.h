// Morsel-driven parallelism over columnar data.
//
// A morsel is a fixed-size contiguous row range of a table or batch — the
// scheduling granule of parallel scans (Leis et al.'s morsel-driven style,
// reduced to its deterministic core): workers claim morsels from a shared
// counter, each produces an independent result slot, and the caller merges
// the slots in morsel order. Because morsels partition the row space in
// order and every per-morsel result is keyed by its morsel index, the merged
// output is identical for every thread count — the differential tests run
// the vector engine at num_threads 1, 2 and 8 and demand exact agreement.
//
// This header is the single thread-spawn point of the system: RunOnWorkers
// owns thread creation, ParallelFor and ParallelOverMorsels are thin
// claiming loops on top of it, and the pipeline driver (storage/pipeline.h)
// adds per-thread state. No other file starts std::threads.
//
// Threads are persistent: RunOnWorkers dispatches worker slots onto a
// process-wide pool that parks its threads between calls and grows to the
// largest worker count ever requested, so running many pipelines back to
// back (the executors run one pipeline per plan segment) no longer pays a
// thread spawn + join per run. Calls from inside a pool worker degrade to
// inline serial execution, which keeps accidental nesting correct.

#ifndef MQO_STORAGE_MORSEL_H_
#define MQO_STORAGE_MORSEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mqo {

/// Sentinel for PipelineOptions::morsel_rows: derive the granule from the
/// input size and worker count instead of a fixed constant.
constexpr size_t kAdaptiveMorselRows = 0;

/// Clamps of the adaptive granule: morsels never smaller than dispatch can
/// amortize, never larger than cache-friendly chunking allows.
constexpr size_t kMinMorselRows = 256;
constexpr size_t kMaxMorselRows = 64 * 1024;

/// Morsels the adaptive policy aims to hand each worker: enough that the
/// shared-counter claiming loop load-balances skewed operators, few enough
/// that dispatch stays negligible.
constexpr size_t kMorselsPerWorkerTarget = 4;

/// Core-count-aware morsel granule: `num_rows / (workers * target)` clamped
/// to [kMinMorselRows, kMaxMorselRows]. The worker pool grows to the largest
/// worker count requested, so `workers` is exactly the pool share this run
/// can occupy.
size_t AdaptiveMorselRows(size_t num_rows, size_t workers);

/// Resolves a PipelineOptions-style morsel_rows value: kAdaptiveMorselRows
/// derives the granule from `num_rows` and `num_threads` (1 worker when
/// serial); any explicit value passes through untouched.
size_t ResolveMorselRows(size_t num_rows, int num_threads, size_t morsel_rows);

/// A contiguous row range [begin, end).
struct Morsel {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
};

/// Partitions `num_rows` into consecutive morsels of `morsel_rows` (the last
/// may be shorter). `morsel_rows == 0` is treated as one morsel spanning all
/// rows. Empty input yields no morsels.
std::vector<Morsel> MakeMorsels(size_t num_rows, size_t morsel_rows);

/// The shared thread-pool entry point: runs `body(worker_slot)` once per
/// worker slot in [0, workers), slot 0 on the calling thread and the rest on
/// the persistent worker pool, waiting for all slots before returning. With
/// `workers <= 1` (or when called from a pool worker) the body runs inline.
/// Every parallel construct in the system funnels through here.
void RunOnWorkers(size_t workers, const std::function<void(size_t)>& body);

/// Number of threads currently parked in the persistent pool (for tests and
/// instrumentation; 0 until the first multi-worker RunOnWorkers call).
size_t WorkerPoolSize();

/// Runs `fn(task_index)` exactly once for every index in [0, num_tasks), on
/// up to `num_threads` workers pulling indices from a shared atomic counter.
/// `fn` must write only to state owned by its task index.
void ParallelFor(size_t num_tasks, int num_threads,
                 const std::function<void(size_t)>& fn);

/// Runs `fn(morsel_index, morsel)` for every morsel, on up to `num_threads`
/// workers (see ParallelFor). `fn` must write only to state owned by its
/// morsel index (e.g. a pre-sized result slot); it is invoked exactly once
/// per morsel. With `num_threads <= 1` (or a single morsel) everything runs
/// inline on the calling thread.
void ParallelOverMorsels(const std::vector<Morsel>& morsels, int num_threads,
                         const std::function<void(size_t, const Morsel&)>& fn);

}  // namespace mqo

#endif  // MQO_STORAGE_MORSEL_H_
