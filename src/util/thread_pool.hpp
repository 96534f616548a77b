// A small persistent fork-join executor for the greedy engine's parallel
// stages, with per-worker deques and work stealing.
//
// Design constraints, in order:
//  * the caller participates: worker 0 is the calling thread, so a pool of
//    size 1 degenerates to an inline loop with zero synchronization;
//  * load balance by *stealing*, not by a shared cursor: stage-2 probe
//    tasks have wildly uneven costs (one source's ball can be 100x its
//    neighbor's), and a single atomic cursor makes every claim a
//    cross-core round trip. Each worker owns a contiguous task range
//    (its deque); the owner retires tasks from the high end (LIFO-local:
//    the range tail is what it touched last and is hottest in cache) and
//    exhausted workers steal from the low end of the fullest victim
//    (FIFO-steal: the oldest tasks, coldest for the owner). Every
//    *result* is written to task-indexed slots, so the outcome is
//    independent of which worker ran what;
//  * the pool is reused across buckets and runs: workers park on a
//    condition variable between jobs instead of being respawned.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gsp {

class ThreadPool {
public:
    /// A job body: invoked once per task index in [0, num_tasks), with the
    /// claiming worker's id in [0, num_workers()). Distinct workers run
    /// concurrently; one worker's calls are sequential.
    using TaskFn = std::function<void(std::size_t worker, std::size_t task)>;

    /// Create a pool with `workers` total workers (>= 1). Spawns
    /// `workers - 1` threads; worker 0 is whichever thread calls run().
    explicit ThreadPool(std::size_t workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t num_workers() const { return threads_.size() + 1; }

    /// Run fn over all task indices and block until every task finished.
    /// Tasks are dealt out as contiguous per-worker ranges; idle workers
    /// steal from the fullest remaining range. The first exception thrown
    /// by any task is rethrown here (remaining tasks are abandoned; the
    /// pool stays usable).
    void run(std::size_t num_tasks, const TaskFn& fn);

    /// Cumulative count of successful steals (a task retired by a worker
    /// other than the range's initial owner). Monotone across jobs; diff
    /// around a run to observe load-balancing activity.
    [[nodiscard]] std::size_t steal_count() const {
        // Diagnostic read of a commutative counter; never a decision input.
        // gsp-lint: allow(gsp-relaxed-atomic) commutative diagnostics counter
        return steals_.load(std::memory_order_relaxed);
    }

    /// Pick a worker count: explicit request, or hardware concurrency for 0.
    [[nodiscard]] static std::size_t resolve_workers(std::size_t requested);

private:
    /// One worker's task deque: the contiguous index range [lo, hi). The
    /// owner pops from `hi` (LIFO-local), thieves claim from `lo`
    /// (FIFO-steal). A plain mutex per deque keeps the memory model simple
    /// (TSan-clean by construction); contention is rare because a worker
    /// only locks its *own* deque uncontended until someone steals, and
    /// steals lock one victim at a time.
    struct alignas(64) Deque {
        std::mutex mu;
        std::size_t lo = 0;
        std::size_t hi = 0;
    };

    void worker_loop();
    void drain(std::size_t worker);
    /// Claim one task for `worker`: its own deque first, then steal.
    /// Returns false when every deque is empty.
    bool claim(std::size_t worker, std::size_t& task);
    void abandon_all();

    std::vector<std::thread> threads_;
    std::vector<Deque> deques_;  ///< one per worker, sized at construction

    std::mutex mu_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    const TaskFn* fn_ = nullptr;
    std::size_t busy_ = 0;        ///< pool threads still draining the current job
    std::size_t assigned_workers_ = 0;  ///< worker-id dispenser for pool threads
    std::uint64_t generation_ = 0;
    std::exception_ptr first_error_;
    std::atomic<std::size_t> steals_{0};
    bool stop_ = false;
};

}  // namespace gsp
