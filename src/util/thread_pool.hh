/**
 * @file
 * A small fixed-size worker pool with a self-scheduling parallel-for:
 * workers pull indices off a shared atomic counter, so long and short
 * jobs interleave without static partitioning (the work-stealing-lite
 * schedule that fits independent simulation jobs). The sweep runner
 * runs its jobs on it; the checkers' state walk (cdg/state_walk.hh) and
 * the turn-model enumeration run their workers on it.
 *
 * Determinism contract: parallelFor(n, fn) invokes fn exactly once per
 * index; as long as fn(i) touches only state owned by index i (the
 * sweep runner's jobs do), results are independent of the schedule and
 * therefore identical for any thread count, including 1.
 *
 * Exceptions thrown by fn are caught, the first one is rethrown from
 * parallelFor after the batch drains; the pool stays usable.
 */

#ifndef EBDA_UTIL_THREAD_POOL_HH
#define EBDA_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ebda {

/** Fixed worker threads executing index batches. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (clamped to >= 1). With 1 thread the
     *  pool runs batches inline on the calling thread. */
    explicit ThreadPool(int threads);

    /** Joins all workers (waits for an in-flight batch). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return numThreads; }

    /** Run fn(0..n-1) across the workers; blocks until all indices
     *  completed. Rethrows the first exception any fn raised. */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Run fn(order[0]), fn(order[1]), ... across the workers with
     * guided chunked self-scheduling: workers claim shrinking chunks
     * of the order vector (remaining / 4·threads, min 1) off the
     * shared counter, so a cost-descending order front-loads the
     * expensive jobs and the tail self-balances with chunk size 1 —
     * the straggler-collapse schedule for heterogeneous job costs.
     * `order` must be a permutation-like index list (each entry < the
     * caller's job count; duplicates are the caller's bug). The same
     * determinism contract as parallelFor applies: execution order is
     * a schedule detail, results may not depend on it.
     */
    void parallelForOrdered(const std::vector<std::size_t> &order,
                            const std::function<void(std::size_t)> &fn);

    /** Default worker count: the CPUs this process may run on
     *  (hostThreads(), >= 1). */
    static int defaultThreads();

  private:
    void workerLoop();
    void runIndices();
    void runBatch(std::size_t n,
                  const std::function<void(std::size_t)> &fn);

    const int numThreads;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable cvStart;
    std::condition_variable cvDone;

    /** Batch state (guarded by mtx except the atomic index). */
    std::uint64_t generation = 0;
    bool stopping = false;
    const std::function<void(std::size_t)> *fn = nullptr;
    /** Non-null while a parallelForOrdered batch runs: counter slots
     *  map through this permutation, claimed in guided chunks. */
    const std::vector<std::size_t> *order = nullptr;
    std::size_t batchSize = 0;
    std::atomic<std::size_t> nextIndex{0};
    int activeWorkers = 0;
    std::exception_ptr firstError;
};

} // namespace ebda

#endif // EBDA_UTIL_THREAD_POOL_HH
