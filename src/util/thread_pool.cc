#include "thread_pool.hh"

#include "util/host_threads.hh"

namespace ebda {

int
ThreadPool::defaultThreads()
{
    return static_cast<int>(hostThreads());
}

ThreadPool::ThreadPool(int threads)
    : numThreads(threads < 1 ? 1 : threads)
{
    // A 1-thread pool runs inline; no worker needed.
    if (numThreads < 2)
        return;
    workers.reserve(static_cast<std::size_t>(numThreads));
    for (int i = 0; i < numThreads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    cvStart.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::runIndices()
{
    const std::size_t guidedDivisor =
        static_cast<std::size_t>(numThreads) * 4;
    while (true) {
        std::size_t begin, end;
        if (!order) {
            // Plain parallel-for: one index per claim.
            begin = nextIndex.fetch_add(1, std::memory_order_relaxed);
            if (begin >= batchSize)
                return;
            end = begin + 1;
        } else {
            // Guided self-scheduling: claim remaining/(4·threads)
            // slots at once, shrinking to single slots at the tail.
            begin = nextIndex.load(std::memory_order_relaxed);
            do {
                if (begin >= batchSize)
                    return;
                const std::size_t remaining = batchSize - begin;
                std::size_t chunk = remaining / guidedDivisor;
                if (chunk < 1)
                    chunk = 1;
                end = begin + chunk;
            } while (!nextIndex.compare_exchange_weak(
                begin, end, std::memory_order_relaxed));
        }
        for (std::size_t slot = begin; slot < end; ++slot) {
            const std::size_t i = order ? (*order)[slot] : slot;
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mtx);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mtx);
            cvStart.wait(lock, [&] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
        }
        runIndices();
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (--activeWorkers == 0)
                cvDone.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &f)
{
    order = nullptr;
    runBatch(n, f);
}

void
ThreadPool::parallelForOrdered(const std::vector<std::size_t> &ord,
                               const std::function<void(std::size_t)> &f)
{
    order = &ord;
    runBatch(ord.size(), f);
}

void
ThreadPool::runBatch(std::size_t n,
                     const std::function<void(std::size_t)> &f)
{
    if (n == 0)
        return;

    if (workers.empty()) {
        // Inline serial execution, same counter discipline.
        fn = &f;
        batchSize = n;
        nextIndex.store(0, std::memory_order_relaxed);
        firstError = nullptr;
        runIndices();
        fn = nullptr;
        order = nullptr;
        if (firstError)
            std::rethrow_exception(firstError);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mtx);
        fn = &f;
        batchSize = n;
        nextIndex.store(0, std::memory_order_relaxed);
        firstError = nullptr;
        activeWorkers = static_cast<int>(workers.size());
        ++generation;
    }
    cvStart.notify_all();

    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mtx);
        cvDone.wait(lock, [&] { return activeWorkers == 0; });
        fn = nullptr;
        order = nullptr;
        err = firstError;
        firstError = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace ebda
