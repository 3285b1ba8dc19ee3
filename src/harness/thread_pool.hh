/**
 * @file
 * A small fixed-size worker pool for fanning independent experiment
 * trials across threads.
 *
 * Simulated Machines are single-threaded by design, so parallelism in
 * this codebase lives one level up: each trial owns its whole world
 * (machine, session, RNG stream) and trials only meet again at
 * aggregation time.  The pool therefore needs no futures or result
 * channels — parallelFor indexes a preallocated output slot per trial.
 */

#ifndef LLCF_HARNESS_THREAD_POOL_HH
#define LLCF_HARNESS_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace llcf {

/**
 * Fixed-size thread pool with a shared FIFO queue.
 *
 * Jobs may be submitted from any thread.  Worker exceptions are
 * captured and rethrown (first one wins) from wait()/the destructor's
 * caller via rethrowIfFailed(), never swallowed.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers. @pre threads > 0 */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue one job. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    /** Rethrow the first exception any job raised (if any). */
    void rethrowIfFailed();

    /**
     * Run fn(i) for every i in [0, n), spread over the pool, and
     * block until all complete.  Rethrows the first job exception.
     * Iteration order across workers is unspecified; callers must
     * write results into per-index slots to stay deterministic.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;

    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allIdle_;
    std::size_t inFlight_ = 0; //!< queued + currently running jobs
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Ceiling on LLCF_THREADS.  Far above any host this runs on; a larger
 * value is a typo (or a wrapped negative), and honouring it would ask
 * the OS for that many threads.
 */
constexpr std::uint64_t kMaxThreads = 1024;

/**
 * Worker count to use: @p requested if non-zero, else the LLCF_THREADS
 * environment override, else the hardware concurrency (min 1).  An
 * LLCF_THREADS above kMaxThreads is fatal before any thread exists.
 */
unsigned resolveThreadCount(unsigned requested = 0);

} // namespace llcf

#endif // LLCF_HARNESS_THREAD_POOL_HH
