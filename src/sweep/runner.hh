/**
 * @file
 * The sweep executor: takes a flat job vector (from SweepSpec::expand
 * or hand-assembled by a bench), consults the result cache, and runs
 * the remaining simulations on a ThreadPool.
 *
 * Every job is hermetic — the worker constructs its own Network,
 * routing relation, traffic generator and Simulator from the job's
 * declarative fields, so no mutable state is shared between workers
 * (routing relations memoise reachability internally and must not be
 * shared across threads) and a job's result is a pure function of its
 * canonical config. That purity is what makes the content-addressed
 * cache sound and parallel execution bit-identical to serial.
 */

#ifndef EBDA_SWEEP_RUNNER_HH
#define EBDA_SWEEP_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cdg/routing_relation.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep_spec.hh"

namespace ebda::sweep {

/** Per-job outcome, aligned with the input job vector. */
struct JobOutcome
{
    sim::SimResult result;
    /** Result came from the cache; no simulation ran. */
    bool fromCache = false;
    /** False when the job could not run (bad router spec etc.). */
    bool ok = true;
    /** Job never ran: the sweep was interrupted before its turn. */
    bool skipped = false;
    /** Job tripped its watchdog or blew a budget (after any retry)
     *  and was benched with a quarantine record, or a quarantined
     *  cache entry was served. result holds the tripped run's partial
     *  numbers; error holds the quarantine reason. */
    bool quarantined = false;
    std::string error;
};

/** Aggregate accounting of one sweep. */
struct SweepReport
{
    std::vector<JobOutcome> outcomes;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Simulations actually executed (= misses when a cache is on). */
    std::uint64_t simulated = 0;
    std::uint64_t failed = 0;
    /** Jobs skipped because the sweep was interrupted. */
    std::uint64_t skipped = 0;
    /** Jobs quarantined this sweep or served from quarantine. */
    std::uint64_t quarantined = 0;
    /** Retries consumed by watchdog-tripped jobs. */
    std::uint64_t retried = 0;
    double elapsedSeconds = 0.0;
    int threads = 1;
    /** True when an interrupt flag stopped the sweep early. */
    bool interrupted = false;
    /** Wall-clock seconds workers spent inside cache calls during this
     *  sweep (lock waits + serialization + group commits) — the
     *  contention canary printed in the sweep summary. */
    double cacheBlockedSeconds = 0.0;
};

/** Order jobs are pulled through the pool. */
enum class JobOrder : std::uint8_t
{
    /** Spec order (index 0..n-1), single-index self-scheduling — the
     *  original schedule. */
    Spec,
    /** Longest-expected-first from the cost model (costOrder below),
     *  pulled through guided chunked self-scheduling. Collapses the
     *  straggler tail on heterogeneous grids; results are identical
     *  to Spec by the hermetic-job purity contract. */
    CostDescending,
};

/** Execution knobs. */
struct RunOptions
{
    /** Worker threads; <= 0 selects ThreadPool::defaultThreads(). */
    int threads = 0;
    /** Optional persistent cache (nullptr = always simulate). */
    ResultCache *cache = nullptr;
    /** Per-job wall-clock budget in seconds; <= 0 disables. A job
     *  over budget is aborted cooperatively and quarantined. */
    double jobWallClockBudgetSeconds = 0.0;
    /** Per-job simulated-cycle budget; 0 disables. */
    std::uint64_t jobCycleBudget = 0;
    /** Bounded retries for a job that trips the simulator watchdog
     *  (deadlock declared) before it is quarantined. */
    int watchdogRetries = 1;
    /** Cooperative interrupt (e.g. SIGINT): when it flips true,
     *  running jobs abort and pending jobs are skipped; completed
     *  results are still returned and cached. */
    const std::atomic<bool> *interruptFlag = nullptr;
    /** Scheduling-backend override for executed jobs (ebda_sweep run
     *  --sched): an explicit mode forces every job; Auto defers to the
     *  job's own schedMode, resolved per job from its injection rate
     *  (sim/scheduler.hh heuristic — event mode for lightly loaded
     *  jobs, the cycle loop near saturation). Never part of the cache
     *  key: the backends are trace-equivalent, so cached results are
     *  shared across modes. */
    sim::SchedMode schedMode = sim::SchedMode::Auto;
    /** Job scheduling order (see JobOrder). Never affects results or
     *  the output JSONL, only wall-clock. */
    JobOrder order = JobOrder::CostDescending;
};

/**
 * Execution order for JobOrder::CostDescending: job indices sorted
 * longest-expected-first. A job's expected cost is its measured
 * wall-clock when its key is cached; otherwise a nodes × cycles ×
 * rate-pressure prior, scaled into seconds by calibrating against
 * whatever measured wall-clocks the cache does hold for this sweep's
 * keys. Ties (and the no-cache case) break by index, so the order is
 * deterministic.
 */
std::vector<std::size_t> costOrder(const std::vector<SweepJob> &jobs,
                                   const ResultCache *cache);

/**
 * One job's network, routing relation, traffic generator and
 * Simulator, built in place from the job's declarative fields. The
 * relation and the generator hold references into the network, and the
 * simulator into all three, so the members are constructed in
 * declaration order and the object is neither copied nor moved. Every
 * run of a job goes through here: runJob and the ebda_tool run
 * commands alike.
 */
struct JobInstance
{
    /** Throws std::invalid_argument on a bad topology, router spec,
     *  pattern or protocol config. An explicit `sched` overrides the
     *  job's own schedMode (RunOptions::schedMode); Auto keeps it, and
     *  Simulator::run resolves whatever Auto remains. */
    explicit JobInstance(const SweepJob &job,
                         sim::SchedMode sched = sim::SchedMode::Auto);
    JobInstance(const JobInstance &) = delete;
    JobInstance &operator=(const JobInstance &) = delete;

    const topo::Network net;
    const std::unique_ptr<cdg::RoutingRelation> router;
    const sim::TrafficGenerator gen;
    sim::Simulator simulator;
};

/** Execute one job, no cache involved (also used by the runner). */
JobOutcome runJob(const SweepJob &job);

/** Execute one job under the options' budgets and interrupt flag
 *  (cache and retry handling stay with runSweep). */
JobOutcome runJob(const SweepJob &job, const RunOptions &opts);

/** Run all jobs; outcomes[i] corresponds to jobs[i]. */
SweepReport runSweep(const std::vector<SweepJob> &jobs,
                     const RunOptions &opts = {});

/**
 * Emit one results line per job:
 *   {"key":"<hex>","config":{...},"result":{...}}
 * sorted ascending by key (so output is invariant under thread count
 * and job order). Failed and skipped jobs are omitted — they have no
 * result; quarantined jobs are written (their partial result is the
 * record of what tripped).
 */
void writeResultsJsonl(const std::vector<SweepJob> &jobs,
                       const std::vector<JobOutcome> &outcomes,
                       std::ostream &out);

} // namespace ebda::sweep

#endif // EBDA_SWEEP_RUNNER_HH
