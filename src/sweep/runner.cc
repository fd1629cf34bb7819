#include "runner.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "sim/sim_json.hh"
#include "sweep/router_factory.hh"
#include "util/thread_pool.hh"

namespace ebda::sweep {

namespace {

std::unique_ptr<cdg::RoutingRelation>
routerFor(const topo::Network &net, const std::string &spec)
{
    std::string err;
    auto router = makeRouter(net, spec, &err);
    if (!router)
        throw std::invalid_argument(err);
    return router;
}

sim::SimConfig
withSchedOverride(sim::SimConfig cfg, sim::SchedMode sched)
{
    if (sched != sim::SchedMode::Auto)
        cfg.schedMode = sched;
    return cfg;
}

} // namespace

JobInstance::JobInstance(const SweepJob &job, sim::SchedMode sched)
    : net(job.topo.build()),
      router(routerFor(net, job.router)),
      gen(net, job.pattern),
      simulator(net, *router, gen, withSchedOverride(job.cfg, sched))
{
}

JobOutcome
runJob(const SweepJob &job)
{
    return runJob(job, RunOptions{});
}

JobOutcome
runJob(const SweepJob &job, const RunOptions &opts)
{
    JobOutcome out;
    try {
        JobInstance inst(job, opts.schedMode);
        sim::Simulator &simr = inst.simulator;
        if (opts.jobCycleBudget > 0)
            simr.setCycleLimit(opts.jobCycleBudget);
        const bool deadline = opts.jobWallClockBudgetSeconds > 0.0;
        if (deadline || opts.interruptFlag) {
            const auto cutoff =
                std::chrono::steady_clock::now()
                + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        deadline ? opts.jobWallClockBudgetSeconds
                                 : 0.0));
            const std::atomic<bool> *interrupt = opts.interruptFlag;
            simr.setAbortCheck([deadline, cutoff, interrupt]() {
                if (interrupt
                    && interrupt->load(std::memory_order_relaxed))
                    return true;
                return deadline
                       && std::chrono::steady_clock::now() >= cutoff;
            });
        }
        out.result = simr.run();
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

namespace {

bool
interrupted(const RunOptions &opts)
{
    return opts.interruptFlag
           && opts.interruptFlag->load(std::memory_order_relaxed);
}

/** nodes × cycles × rate-pressure prior: the relative cost of a job
 *  nobody has measured yet. The 0.2 floor keeps near-idle jobs from
 *  rounding to free — they still pay warmup/drain. */
double
jobCostPrior(const SweepJob &job)
{
    const double nodes =
        static_cast<double>(job.topo.nodeCountEstimate());
    const double cycles = static_cast<double>(job.cfg.warmupCycles)
                          + static_cast<double>(job.cfg.measureCycles);
    return nodes * cycles * (0.2 + job.cfg.injectionRate);
}

} // namespace

std::vector<std::size_t>
costOrder(const std::vector<SweepJob> &jobs, const ResultCache *cache)
{
    const std::size_t n = jobs.size();
    std::vector<double> cost(n);
    std::vector<char> measured(n, 0);
    double wallSum = 0.0, priorSum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cost[i] = jobCostPrior(jobs[i]);
        if (!cache)
            continue;
        if (const auto wall = cache->measuredWallSeconds(jobs[i].key)) {
            wallSum += *wall;
            priorSum += cost[i];
            cost[i] = *wall;
            measured[i] = 1;
        }
    }
    // Calibrate the prior into seconds so measured and estimated jobs
    // sort on one scale (a monotone transform — it cannot reorder the
    // unmeasured jobs among themselves).
    if (wallSum > 0.0 && priorSum > 0.0) {
        const double scale = wallSum / priorSum;
        for (std::size_t i = 0; i < n; ++i)
            if (!measured[i])
                cost[i] *= scale;
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

SweepReport
runSweep(const std::vector<SweepJob> &jobs, const RunOptions &opts)
{
    SweepReport report;
    report.threads = opts.threads > 0 ? opts.threads
                                      : ThreadPool::defaultThreads();
    report.outcomes.resize(jobs.size());

    const auto t0 = std::chrono::steady_clock::now();

    std::atomic<std::uint64_t> simulated{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> skipped{0};
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> retried{0};

    const double blocked0 =
        opts.cache ? opts.cache->blockedSeconds() : 0.0;

    const auto worker = [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        JobOutcome &out = report.outcomes[i];
        if (interrupted(opts)) {
            out.ok = false;
            out.skipped = true;
            out.error = "interrupted";
            skipped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        if (opts.cache) {
            if (auto cached = opts.cache->lookupEntry(job.key)) {
                out.result = std::move(cached->result);
                out.fromCache = true;
                if (cached->quarantined()) {
                    out.quarantined = true;
                    out.error = cached->quarantine;
                    quarantined.fetch_add(1,
                                          std::memory_order_relaxed);
                }
                return;
            }
        }
        // Time each execution: the measured wall-clock is stored with
        // the record and feeds the next sweep's cost model.
        auto timedRun = [&](double *wallOut) {
            const auto r0 = std::chrono::steady_clock::now();
            JobOutcome o = runJob(job, opts);
            *wallOut = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - r0)
                           .count();
            return o;
        };
        double wall = 0.0;
        out = timedRun(&wall);
        if (!out.ok) {
            failed.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        simulated.fetch_add(1, std::memory_order_relaxed);
        // A run cut short by the interrupt flag is a skip, not a
        // verdict about the job — leave the cache alone.
        if (out.result.aborted && interrupted(opts)) {
            out.ok = false;
            out.skipped = true;
            out.error = "interrupted";
            skipped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // Watchdog trips get a bounded retry before quarantine (a
        // deterministic wedge will trip again, but a budget-induced
        // abort on a loaded machine deserves a second chance).
        int retriesLeft = opts.watchdogRetries;
        while ((out.result.deadlocked || out.result.aborted)
               && retriesLeft-- > 0 && !interrupted(opts)) {
            retried.fetch_add(1, std::memory_order_relaxed);
            double retryWall = 0.0;
            JobOutcome again = timedRun(&retryWall);
            if (!again.ok)
                break;
            out = std::move(again);
            wall = retryWall;
            simulated.fetch_add(1, std::memory_order_relaxed);
        }
        if (out.result.deadlocked || out.result.aborted) {
            out.quarantined = true;
            out.error = (out.result.deadlocked
                             ? "watchdog: deadlock declared at cycle "
                             : "budget: aborted at cycle ")
                        + std::to_string(out.result.cycles);
            quarantined.fetch_add(1, std::memory_order_relaxed);
            if (opts.cache)
                opts.cache->storeQuarantine(job.key, job.canonical,
                                            out.result, out.error,
                                            wall);
            return;
        }
        if (opts.cache)
            opts.cache->store(job.key, job.canonical, out.result, wall);
    };

    ThreadPool pool(report.threads);
    if (opts.order == JobOrder::CostDescending)
        pool.parallelForOrdered(costOrder(jobs, opts.cache), worker);
    else
        pool.parallelFor(jobs.size(), worker);

    if (opts.cache)
        opts.cache->flush();

    const auto t1 = std::chrono::steady_clock::now();
    report.elapsedSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    report.simulated = simulated.load();
    report.failed = failed.load();
    report.skipped = skipped.load();
    report.quarantined = quarantined.load();
    report.retried = retried.load();
    report.interrupted = interrupted(opts);
    if (opts.cache) {
        report.cacheHits = opts.cache->hits();
        report.cacheMisses = opts.cache->misses();
        report.cacheBlockedSeconds =
            opts.cache->blockedSeconds() - blocked0;
    }
    return report;
}

void
writeResultsJsonl(const std::vector<SweepJob> &jobs,
                  const std::vector<JobOutcome> &outcomes,
                  std::ostream &out)
{
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return jobs[a].key < jobs[b].key;
              });
    for (const std::size_t i : order) {
        if (!outcomes[i].ok)
            continue;
        out << "{\"key\":\"" << keyToHex(jobs[i].key)
            << "\",\"config\":" << jobs[i].canonical
            << ",\"result\":" << sim::toJson(outcomes[i].result)
            << "}\n";
    }
}

} // namespace ebda::sweep
