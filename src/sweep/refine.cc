#include "sweep/refine.hh"

#include <algorithm>
#include <chrono>

#include "util/random.hh"

namespace ebda::sweep {

namespace {

/** One curve = one (topology, router, pattern, selection) combination;
 *  bisection state rides along. */
struct CurveState
{
    TopologySpec topo;
    std::string router;
    sim::TrafficPattern pattern;
    sim::SelectionPolicy selection;

    double lo = 0.0, hi = 0.0;
    double threshold = 0.0;
    bool active = false;
    RefineCurve verdict;
};

/** Build the job the grid sweep would produce at this rate —
 *  expand()'s seed-derivation dance, replicated exactly so refine
 *  points share cache keys with grid points. */
SweepJob
makeJob(const SweepSpec &spec, const CurveState &c, double rate)
{
    SweepJob job;
    job.topo = c.topo;
    job.router = c.router;
    job.pattern = c.pattern;
    job.cfg = spec.base;
    job.cfg.selection = c.selection;
    job.cfg.injectionRate = rate;
    if (spec.deriveSeeds) {
        job.cfg.seed = 0;
        finalizeJob(job);
        job.cfg.seed = SplitMix64(spec.base.seed ^ job.key).next();
    }
    finalizeJob(job);
    return job;
}

bool
saturated(const JobOutcome &out, double threshold)
{
    return out.quarantined || out.result.deadlocked || !out.result.drained
           || out.result.avgLatency > threshold;
}

} // namespace

RefineReport
refineSweep(const SweepSpec &spec, const RefineOptions &opts)
{
    RefineReport report;
    const auto t0 = std::chrono::steady_clock::now();

    const RunOptions &run = opts.run;

    // Initial bracket from the spec's rates axis.
    double lo0 = 0.01, hi0 = 1.0;
    if (!spec.rates.empty()) {
        const auto [mn, mx] =
            std::minmax_element(spec.rates.begin(), spec.rates.end());
        lo0 = *mn;
        hi0 = *mx;
        if (lo0 == hi0)
            lo0 = std::max(1e-4, hi0 / 10.0);
    }

    std::vector<CurveState> curves;
    for (const auto &topo : spec.topologies) {
        for (const auto &router : spec.routers) {
            for (const auto pattern : spec.patterns) {
                for (const auto selection : spec.selections) {
                    CurveState c;
                    c.topo = topo;
                    c.router = router;
                    c.pattern = pattern;
                    c.selection = selection;
                    c.lo = lo0;
                    c.hi = hi0;
                    c.verdict.label =
                        topo.toString() + " | " + router + " | "
                        + sim::toString(pattern) + " | sel "
                        + std::to_string(static_cast<int>(selection));
                    c.verdict.lo = lo0;
                    c.verdict.hi = hi0;
                    curves.push_back(std::move(c));
                }
            }
        }
    }

    // Run one batch through the regular sweep executor; outcomes are
    // appended to the report so the CLI emits standard JSONL rows.
    // Returns the per-curve outcome indices.
    const auto runBatch =
        [&](const std::vector<SweepJob> &batch) -> std::vector<JobOutcome> {
        const SweepReport r = runSweep(batch, run);
        report.simulated += r.simulated;
        report.threads = r.threads;
        report.cacheBlockedSeconds += r.cacheBlockedSeconds;
        report.interrupted = report.interrupted || r.interrupted;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            report.jobs.push_back(batch[i]);
            report.outcomes.push_back(r.outcomes[i]);
        }
        return r.outcomes;
    };

    // Round 0: both endpoints of every curve, one parallel batch.
    std::vector<SweepJob> endpoints;
    endpoints.reserve(curves.size() * 2);
    for (const CurveState &c : curves) {
        endpoints.push_back(makeJob(spec, c, c.lo));
        endpoints.push_back(makeJob(spec, c, c.hi));
    }
    const auto endpointOutcomes = runBatch(endpoints);

    for (std::size_t ci = 0; ci < curves.size(); ++ci) {
        CurveState &c = curves[ci];
        const JobOutcome &loOut = endpointOutcomes[ci * 2];
        const JobOutcome &hiOut = endpointOutcomes[ci * 2 + 1];
        c.verdict.points = 2;
        if (loOut.skipped || hiOut.skipped) {
            c.verdict.failed = true;
            c.verdict.error = "interrupted";
            continue;
        }
        if (!loOut.ok || !hiOut.ok) {
            c.verdict.failed = true;
            c.verdict.error = !loOut.ok ? loOut.error : hiOut.error;
            continue;
        }
        c.threshold = opts.latencyThreshold > 0.0
                          ? opts.latencyThreshold
                          : opts.kneeFactor
                                * std::max(loOut.result.avgLatency, 1.0);
        c.verdict.threshold = c.threshold;
        if (saturated(loOut, c.threshold)) {
            c.verdict.saturatedAtLo = true;
            c.verdict.knee = c.lo;
            continue;
        }
        if (!saturated(hiOut, c.threshold)) {
            c.verdict.unsaturatedAtHi = true;
            c.verdict.knee = c.hi;
            continue;
        }
        c.active = true;
    }

    // Bisection rounds: one midpoint per active curve per round, all
    // midpoints of a round in one parallel batch. Each round halves
    // every active bracket, so rates depend only on measured verdicts
    // — never on timing — and a rerun reproduces the same points
    // (served from cache).
    for (int round = 0;
         round < opts.maxRounds && !report.interrupted; ++round) {
        std::vector<SweepJob> mids;
        std::vector<std::size_t> midCurve;
        for (std::size_t ci = 0; ci < curves.size(); ++ci) {
            CurveState &c = curves[ci];
            if (!c.active)
                continue;
            if (c.hi - c.lo <= opts.tolerance) {
                c.active = false;
                c.verdict.knee = 0.5 * (c.lo + c.hi);
                continue;
            }
            mids.push_back(makeJob(spec, c, 0.5 * (c.lo + c.hi)));
            midCurve.push_back(ci);
        }
        if (mids.empty())
            break;
        const auto midOutcomes = runBatch(mids);
        for (std::size_t mi = 0; mi < mids.size(); ++mi) {
            CurveState &c = curves[midCurve[mi]];
            const JobOutcome &out = midOutcomes[mi];
            const double mid = mids[mi].cfg.injectionRate;
            ++c.verdict.points;
            if (out.skipped) {
                c.active = false;
                c.verdict.failed = true;
                c.verdict.error = "interrupted";
                continue;
            }
            if (!out.ok) {
                c.active = false;
                c.verdict.failed = true;
                c.verdict.error = out.error;
                continue;
            }
            if (saturated(out, c.threshold))
                c.hi = mid;
            else
                c.lo = mid;
        }
    }
    // Close out any brackets the round cap cut short.
    for (CurveState &c : curves) {
        if (c.active) {
            c.active = false;
            c.verdict.knee = 0.5 * (c.lo + c.hi);
        }
        c.verdict.lo = c.lo;
        c.verdict.hi = c.hi;
        report.curves.push_back(std::move(c.verdict));
    }

    if (run.cache)
        report.cacheHits = run.cache->hits();
    report.elapsedSeconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    return report;
}

} // namespace ebda::sweep
