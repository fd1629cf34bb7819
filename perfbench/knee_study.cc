/**
 * @file
 * knee_study_8x8: the paper-reproduction campaign. A grid sweep over
 * six routers, two patterns and four rates on an 8x8 2-VC mesh, then
 * refineSweep bisecting every curve toward its saturation knee on the
 * same fresh cache directory, so the refine phase reads the grid
 * endpoints from the cache alongside its new writes.
 *
 * The sweep runner, thread pool, cache and each job's route-table
 * compile (odd-even's per-source table is 15.9 MB) do the work; the
 * event scheduler and shards do nothing at these rates and sizes.
 */

#include "perfbench.hh"

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "sweep/refine.hh"
#include "sweep/router_factory.hh"

namespace perfbench {
namespace {

using namespace ebda;

/** Grid rates: the 0.05 and 0.40 ends bracket every knee; refine
 *  bisects between them. */
constexpr const char *kRates = "[0.05, 0.15, 0.3, 0.4]";

/** Refine stops when the knee bracket is this narrow (5 bisections of
 *  the 0.35-wide range). */
constexpr double kRefineTolerance = 0.02;

/** Setups per round: a round takes seconds, so few fit in a run, and
 *  setup_s is the median over every setup of the run. */
constexpr int kSetups = 10;

/** The campaign spec: examples/sweep_latency.json's routers, patterns
 *  and sim parameters on a coarser rate grid, with the master seed
 *  taken from the benchmark seed. */
std::string
specText(std::uint64_t seed)
{
    return std::string(R"({"name": "knee_study_8x8",
  "topology": {"type": "mesh", "dims": [8, 8], "vcs": [2, 2]},
  "routers": ["xy", "west-first", "negative-first", "odd-even",
              "fig7b", "region:2"],
  "patterns": ["uniform", "transpose"],
  "rates": )")
        + kRates + R"(,
  "sim": {"seed": )" + std::to_string(seed) + R"(, "vcDepth": 4,
          "packetLength": 4, "warmupCycles": 1500,
          "measureCycles": 4000, "drainCycles": 30000,
          "watchdogCycles": 4000}})";
}

class KneeStudy final : public Workload
{
  public:
    KneeStudy(std::uint64_t seed, std::string work_dir, int workers)
        : text(specText(seed)), workDir(std::move(work_dir)),
          workers(workers)
    {
    }

    Round round(Tracer &tr, int index) override;

  private:
    std::string text;
    std::string workDir;
    int workers;
};

Round
KneeStudy::round(Tracer &tr, int index)
{
    Round out;
    const std::string dir = workDir + "/knee-r" + std::to_string(index);

    // Setup runs from the spec text to an open, empty cache: parse and
    // expand the grid, build the fabric, check every router builds.
    sweep::SweepSpec spec;
    std::vector<sweep::SweepJob> jobs;
    std::optional<topo::Network> net;
    std::unique_ptr<sweep::ResultCache> cache;
    for (int k = 0; k < kSetups; ++k) {
        cache.reset();
        net.reset();
        std::filesystem::remove_all(dir);
        double build = 0.0, make_router = 0.0, cache_open = 0.0;
        out.setupSamples.push_back(tr.span("setup", [&] {
            tr.span("sweep.expand", [&] {
                std::string err;
                auto parsed = sweep::SweepSpec::parse(text, &err);
                if (!parsed)
                    throw std::runtime_error("spec: " + err);
                spec = std::move(*parsed);
                jobs = spec.expand();
            });
            build = tr.span("topo.build", [&] {
                net.emplace(spec.topologies.front().build());
            });
            for (const std::string &router : spec.routers)
                make_router += tr.span("routing.make_router", [&] {
                    std::string err;
                    if (!sweep::makeRouter(*net, router, &err))
                        throw std::runtime_error(router + ": " + err);
                });
            cache_open = tr.span("sweep.cache_open", [&] {
                cache = std::make_unique<sweep::ResultCache>(dir);
            });
        }));
        out.layer["topo.build_s"] = build;
        out.layer["routing.make_router_s"] = make_router;
        out.layer["sweep.cache_open_s"] = cache_open;
    }

    sweep::RunOptions run;
    run.threads = workers;
    run.cache = cache.get();
    sweep::RefineOptions refine_opts;
    refine_opts.tolerance = kRefineTolerance;
    refine_opts.run = run;

    sweep::SweepReport grid;
    sweep::RefineReport refine;
    double grid_s = 0.0, refine_s = 0.0;
    tr.span("work", [&] {
        grid_s = tr.span("sweep.grid",
                         [&] { grid = sweep::runSweep(jobs, run); });
        refine_s = tr.span("sweep.refine", [&] {
            refine = sweep::refineSweep(spec, refine_opts);
        });
    });

    // Every grid job and refine point is one operation; executed
    // (not cache-served) ones feed the sim, routing and sweep layers.
    SimTotals totals;
    std::vector<double> job_walls;
    std::string digest_text;
    const std::size_t nodes = net->numNodes();
    const auto account = [&](const sweep::SweepJob &job,
                             const sweep::JobOutcome &o) {
        ++out.ops;
        const bool ran = o.ok && !o.skipped;
        if (!ran || simulationFailed(o.result))
            ++out.failed;
        digest_text += sweep::keyToHex(job.key) + ' '
            + simulatedJson(o.result) + '\n';
        if (!ran || o.fromCache)
            return;
        totals.add(o.result, nodes, job.cfg.shards);
        if (const auto wall = cache->measuredWallSeconds(job.key))
            job_walls.push_back(*wall);
    };
    for (std::size_t i = 0; i < jobs.size(); ++i)
        account(jobs[i], grid.outcomes[i]);
    for (std::size_t i = 0; i < refine.jobs.size(); ++i)
        account(refine.jobs[i], refine.outcomes[i]);
    for (const sweep::RefineCurve &c : refine.curves)
        digest_text += c.label + " knee " + std::to_string(c.knee) + '\n';
    out.digest = sweep::fnv1a64(digest_text);

    out.workSeconds = grid_s + refine_s;
    out.simSeconds = out.workSeconds;
    out.simCycles = static_cast<double>(totals.cycles);
    totals.report(out);

    const double hits = static_cast<double>(cache->hits());
    const double lookups = hits + static_cast<double>(cache->misses());
    double busy = 0.0;
    for (const double w : job_walls)
        busy += w;
    auto &m = out.layer;
    m["sweep.grid_s"] = grid_s;
    m["sweep.refine_s"] = refine_s;
    m["sweep.cache_blocked_s"] =
        grid.cacheBlockedSeconds + refine.cacheBlockedSeconds;
    m["sweep.hit_frac"] = lookups > 0.0 ? hits / lookups : 0.0;
    m["sweep.worker_busy_frac"] =
        busy / (static_cast<double>(grid.threads) * out.workSeconds);
    m["sweep.job_s_p50"] = quantile(job_walls, 0.5);
    m["sweep.job_s_p90"] = quantile(job_walls, 0.9);
    m["sweep.simulated"] = static_cast<double>(grid.simulated + refine.simulated);
    m["sweep.cache_hits"] = hits;
    m["sweep.refine_points"] = static_cast<double>(refine.jobs.size());

    out.provenance.push_back(
        R"({"workload":"knee_study_8x8","grid_jobs":)"
        + std::to_string(jobs.size()) + R"(,"refine_points":)"
        + std::to_string(refine.jobs.size()) + R"(,"sweep_threads":)"
        + std::to_string(grid.threads) + R"(,"executed":)"
        + totals.provenance() + "}");

    cache.reset();
    std::filesystem::remove_all(dir);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeKneeStudy(std::uint64_t seed, const std::string &work_dir, int workers)
{
    return std::make_unique<KneeStudy>(seed, work_dir, workers);
}

} // namespace perfbench
