/**
 * @file
 * Shared scaffolding for the reproduction benches.
 *
 * Every bench binary does two jobs when run without arguments:
 *  1. print the reproduction of its paper table/figure (the rows the
 *     paper reports, plus our measured counterparts), then
 *  2. run its google-benchmark timings (registered with BENCHMARK()).
 * EXPERIMENTS.md records the printed output against the paper.
 */

#ifndef EBDA_BENCH_COMMON_HH
#define EBDA_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "sweep/runner.hh"

namespace ebda::bench {

/** Print a section banner for the reproduction output. */
inline void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n";
}

/** The host's CPU model from /proc/cpuinfo (JSON-safe), or "unknown":
 *  part of the host shape a bench's JSON summary records. */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
            continue;
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::replace_if(
            model.begin(), model.end(),
            [](char ch) { return ch == '"' || ch == '\\'; }, ' ');
        return model;
    }
    return "unknown";
}

/**
 * Run a bench's simulation grid on the sweep engine: all cores,
 * results bit-identical to a serial loop. Environment overrides:
 *   EBDA_SWEEP_CACHE=<dir>   persist/reuse results across benches
 *                            and reruns (content-addressed);
 *   EBDA_SWEEP_JSONL=<file>  append machine-readable result rows.
 */
inline sweep::SweepReport
runJobs(const std::vector<sweep::SweepJob> &jobs,
        const sweep::RunOptions &base = {})
{
    sweep::RunOptions opts = base;
    std::unique_ptr<sweep::ResultCache> cache;
    if (const char *dir = std::getenv("EBDA_SWEEP_CACHE");
        dir && *dir) {
        cache = std::make_unique<sweep::ResultCache>(dir);
        opts.cache = cache.get();
    }
    auto report = sweep::runSweep(jobs, opts);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!report.outcomes[i].ok)
            std::cerr << "sweep job failed (" << jobs[i].router
                      << "): " << report.outcomes[i].error << '\n';
    if (const char *path = std::getenv("EBDA_SWEEP_JSONL");
        path && *path) {
        std::ofstream out(path, std::ios::app);
        sweep::writeResultsJsonl(jobs, report.outcomes, out);
    }
    return report;
}

/** Grid point on an 8x8, 2-VC mesh (the benches' standard network). */
inline sweep::SweepJob
meshJob(const std::string &router, sim::TrafficPattern pattern,
        const sim::SimConfig &cfg, std::vector<int> dims = {8, 8},
        std::vector<int> vcs = {2, 2})
{
    sweep::SweepJob job;
    job.topo.kind = sweep::TopologySpec::Kind::Mesh;
    job.topo.dims = std::move(dims);
    job.topo.vcs = std::move(vcs);
    job.router = router;
    job.pattern = pattern;
    job.cfg = cfg;
    sweep::finalizeJob(job);
    return job;
}

/** Grid point on a dragonfly(a,p,h) fabric (default the ROADMAP's
 *  dragonfly(4,2,2)). */
inline sweep::SweepJob
dragonflyJob(const std::string &router, sim::TrafficPattern pattern,
             const sim::SimConfig &cfg, int a = 4, int p = 2, int h = 2)
{
    sweep::SweepJob job;
    job.topo.kind = sweep::TopologySpec::Kind::Dragonfly;
    job.topo.a = a;
    job.topo.p = p;
    job.topo.h = h;
    job.router = router;
    job.pattern = pattern;
    job.cfg = cfg;
    sweep::finalizeJob(job);
    return job;
}

/** Grid point on an n-node full mesh. */
inline sweep::SweepJob
fullMeshJob(const std::string &router, sim::TrafficPattern pattern,
            const sim::SimConfig &cfg, int nodes = 8)
{
    sweep::SweepJob job;
    job.topo.kind = sweep::TopologySpec::Kind::FullMesh;
    job.topo.nodes = nodes;
    job.router = router;
    job.pattern = pattern;
    job.cfg = cfg;
    sweep::finalizeJob(job);
    return job;
}

} // namespace ebda::bench

/** Define main(): print the reproduction, then run the timings. */
#define EBDA_BENCH_MAIN(print_fn) \
    int \
    main(int argc, char **argv) \
    { \
        print_fn(); \
        ::benchmark::Initialize(&argc, argv); \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
            return 1; \
        std::cout << "\n--- timings ---\n"; \
        ::benchmark::RunSpecifiedBenchmarks(); \
        return 0; \
    }

#endif // EBDA_BENCH_COMMON_HH
