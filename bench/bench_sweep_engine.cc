/**
 * @file
 * Perf gates for the fleet-scale sweep engine (src/sweep/): the binary
 * record store's warm-start and all-hit serving rates, and the
 * cost-aware scheduler's straggler-tail collapse.
 *
 * Three gates:
 *  - warm start: opening the binary store (persisted index, mmap) on a
 *    >= 5k-entry cache and serving one lookup must beat a full parse of
 *    the same cache in the legacy JSONL format — the old open path —
 *    by >= 10x. Always enforced.
 *  - all-hit throughput: a fully cached sweep (every job served, zero
 *    simulations) must clear 100k jobs/s end to end through runSweep.
 *    Always enforced.
 *  - straggler tail: on a grid of many cheap jobs with one expensive
 *    job buried at the END of spec order (the FIFO worst case), the
 *    cost-descending schedule's makespan must be <= 0.8x the spec-order
 *    makespan, with byte-identical result JSONL. Enforced ONLY with
 *    >= 4 host threads (hostThreads()); on smaller hosts the ratio is still
 *    measured and reported but the gate is skipped with a notice (a
 *    serial host has no tail to collapse).
 *
 * Machine-readable output: the JSON summary is printed to stdout and,
 * when EBDA_SWEEP_ENGINE_JSON is set, written to that path
 * (scripts/perf_baseline.sh merges it into BENCH_sim.json as the
 * `sweep_engine` member; CI uploads it as an artifact).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/sim_json.hh"
#include "sweep/result_cache.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "util/host_threads.hh"
#include "util/json.hh"

namespace ebda {
namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Scratch dir under CWD, wiped on both ends. */
struct ScratchDir
{
    explicit ScratchDir(const char *tag)
        : path(std::string("bench-sweep-engine-") + tag)
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/** A 4x4-mesh grid point at the given injection rate. */
sweep::SweepJob
lightJob(double rate, std::vector<int> dims = {4, 4},
         std::uint64_t warmup = 100, std::uint64_t measure = 200)
{
    sweep::SweepJob job;
    job.topo.kind = sweep::TopologySpec::Kind::Mesh;
    job.topo.dims = std::move(dims);
    job.topo.vcs = {2, 2};
    job.router = "xy";
    job.pattern = sim::TrafficPattern::Uniform;
    job.cfg.injectionRate = rate;
    job.cfg.warmupCycles = warmup;
    job.cfg.measureCycles = measure;
    job.cfg.drainCycles = 3000;
    job.cfg.watchdogCycles = 20000;
    job.cfg.seed = 2026;
    sweep::finalizeJob(job);
    return job;
}

/** A synthetic result (the serving gates never simulate). */
sim::SimResult
syntheticResult(std::size_t i)
{
    sim::SimResult r;
    r.avgLatency = 10.0 + 0.001 * static_cast<double>(i);
    r.packetsMeasured = 100 + i;
    r.packetsEjected = 100 + i;
    r.drained = true;
    return r;
}

int
benchMain()
{
    const unsigned hw = hostThreads();
    bool pass = true;

    // ----------------------------------------------------------------
    // Build a >= 5k-entry cache of distinct grid points. Results are
    // synthetic: these gates measure serving, not simulation.
    constexpr std::size_t kEntries = 6000;
    std::printf("sweep engine bench (%u host thread%s)\n", hw,
                hw == 1 ? "" : "s");
    std::printf("populating %zu-entry cache...\n", kEntries);

    const ScratchDir dir("store");
    std::vector<sweep::SweepJob> jobs;
    jobs.reserve(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i)
        jobs.push_back(
            lightJob(0.001 + 0.0001 * static_cast<double>(i)));
    {
        sweep::ResultCache writer(dir.path);
        for (std::size_t i = 0; i < kEntries; ++i)
            writer.store(jobs[i].key, jobs[i].canonical,
                         syntheticResult(i),
                         /*wallSeconds=*/0.001);
    }

    // The legacy-format rendition of the same cache: what every open
    // used to parse in full.
    const std::string legacyPath = dir.path + "/legacy-export.jsonl";
    {
        std::string err;
        if (!sweep::ResultCache::exportJsonl(dir.path, legacyPath,
                                             nullptr, &err)) {
            std::cerr << "export failed: " << err << '\n';
            return 1;
        }
    }

    // ----------------------------------------------------------------
    // Gate 1: warm start. Binary open + first lookup vs the legacy
    // open path (parse every JSONL line into a SimResult — the exact
    // work the old ResultCache constructor did). Best of 3 each.
    double binOpen = 1e9, jsonlParse = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        sweep::ResultCache cache(dir.path);
        const auto hit = cache.lookup(jobs[kEntries / 2].key);
        const auto t1 = Clock::now();
        if (!hit || cache.entries() != kEntries) {
            std::cerr << "warm open served "
                      << cache.entries() << "/" << kEntries
                      << " entries\n";
            return 1;
        }
        binOpen = std::min(binOpen, seconds(t0, t1));
    }
    std::size_t parsed = 0;
    {
        const auto t0 = Clock::now();
        std::ifstream in(legacyPath);
        std::string line;
        while (std::getline(in, line)) {
            const auto doc = parseJson(line);
            if (!doc || !doc->isObject())
                continue;
            const auto *result = doc->find("result");
            if (result && sim::resultFromJson(*result))
                ++parsed;
        }
        jsonlParse = seconds(t0, Clock::now());
    }
    if (parsed != kEntries) {
        std::cerr << "legacy parse covered " << parsed << "/" << kEntries
                  << " lines\n";
        return 1;
    }
    const double warmSpeedup = binOpen > 0 ? jsonlParse / binOpen : 0.0;
    std::printf("warm start: binary open+lookup %.1f ms vs legacy "
                "JSONL parse %.1f ms -> %.1fx\n",
                binOpen * 1e3, jsonlParse * 1e3, warmSpeedup);
    const bool warmPass = warmSpeedup >= 10.0;
    std::printf("  warm-start gate: %.1fx >= 10x: %s\n", warmSpeedup,
                warmPass ? "ok" : "TOO SLOW");
    if (!warmPass)
        pass = false;

    // ----------------------------------------------------------------
    // Gate 2: all-hit throughput through runSweep. Every key is
    // served; zero simulations may run.
    double allHitRate = 0.0;
    {
        sweep::ResultCache cache(dir.path);
        sweep::RunOptions opts;
        opts.cache = &cache;
        double best = 1e9;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = Clock::now();
            const auto report = sweep::runSweep(jobs, opts);
            const double dt = seconds(t0, Clock::now());
            if (report.simulated != 0 ||
                report.cacheHits < kEntries * (rep + 1)) {
                std::cerr << "all-hit sweep simulated "
                          << report.simulated << " job(s)\n";
                return 1;
            }
            best = std::min(best, dt);
        }
        allHitRate = static_cast<double>(kEntries) / best;
    }
    const bool allHitPass = allHitRate >= 100e3;
    std::printf("all-hit serving: %.0f jobs/s\n", allHitRate);
    std::printf("  all-hit gate: %.0f >= 100000 jobs/s: %s\n",
                allHitRate, allHitPass ? "ok" : "TOO SLOW");
    if (!allHitPass)
        pass = false;

    // ----------------------------------------------------------------
    // Gate 3: straggler tail. Many cheap jobs followed by one
    // expensive job in spec order; the cost model must front-load it.
    std::vector<sweep::SweepJob> tail;
    for (std::size_t i = 0; i < 160; ++i)
        tail.push_back(lightJob(0.02 + 0.0001 * static_cast<double>(i)));
    // The straggler: a 16x16 mesh with a long measurement window,
    // appended LAST. Its nodes x cycles prior dwarfs the light jobs',
    // so CostDescending schedules it first.
    tail.push_back(lightJob(0.10, {16, 16}, 1000, 4000));

    double fifoMakespan = 0.0, costMakespan = 0.0;
    std::string fifoRows, costRows;
    {
        sweep::RunOptions fifo;
        fifo.order = sweep::JobOrder::Spec;
        const auto t0 = Clock::now();
        const auto report = sweep::runSweep(tail, fifo);
        fifoMakespan = seconds(t0, Clock::now());
        std::ostringstream rows;
        sweep::writeResultsJsonl(tail, report.outcomes, rows);
        fifoRows = rows.str();
    }
    {
        sweep::RunOptions cost;
        cost.order = sweep::JobOrder::CostDescending;
        const auto t0 = Clock::now();
        const auto report = sweep::runSweep(tail, cost);
        costMakespan = seconds(t0, Clock::now());
        std::ostringstream rows;
        sweep::writeResultsJsonl(tail, report.outcomes, rows);
        costRows = rows.str();
    }
    const bool identical = fifoRows == costRows && !fifoRows.empty();
    if (!identical) {
        std::printf("straggler sweep: cost-ordered rows DIVERGED from "
                    "spec order\n");
        pass = false;
    }
    const double tailRatio =
        fifoMakespan > 0 ? costMakespan / fifoMakespan : 0.0;
    std::printf("straggler tail: spec order %.2f s, cost order %.2f s "
                "-> ratio %.2f\n",
                fifoMakespan, costMakespan, tailRatio);
    const bool tailEnforced = hw >= 4;
    bool tailPass = true;
    if (tailEnforced) {
        tailPass = tailRatio <= 0.8;
        std::printf("  straggler gate: ratio %.2f <= 0.8: %s\n",
                    tailRatio, tailPass ? "ok" : "TOO SLOW");
        if (!tailPass)
            pass = false;
    } else {
        std::printf("  NOTICE: straggler gate SKIPPED — host has %u "
                    "host thread%s (< 4); a serial schedule has no "
                    "tail to collapse\n",
                    hw, hw == 1 ? "" : "s");
    }

    std::ostringstream json;
    json << "{\"bench\":\"sweep_engine\""
         << ",\"entries\":" << kEntries
         << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
         << ",\"host_threads\":" << hw
         << ",\"warm_open_seconds\":" << binOpen
         << ",\"legacy_parse_seconds\":" << jsonlParse
         << ",\"warm_speedup\":" << warmSpeedup
         << ",\"all_hit_jobs_per_sec\":" << allHitRate
         << ",\"straggler_fifo_seconds\":" << fifoMakespan
         << ",\"straggler_cost_seconds\":" << costMakespan
         << ",\"straggler_ratio\":" << tailRatio
         << ",\"straggler_gate_enforced\":"
         << (tailEnforced ? "true" : "false")
         << ",\"rows_identical\":" << (identical ? "true" : "false")
         << ",\"pass\":" << (pass ? "true" : "false") << "}";

    std::cout << "\nSWEEP_ENGINE_BENCH_JSON: " << json.str() << '\n';
    if (const char *path = std::getenv("EBDA_SWEEP_ENGINE_JSON");
        path && *path) {
        std::ofstream out(path);
        out << json.str() << '\n';
    }
    return pass ? 0 : 1;
}

} // namespace
} // namespace ebda

int
main()
{
    return ebda::benchMain();
}
