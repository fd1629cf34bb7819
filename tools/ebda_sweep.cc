/**
 * @file
 * ebda_sweep — parallel parameter-sweep runner with a persistent,
 * content-addressed result cache (binary record store + hash index,
 * mmap-served; see src/sweep/result_cache.hh).
 *
 * Subcommands:
 *   run    --spec sweep.json [--jobs N] [--cache DIR] [--out FILE]
 *          [--job-timeout SEC] [--job-cycles N] [--no-retry]
 *          [--sched auto|cycle|event] [--shards N]
 *          [--order cost|spec]
 *          Expand the spec into its job grid, serve cached points from
 *          --cache (when given), run the rest on N worker threads
 *          (default: all cores), and write one JSONL row per job to
 *          --out (default results.jsonl; '-' = stdout), sorted by job
 *          hash so output is identical for any thread count and job
 *          order. Prints hit/miss/simulated/elapsed counters and the
 *          cache-blocked time to stderr.
 *          --job-timeout / --job-cycles set per-job wall-clock and
 *          simulated-cycle budgets; a job that blows one (or trips the
 *          simulator's deadlock watchdog) gets one retry (--no-retry
 *          disables it) and is then quarantined in the cache so later
 *          sweeps serve the record instead of rerunning it.
 *          --sched overrides the scheduling backend for every executed
 *          job (default auto: per-job injection-rate heuristic, see
 *          sim/scheduler.hh). Cache keys never include the mode — the
 *          backends are trace-equivalent, so entries are shared.
 *          --shards overrides SimConfig::shards for every job (0 =
 *          auto). The shard count IS part of a job's identity, so the
 *          override re-finalizes the jobs and cache entries are keyed
 *          per shard count.
 *          --order picks the schedule jobs are pulled in: cost
 *          (default) runs longest-expected-first through guided
 *          chunked self-scheduling — the cost model is a nodes ×
 *          cycles prior calibrated by measured per-key wall-clocks
 *          from the cache — which collapses the straggler tail on
 *          heterogeneous grids; spec is the original index order.
 *          Results are bit-identical either way (jobs are hermetic).
 *          SIGINT/SIGTERM stop the sweep gracefully: running jobs
 *          abort, pending jobs are skipped, completed results are
 *          flushed to --out and the cache, and the exit code is 130.
 *          Rerunning the same command with the same --cache resumes:
 *          the content-addressed cache serves every finished job, and
 *          only the missing ones are simulated.
 *   refine --spec sweep.json [--threshold CYCLES | --knee-factor F]
 *          [--tolerance T] [--max-rounds N] [run options]
 *          Adaptive saturation search: treat each (topology, router,
 *          pattern, selection) combination as one curve, take the
 *          spec's rate axis min/max as the bracket, and bisect toward
 *          the saturation knee (latency crossing the threshold —
 *          absolute --threshold, or --knee-factor × the low-end
 *          latency — or deadlock / failed drain / quarantine) instead
 *          of burning cores on flat grid regions. Every evaluated
 *          point is a regular sweep job with the grid's cache key, and
 *          --out (default refine.jsonl) gets the standard JSONL rows.
 *   expand --spec sweep.json
 *          Print the job grid (key + human label) without running.
 *   cache stats   --cache DIR
 *          Record/index/quarantine counts and file sizes straight from
 *          the persisted index — no result payloads are loaded.
 *   cache clear   --cache DIR
 *   cache compact --cache DIR
 *          Rewrite the record store dropping superseded duplicate keys
 *          (atomic temp-file swap); reports reclaimed bytes.
 *   cache export  --cache DIR --out FILE
 *   cache import  --cache DIR --in FILE
 *          Round-trip the store through the legacy JSONL line format
 *          (the PR-1 cache.jsonl layout) for inspection or transport.
 *          A legacy cache.jsonl found in DIR by any command migrates
 *          into the record store transparently, once (the file is
 *          renamed to cache.jsonl.migrated; keys are unchanged).
 *
 * Exit codes: 0 on success, 1 when any job failed to run, 2 on usage
 * or spec errors (including an option the subcommand never reads),
 * 130 on interrupt. Deadlocked simulations are
 * results, not failures.
 */

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "sim/shard_partition.hh"
#include "sim/sim_json.hh"
#include "sweep/refine.hh"
#include "sweep/result_cache.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "util/cli.hh"

namespace {

using namespace ebda;

/** Flipped by SIGINT/SIGTERM; polled by running simulations (via the
 *  runner's interrupt flag) and by the job dispatcher. */
std::atomic<bool> g_interrupted{false};

extern "C" void
onSignal(int)
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

int
usage()
{
    std::cerr <<
        "usage: ebda_sweep <run|refine|expand|cache> [options]\n"
        "  run    --spec sweep.json [--jobs N] [--cache DIR]\n"
        "         [--out results.jsonl] [--job-timeout SEC]\n"
        "         [--job-cycles N] [--no-retry]\n"
        "         [--sched auto|cycle|event] [--shards N]\n"
        "         [--order cost|spec]\n"
        "  refine --spec sweep.json [--threshold CYCLES]\n"
        "         [--knee-factor F] [--tolerance T] [--max-rounds N]\n"
        "         [--jobs N] [--cache DIR] [--out refine.jsonl]\n"
        "         [--job-timeout SEC] [--job-cycles N] [--no-retry]\n"
        "         [--sched auto|cycle|event]\n"
        "  expand --spec sweep.json\n"
        "  cache  stats --cache DIR\n"
        "  cache  clear --cache DIR\n"
        "  cache  compact --cache DIR\n"
        "  cache  export --cache DIR --out FILE\n"
        "  cache  import --cache DIR --in FILE\n";
    return 2;
}

std::optional<sweep::SweepSpec>
loadSpec(const Args &args)
{
    const auto path = args.get("spec");
    if (path.empty()) {
        std::cerr << "missing --spec\n";
        return std::nullopt;
    }
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open spec file '" << path << "'\n";
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    auto spec = sweep::SweepSpec::parse(text.str(), &err);
    if (!spec)
        std::cerr << "bad spec: " << err << '\n';
    return spec;
}

std::string
jobLabel(const sweep::SweepJob &job)
{
    return job.topo.toString() + " | " + job.router + " | "
           + sim::toString(job.pattern) + " | "
           + sim::toString(job.cfg.selection) + " | rate "
           + std::to_string(job.cfg.injectionRate);
}

/** Shared run/refine option parsing (threads, budgets, sched mode).
 *  Returns false (with a message) on a bad value. */
bool
parseRunOptions(const Args &args, sweep::RunOptions *opts)
{
    opts->threads = static_cast<int>(args.getInt("jobs", 0));
    opts->jobWallClockBudgetSeconds = args.getDouble("job-timeout", 0.0);
    opts->jobCycleBudget =
        static_cast<std::uint64_t>(args.getInt("job-cycles", 0));
    if (args.has("no-retry"))
        opts->watchdogRetries = 0;
    opts->interruptFlag = &g_interrupted;
    if (args.has("sched")) {
        const auto mode = sim::schedModeFromString(args.get("sched"));
        if (!mode) {
            std::cerr << "--sched must be auto, cycle or event\n";
            return false;
        }
        opts->schedMode = *mode;
    }
    if (args.has("order")) {
        const auto order = args.get("order");
        if (order == "cost")
            opts->order = sweep::JobOrder::CostDescending;
        else if (order == "spec")
            opts->order = sweep::JobOrder::Spec;
        else {
            std::cerr << "--order must be cost or spec\n";
            return false;
        }
    }
    if (opts->jobWallClockBudgetSeconds < 0.0) {
        std::cerr << "--job-timeout must be >= 0\n";
        return false;
    }
    return true;
}

int
cmdRun(const Args &args)
{
    const auto spec = loadSpec(args);
    if (!spec)
        return 2;
    auto jobs = spec->expand();
    if (jobs.empty()) {
        std::cerr << "spec expands to zero jobs\n";
        return 2;
    }
    if (args.has("shards")) {
        // Unlike --sched, the shard count is part of each job's
        // identity (a sharded run is a different — equally valid —
        // simulation), so the override re-finalizes every job: cache
        // keys change and entries are NOT shared with unsharded runs.
        const long long s = args.getInt("shards", -1);
        if (s < 0 || s > sim::kMaxShards) {
            std::cerr << "--shards must be in [0, " << sim::kMaxShards
                      << "] (0 = auto)\n";
            return 2;
        }
        for (auto &job : jobs) {
            job.cfg.shards = static_cast<int>(s);
            sweep::finalizeJob(job);
        }
    }

    sweep::RunOptions opts;
    if (!parseRunOptions(args, &opts))
        return 2;
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::unique_ptr<sweep::ResultCache> cache;
    const auto cache_dir = args.get("cache");
    if (!cache_dir.empty()) {
        cache = std::make_unique<sweep::ResultCache>(cache_dir);
        opts.cache = cache.get();
        if (cache->migratedEntries() > 0)
            std::cerr << "cache " << cache_dir << ": migrated "
                      << cache->migratedEntries()
                      << " legacy JSONL entr"
                      << (cache->migratedEntries() == 1 ? "y" : "ies")
                      << " into the record store\n";
        if (cache->corruptedLines() > 0)
            std::cerr << "warning: skipped " << cache->corruptedLines()
                      << " corrupted cache entr"
                      << (cache->corruptedLines() == 1 ? "y" : "ies")
                      << '\n';
    }

    std::cerr << (spec->name.empty() ? std::string("sweep")
                                     : spec->name)
              << ": " << jobs.size() << " job(s)\n";

    const auto report = sweep::runSweep(jobs, opts);

    const auto out_path = args.get("out", "results.jsonl");
    if (out_path == "-") {
        sweep::writeResultsJsonl(jobs, report.outcomes, std::cout);
    } else {
        std::ofstream out(out_path, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write '" << out_path << "'\n";
            return 1;
        }
        sweep::writeResultsJsonl(jobs, report.outcomes, out);
    }

    std::uint64_t deadlocked = 0;
    for (const auto &o : report.outcomes)
        if (o.ok && o.result.deadlocked)
            ++deadlocked;

    if (report.interrupted)
        std::cerr << "interrupted: " << report.skipped
                  << " job(s) skipped; completed results were written"
                  << (cache ? "; rerun the same command to resume" : "")
                  << '\n';

    std::cerr << "threads " << report.threads << " | simulated "
              << report.simulated << " | cache hits " << report.cacheHits
              << " / misses " << report.cacheMisses << " | deadlocked "
              << deadlocked << " | quarantined " << report.quarantined
              << " | retried " << report.retried << " | failed "
              << report.failed << " | skipped " << report.skipped
              << " | cache-blocked " << report.cacheBlockedSeconds
              << " s | " << report.elapsedSeconds << " s\n";

    // The persistent cache's state after this sweep (the summary
    // line's hit/miss counters only cover this run).
    if (cache)
        std::cerr << "cache " << cache_dir << ": "
                  << report.cacheHits << " hit(s), "
                  << report.cacheMisses << " miss(es) this run | now "
                  << cache->entries() << " entr"
                  << (cache->entries() == 1 ? "y" : "ies") << ", "
                  << cache->quarantinedEntries() << " quarantined\n";

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &o = report.outcomes[i];
        if (!o.ok && !o.skipped)
            std::cerr << "FAILED " << jobLabel(jobs[i]) << ": "
                      << o.error << '\n';
        else if (o.quarantined)
            std::cerr << "QUARANTINED " << jobLabel(jobs[i]) << ": "
                      << o.error << '\n';
    }

    if (report.interrupted)
        return 130;
    return report.failed == 0 ? 0 : 1;
}

int
cmdRefine(const Args &args)
{
    const auto spec = loadSpec(args);
    if (!spec)
        return 2;

    sweep::RefineOptions opts;
    opts.latencyThreshold = args.getDouble("threshold", 0.0);
    opts.kneeFactor = args.getDouble("knee-factor", 3.0);
    opts.tolerance = args.getDouble("tolerance", 0.005);
    opts.maxRounds = static_cast<int>(args.getInt("max-rounds", 16));
    if (!parseRunOptions(args, &opts.run))
        return 2;
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }
    if (opts.kneeFactor <= 1.0) {
        std::cerr << "--knee-factor must be > 1\n";
        return 2;
    }
    if (opts.tolerance <= 0.0) {
        std::cerr << "--tolerance must be > 0\n";
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::unique_ptr<sweep::ResultCache> cache;
    const auto cache_dir = args.get("cache");
    if (!cache_dir.empty()) {
        cache = std::make_unique<sweep::ResultCache>(cache_dir);
        opts.run.cache = cache.get();
    }

    std::cerr << (spec->name.empty() ? std::string("refine")
                                     : "refine " + spec->name)
              << ": " << spec->topologies.size() * spec->routers.size()
                         * spec->patterns.size()
                         * spec->selections.size()
              << " curve(s)\n";

    const auto report = sweep::refineSweep(*spec, opts);

    const auto out_path = args.get("out", "refine.jsonl");
    if (out_path == "-") {
        sweep::writeResultsJsonl(report.jobs, report.outcomes,
                                 std::cout);
    } else {
        std::ofstream out(out_path, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write '" << out_path << "'\n";
            return 1;
        }
        sweep::writeResultsJsonl(report.jobs, report.outcomes, out);
    }

    bool anyFailed = false;
    for (const auto &c : report.curves) {
        std::cerr << "  " << c.label << ": ";
        if (c.failed) {
            std::cerr << "FAILED: " << c.error << '\n';
            anyFailed = true;
            continue;
        }
        if (c.saturatedAtLo)
            std::cerr << "saturated at the low end (knee <= " << c.lo
                      << ")";
        else if (c.unsaturatedAtHi)
            std::cerr << "no saturation up to " << c.hi;
        else
            std::cerr << "knee ~ " << c.knee << " in [" << c.lo << ", "
                      << c.hi << "]";
        std::cerr << " | threshold " << c.threshold << " cycles | "
                  << c.points << " point(s)\n";
    }

    std::cerr << "threads " << report.threads << " | simulated "
              << report.simulated << " | points "
              << report.jobs.size() << " | cache-blocked "
              << report.cacheBlockedSeconds << " s | "
              << report.elapsedSeconds << " s\n";

    if (report.interrupted)
        return 130;
    return anyFailed ? 1 : 0;
}

int
cmdExpand(const Args &args)
{
    const auto spec = loadSpec(args);
    if (!spec)
        return 2;
    const auto jobs = spec->expand();
    for (const auto &job : jobs)
        std::cout << sweep::keyToHex(job.key) << "  " << jobLabel(job)
                  << '\n';
    std::cout << jobs.size() << " job(s)\n";
    return 0;
}

int
cmdCacheStats(const Args &args)
{
    const auto dir = args.get("cache");
    if (dir.empty()) {
        std::cerr << "missing --cache\n";
        return 2;
    }
    // Index-only: no result payloads are parsed.
    const auto stats = sweep::ResultCache::stats(dir);
    std::cout << "cache " << dir << ": " << stats.records
              << " record(s), " << stats.quarantined
              << " quarantined | store " << stats.fileBytes
              << " B, index " << stats.indexBytes << " B";
    if (stats.tailRecovered > 0)
        std::cout << " | " << stats.tailRecovered
                  << " unindexed record(s) recovered";
    if (stats.tornBytesTruncated > 0)
        std::cout << " | torn tail of " << stats.tornBytesTruncated
                  << " B truncated";
    if (stats.indexRebuilt)
        std::cout << " | index rebuilt";
    if (stats.legacyJsonlPresent)
        std::cout << " | legacy cache.jsonl pending migration";
    std::cout << '\n';
    return 0;
}

int
cmdCacheClear(const Args &args)
{
    const auto dir = args.get("cache");
    if (dir.empty()) {
        std::cerr << "missing --cache\n";
        return 2;
    }
    std::string err;
    if (!sweep::ResultCache::clear(dir, &err)) {
        std::cerr << err << '\n';
        return 1;
    }
    std::cout << "cleared " << dir << '\n';
    return 0;
}

int
cmdCacheCompact(const Args &args)
{
    const auto dir = args.get("cache");
    if (dir.empty()) {
        std::cerr << "missing --cache\n";
        return 2;
    }
    std::string err;
    const auto stats = sweep::ResultCache::compact(dir, &err);
    if (!stats) {
        std::cerr << err << '\n';
        return 1;
    }
    std::cout << "compacted " << dir << ": kept " << stats->kept
              << ", dropped " << stats->droppedDuplicate
              << " superseded + " << stats->droppedCorrupted
              << " corrupted record(s), reclaimed "
              << stats->reclaimedBytes << " B\n";
    return 0;
}

int
cmdCacheExport(const Args &args)
{
    const auto dir = args.get("cache");
    const auto out = args.get("out");
    if (dir.empty() || out.empty()) {
        std::cerr << "cache export needs --cache and --out\n";
        return 2;
    }
    std::string err;
    std::size_t exported = 0;
    if (!sweep::ResultCache::exportJsonl(
            dir, out == "-" ? "/dev/stdout" : out, &exported, &err)) {
        std::cerr << err << '\n';
        return 1;
    }
    std::cerr << "exported " << exported << " record(s) to " << out
              << '\n';
    return 0;
}

int
cmdCacheImport(const Args &args)
{
    const auto dir = args.get("cache");
    const auto in = args.get("in");
    if (dir.empty() || in.empty()) {
        std::cerr << "cache import needs --cache and --in\n";
        return 2;
    }
    std::string err;
    const auto stats = sweep::ResultCache::importJsonl(dir, in, &err);
    if (!stats) {
        std::cerr << err << '\n';
        return 1;
    }
    std::cout << "imported " << stats->imported << " record(s)";
    if (stats->corrupted > 0)
        std::cout << " (" << stats->corrupted
                  << " corrupted line(s) skipped)";
    std::cout << " into " << dir << '\n';
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    int first = 2;
    std::string sub;
    if (cmd == "cache") {
        if (argc < 3)
            return usage();
        sub = argv[2];
        first = 3;
    }

    Args args(argc, argv, first);
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return usage();
    }

    const std::string name = sub.empty() ? cmd : cmd + " " + sub;
    const std::map<std::string, int (*)(const Args &)> commands = {
        {"run", cmdRun},
        {"refine", cmdRefine},
        {"expand", cmdExpand},
        {"cache stats", cmdCacheStats},
        {"cache clear", cmdCacheClear},
        {"cache compact", cmdCacheCompact},
        {"cache export", cmdCacheExport},
        {"cache import", cmdCacheImport},
    };
    const auto it = commands.find(name);
    if (it == commands.end())
        return usage();
    int rc = 0;
    try {
        rc = it->second(args);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    // An option the command never read was mistyped or belongs to
    // another command: fail rather than report a run it did not shape.
    if (const std::string key = args.unread(); rc != 2 && !key.empty()) {
        std::cerr << "unknown option --" << key << " for " << name << '\n';
        return 2;
    }
    return rc;
}
