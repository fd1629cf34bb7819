/**
 * @file
 * Fleet-scale sweep-engine tests: binary record store crash recovery
 * (torn tails, lost index appends, index rebuilds), legacy JSONL
 * migration and export/import round-trips, group commit, resuming an
 * interrupted sweep from the cache, cost-ordered scheduling
 * determinism, and adaptive knee refinement.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unistd.h>

#include "sim/sim_json.hh"
#include "sweep/record_store.hh"
#include "sweep/refine.hh"
#include "sweep/result_cache.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "util/thread_pool.hh"
#include "util/json.hh"

namespace {

using namespace ebda;

const char *kSpecText = R"({
  "name": "engine",
  "topology": {"type": "mesh", "dims": [4, 4], "vcs": [2, 2]},
  "routers": ["xy", "fig7b"],
  "patterns": ["uniform", "transpose"],
  "rates": [0.05, 0.1],
  "sim": {"seed": 7, "warmupCycles": 100, "measureCycles": 300,
          "drainCycles": 3000, "watchdogCycles": 1500}
})";

sweep::SweepSpec
specOrDie(const std::string &text)
{
    std::string err;
    const auto spec = sweep::SweepSpec::parse(text, &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

/** RAII scratch directory under the test's working directory. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
        : path("sweep-engine-test-" + tag + "-"
               + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
resultsJsonl(const std::vector<sweep::SweepJob> &jobs,
             const sweep::SweepReport &report)
{
    std::ostringstream out;
    sweep::writeResultsJsonl(jobs, report.outcomes, out);
    return out.str();
}

sim::SimResult
mkResult(double latency, std::uint64_t packets)
{
    sim::SimResult r;
    r.avgLatency = latency;
    r.packetsMeasured = packets;
    return r;
}

// ----------------------------------------------------------- record store

TEST(RecordStore, TornTailIsTruncatedOnOpen)
{
    const ScratchDir dir("torn");
    {
        sweep::ResultCache writer(dir.path);
        writer.store(0x10ULL, "{}", mkResult(1.0, 1));
        writer.store(0x20ULL, "{}", mkResult(2.0, 2));
    }
    const auto intact =
        std::filesystem::file_size(sweep::ResultCache::binFile(dir.path));
    {
        // A killed writer's half-written record: a valid-looking magic
        // followed by garbage that cannot hold a full header.
        std::ofstream out(sweep::ResultCache::binFile(dir.path),
                          std::ios::app | std::ios::binary);
        out << "EBDRgarbage";
    }

    sweep::ResultCache cache(dir.path);
    EXPECT_EQ(cache.tornBytesTruncated(), 11u);
    EXPECT_EQ(cache.corruptedLines(), 1u);
    EXPECT_EQ(cache.entries(), 2u);
    ASSERT_TRUE(cache.lookup(0x10ULL));
    ASSERT_TRUE(cache.lookup(0x20ULL));
    // The file really was truncated back to the intact prefix.
    EXPECT_EQ(
        std::filesystem::file_size(sweep::ResultCache::binFile(dir.path)),
        intact);
}

TEST(RecordStore, UnindexedTailRecordsAreRecovered)
{
    const ScratchDir dir("lostidx");
    {
        sweep::ResultCache writer(dir.path);
        writer.store(0x1ULL, "{}", mkResult(1.0, 1));
    }
    // Simulate a writer killed between the record append and the index
    // append: a complete record lands in cache.bin with no index entry.
    const std::string resultJson = sim::toJson(mkResult(9.0, 9));
    {
        const auto base = std::filesystem::file_size(
            sweep::ResultCache::binFile(dir.path));
        std::string bin, idxStream;
        sweep::RecordStore::serialize(&bin, &idxStream, base, 0x2ULL,
                                      /*quarantined=*/false,
                                      /*wallSeconds=*/0.25, "{}",
                                      resultJson, "");
        std::ofstream out(sweep::ResultCache::binFile(dir.path),
                          std::ios::app | std::ios::binary);
        out.write(bin.data(), static_cast<std::streamsize>(bin.size()));
    }

    sweep::ResultCache cache(dir.path);
    EXPECT_EQ(cache.tailRecovered(), 1u);
    EXPECT_FALSE(cache.indexRebuilt());
    EXPECT_EQ(cache.entries(), 2u);
    const auto hit = cache.lookupEntry(0x2ULL);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->result.avgLatency, 9.0);
    EXPECT_EQ(hit->wallSeconds, 0.25);

    // The recovered index entry was persisted: the next open serves it
    // with no recovery work at all.
    sweep::ResultCache again(dir.path);
    EXPECT_EQ(again.tailRecovered(), 0u);
    EXPECT_EQ(again.entries(), 2u);
}

TEST(RecordStore, MissingIndexIsRebuiltFromRecords)
{
    const ScratchDir dir("rebuild");
    {
        sweep::ResultCache writer(dir.path);
        writer.store(0x1ULL, "{}", mkResult(1.0, 1));
        writer.storeQuarantine(0x2ULL, "{}", mkResult(2.0, 0), "budget: x");
    }
    std::filesystem::remove(sweep::ResultCache::indexFile(dir.path));

    sweep::ResultCache cache(dir.path);
    EXPECT_TRUE(cache.indexRebuilt());
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.quarantinedEntries(), 1u);
    const auto hit = cache.lookupEntry(0x2ULL);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->quarantine, "budget: x");
}

TEST(RecordStore, GroupCommitBatchesWrites)
{
    const ScratchDir dir("groupcommit");
    sweep::ResultCache writer(dir.path);
    for (std::uint64_t k = 1; k <= 3; ++k)
        writer.store(k, "{}", mkResult(1.0, k));
    // Below the group-commit threshold: nothing on disk yet.
    EXPECT_EQ(sweep::ResultCache::stats(dir.path).records, 0u);

    ASSERT_TRUE(writer.flush());
    EXPECT_EQ(sweep::ResultCache::stats(dir.path).records, 3u);

    // Crossing the threshold commits without an explicit flush.
    for (std::uint64_t k = 10;
         k < 10 + sweep::ResultCache::kGroupCommitRecords; ++k)
        writer.store(k, "{}", mkResult(1.0, k));
    EXPECT_GE(sweep::ResultCache::stats(dir.path).records,
              sweep::ResultCache::kGroupCommitRecords);

    // Pending records are still served (from the session map) before
    // they hit disk, and the destructor flushes the remainder.
    writer.store(0x999ULL, "{}", mkResult(5.0, 5));
    ASSERT_TRUE(writer.lookup(0x999ULL));
}

TEST(RecordStore, WallClockIsStoredAndServedFromIndex)
{
    const ScratchDir dir("wall");
    {
        sweep::ResultCache writer(dir.path);
        writer.store(0xaULL, "{}", mkResult(1.0, 1), /*wallSeconds=*/1.5);
        writer.store(0xbULL, "{}", mkResult(2.0, 2));
    }
    sweep::ResultCache cache(dir.path);
    const auto wall = cache.measuredWallSeconds(0xaULL);
    ASSERT_TRUE(wall);
    EXPECT_EQ(*wall, 1.5);
    EXPECT_FALSE(cache.measuredWallSeconds(0xbULL)) << "unknown wall";
    const auto hit = cache.lookupEntry(0xaULL);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->wallSeconds, 1.5);
}

// ------------------------------------------------- migration + interchange

TEST(Migration, LegacyJsonlMigratesOnceKeepingKeys)
{
    const ScratchDir dir("migrate");
    std::filesystem::create_directories(dir.path);
    {
        std::ofstream out(sweep::ResultCache::cacheFile(dir.path));
        out << R"({"key":"00000000000000aa","config":{"x":1},)"
            << R"("result":{"avgLatency":3.5,"packetsMeasured":11}})"
            << '\n';
        out << "not json\n";
        out << R"({"key":"00000000000000bb",)"
            << R"("result":{"avgLatency":4.5},"quarantine":"budget: y"})"
            << '\n';
    }

    sweep::ResultCache cache(dir.path);
    EXPECT_EQ(cache.migratedEntries(), 2u);
    EXPECT_EQ(cache.corruptedLines(), 1u);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.quarantinedEntries(), 1u);
    const auto hit = cache.lookup(0xaaULL);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->avgLatency, 3.5);
    EXPECT_EQ(hit->packetsMeasured, 11u);

    // The legacy file was renamed, not deleted, and the next open does
    // not migrate again.
    EXPECT_FALSE(std::filesystem::exists(
        sweep::ResultCache::cacheFile(dir.path)));
    EXPECT_TRUE(std::filesystem::exists(
        sweep::ResultCache::cacheFile(dir.path) + ".migrated"));
    sweep::ResultCache again(dir.path);
    EXPECT_EQ(again.migratedEntries(), 0u);
    EXPECT_EQ(again.entries(), 2u);
}

TEST(Migration, ExportRoundTripsByteIdentically)
{
    const ScratchDir dir("export");
    const auto jobs = specOrDie(kSpecText).expand();
    {
        sweep::ResultCache cache(dir.path);
        sweep::RunOptions opts;
        opts.threads = 2;
        opts.cache = &cache;
        const auto report = sweep::runSweep(jobs, opts);
        ASSERT_EQ(report.failed, 0u);
        cache.storeQuarantine(0xdeadULL, "{\"q\":true}", mkResult(0.0, 0),
                              "budget: aborted at cycle 50");
    }

    const std::string exp1 = dir.path + "/exp1.jsonl";
    std::size_t exported = 0;
    std::string err;
    ASSERT_TRUE(
        sweep::ResultCache::exportJsonl(dir.path, exp1, &exported, &err))
        << err;
    EXPECT_EQ(exported, jobs.size() + 1);

    // Import into a fresh dir and re-export: byte-identical, and every
    // exported line parses as the legacy format (key+config+result).
    const ScratchDir dir2("import");
    const auto imported = sweep::ResultCache::importJsonl(dir2.path, exp1);
    ASSERT_TRUE(imported);
    EXPECT_EQ(imported->imported, jobs.size() + 1);
    EXPECT_EQ(imported->corrupted, 0u);
    const std::string exp2 = dir2.path + "/exp2.jsonl";
    ASSERT_TRUE(sweep::ResultCache::exportJsonl(dir2.path, exp2));
    EXPECT_EQ(slurp(exp1), slurp(exp2));

    std::ifstream lines(exp1);
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        const auto doc = parseJson(line);
        ASSERT_TRUE(doc && doc->isObject()) << line;
        EXPECT_TRUE(doc->find("key"));
        EXPECT_TRUE(doc->find("result"));
        ++n;
    }
    EXPECT_EQ(n, jobs.size() + 1);

    // The imported cache serves simulation results identical to the
    // originals (keys are content addresses — they must survive every
    // format hop).
    sweep::ResultCache roundtripped(dir2.path);
    sweep::RunOptions opts;
    opts.cache = &roundtripped;
    const auto report = sweep::runSweep(jobs, opts);
    EXPECT_EQ(report.simulated, 0u) << "import lost a cache key";
    EXPECT_EQ(report.cacheHits, jobs.size());
}

// ---------------------------------------------------------------- resume

TEST(Resume, RerunAgainstTheCacheSimulatesOnlyMissingJobs)
{
    const ScratchDir dir("resume");
    const auto jobs = specOrDie(kSpecText).expand();
    ASSERT_EQ(jobs.size(), 8u);

    // Reference output: a from-scratch, cache-less run.
    const auto reference = sweep::runSweep(jobs, {});

    // "Killed" sweep: the first 5 jobs completed and were cached, then
    // the process died.
    {
        sweep::ResultCache cache(dir.path);
        sweep::RunOptions opts;
        opts.cache = &cache;
        const std::vector<sweep::SweepJob> firstFive(jobs.begin(),
                                                     jobs.begin() + 5);
        const auto partial = sweep::runSweep(firstFive, opts);
        ASSERT_EQ(partial.failed, 0u);
    }

    // Resume: rerun the full sweep against the cache. Exactly the 3
    // missing jobs simulate; the final JSONL is byte-identical to the
    // never-interrupted run.
    sweep::ResultCache cache(dir.path);
    sweep::RunOptions opts;
    opts.cache = &cache;
    const auto resumed = sweep::runSweep(jobs, opts);
    EXPECT_EQ(resumed.simulated, 3u) << "resume re-simulated a cached job";
    EXPECT_EQ(resumed.cacheHits, 5u);
    EXPECT_EQ(resultsJsonl(jobs, resumed), resultsJsonl(jobs, reference));
}

// ------------------------------------------------- cost-aware scheduling

TEST(CostOrder, IsADeterministicPermutation)
{
    const auto jobs = specOrDie(kSpecText).expand();
    const auto order = sweep::costOrder(jobs, nullptr);
    ASSERT_EQ(order.size(), jobs.size());
    std::set<std::size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), jobs.size());
    EXPECT_EQ(order, sweep::costOrder(jobs, nullptr));

    // Same node count and cycle budget everywhere, so the prior is
    // driven by injection rate: the highest-rate job runs first.
    double bestRate = 0.0;
    for (const auto &job : jobs)
        bestRate = std::max(bestRate, job.cfg.injectionRate);
    EXPECT_EQ(jobs[order.front()].cfg.injectionRate, bestRate);
}

TEST(CostOrder, MeasuredWallClockOverridesThePrior)
{
    const ScratchDir dir("costwall");
    const auto jobs = specOrDie(kSpecText).expand();
    sweep::ResultCache cache(dir.path);
    // Measure every job, handing the job the prior ranks last the
    // largest wall-clock: with measurements on file the prior is moot
    // and the measured order must hold, cheapest-prior job first.
    const auto prior = sweep::costOrder(jobs, nullptr);
    const std::size_t cheapest = prior.back();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        cache.store(jobs[i].key, jobs[i].canonical, mkResult(1.0, 1),
                    /*wallSeconds=*/i == cheapest ? 100.0 : 1.0 + i);
    const auto order = sweep::costOrder(jobs, &cache);
    EXPECT_EQ(order.front(), cheapest);
}

TEST(CostOrder, SweepsAreBitIdenticalAcrossOrderAndThreads)
{
    const auto jobs = specOrDie(kSpecText).expand();

    sweep::RunOptions spec1;
    spec1.threads = 1;
    spec1.order = sweep::JobOrder::Spec;
    const auto base = sweep::runSweep(jobs, spec1);

    for (const int threads : {1, 4}) {
        sweep::RunOptions cost;
        cost.threads = threads;
        cost.order = sweep::JobOrder::CostDescending;
        const auto r = sweep::runSweep(jobs, cost);
        EXPECT_EQ(resultsJsonl(jobs, r), resultsJsonl(jobs, base))
            << "cost-ordered sweep diverged at " << threads
            << " thread(s)";
    }
}

TEST(ThreadPool, OrderedBatchRunsEveryIndexOnce)
{
    ThreadPool pool(3);
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < 100; ++i)
        order.push_back(99 - i);
    for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<int>> hits(100);
        pool.parallelForOrdered(order, [&](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }

    // Exceptions propagate and the pool survives, same as parallelFor.
    EXPECT_THROW(pool.parallelForOrdered(order,
                                         [&](std::size_t i) {
                                             if (i == 42)
                                                 throw std::runtime_error(
                                                     "x");
                                         }),
                 std::runtime_error);
    std::atomic<int> ok{0};
    pool.parallelFor(10, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 10);
}

// -------------------------------------------------------------- refine

TEST(Refine, FindsTheKneeDeterministically)
{
    const ScratchDir dir("refine");
    const auto spec = specOrDie(R"({
      "name": "knee",
      "topology": {"type": "mesh", "dims": [4, 4], "vcs": [2, 2]},
      "routers": ["xy"],
      "patterns": ["uniform"],
      "rates": [0.05, 0.95],
      "sim": {"seed": 7, "warmupCycles": 100, "measureCycles": 300,
              "drainCycles": 3000, "watchdogCycles": 1500}
    })");

    sweep::ResultCache cache(dir.path);
    sweep::RefineOptions opts;
    opts.tolerance = 0.02;
    opts.run.cache = &cache;
    const auto a = sweep::refineSweep(spec, opts);
    ASSERT_EQ(a.curves.size(), 1u);
    const auto &c = a.curves[0];
    ASSERT_FALSE(c.failed) << c.error;
    ASSERT_FALSE(c.saturatedAtLo);
    ASSERT_FALSE(c.unsaturatedAtHi);
    EXPECT_GT(c.knee, 0.05);
    EXPECT_LT(c.knee, 0.95);
    EXPECT_LE(c.hi - c.lo, opts.tolerance);
    EXPECT_GT(c.points, 2);
    EXPECT_GT(c.threshold, 0.0);

    // Rerun: identical bracket and knee, and every point comes from the
    // cache (bisection depends only on measured verdicts).
    const auto b = sweep::refineSweep(spec, opts);
    ASSERT_EQ(b.curves.size(), 1u);
    EXPECT_EQ(b.curves[0].knee, c.knee);
    EXPECT_EQ(b.curves[0].lo, c.lo);
    EXPECT_EQ(b.curves[0].hi, c.hi);
    EXPECT_EQ(b.curves[0].points, c.points);
    EXPECT_EQ(b.simulated, 0u) << "refine rerun missed the cache";

    // Refine points are regular grid jobs: a plain sweep at the same
    // rate hits the refine-populated cache.
    auto gridSpec = spec;
    gridSpec.rates = {0.05};
    const auto gridJobs = gridSpec.expand();
    sweep::RunOptions runOpts;
    runOpts.cache = &cache;
    const auto grid = sweep::runSweep(gridJobs, runOpts);
    EXPECT_EQ(grid.simulated, 0u) << "refine point used a different key";
    ASSERT_EQ(grid.outcomes.size(), 1u);
    EXPECT_TRUE(grid.outcomes[0].fromCache);
}

TEST(Refine, FlagsCurvesSaturatedAtTheLowEnd)
{
    const auto spec = specOrDie(R"({
      "name": "lowsat",
      "topology": {"type": "mesh", "dims": [4, 4], "vcs": [2, 2]},
      "routers": ["xy"],
      "patterns": ["uniform"],
      "rates": [0.9, 0.95],
      "sim": {"seed": 7, "warmupCycles": 100, "measureCycles": 300,
              "drainCycles": 3000, "watchdogCycles": 1500}
    })");
    sweep::RefineOptions opts;
    // An absolute threshold below any achievable latency: saturated
    // everywhere, including the low endpoint.
    opts.latencyThreshold = 0.5;
    const auto report = sweep::refineSweep(spec, opts);
    ASSERT_EQ(report.curves.size(), 1u);
    EXPECT_TRUE(report.curves[0].saturatedAtLo);
    EXPECT_EQ(report.curves[0].knee, 0.9);
}

// ------------------------------------------------------- blocked stat

TEST(SweepReport, CacheBlockedTimeIsAccounted)
{
    const ScratchDir dir("blocked");
    const auto jobs = specOrDie(kSpecText).expand();
    sweep::ResultCache cache(dir.path);
    sweep::RunOptions opts;
    opts.cache = &cache;
    const auto report = sweep::runSweep(jobs, opts);
    // Storing through the cache takes nonzero wall-clock; the stat must
    // see it and stay a small fraction of the sweep.
    EXPECT_GT(report.cacheBlockedSeconds, 0.0);
    EXPECT_LT(report.cacheBlockedSeconds, report.elapsedSeconds);
    EXPECT_GT(cache.blockedSeconds(), 0.0);
}

} // namespace
