/**
 * @file
 * Sweep-engine tests: spec parsing/expansion, canonical hashing,
 * thread-pool behaviour, serial-vs-parallel bit-identity, cache
 * hits/persistence/corruption tolerance, and simulator determinism
 * (two runs of the same config must agree exactly — the property the
 * whole caching scheme rests on).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <unistd.h>

#include "sim/sim_json.hh"
#include "sweep/result_cache.hh"
#include "sweep/router_factory.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "util/thread_pool.hh"
#include "util/cli.hh"
#include "util/json.hh"

namespace {

using namespace ebda;

const char *kSpecText = R"({
  "name": "t",
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
        : path("sweep-test-" + tag + "-"
               + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

// ---------------------------------------------------------------- spec

TEST(SweepSpec, ExpandsFullGrid)
{
    const auto spec = specOrDie(kSpecText);
    EXPECT_EQ(spec.jobCount(), 2u * 2u * 2u);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 8u);

    std::set<std::uint64_t> keys;
    std::set<std::uint64_t> seeds;
    for (const auto &job : jobs) {
        keys.insert(job.key);
        seeds.insert(job.cfg.seed);
        EXPECT_EQ(job.key, sweep::fnv1a64(job.canonical));
        EXPECT_EQ(job.cfg.warmupCycles, 100u);
    }
    // Content addressing: all grid points distinct, all derived seeds
    // distinct.
    EXPECT_EQ(keys.size(), jobs.size());
    EXPECT_EQ(seeds.size(), jobs.size());
}

TEST(SweepSpec, ExpansionIsReproducible)
{
    const auto a = specOrDie(kSpecText).expand();
    const auto b = specOrDie(kSpecText).expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].canonical, b[i].canonical);
        EXPECT_EQ(a[i].cfg.seed, b[i].cfg.seed);
    }
}

TEST(SweepSpec, TaggedTopologiesParseAndBuild)
{
    const auto spec = specOrDie(R"({
      "topologies": [
        {"type": "mesh", "dims": [4, 4], "vcs": [1, 1]},
        {"type": "torus", "params": {"dims": [4, 4], "vcs": [2, 2]}},
        {"kind": "dragonfly", "params": {"a": 4, "p": 2, "h": 2}},
        {"type": "fullmesh", "params": {"nodes": 8}},
        {"type": "ascii", "params": {"map": "A-B\n|\nC\n"}}
      ],
      "routers": ["updown"]
    })");
    ASSERT_EQ(spec.topologies.size(), 5u);
    EXPECT_EQ(spec.topologies[0].kind, sweep::TopologySpec::Kind::Mesh);
    EXPECT_EQ(spec.topologies[1].kind, sweep::TopologySpec::Kind::Torus);
    EXPECT_EQ(spec.topologies[1].vcs, (std::vector<int>{2, 2}));
    EXPECT_EQ(spec.topologies[2].kind,
              sweep::TopologySpec::Kind::Dragonfly);
    EXPECT_EQ(spec.topologies[2].a, 4);
    EXPECT_EQ(spec.topologies[2].localVcs, 2); // default
    EXPECT_EQ(spec.topologies[3].nodes, 8);
    EXPECT_EQ(spec.topologies[4].kind, sweep::TopologySpec::Kind::Ascii);

    // Every kind materializes.
    EXPECT_EQ(spec.topologies[2].build().numNodes(), 36u);
    EXPECT_EQ(spec.topologies[3].build().numLinks(), 56u);
    EXPECT_EQ(spec.topologies[4].build().numNodes(), 3u);
}

TEST(SweepSpec, TopologyJsonRoundTrips)
{
    const auto spec = specOrDie(R"({
      "topologies": [
        {"type": "torus", "dims": [4, 4], "vcs": [2, 2]},
        {"type": "dragonfly",
         "params": {"a": 2, "p": 1, "h": 1, "localVcs": 3}},
        {"type": "fullmesh", "params": {"nodes": 5, "vcs": 2}},
        {"type": "ascii",
         "params": {"map": "A-B\n", "defaultVcs": 2}}
      ],
      "routers": ["updown"]
    })");
    for (const auto &topo : spec.topologies) {
        JsonWriter w;
        w.beginObject();
        topo.toJson(w, "topology");
        w.end();
        std::string err;
        const auto doc = parseJson(w.str(), &err);
        ASSERT_TRUE(doc) << err;
        const auto *obj = doc->find("topology");
        ASSERT_NE(obj, nullptr);
        const auto back =
            sweep::TopologySpec::fromJson(*obj, &err, "topology");
        ASSERT_TRUE(back) << err;

        // Re-rendering the reparsed spec must reproduce the bytes —
        // the cache key depends on it.
        JsonWriter w2;
        w2.beginObject();
        back->toJson(w2, "topology");
        w2.end();
        EXPECT_EQ(w.str(), w2.str()) << topo.toString();
        EXPECT_EQ(back->toString(), topo.toString());
    }
}

TEST(SweepSpec, SweepsRunOnNewTopologyKinds)
{
    const auto spec = specOrDie(R"({
      "topologies": [
        {"type": "fullmesh", "params": {"nodes": 6}},
        {"type": "ascii", "params": {"map": "A-B-C\n"}}
      ],
      "routers": ["updown"],
      "rates": [0.02],
      "sim": {"seed": 3, "warmupCycles": 50, "measureCycles": 150,
              "drainCycles": 2000, "watchdogCycles": 1000}
    })");
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_NE(jobs[0].canonical.find("\"type\":\"fullmesh\""),
              std::string::npos);
    for (const auto &job : jobs) {
        const auto out = sweep::runJob(job);
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_FALSE(out.result.deadlocked);
    }
}

/** A spec may pair a pattern with a network it is undefined on; the
 *  TrafficGenerator's construction-time routability guards must turn
 *  that grid point into a clean per-job failure (with the guard's
 *  message), never an assert or a crash. */
TEST(SweepSpec, UnroutablePatternFailsJobCleanly)
{
    // transpose on a non-palindromic mesh, bitcomp on 12 nodes.
    const auto spec = specOrDie(R"({
      "topologies": [
        {"type": "mesh", "dims": [2, 8], "vcs": [1, 1]},
        {"type": "mesh", "dims": [3, 4], "vcs": [1, 1]}
      ],
      "routers": ["xy"],
      "patterns": ["transpose", "bitcomp", "uniform"],
      "rates": [0.02],
      "sim": {"seed": 3, "warmupCycles": 50, "measureCycles": 150,
              "drainCycles": 2000, "watchdogCycles": 1000}
    })");
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 6u);
    for (const auto &job : jobs) {
        const auto out = sweep::runJob(job);
        const auto nodes = job.topo.build().numNodes();
        if (job.pattern == sim::TrafficPattern::Transpose) {
            // Both 2x8 and 3x4 have non-palindromic radix vectors.
            EXPECT_FALSE(out.ok);
            EXPECT_NE(out.error.find("palindromic"),
                      std::string::npos)
                << out.error;
        } else if (job.pattern == sim::TrafficPattern::BitComplement
                   && nodes == 12u) {
            EXPECT_FALSE(out.ok);
            EXPECT_NE(out.error.find("power-of-two"),
                      std::string::npos)
                << out.error;
        } else {
            // uniform everywhere; bitcomp on 2x8 = 16 nodes is fine.
            EXPECT_TRUE(out.ok) << out.error;
        }
    }
    // A palindromic non-square radix vector is fine for transpose.
    const auto ok_spec = specOrDie(R"({
      "topology": {"type": "mesh", "dims": [2, 4, 2], "vcs": [1, 1, 1]},
      "routers": ["xy"],
      "patterns": ["transpose"],
      "rates": [0.02],
      "sim": {"seed": 3, "warmupCycles": 50, "measureCycles": 150,
              "drainCycles": 2000, "watchdogCycles": 1000}
    })");
    const auto ok_jobs = ok_spec.expand();
    ASSERT_EQ(ok_jobs.size(), 1u);
    EXPECT_TRUE(sweep::runJob(ok_jobs[0]).ok);
}

/** Cache-key stability across the schedMode addition: a spec without
 *  the field must canonicalize without it (Auto is never serialized),
 *  so pre-existing caches keep hitting; an explicit mode is part of
 *  the grid point and round-trips. */
TEST(SweepSpec, SchedModeCanonicalizationAndOverride)
{
    const auto plain = specOrDie(kSpecText).expand();
    for (const auto &job : plain) {
        EXPECT_EQ(job.cfg.schedMode, sim::SchedMode::Auto);
        EXPECT_EQ(job.canonical.find("schedMode"), std::string::npos)
            << job.canonical;
    }

    const auto pinned = specOrDie(R"({
      "name": "t",
      "topology": {"type": "mesh", "dims": [4, 4], "vcs": [2, 2]},
      "routers": ["xy"],
      "patterns": ["uniform"],
      "rates": [0.02],
      "sim": {"seed": 7, "warmupCycles": 50, "measureCycles": 150,
              "drainCycles": 2000, "watchdogCycles": 1000,
              "schedMode": "event"}
    })").expand();
    ASSERT_EQ(pinned.size(), 1u);
    EXPECT_EQ(pinned[0].cfg.schedMode, sim::SchedMode::Event);
    EXPECT_NE(pinned[0].canonical.find("\"schedMode\":\"event\""),
              std::string::npos);
    const auto out = sweep::runJob(pinned[0]);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.result.schedMode, sim::SchedMode::Event);

    // The runner-level override (ebda_sweep run --sched) forces the
    // backend without touching the job or its key.
    sweep::RunOptions opts;
    opts.schedMode = sim::SchedMode::Cycle;
    const auto forced = sweep::runJob(pinned[0], opts);
    ASSERT_TRUE(forced.ok) << forced.error;
    EXPECT_EQ(forced.result.schedMode, sim::SchedMode::Cycle);

    std::string err;
    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology": {"type": "mesh", "dims": [4, 4]},
            "routers": ["xy"], "patterns": ["uniform"],
            "rates": [0.1], "sim": {"schedMode": "warp"}})",
        &err));
    EXPECT_NE(err.find("schedMode"), std::string::npos) << err;
}

TEST(SweepSpec, RejectsBadTopologyParams)
{
    std::string err;
    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology": {"type": "dragonfly"}, "routers": ["updown"]})",
        &err));
    EXPECT_NE(err.find("params"), std::string::npos);
    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology": {"type": "dragonfly", "params": {"a": 1}},
            "routers": ["updown"]})",
        &err));
    EXPECT_NE(err.find("topology.params.a"), std::string::npos);
    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology": {"type": "fullmesh",
                         "params": {"nodes": 4, "typo": 1}},
            "routers": ["updown"]})",
        &err));
    EXPECT_NE(err.find("unknown key 'typo'"), std::string::npos);
    // DSL syntax errors surface at parse time with their position.
    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology": {"type": "ascii", "params": {"map": "A--\n"}},
            "routers": ["updown"]})",
        &err));
    EXPECT_NE(err.find("dangling horizontal link"), std::string::npos);
}

TEST(SweepSpec, RejectsUnknownRouterAndKeys)
{
    std::string err;
    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"dims":[4,4]},"routers":["warp-drive"]})",
        &err));
    EXPECT_NE(err.find("warp-drive"), std::string::npos);

    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"dims":[4,4]},"routers":["xy"],"ratez":[0.1]})",
        &err));
    EXPECT_FALSE(sweep::SweepSpec::parse("not json", &err));
}

TEST(SweepSpec, MasterSeedChangesDerivedSeeds)
{
    auto spec = specOrDie(kSpecText);
    const auto jobs_a = spec.expand();
    spec.base.seed = 8;
    const auto jobs_b = spec.expand();
    // Different master seed, same grid: same shape, different streams.
    ASSERT_EQ(jobs_a.size(), jobs_b.size());
    EXPECT_NE(jobs_a[0].cfg.seed, jobs_b[0].cfg.seed);
    EXPECT_NE(jobs_a[0].key, jobs_b[0].key);
}

TEST(SweepSpec, Fnv1aKnownVectors)
{
    EXPECT_EQ(sweep::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(sweep::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(sweep::keyToHex(0x1aULL), "000000000000001a");
}

// ---------------------------------------------------------- router spec

TEST(RouterFactory, ChecksSpecsWithoutANetwork)
{
    EXPECT_FALSE(sweep::checkRouterSpec("xy"));
    EXPECT_FALSE(sweep::checkRouterSpec("duato"));
    EXPECT_FALSE(sweep::checkRouterSpec("region:2"));
    EXPECT_FALSE(sweep::checkRouterSpec("ebda:{X+ X- Y-} -> {Y+}"));
    EXPECT_TRUE(sweep::checkRouterSpec("nope"));
    EXPECT_TRUE(sweep::checkRouterSpec("region:zero"));
    EXPECT_TRUE(sweep::checkRouterSpec("ebda:{X+ X- Y+ Y-}"));
    // Structural engine specs, bare and parameterized.
    EXPECT_FALSE(sweep::checkRouterSpec("updown"));
    EXPECT_FALSE(sweep::checkRouterSpec("updown:3"));
    EXPECT_FALSE(sweep::checkRouterSpec("dragonfly-min"));
    EXPECT_FALSE(sweep::checkRouterSpec("dragonfly-min:4"));
    EXPECT_FALSE(sweep::checkRouterSpec("dragonfly-noescape:4"));
    EXPECT_FALSE(sweep::checkRouterSpec("fullmesh-2hop"));
    EXPECT_FALSE(sweep::checkRouterSpec("fullmesh-naive"));
    EXPECT_TRUE(sweep::checkRouterSpec("updown:minus"));
    EXPECT_TRUE(sweep::checkRouterSpec("dragonfly-min:1"));
}

TEST(RouterFactory, StructuralEnginesAndGridGuard)
{
    std::string err;

    const auto df = topo::Network::dragonfly(4, 2, 2);
    ASSERT_TRUE(sweep::makeRouter(df, "dragonfly-min", &err)) << err;
    ASSERT_TRUE(sweep::makeRouter(df, "dragonfly-min:4", &err)) << err;
    ASSERT_TRUE(sweep::makeRouter(df, "dragonfly-noescape", &err)) << err;
    ASSERT_TRUE(sweep::makeRouter(df, "updown", &err)) << err;
    ASSERT_TRUE(sweep::makeRouter(df, "updown:35", &err)) << err;
    EXPECT_FALSE(sweep::makeRouter(df, "updown:36", &err));

    const auto fm = topo::Network::fullMesh(5);
    ASSERT_TRUE(sweep::makeRouter(fm, "fullmesh-2hop", &err)) << err;
    ASSERT_TRUE(sweep::makeRouter(fm, "fullmesh-naive", &err)) << err;
    // Structural but wrong structure: a clear factory error, not a
    // crash.
    EXPECT_FALSE(sweep::makeRouter(fm, "dragonfly-min:5", &err));

    // Grid-coordinate routers on a custom graph are refused up front.
    EXPECT_FALSE(sweep::makeRouter(fm, "xy", &err));
    EXPECT_NE(err.find("requires a mesh/torus grid"), std::string::npos);
    EXPECT_FALSE(sweep::makeRouter(fm, "nope", &err));
    EXPECT_NE(err.find("unknown router"), std::string::npos);

    // The factory shape lets dragonfly sweeps omit ':a'; a custom
    // graph needs it spelled out.
    const auto mesh = topo::Network::mesh({4, 4}, {1, 1});
    EXPECT_FALSE(sweep::makeRouter(mesh, "dragonfly-min", &err));
    EXPECT_NE(err.find("group size"), std::string::npos);
}

TEST(RouterFactory, BuildsRelations)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    std::string err;
    for (const char *spec :
         {"xy", "yx", "odd-even", "west-first", "north-last",
          "negative-first", "duato", "fig7b", "region:2",
          "ebda:{X+ X- Y-} -> {Y+}"}) {
        const auto r = sweep::makeRouter(net, spec, &err);
        ASSERT_TRUE(r) << spec << ": " << err;
    }
    EXPECT_FALSE(sweep::makeRouter(net, "nope", &err));
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallelFor(counts.size(), [&](std::size_t i) {
        counts[i].fetch_add(1);
    });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(100, [&](std::size_t i) {
            sum.fetch_add(static_cast<int>(i));
        });
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(10,
                                  [&](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // Pool must survive a failed batch.
    std::atomic<int> ok{0};
    pool.parallelFor(10, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 10);
}

// ----------------------------------------------------------- determinism

TEST(SweepDeterminism, SimulatorRunIsAPureFunctionOfConfig)
{
    const auto spec = specOrDie(kSpecText);
    const auto jobs = spec.expand();
    const auto a = sweep::runJob(jobs[1]);
    const auto b = sweep::runJob(jobs[1]);
    ASSERT_TRUE(a.ok && b.ok);
    // Exact equality, via the exact-double serialization.
    EXPECT_EQ(sim::toJson(a.result), sim::toJson(b.result));
    EXPECT_GT(a.result.packetsMeasured, 0u);
}

TEST(SweepDeterminism, ParallelBitIdenticalToSerial)
{
    const auto jobs = specOrDie(kSpecText).expand();

    sweep::RunOptions serial;
    serial.threads = 1;
    const auto r1 = sweep::runSweep(jobs, serial);

    sweep::RunOptions parallel;
    parallel.threads = 4;
    const auto r4 = sweep::runSweep(jobs, parallel);

    ASSERT_EQ(r1.outcomes.size(), r4.outcomes.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(r1.outcomes[i].ok);
        ASSERT_TRUE(r4.outcomes[i].ok);
        EXPECT_EQ(sim::toJson(r1.outcomes[i].result),
                  sim::toJson(r4.outcomes[i].result))
            << "job " << i << " (" << jobs[i].router << ")";
    }
    EXPECT_EQ(r1.simulated, jobs.size());
    EXPECT_EQ(r4.simulated, jobs.size());
}

// ----------------------------------------------------------------- cache

TEST(ResultCache, HitReturnsStoredResultWithoutRerunning)
{
    const ScratchDir dir("hit");
    const auto jobs = specOrDie(kSpecText).expand();

    sweep::ResultCache cold(dir.path);
    sweep::RunOptions opts;
    opts.threads = 2;
    opts.cache = &cold;
    const auto first = sweep::runSweep(jobs, opts);
    EXPECT_EQ(first.simulated, jobs.size());
    EXPECT_EQ(first.cacheMisses, jobs.size());

    // Fresh cache object, same directory: everything must come back
    // from disk with zero simulations executed.
    sweep::ResultCache warm(dir.path);
    EXPECT_EQ(warm.entries(), jobs.size());
    opts.cache = &warm;
    const auto second = sweep::runSweep(jobs, opts);
    EXPECT_EQ(first.simulated + second.simulated, jobs.size())
        << "cache hit re-ran a job";
    EXPECT_EQ(second.cacheHits, jobs.size());
    EXPECT_EQ(second.simulated, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(second.outcomes[i].fromCache);
        EXPECT_EQ(sim::toJson(second.outcomes[i].result),
                  sim::toJson(first.outcomes[i].result));
    }
}

TEST(ResultCache, CorruptedLinesAreSkippedNotFatal)
{
    const ScratchDir dir("corrupt");
    std::filesystem::create_directories(dir.path);

    // One valid binary record, plus a stale legacy cache.jsonl full of
    // garbage: migration must skip the garbage, count it, and keep the
    // record served.
    sim::SimResult r;
    r.avgLatency = 12.5;
    r.packetsMeasured = 42;
    {
        sweep::ResultCache writer(dir.path);
        writer.store(0xabcdULL, "{}", r);
    }
    {
        std::ofstream out(sweep::ResultCache::cacheFile(dir.path),
                          std::ios::app);
        out << "this is not json\n";
        out << "{\"key\":\"zzzz\",\"result\":{}}\n";
        out << "{\"truncated\":\n";
    }

    sweep::ResultCache cache(dir.path);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.corruptedLines(), 3u);
    const auto hit = cache.lookup(0xabcdULL);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->avgLatency, 12.5);
    EXPECT_EQ(hit->packetsMeasured, 42u);
}

TEST(ResultCache, ClearRemovesTheStore)
{
    const ScratchDir dir("clear");
    {
        sweep::ResultCache cache(dir.path);
        cache.store(1, "{}", sim::SimResult{});
    }
    EXPECT_TRUE(std::filesystem::exists(
        sweep::ResultCache::binFile(dir.path)));
    EXPECT_TRUE(std::filesystem::exists(
        sweep::ResultCache::indexFile(dir.path)));
    EXPECT_TRUE(sweep::ResultCache::clear(dir.path));
    EXPECT_FALSE(std::filesystem::exists(
        sweep::ResultCache::binFile(dir.path)));
    EXPECT_FALSE(std::filesystem::exists(
        sweep::ResultCache::indexFile(dir.path)));
    EXPECT_TRUE(sweep::ResultCache::clear(dir.path)); // idempotent
}

TEST(ResultCache, CompactDropsCorruptionAndDuplicates)
{
    const ScratchDir dir("compact");

    sim::SimResult stale;
    stale.avgLatency = 1.0;
    sim::SimResult fresh;
    fresh.avgLatency = 2.0;
    fresh.packetsMeasured = 7;
    sim::SimResult other;
    other.avgLatency = 3.0;
    {
        sweep::ResultCache writer(dir.path);
        writer.store(0xbeefULL, "{}", stale);
        writer.store(0x1ULL, "{}", other);
        writer.store(0xbeefULL, "{}", fresh); // supersedes stale
    }
    {
        // A killed writer's torn tail: half a record of garbage.
        std::ofstream out(sweep::ResultCache::binFile(dir.path),
                          std::ios::app | std::ios::binary);
        out << "EBDRtorn-half-record-garbage";
    }

    std::string err;
    const auto stats = sweep::ResultCache::compact(dir.path, &err);
    ASSERT_TRUE(stats) << err;
    EXPECT_EQ(stats->kept, 2u);
    EXPECT_EQ(stats->droppedCorrupted, 1u);
    EXPECT_EQ(stats->droppedDuplicate, 1u);
    EXPECT_GT(stats->reclaimedBytes, 0u);

    // The rewritten store must reload cleanly with the duplicate
    // resolved the same way lookup() resolves it: later record wins.
    sweep::ResultCache cache(dir.path);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.corruptedLines(), 0u);
    const auto hit = cache.lookup(0xbeefULL);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->avgLatency, 2.0);
    EXPECT_EQ(hit->packetsMeasured, 7u);

    // Compacting an already-compact cache is a no-op; a missing store
    // is success with zero counters.
    const auto again = sweep::ResultCache::compact(dir.path);
    ASSERT_TRUE(again);
    EXPECT_EQ(again->kept, 2u);
    EXPECT_EQ(again->droppedCorrupted, 0u);
    EXPECT_EQ(again->droppedDuplicate, 0u);
    EXPECT_EQ(again->reclaimedBytes, 0u);
    ASSERT_TRUE(sweep::ResultCache::clear(dir.path));
    const auto empty = sweep::ResultCache::compact(dir.path);
    ASSERT_TRUE(empty);
    EXPECT_EQ(empty->kept, 0u);
}

// ------------------------------------------------------------ sim json

TEST(SimJson, ConfigRoundTripsExactly)
{
    sim::SimConfig c;
    c.seed = 0xdeadbeefcafef00dULL; // > 2^53: needs exact u64 path
    c.injectionRate = 0.1; // not exactly representable
    c.switching = sim::SwitchingMode::VirtualCutThrough;
    c.selection = sim::SelectionPolicy::RoundRobin;
    c.atomicVcAllocation = true;
    c.measureCycles = 12345;

    const auto text = sim::toJson(c);
    const auto doc = parseJson(text);
    ASSERT_TRUE(doc);
    std::string err;
    const auto back = sim::configFromJson(*doc, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_EQ(sim::toJson(*back), text);
    EXPECT_EQ(back->seed, c.seed);
    EXPECT_EQ(back->injectionRate, c.injectionRate);
    EXPECT_EQ(back->switching, c.switching);
    EXPECT_EQ(back->selection, c.selection);
}

TEST(SimJson, RejectsUnknownConfigKeys)
{
    const auto doc = parseJson(R"({"seeed": 1})");
    ASSERT_TRUE(doc);
    std::string err;
    EXPECT_FALSE(sim::configFromJson(*doc, &err));
    EXPECT_NE(err.find("seeed"), std::string::npos);
}

TEST(SimJson, ResultRoundTripsExactly)
{
    sim::SimResult r;
    r.avgLatency = 1.0 / 3.0;
    r.acceptedRate = 0.123456789012345678;
    r.p99Latency = 999;
    r.deadlocked = true;
    r.drained = false;
    const auto doc = parseJson(sim::toJson(r));
    ASSERT_TRUE(doc);
    const auto back = sim::resultFromJson(*doc);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->avgLatency, r.avgLatency);
    EXPECT_EQ(back->acceptedRate, r.acceptedRate);
    EXPECT_EQ(back->p99Latency, r.p99Latency);
    EXPECT_TRUE(back->deadlocked);
    EXPECT_FALSE(back->drained);
}

/** A SimConfig with every wire field away from its default: protocol
 *  on, both fault event kinds, Event scheduling and 4 shards. */
sim::SimConfig
everyConfigField()
{
    sim::SimConfig c;
    c.seed = 0xdeadbeefcafef00dULL;
    c.vcDepth = 6;
    c.packetLength = 5;
    c.switching = sim::SwitchingMode::StoreAndForward;
    c.routerLatency = 2;
    c.selection = sim::SelectionPolicy::Random;
    c.injectionRate = 0.37;
    c.injectionVcs = 3;
    c.atomicVcAllocation = true;
    c.warmupCycles = 11;
    c.measureCycles = 22;
    c.drainCycles = 33;
    c.watchdogCycles = 44;
    c.routeTable = false;
    c.routeTableBudget = 555;
    c.schedMode = sim::SchedMode::Event;
    c.shards = 4;
    c.protocol.requestReply = true;
    c.protocol.replyBufferDepth = 3;
    c.protocol.serviceLatency = 17;
    c.protocol.serviceJitter = 2;
    c.protocol.messageClasses = 2;
    c.protocol.reserveReplyBuffer = true;
    c.faults.seed = 42;
    c.faults.randomLinkFaults = 3;
    c.faults.randomRouterFaults = 1;
    c.faults.firstCycle = 111;
    c.faults.spacing = 222;
    c.faults.maxRecoveryAttempts = 5;
    c.faults.maxRetransmits = 6;
    c.faults.retransmitBackoff = 7;
    c.faults.retransmitBackoffCap = 99;
    c.faults.checkDegradedCdg = false;
    sim::FaultEvent router;
    router.cycle = 77;
    router.router = true;
    router.node = 9;
    sim::FaultEvent link;
    link.cycle = 88;
    link.src = 0xfffffffeu;
    link.dst = 12;
    c.faults.events = {router, link};
    return c;
}

/** A SimResult with every field away from its default, including the
 *  protocol counters, a deadlock cycle and Event scheduling. */
sim::SimResult
everyResultField()
{
    sim::SimResult r;
    r.avgLatency = 1.0 / 3.0;
    r.p50Latency = 101;
    r.p99Latency = 102;
    r.maxLatency = 103;
    r.avgHops = 2.0 / 3.0;
    r.acceptedRate = 0.123456789012345678;
    r.offeredRate = 0.2;
    r.packetsMeasured = 104;
    r.packetsEjected = 105;
    r.deadlocked = true;
    r.drained = false;
    r.cycles = 106;
    r.channelLoadMean = 0.3;
    r.channelLoadCv = 0.4;
    r.channelLoadMaxRatio = 0.5;
    r.channelsUnused = 0.6;
    r.stallRouteCompute = 107;
    r.stallVcStarved = 108;
    r.stallCreditStarved = 109;
    r.stallSwitchLost = 110;
    r.hottestRouter = 0xfffffffdu;
    r.hottestRouterStalls = 111;
    r.channelOccupancyMean = 0.7;
    r.channelOccupancyPeak = 112;
    r.deadlockCycle = {5, 0, 0xffffffffu};
    r.deadlockCycleInCdg = true;
    r.faultEventsApplied = 113;
    r.packetsDropped = 114;
    r.packetsRetransmitted = 115;
    r.packetsLost = 116;
    r.recoveryPasses = 117;
    r.faultChecks = 118;
    r.faultChecksClean = 119;
    r.deliveredFraction = 0.8;
    r.degradedGracefully = false;
    r.aborted = true;
    r.routeComputeCalls = 0xfedcba9876543210ULL;
    r.routeTableCompiled = true;
    r.routeTablePerSource = true;
    r.routeTableBytes = 120;
    r.routeTableCompileNanos = 121; // never on the wire
    r.protocolEnabled = true;
    r.protocolRequestsDelivered = 122;
    r.protocolRepliesInjected = 123;
    r.protocolRepliesDelivered = 124;
    r.protocolEndpointStalls = 125;
    r.protocolThrottled = 126;
    r.protocolPeakOccupancy = 127;
    r.protocolDeadlock = true;
    r.schedMode = sim::SchedMode::Event;
    r.wakeups = 128;
    return r;
}

#define EXPECT_FIELD(f) EXPECT_EQ(back->f, want.f) << #f

TEST(SimJson, EveryConfigFieldRoundTrips)
{
    const sim::SimConfig want = everyConfigField();
    const auto doc = parseJson(sim::toJson(want));
    ASSERT_TRUE(doc);
    std::string err;
    const auto back = sim::configFromJson(*doc, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_FIELD(seed);
    EXPECT_FIELD(vcDepth);
    EXPECT_FIELD(packetLength);
    EXPECT_FIELD(switching);
    EXPECT_FIELD(routerLatency);
    EXPECT_FIELD(selection);
    EXPECT_FIELD(injectionRate);
    EXPECT_FIELD(injectionVcs);
    EXPECT_FIELD(atomicVcAllocation);
    EXPECT_FIELD(warmupCycles);
    EXPECT_FIELD(measureCycles);
    EXPECT_FIELD(drainCycles);
    EXPECT_FIELD(watchdogCycles);
    EXPECT_FIELD(routeTable);
    EXPECT_FIELD(routeTableBudget);
    EXPECT_FIELD(schedMode);
    EXPECT_FIELD(shards);
    EXPECT_FIELD(protocol.requestReply);
    EXPECT_FIELD(protocol.replyBufferDepth);
    EXPECT_FIELD(protocol.serviceLatency);
    EXPECT_FIELD(protocol.serviceJitter);
    EXPECT_FIELD(protocol.messageClasses);
    EXPECT_FIELD(protocol.reserveReplyBuffer);
    EXPECT_FIELD(faults.seed);
    EXPECT_FIELD(faults.randomLinkFaults);
    EXPECT_FIELD(faults.randomRouterFaults);
    EXPECT_FIELD(faults.firstCycle);
    EXPECT_FIELD(faults.spacing);
    EXPECT_FIELD(faults.maxRecoveryAttempts);
    EXPECT_FIELD(faults.maxRetransmits);
    EXPECT_FIELD(faults.retransmitBackoff);
    EXPECT_FIELD(faults.retransmitBackoffCap);
    EXPECT_FIELD(faults.checkDegradedCdg);
    ASSERT_EQ(back->faults.events.size(), 2u);
    EXPECT_FIELD(faults.events[0].cycle);
    EXPECT_FIELD(faults.events[0].router);
    EXPECT_FIELD(faults.events[0].node);
    EXPECT_FIELD(faults.events[1].cycle);
    EXPECT_FIELD(faults.events[1].router);
    EXPECT_FIELD(faults.events[1].src);
    EXPECT_FIELD(faults.events[1].dst);
    EXPECT_EQ(sim::toJson(*back), sim::toJson(want));
}

TEST(SimJson, EveryResultFieldRoundTrips)
{
    const sim::SimResult want = everyResultField();
    const auto doc = parseJson(sim::toJson(want));
    ASSERT_TRUE(doc);
    std::string err;
    const auto back = sim::resultFromJson(*doc, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_FIELD(avgLatency);
    EXPECT_FIELD(p50Latency);
    EXPECT_FIELD(p99Latency);
    EXPECT_FIELD(maxLatency);
    EXPECT_FIELD(avgHops);
    EXPECT_FIELD(acceptedRate);
    EXPECT_FIELD(offeredRate);
    EXPECT_FIELD(packetsMeasured);
    EXPECT_FIELD(packetsEjected);
    EXPECT_FIELD(deadlocked);
    EXPECT_FIELD(drained);
    EXPECT_FIELD(cycles);
    EXPECT_FIELD(channelLoadMean);
    EXPECT_FIELD(channelLoadCv);
    EXPECT_FIELD(channelLoadMaxRatio);
    EXPECT_FIELD(channelsUnused);
    EXPECT_FIELD(stallRouteCompute);
    EXPECT_FIELD(stallVcStarved);
    EXPECT_FIELD(stallCreditStarved);
    EXPECT_FIELD(stallSwitchLost);
    EXPECT_FIELD(hottestRouter);
    EXPECT_FIELD(hottestRouterStalls);
    EXPECT_FIELD(channelOccupancyMean);
    EXPECT_FIELD(channelOccupancyPeak);
    EXPECT_FIELD(deadlockCycle);
    EXPECT_FIELD(deadlockCycleInCdg);
    EXPECT_FIELD(faultEventsApplied);
    EXPECT_FIELD(packetsDropped);
    EXPECT_FIELD(packetsRetransmitted);
    EXPECT_FIELD(packetsLost);
    EXPECT_FIELD(recoveryPasses);
    EXPECT_FIELD(faultChecks);
    EXPECT_FIELD(faultChecksClean);
    EXPECT_FIELD(deliveredFraction);
    EXPECT_FIELD(degradedGracefully);
    EXPECT_FIELD(aborted);
    EXPECT_FIELD(routeComputeCalls);
    EXPECT_FIELD(routeTableCompiled);
    EXPECT_FIELD(routeTablePerSource);
    EXPECT_FIELD(routeTableBytes);
    EXPECT_EQ(back->routeTableCompileNanos, 0u); // wall-clock: not stored
    EXPECT_FIELD(protocolEnabled);
    EXPECT_FIELD(protocolRequestsDelivered);
    EXPECT_FIELD(protocolRepliesInjected);
    EXPECT_FIELD(protocolRepliesDelivered);
    EXPECT_FIELD(protocolEndpointStalls);
    EXPECT_FIELD(protocolThrottled);
    EXPECT_FIELD(protocolPeakOccupancy);
    EXPECT_FIELD(protocolDeadlock);
    EXPECT_FIELD(schedMode);
    EXPECT_FIELD(wakeups);
    EXPECT_EQ(sim::toJson(*back), sim::toJson(want));
}

#undef EXPECT_FIELD

TEST(SimJson, MalformedResultIntegersAreRejected)
{
    const auto error = [](const std::string &json) {
        const auto doc = parseJson(json);
        EXPECT_TRUE(doc) << json;
        std::string err;
        EXPECT_FALSE(sim::resultFromJson(*doc, &err)) << json;
        return err;
    };
    EXPECT_EQ(error(R"({"hottestRouter":4294967296})")
                  .rfind("'hottestRouter' must be an integer", 0),
              0u);
    EXPECT_EQ(error(R"({"deadlockCycle":[1,"x"]})"),
              "'deadlockCycle[1]' must be a number");
    EXPECT_EQ(error(R"({"deadlockCycle":[-1]})")
                  .rfind("'deadlockCycle[0]' must be an integer", 0),
              0u);
    EXPECT_EQ(error(R"({"cycles":1.5})").rfind("'cycles' must be an integer",
                                               0),
              0u);
    EXPECT_EQ(error(R"({"schedMode":"sometimes"})"),
              "bad 'schedMode' value");
    // Unknown keys are still ignored: the cache tolerates schema growth.
    const auto doc = parseJson(R"({"cycles":7,"futureField":1})");
    ASSERT_TRUE(doc);
    const auto res = sim::resultFromJson(*doc);
    ASSERT_TRUE(res);
    EXPECT_EQ(res->cycles, 7u);
}

/** The wire bytes themselves: every sweep cache key and cached result
 *  depends on them, so any change must be deliberate. */
TEST(SimJson, WireBytesArePinned)
{
    const auto digest = [](const std::string &json) {
        return sweep::keyToHex(sweep::fnv1a64(json));
    };
    EXPECT_EQ(digest(sim::toJson(sim::SimConfig{})), "4249382f5f8e5b63");
    EXPECT_EQ(digest(sim::toJson(everyConfigField())), "ab1c5d68f2fcdee6");
    EXPECT_EQ(digest(sim::toJson(sim::SimResult{})), "3a9080c406aa96a1");
    EXPECT_EQ(digest(sim::toJson(everyResultField())), "d4424aee1d870edb");
}

// -------------------------------------------------------------- results

TEST(Results, JsonlSortedByKeyAndParseable)
{
    const auto jobs = specOrDie(kSpecText).expand();
    sweep::RunOptions opts;
    opts.threads = 4;
    const auto report = sweep::runSweep(jobs, opts);

    std::ostringstream out;
    sweep::writeResultsJsonl(jobs, report.outcomes, out);

    std::istringstream in(out.str());
    std::string line;
    std::string prev_key;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        const auto doc = parseJson(line);
        ASSERT_TRUE(doc && doc->isObject()) << line;
        const auto *key = doc->find("key");
        ASSERT_TRUE(key && key->isString());
        EXPECT_GE(key->asString(), prev_key);
        prev_key = key->asString();
        EXPECT_TRUE(doc->find("config"));
        EXPECT_TRUE(doc->find("result"));
        ++rows;
    }
    EXPECT_EQ(rows, jobs.size());
}

// ------------------------------------------------------ strict spec

TEST(SweepSpecStrict, ErrorsNameTheOffendingPath)
{
    std::string err;

    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topologies":[{"dims":[4,4]},{"dims":[4,4],"vcs":[2,0]}],
            "routers":["xy"]})",
        &err));
    EXPECT_NE(err.find("topologies[1].vcs"), std::string::npos) << err;
    EXPECT_NE(err.find("integers >= 1"), std::string::npos) << err;

    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"dims":[4,4],"k":3},"routers":["xy"]})", &err));
    EXPECT_NE(err.find("topology: unknown key 'k'"), std::string::npos)
        << err;

    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"type":"hypercube","dims":[4,4]},
            "routers":["xy"]})",
        &err));
    EXPECT_NE(err.find("topology.type"), std::string::npos) << err;

    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"dims":[4,4]},"routers":[7]})", &err));
    EXPECT_NE(err.find("routers[0]: must be a string"),
              std::string::npos)
        << err;

    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"dims":[4,4]},"routers":["xy"],
            "rates":[0.1,-1]})",
        &err));
    EXPECT_NE(err.find("rates[1]: must be a positive number"),
              std::string::npos)
        << err;

    // Nested sim-config errors are re-anchored under 'sim.'.
    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"dims":[4,4]},"routers":["xy"],
            "sim":{"sed":1}})",
        &err));
    EXPECT_EQ(err.rfind("sim", 0), 0u) << err;
    EXPECT_NE(err.find("'sed'"), std::string::npos) << err;

    EXPECT_FALSE(sweep::SweepSpec::parse(
        R"({"topology":{"dims":[4,4]},"routers":["xy"],
            "sim":{"faults":{"sed":1}}})",
        &err));
    EXPECT_EQ(err.rfind("sim", 0), 0u) << err;
    EXPECT_NE(err.find("faults.sed"), std::string::npos) << err;

    // Malformed integers are rejected by path, never cast: 1e30 would
    // abort the run and 2.5 would silently become 2.
    const auto expectSimError = [&](const std::string &sim,
                                    const std::string &needle) {
        EXPECT_FALSE(sweep::SweepSpec::parse(
            R"({"topology":{"dims":[4,4]},"routers":["xy"],"sim":)" + sim
                + "}",
            &err))
            << sim;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    };
    for (const char *sim : {R"({"vcDepth":1e30})", R"({"vcDepth":2.5})",
                            R"({"vcDepth":0})", R"({"vcDepth":-3})"})
        expectSimError(sim,
                       "'sim.vcDepth' must be an integer in [1, 2147483647]");
    expectSimError(R"({"seed":-1})",
                   "'sim.seed' must be an integer in "
                   "[0, 18446744073709551615]");
    expectSimError(R"({"seed":18446744073709551616})", "'sim.seed'");
    expectSimError(R"({"measureCycles":-5})", "'sim.measureCycles'");
    expectSimError(R"({"packetLength":0})", "'sim.packetLength'");
    expectSimError(R"({"injectionVcs":0})", "'sim.injectionVcs'");
    expectSimError(R"({"routerLatency":0})", "'sim.routerLatency'");
    expectSimError(R"({"shards":2147483648})", "'sim.shards'");
    expectSimError(R"({"switching":"vct","vcDepth":2,"packetLength":4})",
                   "'sim.vcDepth' must be >= 'packetLength'");

    // Integral values in range are accepted in any JSON spelling.
    const auto spec = specOrDie(
        R"({"topology":{"dims":[4,4]},"routers":["xy"],
            "sim":{"seed":18446744073709551615,"measureCycles":1e3,
                   "vcDepth":4.0,"switching":"saf"}})");
    EXPECT_EQ(spec.base.seed, 18446744073709551615ULL);
    EXPECT_EQ(spec.base.measureCycles, 1000u);
    EXPECT_EQ(spec.base.vcDepth, 4);
}

// ------------------------------------------------------ hardened sweep

TEST(SweepHardening, InterruptFlagSkipsPendingJobs)
{
    const auto jobs = specOrDie(kSpecText).expand();
    std::atomic<bool> stop{true}; // raised before the sweep starts

    sweep::RunOptions opts;
    opts.threads = 2;
    opts.interruptFlag = &stop;
    const auto report = sweep::runSweep(jobs, opts);

    EXPECT_TRUE(report.interrupted);
    EXPECT_EQ(report.skipped, jobs.size());
    EXPECT_EQ(report.simulated, 0u);
    for (const auto &out : report.outcomes) {
        EXPECT_FALSE(out.ok);
        EXPECT_TRUE(out.skipped);
        EXPECT_EQ(out.error, "interrupted");
    }

    // Skipped jobs produce no result lines.
    std::ostringstream text;
    sweep::writeResultsJsonl(jobs, report.outcomes, text);
    EXPECT_TRUE(text.str().empty());
}

TEST(SweepHardening, CycleBudgetQuarantinesAfterOneRetry)
{
    const ScratchDir dir("quarantine");
    auto jobs = specOrDie(kSpecText).expand();
    jobs.resize(2);

    sweep::ResultCache cold(dir.path);
    sweep::RunOptions opts;
    opts.threads = 2;
    opts.cache = &cold;
    opts.jobCycleBudget = 50; // far below warmup+measure
    opts.watchdogRetries = 1;

    const auto first = sweep::runSweep(jobs, opts);
    // Each job runs, trips the budget, retries once (deterministically
    // tripping again) and is quarantined.
    EXPECT_EQ(first.simulated, 2 * jobs.size());
    EXPECT_EQ(first.retried, jobs.size());
    EXPECT_EQ(first.quarantined, jobs.size());
    for (const auto &out : first.outcomes) {
        EXPECT_TRUE(out.ok); // quarantine is a verdict, not a failure
        EXPECT_TRUE(out.quarantined);
        EXPECT_TRUE(out.result.aborted);
        EXPECT_EQ(out.error.rfind("budget: aborted at cycle", 0), 0u)
            << out.error;
    }

    // Quarantined jobs still get result lines (the partial result is
    // the record of what tripped).
    std::ostringstream text;
    sweep::writeResultsJsonl(jobs, first.outcomes, text);
    std::istringstream in(text.str());
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        const auto doc = parseJson(line);
        ASSERT_TRUE(doc && doc->isObject()) << line;
        EXPECT_TRUE(doc->find("result"));
        ++rows;
    }
    EXPECT_EQ(rows, jobs.size());

    // A fresh cache object reloads the quarantine records from disk
    // and serves them: no job reruns.
    sweep::ResultCache warm(dir.path);
    EXPECT_EQ(warm.entries(), jobs.size());
    EXPECT_EQ(warm.quarantinedEntries(), jobs.size());
    opts.cache = &warm;
    const auto second = sweep::runSweep(jobs, opts);
    EXPECT_EQ(first.simulated + second.simulated, 2 * jobs.size())
        << "quarantined job re-ran";
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.quarantined, jobs.size());
    for (const auto &out : second.outcomes) {
        EXPECT_TRUE(out.fromCache);
        EXPECT_TRUE(out.quarantined);
        EXPECT_EQ(out.error.rfind("budget:", 0), 0u) << out.error;
    }

    // The exported line keeps the old reader contract (key + config +
    // result) with the reason as an extra member, and compact() keeps
    // quarantine records verbatim.
    const std::string exportPath = dir.path + "/export.jsonl";
    std::string exportErr;
    ASSERT_TRUE(sweep::ResultCache::exportJsonl(dir.path, exportPath,
                                                nullptr, &exportErr))
        << exportErr;
    std::ifstream cacheIn(exportPath);
    std::size_t quarantineLines = 0;
    while (std::getline(cacheIn, line)) {
        const auto doc = parseJson(line);
        ASSERT_TRUE(doc && doc->isObject()) << line;
        EXPECT_TRUE(doc->find("key"));
        EXPECT_TRUE(doc->find("config"));
        EXPECT_TRUE(doc->find("result"));
        const auto *q = doc->find("quarantine");
        ASSERT_TRUE(q && q->isString()) << line;
        EXPECT_EQ(q->asString().rfind("budget:", 0), 0u);
        ++quarantineLines;
    }
    EXPECT_EQ(quarantineLines, jobs.size());

    const auto stats = sweep::ResultCache::compact(dir.path);
    ASSERT_TRUE(stats);
    EXPECT_EQ(stats->kept, jobs.size());
    sweep::ResultCache compacted(dir.path);
    EXPECT_EQ(compacted.quarantinedEntries(), jobs.size());
}

TEST(SweepHardening, WallClockBudgetAbortsCooperatively)
{
    auto jobs = specOrDie(kSpecText).expand();
    sweep::RunOptions opts;
    opts.jobWallClockBudgetSeconds = 1e-9; // expired before cycle 0
    opts.watchdogRetries = 0;
    const auto out = sweep::runJob(jobs[0], opts);
    ASSERT_TRUE(out.ok);
    EXPECT_TRUE(out.result.aborted);
}

} // namespace
