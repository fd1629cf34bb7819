/**
 * @file
 * Correctness suite for the sharded loop (sim/shard_sched.hh)
 * and its spatial partitioner (sim/shard_partition.hh).
 *
 * The contract under test, in order of importance:
 *  1. shards = 1 forces the serial loop — every golden-sim
 *     configuration must produce a bit-identical SimResult (full JSON,
 *     schedMode and wakeups included).
 *  2. A sharded run is a pure function of (config, shard count): for a
 *     fixed shard count the full result JSON is identical across
 *     repeated runs and across every worker-thread count, including
 *     oversubscription (EBDA_SHARD_THREADS above the core count) —
 *     which is why this suite needs no multi-core reference machine,
 *     and why it is meaningful under TSan on one core. Every sharded
 *     run is also pinned to the fnv1a64 digest of its full result
 *     JSON, so a change to sharded arbitration, credit flow or packet
 *     bookkeeping fails here even when it stays self-consistent
 *     across thread counts.
 *  3. Conservation against the serial loop: generation is driven
 *     by per-node RNG substreams over the same cycle window, so a
 *     drained sharded run must eject exactly the serial run's packet
 *     and measured-flit counts (latency statistics may differ — the
 *     cut-credit lag makes a sharded run a slightly different, equally
 *     valid, simulation).
 *  4. Partition shapes: grid slabs cut only boundary links (torus wrap
 *     links included), dragonfly partitions never split a group, every
 *     shard is non-empty.
 *  5. Config plumbing: `shards` round-trips through the JSON codec and
 *     is omitted when 0, keeping legacy sweep cache keys byte-stable.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <sstream>

#include "core/catalog.hh"
#include "core/torus.hh"
#include "routing/baselines.hh"
#include "routing/dragonfly.hh"
#include "routing/ebda_routing.hh"
#include "sim/shard_partition.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"
#include "sweep/sweep_spec.hh"
#include "util/json.hh"

namespace {

using namespace ebda;

sim::SimResult
runWith(const topo::Network &net, const cdg::RoutingRelation &routing,
        const sim::TrafficGenerator &gen, sim::SimConfig cfg,
        int shards)
{
    cfg.shards = shards;
    cfg.schedMode = sim::SchedMode::Cycle;
    sim::Simulator s(net, routing, gen, cfg);
    return s.run();
}

/** Run with a pinned worker-thread count (restores the environment). */
sim::SimResult
runWithThreads(const topo::Network &net,
               const cdg::RoutingRelation &routing,
               const sim::TrafficGenerator &gen,
               const sim::SimConfig &cfg, int shards, int threads)
{
    ::setenv("EBDA_SHARD_THREADS", std::to_string(threads).c_str(), 1);
    auto r = runWith(net, routing, gen, cfg, shards);
    ::unsetenv("EBDA_SHARD_THREADS");
    return r;
}

/** fnv1a64 of the full result JSON: the pinned identity of a run. */
std::uint64_t
digest(const sim::SimResult &r)
{
    return sweep::fnv1a64(sim::toJson(r));
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

sim::SimConfig
baseConfig()
{
    sim::SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.15;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 2000;
    return cfg;
}

// ---------------------------------------------------------------------
// 1. shards = 1 is the serial loop, bit for bit, over the full
//    golden grid (same 24 rows test_golden_sim.cc pins).

struct GoldenRow
{
    int topo;
    sim::SelectionPolicy selection;
    sim::SwitchingMode switching;
};

class ShardGolden : public ::testing::TestWithParam<GoldenRow>
{
};

/** Run one golden-grid row (the test_golden_sim fabrics and config)
 *  at the given shard count. */
sim::SimResult
runGoldenRow(const GoldenRow &row, int shards, bool atomic = false)
{
    const auto net = row.topo == 0
        ? topo::Network::mesh({4, 4}, {1, 2})
        : topo::Network::torus({4, 4}, {2, 2});
    const auto scheme = row.topo == 0 ? core::schemeFig7b()
                                      : core::torusAdaptiveScheme2d();
    const routing::EbDaRouting router(
        net, scheme, {},
        row.topo == 0 ? routing::EbDaRouting::Mode::Minimal
                      : routing::EbDaRouting::Mode::ShortestState);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg = baseConfig();
    cfg.selection = row.selection;
    cfg.switching = row.switching;
    cfg.atomicVcAllocation = atomic;
    return runWith(net, router, gen, cfg, shards);
}

TEST_P(ShardGolden, OneShardBitIdenticalToClassic)
{
    const GoldenRow &row = GetParam();
    EXPECT_EQ(sim::toJson(runGoldenRow(row, 0)),
              sim::toJson(runGoldenRow(row, 1)));
}

std::string
rowName(const GoldenRow &row)
{
    std::string n = row.topo == 0 ? "Mesh4x4" : "Torus4x4";
    n += row.selection == sim::SelectionPolicy::MaxCredits ? "MaxCredits"
        : row.selection == sim::SelectionPolicy::RoundRobin ? "RoundRobin"
        : row.selection == sim::SelectionPolicy::Random     ? "Random"
                                                        : "FirstCandidate";
    n += row.switching == sim::SwitchingMode::Wormhole ? "Wormhole"
        : row.switching == sim::SwitchingMode::VirtualCutThrough ? "Vct"
                                                                 : "Saf";
    return n;
}

std::string
goldenRowName(const ::testing::TestParamInfo<GoldenRow> &info)
{
    return rowName(info.param);
}

std::vector<GoldenRow>
allGoldenRows()
{
    std::vector<GoldenRow> rows;
    for (int topo = 0; topo < 2; ++topo)
        for (const auto sel :
             {sim::SelectionPolicy::MaxCredits,
              sim::SelectionPolicy::RoundRobin,
              sim::SelectionPolicy::Random,
              sim::SelectionPolicy::FirstCandidate})
            for (const auto sw :
                 {sim::SwitchingMode::Wormhole,
                  sim::SwitchingMode::VirtualCutThrough,
                  sim::SwitchingMode::StoreAndForward})
                rows.push_back({topo, sel, sw});
    return rows;
}

INSTANTIATE_TEST_SUITE_P(AllGoldenRows, ShardGolden,
                         ::testing::ValuesIn(allGoldenRows()),
                         goldenRowName);

// ---------------------------------------------------------------------
// 1b. The same grid run sharded: every selection policy and switching
//     mode at 2 and 4 shards, plus one atomic-allocation row, each
//     pinned to its result digest.

struct ShardedRow
{
    GoldenRow row;
    int shards;
    bool atomic;
    std::uint64_t digest;
};

std::string
shardedRowName(const ShardedRow &r)
{
    return rowName(r.row) + std::to_string(r.shards) + "Shards"
        + (r.atomic ? "Atomic" : "");
}

/** Print the row by name: the raw bytes gtest would dump otherwise
 *  include struct padding, which would make the test name unstable. */
void
PrintTo(const ShardedRow &r, std::ostream *os)
{
    *os << shardedRowName(r);
}

class ShardGoldenSharded : public ::testing::TestWithParam<ShardedRow>
{
};

TEST_P(ShardGoldenSharded, DigestPinned)
{
    const ShardedRow &r = GetParam();
    const auto result = runGoldenRow(r.row, r.shards, r.atomic);
    EXPECT_EQ(hex(digest(result)), hex(r.digest));
}

constexpr auto kMax = sim::SelectionPolicy::MaxCredits;
constexpr auto kRr = sim::SelectionPolicy::RoundRobin;
constexpr auto kRand = sim::SelectionPolicy::Random;
constexpr auto kFirst = sim::SelectionPolicy::FirstCandidate;
constexpr auto kWh = sim::SwitchingMode::Wormhole;
constexpr auto kVct = sim::SwitchingMode::VirtualCutThrough;
constexpr auto kSaf = sim::SwitchingMode::StoreAndForward;

/** Result digests of the sharded runs. A mismatch means sharded
 *  arbitration, credit flow or packet bookkeeping changed; re-pin only
 *  for an intended change of simulated behaviour. */
const ShardedRow kShardedRows[] = {
    {{0, kMax, kWh}, 2, false, 0x96ba915db0483e46},
    {{0, kMax, kWh}, 4, false, 0xf0900023e5719685},
    {{0, kMax, kVct}, 2, false, 0xbbe66aa321d003d},
    {{0, kMax, kVct}, 4, false, 0xd6d7c7b7c6759661},
    {{0, kMax, kSaf}, 2, false, 0x6d95ef30a2691894},
    {{0, kMax, kSaf}, 4, false, 0xf48ba01b48347832},
    {{0, kRr, kWh}, 2, false, 0xff8ceb462f4b50de},
    {{0, kRr, kWh}, 4, false, 0xba9884713bf9382e},
    {{0, kRr, kVct}, 2, false, 0x14afdeb1433a3bc1},
    {{0, kRr, kVct}, 4, false, 0x1b289de2367b0109},
    {{0, kRr, kSaf}, 2, false, 0xb99453fcb7e9e8a7},
    {{0, kRr, kSaf}, 4, false, 0xbd60baf0be284a50},
    {{0, kRand, kWh}, 2, false, 0x77b5007fd9b1b7b2},
    {{0, kRand, kWh}, 4, false, 0xa60338bb95e7dfff},
    {{0, kRand, kVct}, 2, false, 0xe4ad387a7e1e3a7b},
    {{0, kRand, kVct}, 4, false, 0x257b760eeb16cf61},
    {{0, kRand, kSaf}, 2, false, 0x53ca0821dab7f1d3},
    {{0, kRand, kSaf}, 4, false, 0x1b7cb2ad53557b71},
    {{0, kFirst, kWh}, 2, false, 0x9d31029a0d65f5},
    {{0, kFirst, kWh}, 4, false, 0x6c18e3aae9b8b288},
    {{0, kFirst, kVct}, 2, false, 0xeb5e4c322251423a},
    {{0, kFirst, kVct}, 4, false, 0x4f3c8f2a4ab0e1d7},
    {{0, kFirst, kSaf}, 2, false, 0x4f14a02a0e70345b},
    {{0, kFirst, kSaf}, 4, false, 0x88d5820e55d7347},
    {{1, kMax, kWh}, 2, false, 0x3d666395ae6af53b},
    {{1, kMax, kWh}, 4, false, 0x66cf8ae3824e9da4},
    {{1, kMax, kVct}, 2, false, 0x92ac90bfb129463d},
    {{1, kMax, kVct}, 4, false, 0xe4cd219adb1ff1a3},
    {{1, kMax, kSaf}, 2, false, 0x657d8e248ef3d339},
    {{1, kMax, kSaf}, 4, false, 0x29eed5a3dd1287aa},
    {{1, kRr, kWh}, 2, false, 0x4eea91831f939738},
    {{1, kRr, kWh}, 4, false, 0x132274c5db4b9f50},
    {{1, kRr, kVct}, 2, false, 0xdbcbe937eaeb5c9a},
    {{1, kRr, kVct}, 4, false, 0xd480b53d29355fd7},
    {{1, kRr, kSaf}, 2, false, 0x17872e58e21ef270},
    {{1, kRr, kSaf}, 4, false, 0xa89b42e09e86dc99},
    {{1, kRand, kWh}, 2, false, 0x76870239b06d812f},
    {{1, kRand, kWh}, 4, false, 0x67d1aef4efc7920f},
    {{1, kRand, kVct}, 2, false, 0xa4231bb362fffd37},
    {{1, kRand, kVct}, 4, false, 0x820d6dd0de548ee6},
    {{1, kRand, kSaf}, 2, false, 0x5ee412d498a29598},
    {{1, kRand, kSaf}, 4, false, 0xae755dfc393b150d},
    {{1, kFirst, kWh}, 2, false, 0xd0d6fd85bc9a701},
    {{1, kFirst, kWh}, 4, false, 0x8faf7061f620703},
    {{1, kFirst, kVct}, 2, false, 0x271290c95f34d1b6},
    {{1, kFirst, kVct}, 4, false, 0xe64f76c54d93fefd},
    {{1, kFirst, kSaf}, 2, false, 0xbc932d23c43683e1},
    {{1, kFirst, kSaf}, 4, false, 0xa84c0872c7624e72},
    // Atomic allocation on a sharded fabric: cut channels test
    // "all credits home" instead of an empty live buffer.
    {{0, kMax, kWh}, 4, true, 0x223e43e1ad379a24},
};

INSTANTIATE_TEST_SUITE_P(
    ShardedGoldenRows, ShardGoldenSharded,
    ::testing::ValuesIn(kShardedRows),
    [](const ::testing::TestParamInfo<ShardedRow> &info) {
        return shardedRowName(info.param);
    });

// ---------------------------------------------------------------------
// 2+3. Sharded runs: deterministic for a fixed shard count across
//      repeats and worker-thread counts, and conservation-equal to the
//      serial run.

void
expectShardedDeterministic(const topo::Network &net,
                           const cdg::RoutingRelation &routing,
                           const sim::TrafficGenerator &gen,
                           const sim::SimConfig &cfg, int shards,
                           std::uint64_t expected_digest)
{
    const auto classic = runWith(net, routing, gen, cfg, 1);
    const auto ref = runWith(net, routing, gen, cfg, shards);
    const std::string ref_json = sim::toJson(ref);
    EXPECT_EQ(hex(digest(ref)), hex(expected_digest))
        << shards << " shards: result differs from the pinned run";

    // Repeat run: identical.
    EXPECT_EQ(ref_json, sim::toJson(runWith(net, routing, gen, cfg,
                                            shards)))
        << shards << " shards: repeated run diverged";
    // Worker-thread count must not matter: serial execution of all
    // shards, one thread per shard, and oversubscription beyond both
    // the shard count and this machine's core count.
    for (const int threads : {1, 2, shards, 3 * shards}) {
        EXPECT_EQ(ref_json,
                  sim::toJson(runWithThreads(net, routing, gen, cfg,
                                             shards, threads)))
            << shards << " shards diverged at " << threads
            << " worker thread(s)";
    }

    // The sharded loop still reports a Cycle-mode run and keeps the
    // serial loop's wakeups accounting (one per executed cycle, plus the
    // final bottom-break iteration when it drains).
    EXPECT_EQ(ref.schedMode, sim::SchedMode::Cycle);
    ASSERT_TRUE(classic.drained);
    ASSERT_TRUE(ref.drained);
    EXPECT_EQ(ref.wakeups, ref.cycles + 1);

    // Conservation vs. serial: same generation stream, fully drained,
    // so the delivered counts must match exactly even though latency
    // statistics legitimately differ (cut-credit lag).
    EXPECT_EQ(ref.packetsEjected, classic.packetsEjected);
    EXPECT_EQ(ref.packetsMeasured, classic.packetsMeasured);
    EXPECT_DOUBLE_EQ(ref.offeredRate, classic.offeredRate);
    EXPECT_EQ(ref.deliveredFraction, 1.0);
}

TEST(ShardEquiv, Mesh8x8TwoAndFourShards)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    expectShardedDeterministic(net, router, gen, baseConfig(), 2, 0xe09c98d426d9c015);
    expectShardedDeterministic(net, router, gen, baseConfig(), 4, 0x4dcf9fa6eb5584aa);
}

/** Torus wrap links connect the first and last slab: the cut-edge set
 *  includes wrap edges in both directions, the case where a naive
 *  "neighbouring slabs only" mailbox setup would break. */
TEST(ShardEquiv, TorusWrapEdgesCrossCuts)
{
    const auto net = topo::Network::torus({4, 4}, {2, 2});
    const routing::EbDaRouting router(
        net, core::torusAdaptiveScheme2d(), {},
        routing::EbDaRouting::Mode::ShortestState);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    expectShardedDeterministic(net, router, gen, baseConfig(), 2, 0x3d666395ae6af53b);
    expectShardedDeterministic(net, router, gen, baseConfig(), 4, 0x66cf8ae3824e9da4);
}

/** Non-uniform traffic exercises skewed boundary flows (all pairs
 *  crossing the transpose diagonal). */
TEST(ShardEquiv, TransposeTrafficSharded)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net,
                                    sim::TrafficPattern::Transpose);
    sim::SimConfig cfg = baseConfig();
    cfg.injectionRate = 0.08;
    expectShardedDeterministic(net, router, gen, cfg, 4, 0x80f57b2e26a27b93);
}

TEST(ShardEquiv, DragonflyShardedRun)
{
    const auto net = topo::Network::dragonfly(4, 2, 2);
    const routing::DragonflyMinRouting router(net, 4);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg = baseConfig();
    cfg.seed = 23;
    cfg.injectionRate = 0.05;
    expectShardedDeterministic(net, router, gen, cfg, 3, 0xe2c132fac2a3f081);
}

/** A deadlocking configuration must deadlock deterministically under
 *  sharding too, with the forensic walk running on the frozen fabric
 *  after the workers join. */
TEST(ShardEquiv, DeadlockedShardedRunIsDeterministic)
{
    const auto net = topo::Network::torus({4, 4}, {1, 1});
    const routing::MinimalAdaptiveRouting router(net);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg = baseConfig();
    cfg.injectionRate = 0.6;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    cfg.watchdogCycles = 500;

    const auto a = runWithThreads(net, router, gen, cfg, 2, 1);
    const auto b = runWithThreads(net, router, gen, cfg, 2, 2);
    EXPECT_TRUE(a.deadlocked);
    EXPECT_FALSE(a.deadlockCycle.empty())
        << "deadlocked sharded run must carry a forensic witness";
    EXPECT_EQ(sim::toJson(a), sim::toJson(b));
    EXPECT_EQ(hex(digest(a)), hex(0x2971339dfeafd3dc));

    // The serial run deadlocks on this configuration too.
    EXPECT_TRUE(runWith(net, router, gen, cfg, 1).deadlocked);
}

// ---------------------------------------------------------------------
// 4. Partition shapes.

TEST(ShardPartition, GridSlabsAreContiguousAndBalanced)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    for (const int shards : {2, 4, 8}) {
        const auto shard_of = sim::partitionNodes(net, shards);
        ASSERT_EQ(shard_of.size(), net.numNodes());
        std::vector<std::size_t> count(
            static_cast<std::size_t>(shards), 0);
        for (topo::NodeId v = 0; v < net.numNodes(); ++v) {
            ASSERT_LT(shard_of[v], shards);
            ++count[shard_of[v]];
        }
        // Slabs along one dimension of an 8x8 mesh: exactly 64/shards
        // nodes each, and each slab spans whole rows of the slab axis.
        for (const std::size_t c : count)
            EXPECT_EQ(c, net.numNodes() / static_cast<std::size_t>(shards));
        // A slab partition: the shard is a function of the slab-axis
        // coordinate alone (8x8 ties toward dimension 0), so nodes
        // sharing that coordinate always share a shard.
        for (topo::NodeId u = 0; u < net.numNodes(); ++u) {
            for (topo::NodeId v = 0; v < net.numNodes(); ++v) {
                if (net.coordAlong(u, 0) == net.coordAlong(v, 0)) {
                    EXPECT_EQ(shard_of[u], shard_of[v]);
                }
            }
        }
    }
}

TEST(ShardPartition, DragonflyPartitionNeverSplitsAGroup)
{
    const auto net = topo::Network::dragonfly(4, 2, 2);
    const auto shape = net.dragonflyShape();
    ASSERT_TRUE(shape.has_value());
    for (const int shards : {2, 3, static_cast<int>(shape->groups)}) {
        const auto shard_of = sim::partitionNodes(net, shards);
        std::vector<std::size_t> count(
            static_cast<std::size_t>(shards), 0);
        for (topo::NodeId v = 0; v < net.numNodes(); ++v)
            ++count[shard_of[v]];
        for (const std::size_t c : count)
            EXPECT_GT(c, 0u) << shards << " shards left one empty";
        // All routers of a group share a shard.
        for (topo::NodeId v = 0; v < net.numNodes(); ++v) {
            const topo::NodeId g0 = v - (v % static_cast<topo::NodeId>(
                                             shape->a));
            EXPECT_EQ(shard_of[v], shard_of[g0])
                << "group of node " << v << " split across shards";
        }
    }
}

TEST(ShardPartition, FullMeshUsesBfsChunksEveryShardNonEmpty)
{
    const auto net = topo::Network::fullMesh(10, 2);
    for (const int shards : {2, 3, 10}) {
        const auto shard_of = sim::partitionNodes(net, shards);
        std::vector<std::size_t> count(
            static_cast<std::size_t>(shards), 0);
        for (topo::NodeId v = 0; v < net.numNodes(); ++v)
            ++count[shard_of[v]];
        for (const std::size_t c : count)
            EXPECT_GT(c, 0u);
    }
}

TEST(ShardPartition, ResolveRules)
{
    // Fallback gates: faults, protocol, uncompiled table.
    EXPECT_EQ(sim::resolveShardCount(4, 4096, true, true, false), 1);
    EXPECT_EQ(sim::resolveShardCount(4, 4096, true, false, true), 1);
    EXPECT_EQ(sim::resolveShardCount(4, 4096, false, false, false), 1);
    // Explicit requests clamp to [1, min(nodes, kMaxShards)].
    EXPECT_EQ(sim::resolveShardCount(4, 4096, true, false, false), 4);
    EXPECT_EQ(sim::resolveShardCount(1, 4096, true, false, false), 1);
    EXPECT_EQ(sim::resolveShardCount(100, 16, true, false, false), 16);
    EXPECT_EQ(sim::resolveShardCount(100000, 1 << 20, true, false,
                                     false),
              sim::kMaxShards);
    // Auto: serial below the cutoff, fabric-size-derived above —
    // never a function of the machine.
    EXPECT_EQ(sim::resolveShardCount(0, 64, true, false, false), 1);
    EXPECT_EQ(sim::resolveShardCount(
                  0, sim::kAutoShardNodeCutoff - 1, true, false, false),
              1);
    EXPECT_EQ(sim::resolveShardCount(
                  0, sim::kAutoShardNodeCutoff, true, false, false),
              4);
    EXPECT_EQ(sim::resolveShardCount(0, 4096, true, false, false), 8);
}

TEST(ShardPartition, WorkerThreadsHonourEnvAndShardCap)
{
    ::setenv("EBDA_SHARD_THREADS", "3", 1);
    EXPECT_EQ(sim::shardWorkerThreads(8), 3u);
    EXPECT_EQ(sim::shardWorkerThreads(2), 2u); // capped by shards
    ::setenv("EBDA_SHARD_THREADS", "64", 1);
    EXPECT_EQ(sim::shardWorkerThreads(4), 4u);
    ::unsetenv("EBDA_SHARD_THREADS");
    EXPECT_GE(sim::shardWorkerThreads(4), 1u);
    EXPECT_LE(sim::shardWorkerThreads(4), 4u);
}

// ---------------------------------------------------------------------
// 5. Config plumbing: JSON round-trip and legacy cache-key stability.

TEST(ShardConfig, JsonRoundTripAndLegacyStability)
{
    sim::SimConfig legacy; // shards = 0 (auto) — the pre-shards default
    sim::SimConfig sharded = legacy;
    sharded.shards = 4;
    sim::SimConfig forced = legacy;
    forced.shards = 1;

    const std::string legacy_json = sim::toJson(legacy);
    // Auto is the default: omitted, so every pre-shards cache key and
    // golden config byte stays identical.
    EXPECT_EQ(legacy_json.find("\"shards\""), std::string::npos);
    // Any explicit count — 1 included — is part of the config identity
    // (shards = 1 forces the serial loop even on huge fabrics
    // where auto would shard, so it must not serialize like auto).
    EXPECT_NE(sim::toJson(sharded).find("\"shards\":4"),
              std::string::npos);
    EXPECT_NE(sim::toJson(forced).find("\"shards\":1"),
              std::string::npos);

    for (const sim::SimConfig &cfg : {legacy, sharded, forced}) {
        const auto doc = parseJson(sim::toJson(cfg));
        ASSERT_TRUE(doc.has_value());
        std::string err;
        const auto back = sim::configFromJson(*doc, &err);
        ASSERT_TRUE(back.has_value()) << err;
        EXPECT_EQ(back->shards, cfg.shards);
        EXPECT_EQ(sim::toJson(*back), sim::toJson(cfg));
    }
}

} // namespace
