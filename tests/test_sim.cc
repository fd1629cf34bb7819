/**
 * @file
 * Unit and behavioural tests for the wormhole simulator: delivery,
 * latency sanity, throughput accounting, the deadlock watchdog (both
 * directions), atomic-VC mode and traffic patterns.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/catalog.hh"
#include "routing/baselines.hh"
#include "routing/duato.hh"
#include "routing/ebda_routing.hh"
#include "sim/simulator.hh"

namespace ebda::sim {
namespace {

using core::makeClass;
using core::Sign;

SimConfig
lightConfig()
{
    SimConfig cfg;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 2000;
    cfg.injectionRate = 0.05;
    return cfg;
}

TEST(Traffic, PatternNames)
{
    EXPECT_EQ(toString(TrafficPattern::Uniform), "uniform");
    EXPECT_EQ(toString(TrafficPattern::Transpose), "transpose");
    EXPECT_EQ(toString(TrafficPattern::Hotspot), "hotspot");
}

TEST(Traffic, TransposeMapsCoordinates)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const TrafficGenerator gen(net, TrafficPattern::Transpose);
    Rng rng(1);
    const auto d = gen.dest(net.node({1, 3}), rng);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, net.node({3, 1}));
    // Diagonal nodes map to themselves: no traffic.
    EXPECT_FALSE(gen.dest(net.node({2, 2}), rng).has_value());
}

TEST(Traffic, BitPatterns)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    Rng rng(1);
    const TrafficGenerator comp(net, TrafficPattern::BitComplement);
    EXPECT_EQ(*comp.dest(0, rng), 15u);
    const TrafficGenerator rev(net, TrafficPattern::BitReverse);
    EXPECT_EQ(*rev.dest(1, rng), 8u); // 0001 -> 1000
    const TrafficGenerator shuf(net, TrafficPattern::Shuffle);
    EXPECT_EQ(*shuf.dest(5, rng), 10u); // 0101 -> 1010
}

TEST(Traffic, TornadoAndNeighbor)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    Rng rng(1);
    const TrafficGenerator tor(net, TrafficPattern::Tornado);
    EXPECT_EQ(*tor.dest(net.node({0, 0}), rng), net.node({1, 1}));
    const TrafficGenerator nei(net, TrafficPattern::Neighbor);
    EXPECT_EQ(*nei.dest(net.node({3, 3}), rng), net.node({0, 0}));
}

TEST(Traffic, HotspotFraction)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const TrafficGenerator gen(net, TrafficPattern::Hotspot,
                               net.node({2, 2}), 50);
    Rng rng(7);
    int hot = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        const auto d = gen.dest(net.node({0, 0}), rng);
        if (d && *d == net.node({2, 2}))
            ++hot;
    }
    // 50% direct + 1/16 of the uniform remainder.
    EXPECT_NEAR(static_cast<double>(hot) / trials, 0.5 + 0.5 / 16, 0.05);
}

TEST(Simulator, DeliversAtLowLoadXy)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    const auto result = runSimulation(net, xy, gen, lightConfig());

    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
    EXPECT_GT(result.packetsMeasured, 50u);
    // Latency at 5% load is near zero-load: serialization (4 flits) +
    // hops; must exceed the packet length and stay modest.
    EXPECT_GT(result.avgLatency, 4.0);
    EXPECT_LT(result.avgLatency, 40.0);
    EXPECT_GT(result.avgHops, 1.0);
    EXPECT_LT(result.avgHops, 7.0);
    // Accepted ~ offered at low load.
    EXPECT_NEAR(result.acceptedRate, result.offeredRate, 0.02);
}

TEST(Simulator, EbDaFullyAdaptiveDelivers)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting r(net, core::schemeFig7b());
    const TrafficGenerator gen(net, TrafficPattern::Transpose);
    const auto result = runSimulation(net, r, gen, lightConfig());
    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
    EXPECT_GT(result.packetsMeasured, 20u);
}

TEST(Simulator, WatchdogCatchesUnrestrictedAdaptiveDeadlock)
{
    // Fully adaptive minimal routing on a single VC deadlocks under
    // load; the watchdog must fire. (This is the simulator-side
    // counterpart of the cyclic-CDG verdict.)
    const auto net = topo::Network::mesh({4, 4}, {1, 1});

    class UnrestrictedAdaptive : public cdg::RoutingRelation
    {
      public:
        explicit UnrestrictedAdaptive(const topo::Network &n) : net(n) {}
        void
        candidatesInto(topo::ChannelId, topo::NodeId at, topo::NodeId,
                       topo::NodeId dest,
                       std::vector<topo::ChannelId> &out) const override
        {
            out.clear();
            for (std::uint8_t d = 0; d < net.numDims(); ++d) {
                const int off = net.minimalOffset(at, dest, d);
                if (off == 0)
                    continue;
                const auto link = net.linkFrom(
                    at, d, off > 0 ? Sign::Pos : Sign::Neg);
                if (link)
                    out.push_back(net.channel(*link, 0));
            }
        }
        std::string name() const override { return "unrestricted"; }
        const topo::Network &network() const override { return net; }

      private:
        const topo::Network &net;
    };

    const UnrestrictedAdaptive r(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg;
    cfg.injectionRate = 0.45; // deep saturation provokes the cycle
    cfg.vcDepth = 2;
    cfg.packetLength = 6;
    cfg.warmupCycles = 4000;
    cfg.measureCycles = 4000;
    cfg.drainCycles = 40000;
    cfg.watchdogCycles = 1500;
    cfg.seed = 5;
    const auto result = runSimulation(net, r, gen, cfg);
    EXPECT_TRUE(result.deadlocked);
}

TEST(Simulator, EbDaSurvivesLoadThatDeadlocksUnrestricted)
{
    // Same pressure, EbDa-restricted turns: no watchdog event.
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const routing::EbDaRouting r(net, core::schemeFig6P4());
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg;
    cfg.injectionRate = 0.45;
    cfg.vcDepth = 2;
    cfg.packetLength = 6;
    cfg.warmupCycles = 4000;
    cfg.measureCycles = 4000;
    cfg.drainCycles = 0; // saturated: don't wait for full drain
    cfg.watchdogCycles = 1500;
    cfg.seed = 5;
    const auto result = runSimulation(net, r, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
}

TEST(Simulator, DuatoNeedsAtomicBuffers)
{
    // Duato's fully adaptive routing with atomic VC allocation is
    // deadlock-free in simulation.
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const routing::DuatoFullyAdaptive r(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg = lightConfig();
    cfg.atomicVcAllocation = true;
    cfg.injectionRate = 0.2;
    const auto result = runSimulation(net, r, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
}

TEST(Simulator, ZeroLoadLatencyTracksDistance)
{
    // A single-source neighbor pattern at a tiny load: latency must be
    // close to hops + packet serialization.
    const auto net = topo::Network::mesh({8}, {1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Neighbor);
    SimConfig cfg = lightConfig();
    cfg.injectionRate = 0.01;
    cfg.packetLength = 3;
    const auto result = runSimulation(net, xy, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
    // Neighbor on a line: wrap to (0) for the last node is 7 hops; all
    // others 1 hop... mean stays low but above packet length.
    EXPECT_GT(result.avgLatency, 3.0);
    EXPECT_LT(result.avgLatency, 20.0);
}

TEST(Simulator, ThroughputSaturatesBelowOffered)
{
    // At an offered load far beyond capacity, accepted < offered.
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg = lightConfig();
    cfg.injectionRate = 0.9;
    cfg.drainCycles = 0;
    const auto result = runSimulation(net, xy, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_LT(result.acceptedRate, 0.7);
    EXPECT_GT(result.acceptedRate, 0.1);
}

TEST(Simulator, HigherLoadHigherLatency)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    SimConfig low = lightConfig();
    low.injectionRate = 0.03;
    SimConfig high = lightConfig();
    high.injectionRate = 0.25;
    high.drainCycles = 30000;

    const auto r_low = runSimulation(net, xy, gen, low);
    const auto r_high = runSimulation(net, xy, gen, high);
    EXPECT_FALSE(r_low.deadlocked);
    EXPECT_FALSE(r_high.deadlocked);
    EXPECT_GT(r_high.avgLatency, r_low.avgLatency);
    EXPECT_GE(r_high.p99Latency, r_high.p50Latency);
}

TEST(Simulator, DeterministicForFixedSeed)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    const auto a = runSimulation(net, xy, gen, lightConfig());
    const auto b = runSimulation(net, xy, gen, lightConfig());
    EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Simulator, RouterLatencyScalesPerHop)
{
    // A deeper router pipeline adds ~ (L-1) cycles per hop at zero
    // load.
    const auto net = topo::Network::mesh({6, 6}, {1, 1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    SimConfig fast = lightConfig();
    fast.injectionRate = 0.01;
    SimConfig deep = fast;
    deep.routerLatency = 4;

    const auto r_fast = runSimulation(net, xy, gen, fast);
    const auto r_deep = runSimulation(net, xy, gen, deep);
    EXPECT_FALSE(r_fast.deadlocked);
    EXPECT_FALSE(r_deep.deadlocked);
    ASSERT_GT(r_fast.avgHops, 1.0);
    const double extra = r_deep.avgLatency - r_fast.avgLatency;
    // Roughly 3 extra cycles per hop (same seed => same traffic).
    EXPECT_NEAR(extra, 3.0 * r_fast.avgHops, 0.35 * 3.0 * r_fast.avgHops);
}

TEST(Simulator, RejectsZeroRouterLatency)
{
    const auto net = topo::Network::mesh({3, 3}, {1, 1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg = lightConfig();
    cfg.routerLatency = 0;
    EXPECT_DEATH(Simulator(net, xy, gen, cfg), "routerLatency");
}

class SelectionPolicies
    : public ::testing::TestWithParam<SelectionPolicy>
{
};

TEST_P(SelectionPolicies, AllDeliverDeadlockFree)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting r(net, core::schemeFig7b());
    const TrafficGenerator gen(net, TrafficPattern::Transpose);
    SimConfig cfg = lightConfig();
    cfg.selection = GetParam();
    cfg.injectionRate = 0.15;
    const auto result = runSimulation(net, r, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
    EXPECT_GT(result.packetsMeasured, 20u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SelectionPolicies,
    ::testing::Values(SelectionPolicy::MaxCredits,
                      SelectionPolicy::RoundRobin,
                      SelectionPolicy::Random,
                      SelectionPolicy::FirstCandidate));

TEST(Simulator, SelectionPolicyChangesBehaviourButStaysDeterministic)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting r(net, core::schemeFig7b());
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg = lightConfig();
    cfg.injectionRate = 0.2;
    cfg.selection = SelectionPolicy::Random;
    const auto a = runSimulation(net, r, gen, cfg);
    const auto b = runSimulation(net, r, gen, cfg);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Simulator, MultiFlitWormholeHoldsVcUntilTail)
{
    // With depth 2 and 6-flit packets, packets necessarily span several
    // routers (true wormhole); everything must still drain.
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg = lightConfig();
    cfg.vcDepth = 2;
    cfg.packetLength = 6;
    const auto result = runSimulation(net, xy, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
    EXPECT_GT(result.packetsMeasured, 20u);
}

// ---------------------------------------------------------------------
// Pipeline-stage unit tests: the pieces the refactor made separately
// testable — the active-set scheduler and the pure allocator kernels.

TEST(ActiveSet, SweepsInRotatedAscendingOrder)
{
    ActiveSet set(10);
    for (std::size_t i : {7u, 2u, 9u, 4u})
        set.schedule(i);
    std::vector<std::size_t> visited;
    set.sweep(5, [&](std::size_t i) {
        visited.push_back(i);
        return true;
    });
    // First member >= 5, ascending, then wrap — exactly the order the
    // monolithic full-range scan would have hit the members in.
    EXPECT_EQ(visited, (std::vector<std::size_t>{7, 9, 2, 4}));

    visited.clear();
    set.sweep(0, [&](std::size_t i) {
        visited.push_back(i);
        return true;
    });
    EXPECT_EQ(visited, (std::vector<std::size_t>{2, 4, 7, 9}));
}

TEST(ActiveSet, ScheduleIsIdempotent)
{
    ActiveSet set(4);
    set.schedule(3);
    set.schedule(3);
    set.schedule(3);
    EXPECT_EQ(set.size(), 1u);
    std::size_t visits = 0;
    set.sweep(0, [&](std::size_t) {
        ++visits;
        return true;
    });
    EXPECT_EQ(visits, 1u);
}

TEST(ActiveSet, VisitorReturnValueControlsMembership)
{
    ActiveSet set(8);
    for (std::size_t i = 0; i < 8; ++i)
        set.schedule(i);
    set.sweep(0, [](std::size_t i) { return i % 2 == 0; });
    EXPECT_EQ(set.size(), 4u);
    EXPECT_TRUE(set.contains(2));
    EXPECT_FALSE(set.contains(3));

    // Dropped indices can be re-scheduled.
    set.schedule(3);
    EXPECT_TRUE(set.contains(3));
    EXPECT_EQ(set.size(), 5u);
}

TEST(ActiveSet, MidSweepSchedulesJoinNextSweep)
{
    ActiveSet set(6);
    set.schedule(1);
    std::vector<std::size_t> first;
    set.sweep(0, [&](std::size_t i) {
        first.push_back(i);
        set.schedule(5); // must not be visited this sweep
        return false;
    });
    EXPECT_EQ(first, (std::vector<std::size_t>{1}));
    EXPECT_TRUE(set.contains(5));
    std::vector<std::size_t> second;
    set.sweep(0, [&](std::size_t i) {
        second.push_back(i);
        return false;
    });
    EXPECT_EQ(second, (std::vector<std::size_t>{5}));
}

/**
 * Randomized differential against a reference ordered set, over
 * universes that end inside a word, on a word boundary and past one,
 * and span many words. Each round schedules a random batch, then sweeps
 * from a random offset (past the universe too) with a visitor that
 * drops some members and schedules others into the same set mid-sweep.
 * The visits must be the reference's members in rotated ascending
 * order, each once; mid-sweep schedules join afterwards.
 */
TEST(ActiveSet, MatchesAReferenceOrderedSet)
{
    std::mt19937_64 rng(20171024);
    for (const std::size_t universe : {1u, 63u, 64u, 65u, 130u, 4097u}) {
        ActiveSet set(universe);
        std::set<std::size_t> ref;
        for (int round = 0; round < 200; ++round) {
            // Sparse and dense batches, and rounds adding nothing.
            const std::size_t adds =
                rng() % 3 == 0 ? 0 : rng() % (universe / 8 + 2);
            for (std::size_t a = 0; a < adds; ++a) {
                const std::size_t i = rng() % universe;
                set.schedule(i);
                ref.insert(i);
            }
            ASSERT_EQ(set.size(), ref.size()) << universe;

            const std::size_t offset = rng() % (universe + 2);
            std::vector<std::size_t> want(ref.lower_bound(offset),
                                          ref.end());
            want.insert(want.end(), ref.begin(),
                        ref.lower_bound(offset));
            const std::uint64_t dropSalt = rng();
            std::vector<std::size_t> visited;
            std::set<std::size_t> joined;
            set.sweep(offset, [&](std::size_t i) {
                visited.push_back(i);
                if (rng() % 4 == 0) {
                    const std::size_t j = rng() % universe;
                    set.schedule(j);
                    joined.insert(j);
                }
                const bool keep = ((i ^ dropSalt) & 3) != 0;
                if (!keep)
                    ref.erase(i);
                return keep;
            });
            EXPECT_EQ(visited, want)
                << "universe " << universe << " round " << round
                << " offset " << offset;
            ref.insert(joined.begin(), joined.end());
            ASSERT_EQ(set.size(), ref.size()) << universe;
            for (std::size_t i = 0; i < universe; ++i)
                ASSERT_EQ(set.contains(i), ref.count(i) != 0)
                    << "universe " << universe << " round " << round
                    << " index " << i;
        }
    }
}

TEST(Fabric, ZeroCycleOccupancyHorizonYieldsZeroMeans)
{
    // A run that ends at cycle 0 (or a fabric inspected before any
    // cycle elapsed) must not divide the occupancy integral by a zero
    // horizon: means are defined as 0, peaks still report.
    const auto net = topo::Network::mesh({2, 2}, {1, 1});
    SimConfig cfg;
    Fabric fab(net, cfg);
    fab.pushFlit(0, Flit{0, true, true, 0}, 0);

    const auto occ = fab.channelOccupancy(0);
    ASSERT_EQ(occ.size(), net.numChannels());
    for (const auto &o : occ)
        EXPECT_EQ(o.mean, 0.0);
    EXPECT_EQ(occ[0].peak, 1u);
}

TEST(Simulator, PacketTableRecyclesSlotsThroughFreelist)
{
    // Ejected packets release their PacketRec slots for reuse, so the
    // table's high-water mark tracks the in-flight population, not the
    // total generated count — and recycled slots must not corrupt the
    // latency accounting of packets still in flight.
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const auto xy = routing::DimensionOrderRouting::xy(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    Simulator sim(net, xy, gen, lightConfig());
    const auto result = sim.run();

    ASSERT_TRUE(result.drained);
    ASSERT_FALSE(result.deadlocked);
    ASSERT_GT(result.packetsEjected, 100u);
    EXPECT_LT(sim.fabric().packets.size(), result.packetsEjected / 4);
    // Every slot is back on the freelist once the fabric drained.
    EXPECT_EQ(sim.fabric().packets.size(),
              sim.fabric().pktFreelist.size());
    // Recycled slots kept per-packet stats intact: latencies stay in
    // the zero-load envelope instead of mixing up birth cycles.
    EXPECT_GT(result.avgLatency, 4.0);
    EXPECT_LT(result.avgLatency, 60.0);
}

namespace {

/** Standalone input VCs with their rings bound to owned arena storage
 *  (outside a Fabric, rings have no slab to point into). */
struct BoundVcs
{
    static constexpr std::uint32_t kCap = 16;

    explicit BoundVcs(std::size_t n) : slab(n * kCap), ivcs(n)
    {
        for (std::size_t i = 0; i < n; ++i)
            ivcs[i].buf.bind(&slab[i * kCap], kCap);
    }

    std::vector<Flit> slab;
    std::vector<InputVc> ivcs;
};

/** The live-buffer space view the selection kernel reads (the view
 *  LiveDownstream gives over a whole fabric). */
struct LiveSpace
{
    const std::vector<InputVc> &ivcs;
    int depth;

    int
    space(topo::ChannelId c) const
    {
        return depth - static_cast<int>(ivcs[c].buf.size());
    }
};

BoundVcs
ivcsWithFill(const std::vector<int> &fill)
{
    BoundVcs vcs(fill.size());
    for (std::size_t c = 0; c < fill.size(); ++c)
        for (int k = 0; k < fill[c]; ++k)
            vcs.ivcs[c].buf.push_back(Flit{0, false, false, 0});
    return vcs;
}

} // namespace

TEST(VcAllocatorKernel, MaxCreditsPicksMostFreeSpaceFirstOnTies)
{
    // Channel 1 holds 3 flits, channel 2 holds 1, channel 0 holds 2.
    const auto vcs = ivcsWithFill({2, 3, 1});
    Rng rng(1, 0);
    const std::vector<topo::ChannelId> free{0, 1, 2};
    EXPECT_EQ(VcAllocator::selectOutput(SelectionPolicy::MaxCredits, free,
                                        LiveSpace{vcs.ivcs, 4}, 0, rng),
              2u);
    // Ties resolve to the earliest candidate (strict > comparison).
    const auto tied = ivcsWithFill({2, 2, 2});
    EXPECT_EQ(VcAllocator::selectOutput(SelectionPolicy::MaxCredits, free,
                                        LiveSpace{tied.ivcs, 4}, 0, rng),
              0u);
}

TEST(VcAllocatorKernel, RoundRobinRotatesWithOffset)
{
    const auto vcs = ivcsWithFill({0, 0, 0});
    Rng rng(1, 0);
    const std::vector<topo::ChannelId> free{0, 1, 2};
    for (std::size_t rot = 0; rot < 7; ++rot)
        EXPECT_EQ(VcAllocator::selectOutput(SelectionPolicy::RoundRobin,
                                            free, LiveSpace{vcs.ivcs, 4},
                                            rot, rng),
                  free[rot % free.size()]);
}

TEST(VcAllocatorKernel, RandomIsDeterministicPerStreamAndInRange)
{
    const auto vcs = ivcsWithFill({0, 0, 0, 0});
    const std::vector<topo::ChannelId> free{1, 3};
    Rng a(2017, 5), b(2017, 5);
    for (int i = 0; i < 32; ++i) {
        const auto ca = VcAllocator::selectOutput(
            SelectionPolicy::Random, free, LiveSpace{vcs.ivcs, 4}, 0, a);
        const auto cb = VcAllocator::selectOutput(
            SelectionPolicy::Random, free, LiveSpace{vcs.ivcs, 4}, 0, b);
        EXPECT_EQ(ca, cb);
        EXPECT_TRUE(ca == 1u || ca == 3u);
    }
}

TEST(VcAllocatorKernel, FirstCandidateTakesRelationOrder)
{
    const auto vcs = ivcsWithFill({9, 9, 9});
    Rng rng(1, 0);
    EXPECT_EQ(VcAllocator::selectOutput(SelectionPolicy::FirstCandidate,
                                        {2, 0, 1}, LiveSpace{vcs.ivcs, 4},
                                        0, rng),
              2u);
}

TEST(SwitchAllocatorKernel, HeadMayAdvanceGatesBySwitchingMode)
{
    BoundVcs vcs(2);
    InputVc &vc = vcs.ivcs[0];
    // A 4-flit packet fully buffered in this VC.
    for (int k = 0; k < 4; ++k)
        vc.buf.push_back(Flit{7, k == 0, k == 3, 0});

    // Wormhole never gates the head beyond space > 0 (checked by the
    // caller); the kernel always allows.
    EXPECT_TRUE(SwitchAllocator::headMayAdvance(SwitchingMode::Wormhole,
                                                4, vc, 1));

    // VCT needs room for the whole packet downstream.
    EXPECT_FALSE(SwitchAllocator::headMayAdvance(
        SwitchingMode::VirtualCutThrough, 4, vc, 3));
    EXPECT_TRUE(SwitchAllocator::headMayAdvance(
        SwitchingMode::VirtualCutThrough, 4, vc, 4));

    // SAF additionally needs the whole packet buffered locally.
    EXPECT_TRUE(SwitchAllocator::headMayAdvance(
        SwitchingMode::StoreAndForward, 4, vc, 4));
    vc.buf.pop_back(); // tail not yet here
    EXPECT_FALSE(SwitchAllocator::headMayAdvance(
        SwitchingMode::StoreAndForward, 4, vc, 4));
    // And the buffered run must be ONE packet: a 4-deep buffer holding
    // the tail of packet A then the head of packet B must not launch.
    InputVc &mixed = vcs.ivcs[1];
    mixed.buf.push_back(Flit{1, false, true, 0});
    mixed.buf.push_back(Flit{2, true, false, 0});
    mixed.buf.push_back(Flit{2, false, false, 0});
    mixed.buf.push_back(Flit{2, false, false, 0});
    EXPECT_FALSE(SwitchAllocator::headMayAdvance(
        SwitchingMode::StoreAndForward, 4, mixed, 4));
}

TEST(Simulator, CongestionPopulatesStallAttribution)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting r(net, core::schemeFig7b());
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg = lightConfig();
    cfg.injectionRate = 0.8; // deep saturation
    const auto result = runSimulation(net, r, gen, cfg);

    // Saturated wormhole traffic must stall on credits and lose switch
    // arbitration; the hottest router must account for a nonzero share.
    EXPECT_GT(result.stallCreditStarved, 0u);
    EXPECT_GT(result.stallSwitchLost, 0u);
    EXPECT_GT(result.hottestRouterStalls, 0u);
    EXPECT_LT(result.hottestRouter, net.numNodes());

    // Buffers fill to the brim somewhere.
    EXPECT_EQ(result.channelOccupancyPeak,
              static_cast<std::uint64_t>(cfg.vcDepth));
    EXPECT_GT(result.channelOccupancyMean, 0.0);
}

TEST(Simulator, LightLoadKeepsOccupancyLow)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting r(net, core::schemeFig7b());
    const TrafficGenerator gen(net, TrafficPattern::Uniform);
    SimConfig cfg = lightConfig(); // rate 0.05
    const auto result = runSimulation(net, r, gen, cfg);
    EXPECT_GT(result.channelOccupancyPeak, 0u);
    EXPECT_LT(result.channelOccupancyMean, 1.0);
    EXPECT_TRUE(result.deadlockCycle.empty());
    EXPECT_FALSE(result.deadlockCycleInCdg);
}

} // namespace
} // namespace ebda::sim
