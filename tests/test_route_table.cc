/**
 * @file
 * Property tests for the route-table compiler: a compiled table must
 * be indistinguishable from the virtual relation it flattened — same
 * candidate contents, same order — at every state a packet can occupy.
 *
 * "Every state" means every *reachable* (in, src, dest): the compiler
 * fills its rows from the checkers' reachable-state walk, so
 * unreachable rows are deliberately empty (relations like EbDaRouting
 * and Elevator-First assert on unreachable combinations; the runtime
 * never queries them). The oracle here is an independent BFS of the
 * same reachability closure, one (src, dest) pair at a time, through
 * the virtual relation, and compares exhaustively on it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "routing/baselines.hh"
#include "routing/dateline.hh"
#include "routing/elevator.hh"
#include "routing/route_table.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"
#include "sweep/router_factory.hh"

namespace ebda::routing {
namespace {

using cdg::kInjectionChannel;

using Oracle = std::function<std::vector<topo::ChannelId>(
    topo::ChannelId, topo::NodeId, topo::NodeId, topo::NodeId)>;

Oracle
relationOracle(const cdg::RoutingRelation &rel)
{
    return [&rel](topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                  topo::NodeId dest) {
        return rel.candidates(in, at, src, dest);
    };
}

topo::NodeId
headOf(const topo::Network &net, topo::ChannelId c)
{
    return net.link(net.linkOf(c)).dst;
}

/**
 * BFS the reachable states of `reach` per (src, dest) and compare the
 * table against `expect` at each one (both views, contents and order).
 * `reach` and `expect` differ only in the fault test, where rows were
 * compiled from the base relation and then filtered: reachability is
 * the base closure, expectation the degraded relation.
 *
 * At every state the compiled relation's candidatesInto() also fills a
 * buffer that already holds stale channels; the result must equal
 * candidates(), which pins the contract that the call replaces the
 * buffer's contents (never appends) in the relation's order.
 * Returns the number of states compared.
 */
std::size_t
expectTableMatches(const RouteTable &table, const topo::Network &net,
                   const Oracle &reach, const Oracle &expect)
{
    std::vector<topo::ChannelId> scratch;
    std::vector<topo::ChannelId> got;
    std::vector<topo::ChannelId> filled;
    std::size_t states = 0;
    const cdg::RoutingRelation &rel = table.relation();

    const auto check = [&](topo::ChannelId in, topo::NodeId at,
                           topo::NodeId src, topo::NodeId dest) {
        filled.insert(filled.end(), {0, 1, topo::kInvalidId});
        rel.candidatesInto(in, at, src, dest, filled);
        EXPECT_EQ(filled, rel.candidates(in, at, src, dest))
            << rel.name() << " candidatesInto on a non-empty buffer at in="
            << in << " at=" << at << " src=" << src << " dest=" << dest;

        const auto want = expect(in, at, src, dest);
        table.candidatesInto(in, at, src, dest, got);
        EXPECT_EQ(got, want) << "candidatesInto at in=" << in
                             << " at=" << at << " src=" << src
                             << " dest=" << dest;
        const auto view =
            table.candidatesView(in, at, src, dest, scratch);
        const std::vector<topo::ChannelId> viewed(view.begin(),
                                                  view.end());
        EXPECT_EQ(viewed, want) << "candidatesView at in=" << in
                                << " at=" << at << " src=" << src
                                << " dest=" << dest;
        ++states;
    };

    for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
        for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
            if (dest == src)
                continue;
            std::vector<std::uint8_t> seen(net.numChannels(), 0);
            std::vector<topo::ChannelId> frontier;
            const auto push = [&](const std::vector<topo::ChannelId> &cs) {
                for (const topo::ChannelId c : cs) {
                    if (!seen[c]) {
                        seen[c] = 1;
                        frontier.push_back(c);
                    }
                }
            };
            check(kInjectionChannel, src, src, dest);
            push(reach(kInjectionChannel, src, src, dest));
            for (std::size_t i = 0; i < frontier.size(); ++i) {
                const topo::ChannelId in = frontier[i];
                const topo::NodeId at = headOf(net, in);
                if (at == dest)
                    continue; // ejects on arrival, never queried
                check(in, at, src, dest);
                push(reach(in, at, src, dest));
            }
        }
    }
    return states;
}

/** The sweep catalog, paired per topology family — the mesh baseline
 *  relations reject torus networks in their constructors. */
const std::vector<const char *> kMeshSpecs = {
    "xy",          "yx",       "west-first", "north-last",
    "negative-first", "odd-even", "duato",   "minimal",
    "fig7b",       "fig7c",    "region:4",   "merged:4",
};
const std::vector<const char *> kTorusSpecs = {
    "minimal", "fig7b", "fig7c", "region:4", "merged:4",
};
/** Routers that host 3D meshes (the 2D turn models assert on them). */
const std::vector<const char *> kMesh3dSpecs = {
    "xy", "yx", "minimal", "duato", "region:3", "merged:3", "updown",
};

struct NetCase
{
    const char *name;
    topo::Network net;
    const std::vector<const char *> &specs;
};

std::vector<NetCase>
catalogNetworks()
{
    std::vector<NetCase> out;
    out.push_back(
        {"mesh4x4", topo::Network::mesh({4, 4}, {2, 2}), kMeshSpecs});
    out.push_back(
        {"mesh5x5", topo::Network::mesh({5, 5}, {2, 2}), kMeshSpecs});
    out.push_back(
        {"torus4x4", topo::Network::torus({4, 4}, {2, 2}), kTorusSpecs});
    out.push_back({"mesh3x3x2", topo::Network::mesh({3, 3, 2}, {2, 2, 2}),
                   kMesh3dSpecs});
    return out;
}

TEST(RouteTable, CatalogRelationsCompileAndMatchVirtual)
{
    std::size_t compiledRelations = 0;
    for (const NetCase &nc : catalogNetworks()) {
        for (const char *spec : nc.specs) {
            std::string err;
            const auto rel = sweep::makeRouter(nc.net, spec, &err);
            if (!rel)
                continue; // spec not hostable on this network
            const RouteTable table(*rel);
            EXPECT_TRUE(table.compiled())
                << spec << " on " << nc.name
                << " fell back to the virtual path";
            EXPECT_GT(table.tableBytes(), 0u) << spec << " on " << nc.name;
            const auto oracle = relationOracle(*rel);
            const std::size_t states =
                expectTableMatches(table, nc.net, oracle, oracle);
            EXPECT_GT(states, nc.net.numNodes() * 2u)
                << spec << " on " << nc.name;
            ++compiledRelations;
        }
    }
    // The catalog must broadly host on these networks — guard against
    // makeRouter silently rejecting everything.
    EXPECT_GE(compiledRelations, 33u); // 36 on these networks
}

/** The table sizes `bench_route_compute` records on the 8x8 2-VC mesh:
 *  narrow for xy and fig7b, per source for odd-even. */
TEST(RouteTable, MeshEightByEightTableBytesArePinned)
{
    const auto net = topo::Network::mesh({8, 8}, {2, 2});
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"xy", 355'328}, {"odd-even", 15'862'848}, {"fig7b", 365'408}};
    for (const auto &[spec, bytes] : pinned) {
        const auto rel = sweep::makeRouter(net, spec);
        ASSERT_NE(rel, nullptr) << spec;
        const RouteTable table(*rel);
        EXPECT_TRUE(table.compiled()) << spec;
        EXPECT_EQ(table.tableBytes(), bytes) << spec;
    }
}

TEST(RouteTable, TorusDatelineCompilesAndMatches)
{
    const auto net = topo::Network::torus({4, 4}, {2, 2});
    const TorusDatelineRouting rel(net);
    const RouteTable table(rel);
    EXPECT_TRUE(table.compiled());
    EXPECT_FALSE(table.perSource());
    const auto oracle = relationOracle(rel);
    expectTableMatches(table, net, oracle, oracle);
}

TEST(RouteTable, DorCompilesNarrowOddEvenCompilesWide)
{
    const auto net = topo::Network::mesh({5, 5}, {2, 2});
    const auto dor = sweep::makeRouter(net, "xy");
    ASSERT_NE(dor, nullptr);
    const RouteTable dorTable(*dor);
    EXPECT_TRUE(dorTable.compiled());
    EXPECT_FALSE(dorTable.perSource());

    const auto oe = sweep::makeRouter(net, "odd-even");
    ASSERT_NE(oe, nullptr);
    const RouteTable oeTable(*oe);
    EXPECT_TRUE(oeTable.compiled());
    EXPECT_TRUE(oeTable.perSource());
    EXPECT_GT(oeTable.tableBytes(), dorTable.tableBytes());
}

/**
 * Odd-Even's source classes (its source columns), pinned exhaustively:
 * at every in-contract (in, at, src, dest), each source gets exactly
 * the candidates of the first source of its class, in the same order.
 * Odd and even mesh widths, since ROUTE reads column parity.
 */
TEST(RouteTable, OddEvenSourceClassesShareCandidates)
{
    for (const auto &dims : {std::vector<int>{5, 7}, std::vector<int>{8, 8}}) {
        const auto net = topo::Network::mesh(dims, {1, 1});
        const auto rel = sweep::makeRouter(net, "odd-even");
        ASSERT_NE(rel, nullptr);

        // The first source of every class.
        std::vector<topo::NodeId> rep(net.numNodes(), topo::kInvalidId);
        std::set<topo::NodeId> classes;
        for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
            const topo::NodeId k = rel->srcClass(src);
            ASSERT_LT(k, net.numNodes());
            classes.insert(k);
            if (rep[k] == topo::kInvalidId)
                rep[k] = src;
        }
        EXPECT_EQ(classes.size(), static_cast<std::size_t>(dims[0]));

        std::vector<std::vector<topo::ChannelId>> inputs(net.numNodes());
        for (topo::ChannelId c = 0; c < net.numChannels(); ++c)
            inputs[headOf(net, c)].push_back(c);
        std::size_t compared = 0;
        for (topo::NodeId at = 0; at < net.numNodes(); ++at) {
            inputs[at].push_back(kInjectionChannel);
            for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
                if (dest == at)
                    continue;
                for (const topo::ChannelId in : inputs[at])
                    for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
                        const topo::NodeId first = rep[rel->srcClass(src)];
                        if (first == src)
                            continue;
                        EXPECT_EQ(rel->candidates(in, at, src, dest),
                                  rel->candidates(in, at, first, dest))
                            << dims[0] << 'x' << dims[1] << " in=" << in
                            << " at=" << at << " src=" << src
                            << " dest=" << dest;
                        ++compared;
                    }
            }
        }
        EXPECT_GT(compared, 0u);
    }
}

/**
 * A relation that lies about source independence: candidate order
 * flips whenever the consulted source differs from the current node.
 * The walk's spot check must catch the lie, and the table must take the
 * virtual path instead of freezing a corrupt narrow table.
 */
class MisdeclaredRelation final : public cdg::RoutingRelation
{
  public:
    explicit MisdeclaredRelation(const topo::Network &net)
        : base(net)
    {
    }

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
        if (src != at)
            std::reverse(out.begin(), out.end());
    }

    std::string name() const override { return "Misdeclared"; }
    const topo::Network &network() const override
    {
        return base.network();
    }
    topo::NodeId srcClass(topo::NodeId) const override
    {
        return 0; // the lie
    }

  private:
    routing::MinimalAdaptiveRouting base;
};

TEST(RouteTable, MisdeclaredIndependenceFallsBackInsteadOfCorrupting)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const MisdeclaredRelation rel(net);
    const RouteTable table(rel);
    EXPECT_FALSE(table.compiled());
    EXPECT_EQ(table.tableBytes(), 0u);
    const auto oracle = relationOracle(rel);
    expectTableMatches(table, net, oracle, oracle);
}

TEST(RouteTable, FaultFilterMatchesDegradedRelation)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    ASSERT_NE(rel, nullptr);
    RouteTable table(*rel);
    ASSERT_TRUE(table.compiled());

    // Kill every channel of two physical links, one at a time, the way
    // the simulator drains FaultInjector::takeNewlyDeadChannels().
    std::set<topo::ChannelId> dead;
    for (const topo::LinkId l : {topo::LinkId{3}, topo::LinkId{11}}) {
        for (int v = 0; v < net.vcsOnLink(l); ++v) {
            const topo::ChannelId c = net.channel(l, v);
            dead.insert(c);
            table.filterDeadChannel(c);
        }
    }

    // Reachability is the BASE closure (rows were compiled pre-fault);
    // the expected contents are the degraded relation's — the same
    // order-preserving filter FaultedRelationView applies.
    const auto reach = relationOracle(*rel);
    const auto degraded = [&](topo::ChannelId in, topo::NodeId at,
                              topo::NodeId src, topo::NodeId dest) {
        auto out = rel->candidates(in, at, src, dest);
        out.erase(std::remove_if(out.begin(), out.end(),
                                 [&](topo::ChannelId c) {
                                     return dead.count(c) != 0;
                                 }),
                  out.end());
        return out;
    };
    expectTableMatches(table, net, reach, degraded);
}

TEST(RouteTable, TinyBudgetFallsBackToVirtual)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    ASSERT_NE(rel, nullptr);
    ASSERT_FALSE(RouteTable(*rel).perSource());
    // A budget below the rows, and one that holds the rows but not
    // their candidate pool, which the walk overflows part way.
    const std::uint64_t nodes = net.numNodes();
    const std::uint64_t rowBytes =
        (net.numChannels() * nodes + nodes * nodes) * 8;
    for (const std::uint64_t budget : {std::uint64_t{64}, rowBytes + 64}) {
        const RouteTable table(*rel, RouteTable::Options{true, budget});
        EXPECT_FALSE(table.compiled()) << budget;
        EXPECT_EQ(table.tableBytes(), 0u) << budget;
        // The fallback path still answers, identically to the relation.
        const auto oracle = relationOracle(*rel);
        expectTableMatches(table, net, oracle, oracle);
    }
}

/** Forwards every call to `base`, source classes included, and counts
 *  the candidate queries. */
class CountingView final : public cdg::RoutingRelation
{
  public:
    explicit CountingView(const cdg::RoutingRelation &base) : base(base) {}

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        ++queries;
        base.candidatesInto(in, at, src, dest, out);
    }
    std::string name() const override { return base.name(); }
    topo::NodeId
    srcClass(topo::NodeId src) const override
    {
        return base.srcClass(src);
    }
    const topo::Network &network() const override
    {
        return base.network();
    }

    mutable std::uint64_t queries = 0;

  private:
    const cdg::RoutingRelation &base;
};

TEST(RouteTable, OverBudgetRowsAskTheRelationNothing)
{
    // Odd-Even's per-source rows on the 16x16 2-VC mesh are over the
    // default budget: the table falls back before the walk starts.
    const auto net = topo::Network::mesh({16, 16}, {2, 2});
    const auto rel = sweep::makeRouter(net, "odd-even");
    ASSERT_NE(rel, nullptr);
    const CountingView counted(*rel);
    const RouteTable table(counted);
    EXPECT_FALSE(table.compiled());
    EXPECT_EQ(table.tableBytes(), 0u);
    EXPECT_EQ(counted.queries, 0u);
}

/**
 * Elevator-First asserts on phase states its own packets never enter,
 * and its elevator choice depends on the source. The walk asks only
 * reachable states with real sources, so it compiles per-source rows.
 * The 3x3x3 fabric with two elevators and the four-corner 4x4x3 fabric
 * of examples/irregular_3d.cc.
 */
TEST(RouteTable, ElevatorFirstCompilesPerSource)
{
    const std::vector<std::pair<std::vector<int>,
                                std::vector<std::pair<int, int>>>>
        fabrics = {{{3, 3, 3}, {{0, 0}, {2, 2}}},
                   {{4, 4, 3}, {{0, 0}, {0, 3}, {3, 0}, {3, 3}}}};
    for (const auto &[dims, elevators] : fabrics) {
        const auto net =
            topo::Network::partialMesh3d(dims, {2, 2, 1}, elevators);
        const ElevatorFirstRouting rel(net, elevators);
        const RouteTable table(rel);
        EXPECT_TRUE(table.compiled()) << dims[0] << 'x' << dims[1];
        EXPECT_TRUE(table.perSource()) << dims[0] << 'x' << dims[1];
        const auto oracle = relationOracle(rel);
        EXPECT_GT(expectTableMatches(table, net, oracle, oracle),
                  net.numNodes() * 2u);
    }
}

TEST(RouteTable, DisabledTableCountsCalls)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const routing::DimensionOrderRouting rel =
        routing::DimensionOrderRouting::xy(net);
    const RouteTable table(rel, RouteTable::Options{false, 1ull << 30});
    EXPECT_FALSE(table.compiled());
    std::vector<topo::ChannelId> scratch;
    (void)table.candidatesView(kInjectionChannel, 0, 0, 5, scratch);
    (void)table.candidatesView(kInjectionChannel, 0, 0, 6, scratch);
    EXPECT_EQ(table.calls(), 2u);
}

/**
 * End to end: a faulted simulation routed through the compiled table
 * must be bit-identical to the same run on the virtual path — the
 * route-table meta fields are the only JSON difference allowed. One
 * link fault and one router fault, each given as a node pair / node.
 */
void
expectFaultedRunBitIdentical(const topo::Network &net,
                             const cdg::RoutingRelation &rel,
                             topo::NodeId linkSrc, topo::NodeId linkDst,
                             topo::NodeId deadRouter)
{
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 800;
    cfg.drainCycles = 10000;
    cfg.watchdogCycles = 2000;
    cfg.injectionRate = 0.08;
    cfg.seed = 99;
    sim::FaultEvent link;
    link.cycle = 300;
    link.src = linkSrc;
    link.dst = linkDst;
    sim::FaultEvent router;
    router.cycle = 600;
    router.router = true;
    router.node = deadRouter;
    cfg.faults.events = {link, router};

    cfg.routeTable = true;
    auto onTable = sim::runSimulation(net, rel, gen, cfg);
    cfg.routeTable = false;
    auto onVirtual = sim::runSimulation(net, rel, gen, cfg);

    // Same decisions -> same query count, even across fault events.
    EXPECT_EQ(onTable.routeComputeCalls, onVirtual.routeComputeCalls)
        << rel.name();
    EXPECT_TRUE(onTable.routeTableCompiled) << rel.name();
    EXPECT_FALSE(onVirtual.routeTableCompiled) << rel.name();
    EXPECT_GT(onTable.faultEventsApplied, 0u) << rel.name();

    // Erase the meta fields; everything else must match bit for bit.
    onTable.routeTableCompiled = onVirtual.routeTableCompiled = false;
    onTable.routeTablePerSource = onVirtual.routeTablePerSource = false;
    onTable.routeTableBytes = onVirtual.routeTableBytes = 0;
    EXPECT_EQ(sim::toJson(onTable), sim::toJson(onVirtual)) << rel.name();
}

TEST(RouteTable, FaultedSimulationBitIdenticalTableVsVirtual)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    ASSERT_NE(rel, nullptr);
    expectFaultedRunBitIdentical(net, *rel, net.node({1, 1}),
                                 net.node({2, 1}), net.node({3, 0}));

    // Elevator-First on the partial 3D fabric of test_integration:
    // per-source rows, filtered by the same fault events.
    const std::vector<std::pair<int, int>> elevators = {
        {0, 0}, {0, 2}, {2, 0}, {2, 2}};
    const auto net3d =
        topo::Network::partialMesh3d({3, 3, 2}, {2, 2, 1}, elevators);
    const ElevatorFirstRouting elevator(net3d, elevators);
    expectFaultedRunBitIdentical(net3d, elevator, net3d.node({1, 1, 0}),
                                 net3d.node({2, 1, 0}),
                                 net3d.node({1, 0, 1}));
}

} // namespace
} // namespace ebda::routing
