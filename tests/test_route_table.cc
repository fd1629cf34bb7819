/**
 * @file
 * Property tests for the route table: a table must be
 * indistinguishable from the virtual relation it serves — same
 * candidate contents, same order — at every state a packet can occupy.
 *
 * "Every state" means every *reachable* (in, src, dest): the table
 * fills a row on its first query, and packets only query states they
 * occupy, so unreachable rows stay empty (relations like EbDaRouting
 * and Elevator-First assert on unreachable combinations; the runtime
 * never queries them). The oracle here is a BFS of the reachability
 * closure, one (src, dest) pair at a time, through the virtual
 * relation; it queries the table at every state it meets, so a table
 * it has walked holds every reachable row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
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
 * Call visit(in, at, src, dest) at every state of the reachable closure
 * of `reach`, one (src, dest) pair at a time, sources below `srcLimit`:
 * the pair's injection state, then breadth first every state a packet
 * can occupy short of its destination (it ejects on arrival and is
 * never routed there).
 */
void
forEachReachable(const topo::Network &net, const Oracle &reach,
                 const std::function<void(topo::ChannelId, topo::NodeId,
                                          topo::NodeId, topo::NodeId)>
                     &visit,
                 std::size_t srcLimit = SIZE_MAX)
{
    std::vector<std::uint8_t> seen;
    std::vector<topo::ChannelId> frontier;
    for (topo::NodeId src = 0; src < std::min(net.numNodes(), srcLimit);
         ++src) {
        for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
            if (dest == src)
                continue;
            seen.assign(net.numChannels(), 0);
            frontier.clear();
            const auto push = [&](const std::vector<topo::ChannelId> &cs) {
                for (const topo::ChannelId c : cs) {
                    if (!seen[c]) {
                        seen[c] = 1;
                        frontier.push_back(c);
                    }
                }
            };
            visit(kInjectionChannel, src, src, dest);
            push(reach(kInjectionChannel, src, src, dest));
            for (std::size_t i = 0; i < frontier.size(); ++i) {
                const topo::ChannelId in = frontier[i];
                const topo::NodeId at = headOf(net, in);
                if (at == dest)
                    continue;
                visit(in, at, src, dest);
                push(reach(in, at, src, dest));
            }
        }
    }
}

/**
 * Compare the table against `expect` at every reachable state of
 * `reach` (forEachReachable), both views, contents and order. `reach`
 * and `expect` differ only in the fault tests, where rows were filled
 * from the base relation and then filtered: reachability is the base
 * closure, expectation the degraded relation.
 *
 * At every state the relation's candidatesInto() also fills a buffer
 * that already holds stale channels; the result must equal
 * candidates(), which pins the contract that the call replaces the
 * buffer's contents (never appends) in the relation's order.
 * Returns the number of states compared.
 */
std::size_t
expectTableMatches(const RouteTable &table, const topo::Network &net,
                   const Oracle &reach, const Oracle &expect,
                   std::size_t srcLimit = SIZE_MAX)
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
    forEachReachable(net, reach, check, srcLimit);
    return states;
}

/** A table row's key: (in, dest) on a narrow table, (in, src, dest) on
 *  a per-source one; injection rows always keep the source. */
using RowKey = std::tuple<topo::ChannelId, topo::NodeId, topo::NodeId>;

RowKey
rowKey(bool perSource, topo::ChannelId in, topo::NodeId src,
       topo::NodeId dest)
{
    if (perSource || in == kInjectionChannel)
        return {in, src, dest};
    return {in, topo::kInvalidId, dest};
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
            EXPECT_EQ(table.rowsFilled(), 0u) << spec << " on " << nc.name;
            const auto oracle = relationOracle(*rel);
            const std::size_t states =
                expectTableMatches(table, nc.net, oracle, oracle);
            EXPECT_GT(states, nc.net.numNodes() * 2u)
                << spec << " on " << nc.name;
            // Every fill passed its source-class check.
            EXPECT_TRUE(table.compiled())
                << spec << " on " << nc.name << " fell back mid-walk: "
                << toString(table.fallback());
            EXPECT_GT(table.rowsFilled(), 0u) << spec << " on " << nc.name;
            ++compiledRelations;
        }
    }
    // The catalog must broadly host on these networks — guard against
    // makeRouter silently rejecting everything.
    EXPECT_GE(compiledRelations, 33u); // 36 on these networks
}

/** The table sizes `bench_route_compute` records on the 8x8 2-VC mesh
 *  once every reachable state has been queried: narrow for xy and
 *  fig7b, per source for odd-even. Before the first query a table holds
 *  its rows alone. */
TEST(RouteTable, MeshEightByEightTableBytesArePinned)
{
    const auto net = topo::Network::mesh({8, 8}, {2, 2});
    const std::tuple<const char *, std::uint64_t, std::uint64_t> pinned[] =
        {{"xy", 355'328, 262'144},
         {"odd-even", 15'862'848, 14'712'832},
         {"fig7b", 365'408, 262'144}};
    for (const auto &[spec, bytes, rowBytes] : pinned) {
        const auto rel = sweep::makeRouter(net, spec);
        ASSERT_NE(rel, nullptr) << spec;
        const RouteTable table(*rel);
        EXPECT_TRUE(table.compiled()) << spec;
        EXPECT_EQ(table.tableBytes(), rowBytes) << spec;
        EXPECT_EQ(table.rowCount() * 8, rowBytes) << spec;
        const auto oracle = relationOracle(*rel);
        expectTableMatches(table, net, oracle, oracle);
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
 * The first narrow fill's second-source check must catch the lie, and
 * the table must take the virtual path instead of serving a corrupt
 * narrow row.
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
    // Sized, nothing asked yet.
    EXPECT_TRUE(table.compiled());
    EXPECT_FALSE(table.perSource());

    // A packet 0 -> 15: its injection row is keyed by its own source
    // and needs no check; its first hop is the first narrow fill.
    std::vector<topo::ChannelId> scratch;
    const topo::NodeId dest = 15;
    const auto inj = rel.candidates(kInjectionChannel, 0, 0, dest);
    ASSERT_FALSE(inj.empty());
    const auto injView =
        table.candidatesView(kInjectionChannel, 0, 0, dest, scratch);
    EXPECT_EQ(std::vector<topo::ChannelId>(injView.begin(), injView.end()),
              inj);
    EXPECT_TRUE(table.compiled());
    EXPECT_EQ(table.rowsFilled(), 1u);

    const topo::ChannelId hop = inj.front();
    const topo::NodeId at = headOf(net, hop);
    const auto want = rel.candidates(hop, at, 0, dest);
    const auto got = table.candidatesView(hop, at, 0, dest, scratch);
    EXPECT_EQ(std::vector<topo::ChannelId>(got.begin(), got.end()), want);
    EXPECT_FALSE(table.compiled());
    EXPECT_EQ(table.fallback(), RouteTable::Fallback::SourceClassesFailed);
    EXPECT_EQ(table.tableBytes(), 0u);
    // The fallback empties every row, the injection row included.
    EXPECT_EQ(table.rowsFilled(), 0u);

    // No wrong answer served anywhere after that, and nothing filled.
    const auto oracle = relationOracle(rel);
    expectTableMatches(table, net, oracle, oracle);
    EXPECT_EQ(table.rowsFilled(), 0u);
}

/** Declares one source class, but source 5 gets its candidates in
 *  reverse: rows filled for other sources pass their check. */
class OneSourceDiffers final : public cdg::RoutingRelation
{
  public:
    explicit OneSourceDiffers(const topo::Network &net) : base(net) {}

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
        if (src == 5)
            std::reverse(out.begin(), out.end());
    }

    std::string name() const override { return "OneSourceDiffers"; }
    const topo::Network &network() const override
    {
        return base.network();
    }
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

  private:
    routing::MinimalAdaptiveRouting base;
};

/** A row filled and checked before the declaration fails must not be
 *  served after it: the fallback empties every row. */
TEST(RouteTable, SourceClassFailureEmptiesRowsFilledBefore)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const OneSourceDiffers rel(net);
    const RouteTable table(rel);
    std::vector<topo::ChannelId> scratch;
    const topo::NodeId dest = 15;
    // The first hop of a packet from a source, and the state it asks.
    const auto firstHop = [&](topo::NodeId src) {
        const auto inj = rel.candidates(kInjectionChannel, src, src, dest);
        (void)table.candidatesView(kInjectionChannel, src, src, dest,
                                   scratch);
        return inj.front();
    };

    // Source 0 fills a narrow row; its check asks a source other than 5.
    const topo::ChannelId hop0 = firstHop(0);
    const topo::NodeId at0 = headOf(net, hop0);
    ASSERT_GE(rel.candidates(hop0, at0, 0, dest).size(), 2u);
    (void)table.candidatesView(hop0, at0, 0, dest, scratch);
    ASSERT_TRUE(table.compiled());

    // Source 5's first narrow fill disagrees with its check.
    const topo::ChannelId hop5 = firstHop(5);
    ASSERT_GE(rel.candidates(hop5, headOf(net, hop5), 5, dest).size(), 2u);
    (void)table.candidatesView(hop5, headOf(net, hop5), 5, dest, scratch);
    EXPECT_EQ(table.fallback(), RouteTable::Fallback::SourceClassesFailed);

    // Source 5 at source 0's state gets its own answer, not the row.
    const auto got = table.candidatesView(hop0, at0, 5, dest, scratch);
    EXPECT_EQ(std::vector<topo::ChannelId>(got.begin(), got.end()),
              rel.candidates(hop0, at0, 5, dest));
}

TEST(RouteTable, FaultFilterMatchesDegradedRelation)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    ASSERT_NE(rel, nullptr);
    RouteTable table(*rel);
    ASSERT_TRUE(table.compiled());
    // Fill every reachable row before the fault, as a run that has
    // touched them all would have.
    const auto reach = relationOracle(*rel);
    expectTableMatches(table, net, reach, reach);

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

    // Reachability is the BASE closure (rows were filled pre-fault);
    // the expected contents are the degraded relation's — the same
    // order-preserving filter FaultedRelationView applies.
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

/** The base relation minus a growing set of dead channels, in order:
 *  what FaultedRelationView serves as fault events accumulate. */
class DegradedView final : public cdg::RoutingRelation
{
  public:
    explicit DegradedView(const cdg::RoutingRelation &base) : base(base) {}

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
        out.erase(std::remove_if(out.begin(), out.end(),
                                 [&](topo::ChannelId c) {
                                     return dead.count(c) != 0;
                                 }),
                  out.end());
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

    std::set<topo::ChannelId> dead;

  private:
    const cdg::RoutingRelation &base;
};

/**
 * Rows filled between fault events: half the sources' rows before the
 * first fault, the rest after it (from the degraded relation), then a
 * second fault whose filter must reach rows of both kinds — the reverse
 * index is built at the first fault and extended by later fills. Run
 * again with a budget the pool runs over between the faults: the rows
 * filled by then are still served, so the second fault must reach them
 * too, while empty rows ask the degraded relation.
 */
TEST(RouteTable, FaultFilterReachesRowsFilledAfterTheFirstFault)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    ASSERT_NE(rel, nullptr);
    const auto reach = relationOracle(*rel);
    // Table bytes after the first and the second walk.
    const auto run = [&](std::uint64_t budget) {
        DegradedView view(*rel);
        RouteTable table(view, RouteTable::Options{true, budget});
        const auto kill = [&](topo::LinkId l) {
            for (int v = 0; v < net.vcsOnLink(l); ++v) {
                const topo::ChannelId c = net.channel(l, v);
                view.dead.insert(c);
                table.filterDeadChannel(c);
            }
        };
        const auto degraded = relationOracle(view);

        expectTableMatches(table, net, reach, degraded, net.numNodes() / 2);
        const std::size_t beforeFault = table.rowsFilled();
        const std::uint64_t firstBytes = table.tableBytes();
        kill(topo::LinkId{3});
        expectTableMatches(table, net, reach, degraded);
        EXPECT_GT(table.rowsFilled(), beforeFault) << budget;
        const std::uint64_t secondBytes = table.tableBytes();
        kill(topo::LinkId{11});
        kill(topo::LinkId{20});
        expectTableMatches(table, net, reach, degraded);
        EXPECT_EQ(table.compiled(), secondBytes != 0) << budget;
        return std::pair{firstBytes, secondBytes};
    };
    const auto [firstBytes, secondBytes] = run(kDefaultRouteTableBudget);
    ASSERT_GT(secondBytes, firstBytes);
    // The tight run's pool runs over in its second walk.
    EXPECT_EQ(run((firstBytes + secondBytes) / 2).second, 0u);
}

/** Forwards every call to `base`, source classes included, and
 *  records each candidate query's (in, src, dest). */
class RecordingView final : public cdg::RoutingRelation
{
  public:
    explicit RecordingView(const cdg::RoutingRelation &base) : base(base)
    {
    }

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        asked.emplace_back(in, src, dest);
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

    mutable std::vector<RowKey> asked;

  private:
    const cdg::RoutingRelation &base;
};

TEST(RouteTable, TinyBudgetFallsBackToVirtual)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    ASSERT_NE(rel, nullptr);
    ASSERT_FALSE(RouteTable(*rel).perSource());
    const auto oracle = relationOracle(*rel);
    const std::uint64_t nodes = net.numNodes();
    const std::uint64_t rowBytes =
        (net.numChannels() * nodes + nodes * nodes) * 8;

    // A budget below the rows: the table never serves.
    const RouteTable noRows(*rel, RouteTable::Options{true, 64});
    EXPECT_FALSE(noRows.compiled());
    EXPECT_EQ(noRows.fallback(), RouteTable::Fallback::RowsOverBudget);
    EXPECT_EQ(noRows.tableBytes(), 0u);
    expectTableMatches(noRows, net, oracle, oracle);

    // The bytes every reachable row takes under an ample budget.
    const RouteTable full(*rel);
    expectTableMatches(full, net, oracle, oracle);
    ASSERT_TRUE(full.compiled());
    const std::uint64_t fullBytes = full.tableBytes();
    ASSERT_GT(fullBytes, rowBytes);

    // Every reachable row's key.
    std::set<RowKey> keys;
    forEachReachable(net, oracle,
                     [&](topo::ChannelId in, topo::NodeId, topo::NodeId src,
                         topo::NodeId dest) {
                         keys.insert(rowKey(false, in, src, dest));
                     });

    // Budgets that admit the rows but not their pool: the table fills
    // until a fill would overflow, then stops filling. Exactly the full
    // pool fits.
    for (const std::uint64_t budget :
         {rowBytes, rowBytes + 64, fullBytes - 4, fullBytes}) {
        const RecordingView recorded(*rel);
        const RouteTable table(recorded, RouteTable::Options{true, budget});
        EXPECT_TRUE(table.compiled()) << budget;
        EXPECT_EQ(table.tableBytes(), rowBytes) << budget;
        // Every answer, before and after the fallback, is the
        // relation's.
        expectTableMatches(table, net, oracle, oracle);
        if (budget == fullBytes) {
            EXPECT_TRUE(table.compiled());
            EXPECT_EQ(table.tableBytes(), fullBytes);
            EXPECT_EQ(table.rowsFilled(), keys.size());
            continue;
        }
        EXPECT_FALSE(table.compiled()) << budget;
        EXPECT_EQ(table.fallback(), RouteTable::Fallback::PoolOverBudget)
            << budget;
        EXPECT_EQ(table.tableBytes(), 0u) << budget;

        // The rows filled before the overflow stay served: a second
        // walk fills nothing, answers as the relation does, and asks
        // the relation exactly for the rows left empty.
        const std::size_t filled = table.rowsFilled();
        EXPECT_LT(filled, keys.size()) << budget;
        if (budget == fullBytes - 4)
            EXPECT_GT(filled, 0u);
        recorded.asked.clear();
        std::vector<topo::ChannelId> scratch;
        forEachReachable(
            net, oracle,
            [&](topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                topo::NodeId dest) {
                const auto got =
                    table.candidatesView(in, at, src, dest, scratch);
                EXPECT_EQ(std::vector<topo::ChannelId>(got.begin(),
                                                       got.end()),
                          rel->candidates(in, at, src, dest))
                    << budget << " in=" << in << " src=" << src
                    << " dest=" << dest;
            });
        std::set<RowKey> asked;
        for (const auto &[in, src, dest] : recorded.asked)
            asked.insert(rowKey(false, in, src, dest));
        EXPECT_EQ(asked.size(), keys.size() - filled) << budget;
        EXPECT_EQ(table.rowsFilled(), filled) << budget;
    }
}

TEST(RouteTable, OverBudgetRowsAskTheRelationNothing)
{
    // Odd-Even's per-source rows on the 16x16 2-VC mesh are over the
    // default budget: the table falls back before the walk starts.
    const auto net = topo::Network::mesh({16, 16}, {2, 2});
    const auto rel = sweep::makeRouter(net, "odd-even");
    ASSERT_NE(rel, nullptr);
    const RecordingView recorded(*rel);
    const RouteTable table(recorded);
    EXPECT_FALSE(table.compiled());
    EXPECT_EQ(table.fallback(), RouteTable::Fallback::RowsOverBudget);
    EXPECT_STREQ(toString(table.fallback()), "rows over budget");
    EXPECT_EQ(table.tableBytes(), 0u);
    EXPECT_EQ(table.rowCount(), 0u);
    EXPECT_TRUE(recorded.asked.empty());
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
    EXPECT_EQ(table.fallback(), RouteTable::Fallback::Disabled);
    std::vector<topo::ChannelId> scratch;
    (void)table.candidatesView(kInjectionChannel, 0, 0, 5, scratch);
    (void)table.candidatesView(kInjectionChannel, 0, 0, 6, scratch);
    EXPECT_EQ(table.calls(), 2u);
}

/** A result's JSON with the route-table fields masked: all that may
 *  differ between table and virtual-path runs. */
std::string
maskedJson(sim::SimResult r)
{
    r.routeTableCompiled = false;
    r.routeTablePerSource = false;
    r.routeTableBytes = 0;
    return sim::toJson(r);
}

/**
 * End to end: a faulted simulation routed through the table
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

    // Everything but the meta fields must match bit for bit.
    EXPECT_EQ(maskedJson(onTable), maskedJson(onVirtual)) << rel.name();
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

/**
 * After a simulated run the table holds exactly the rows the run
 * queried, each equal to the relation's answer for its key. The rows a
 * run queries are read off a table-off run of the same config, which
 * asks the relation at every query. The table-on run may ask the
 * relation only about those rows (a narrow fill asks twice: for the
 * packet's source and for the check's second source), and afterwards
 * serves every one of them without asking again.
 */
TEST(RouteTable, SimulatedRunFillsExactlyTheQueriedRows)
{
    const auto net = topo::Network::mesh({5, 5}, {2, 2});
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    cfg.drainCycles = 10000;
    cfg.watchdogCycles = 2000;
    cfg.injectionRate = 0.15;
    cfg.seed = 7;
    for (const char *spec : {"fig7b", "odd-even"}) {
        const auto rel = sweep::makeRouter(net, spec);
        ASSERT_NE(rel, nullptr) << spec;
        const bool perSource = RouteTable(*rel).perSource();

        const RecordingView plain(*rel);
        cfg.routeTable = false;
        sim::Simulator off(net, plain, gen, cfg);
        const auto offResult = off.run();
        std::set<RowKey> queried;
        for (const auto &[in, src, dest] : plain.asked)
            queried.insert(rowKey(perSource, in, src, dest));
        ASSERT_FALSE(queried.empty()) << spec;

        const RecordingView recorded(*rel);
        cfg.routeTable = true;
        sim::Simulator on(net, recorded, gen, cfg);
        const auto onResult = on.run();
        const RouteTable &table = on.routeTable();
        ASSERT_TRUE(table.compiled()) << spec;
        EXPECT_EQ(table.perSource(), perSource) << spec;
        EXPECT_EQ(maskedJson(onResult), maskedJson(offResult)) << spec;

        std::set<RowKey> asked;
        for (const auto &[in, src, dest] : recorded.asked)
            asked.insert(rowKey(perSource, in, src, dest));
        EXPECT_EQ(asked, queried) << spec << ": a row nobody queried";
        EXPECT_EQ(table.rowsFilled(), queried.size()) << spec;

        recorded.asked.clear();
        std::vector<topo::ChannelId> scratch;
        for (const auto &[in, src, dest] : plain.asked) {
            const topo::NodeId at =
                in == kInjectionChannel ? src : headOf(net, in);
            const auto got =
                table.candidatesView(in, at, src, dest, scratch);
            EXPECT_EQ(std::vector<topo::ChannelId>(got.begin(), got.end()),
                      rel->candidates(in, at, src, dest))
                << spec << " in=" << in << " src=" << src
                << " dest=" << dest;
        }
        EXPECT_TRUE(recorded.asked.empty())
            << spec << ": a filled row asked the relation again";
        EXPECT_EQ(table.rowsFilled(), queried.size()) << spec;
    }
}

/**
 * A sharded run whose pool runs over mid-run: the budget admits the
 * rows and half the pool an ample run fills. The run keeps its two
 * shards, serves the rows it filled before the overflow, asks the
 * relation (under the stripe locks) for the rest, and matches the
 * ample run (a table-off run never shards, so it has no virtual twin).
 * Meaningful under TSan.
 */
TEST(RouteTable, PoolOverflowInAShardedRunKeepsItsShards)
{
    const auto net = topo::Network::mesh({6, 6}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    ASSERT_NE(rel, nullptr);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    cfg.drainCycles = 10000;
    cfg.watchdogCycles = 2000;
    cfg.injectionRate = 0.2;
    cfg.seed = 11;
    cfg.schedMode = sim::SchedMode::Cycle;
    cfg.shards = 2;

    sim::Simulator ample(net, *rel, gen, cfg);
    const auto ampleResult = ample.run();
    ASSERT_TRUE(ampleResult.routeTableCompiled);
    EXPECT_EQ(ampleResult.shards, 2);
    const std::uint64_t rowBytes =
        ample.routeTable().rowCount() * sizeof(std::uint64_t);
    ASSERT_GT(ampleResult.routeTableBytes, rowBytes);

    cfg.routeTableBudget =
        rowBytes + (ampleResult.routeTableBytes - rowBytes) / 2;
    sim::Simulator tight(net, *rel, gen, cfg);
    const auto tightResult = tight.run();
    const RouteTable &table = tight.routeTable();
    EXPECT_EQ(tightResult.shards, 2);
    EXPECT_EQ(table.fallback(), RouteTable::Fallback::PoolOverBudget);
    EXPECT_FALSE(tightResult.routeTableCompiled);
    EXPECT_EQ(tightResult.routeTableBytes, 0u);
    EXPECT_GT(table.rowsFilled(), 0u);
    EXPECT_LT(table.rowsFilled(), ample.routeTable().rowsFilled());

    EXPECT_EQ(maskedJson(tightResult), maskedJson(ampleResult));
}

/**
 * Several threads query overlapping rows of one table at once: each
 * walks every reachable state, two from the start of the list and two
 * from its middle, released together so each pair races for the same
 * empty rows. Every answer must be the relation's, a row asked by
 * several threads is filled once, and the misdeclared relation falls
 * back without serving a wrong answer. Meaningful under TSan.
 */
TEST(RouteTable, ConcurrentFillsServeTheRelation)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto fig7b = sweep::makeRouter(net, "fig7b");
    const auto oddEven = sweep::makeRouter(net, "odd-even");
    ASSERT_NE(fig7b, nullptr);
    ASSERT_NE(oddEven, nullptr);
    const MisdeclaredRelation misdeclared(net);

    struct Query
    {
        topo::ChannelId in;
        topo::NodeId at;
        topo::NodeId src;
        topo::NodeId dest;
        std::vector<topo::ChannelId> want;
    };
    for (const cdg::RoutingRelation *rel :
         {static_cast<const cdg::RoutingRelation *>(fig7b.get()),
          static_cast<const cdg::RoutingRelation *>(oddEven.get()),
          static_cast<const cdg::RoutingRelation *>(&misdeclared)}) {
        // The answers, asked before any thread starts.
        std::vector<Query> queries;
        forEachReachable(net, relationOracle(*rel),
                         [&](topo::ChannelId in, topo::NodeId at,
                             topo::NodeId src, topo::NodeId dest) {
                             queries.push_back(
                                 {in, at, src, dest,
                                  rel->candidates(in, at, src, dest)});
                         });
        std::set<RowKey> rows;
        const bool perSource = RouteTable(*rel).perSource();
        for (const Query &q : queries)
            rows.insert(rowKey(perSource, q.in, q.src, q.dest));

        // Fresh tables, so the race for empty rows repeats.
        for (int round = 0; round < 8; ++round) {
            const RouteTable table(*rel);
            constexpr std::size_t kThreads = 4;
            std::atomic<std::size_t> wrong{0};
            std::atomic<bool> go{false};
            std::vector<std::thread> threads;
            for (std::size_t t = 0; t < kThreads; ++t)
                threads.emplace_back([&, t] {
                    std::vector<topo::ChannelId> scratch;
                    const std::size_t n = queries.size();
                    const std::size_t start = t % 2 * n / 2;
                    while (!go.load())
                        std::this_thread::yield();
                    for (std::size_t k = 0; k < n; ++k) {
                        const Query &q = queries[(start + k) % n];
                        const auto got = table.candidatesViewUncounted(
                            q.in, q.at, q.src, q.dest, scratch);
                        if (!std::equal(got.begin(), got.end(),
                                        q.want.begin(), q.want.end()))
                            wrong.fetch_add(1);
                    }
                });
            go.store(true);
            for (std::thread &t : threads)
                t.join();
            EXPECT_EQ(wrong.load(), 0u) << rel->name();
            if (rel == &misdeclared) {
                EXPECT_EQ(table.fallback(),
                          RouteTable::Fallback::SourceClassesFailed);
            } else {
                EXPECT_TRUE(table.compiled()) << rel->name();
                EXPECT_EQ(table.rowsFilled(), rows.size()) << rel->name();
            }
        }
    }
}

/**
 * Seeded differential: lazy rows against eager ones and against the
 * virtual path. The configurations take the fabrics in turn (2D/3D
 * meshes and tori, Odd-Even on a 5x4 mesh, Elevator-First on a partial
 * 3D mesh), with random link faults every other round, and draw one of
 * the catalog routers the fabric hosts, a rate in [0.01, 0.4] and 1, 2
 * or 4 shards. It runs three times: on the virtual path
 * (routeTable = false), on lazy rows, and on rows all filled before the
 * run (every reachable state queried through the simulator's own
 * table, as the ahead-of-run compile did). With the route-table fields
 * masked, the lazy run's JSON must equal the eager run's, and the
 * virtual run's whenever the config runs serially: an uncompiled table
 * never shards, so a sharded run has no virtual twin.
 */
TEST(RouteTable, LazyRowsMatchEagerRowsAndVirtualRuns)
{
    struct Fabric
    {
        const char *name;
        topo::Network net;
        std::vector<std::string> specs;
    };
    const std::vector<std::pair<int, int>> elevators = {
        {0, 0}, {0, 2}, {2, 0}, {2, 2}};
    std::vector<Fabric> fabrics;
    fabrics.push_back({"mesh4x4", topo::Network::mesh({4, 4}, {2, 2}),
                       {kMeshSpecs.begin(), kMeshSpecs.end()}});
    fabrics.push_back({"mesh5x4", topo::Network::mesh({5, 4}, {1, 1}),
                       {"odd-even"}});
    fabrics.push_back({"torus4x4", topo::Network::torus({4, 4}, {2, 2}),
                       {kTorusSpecs.begin(), kTorusSpecs.end()}});
    fabrics.push_back({"mesh3x3x2",
                       topo::Network::mesh({3, 3, 2}, {2, 2, 2}),
                       {kMesh3dSpecs.begin(), kMesh3dSpecs.end()}});
    fabrics.push_back({"torus3x3x3",
                       topo::Network::torus({3, 3, 3}, {2, 2, 2}),
                       {"minimal", "region:3", "merged:3", "updown"}});
    fabrics.push_back(
        {"partial3x3x2",
         topo::Network::partialMesh3d({3, 3, 2}, {2, 2, 1}, elevators),
         {"elevator-first"}});

    std::mt19937_64 rng(20170624);
    std::size_t sharded = 0;
    std::size_t faulted = 0;
    std::set<std::string> ran;
    for (int k = 0; k < 48; ++k) {
        const Fabric &f = fabrics[k % fabrics.size()];
        const std::string &spec = f.specs[rng() % f.specs.size()];
        std::unique_ptr<cdg::RoutingRelation> rel;
        if (spec == "elevator-first")
            rel = std::make_unique<ElevatorFirstRouting>(f.net, elevators);
        else
            rel = sweep::makeRouter(f.net, spec);
        if (!rel)
            continue; // not hostable on this fabric

        sim::SimConfig cfg;
        cfg.warmupCycles = 100;
        cfg.measureCycles = 600;
        cfg.drainCycles = 6000;
        cfg.watchdogCycles = 1500;
        cfg.seed = rng();
        cfg.injectionRate = 0.01
            + 0.39 * std::uniform_real_distribution<double>()(rng);
        const bool faults = k / fabrics.size() % 2 == 1;
        if (faults) {
            cfg.faults.seed = rng();
            cfg.faults.randomLinkFaults = 1 + static_cast<int>(rng() % 2);
            cfg.faults.firstCycle = 200;
            cfg.faults.spacing = 150;
        }
        cfg.shards = std::array<int, 3>{1, 2, 4}[rng() % 3];
        // Event mode never shards; ask for cycle mode when sharding.
        if (cfg.shards > 1)
            cfg.schedMode = sim::SchedMode::Cycle;
        const std::string label = std::string(f.name) + ' ' + spec
            + " rate " + std::to_string(cfg.injectionRate)
            + (faults ? " faults" : "") + " shards "
            + std::to_string(cfg.shards);

        const sim::TrafficGenerator gen(f.net,
                                        sim::TrafficPattern::Uniform);
        cfg.routeTable = false;
        const auto onVirtual = sim::runSimulation(f.net, *rel, gen, cfg);
        cfg.routeTable = true;
        const auto lazy = sim::runSimulation(f.net, *rel, gen, cfg);
        sim::Simulator eagerSim(f.net, *rel, gen, cfg);
        std::vector<topo::ChannelId> scratch;
        forEachReachable(f.net, relationOracle(*rel),
                         [&](topo::ChannelId in, topo::NodeId at,
                             topo::NodeId src, topo::NodeId dest) {
                             (void)eagerSim.routeTable()
                                 .candidatesViewUncounted(in, at, src,
                                                          dest, scratch);
                         });
        const auto eager = eagerSim.run();

        EXPECT_TRUE(lazy.routeTableCompiled) << label;
        EXPECT_EQ(maskedJson(lazy), maskedJson(eager)) << label;
        if (cfg.shards == 1 || faults)
            EXPECT_EQ(maskedJson(lazy), maskedJson(onVirtual)) << label;
        else
            ++sharded;
        faulted += faults ? 1 : 0;
        ran.insert(spec);
    }
    // The draw must cover both sides of each axis, and the per-source
    // routers.
    EXPECT_GT(sharded, 0u);
    EXPECT_GT(faulted, 0u);
    EXPECT_EQ(ran.count("odd-even"), 1u);
    EXPECT_EQ(ran.count("elevator-first"), 1u);
}

} // namespace
} // namespace ebda::routing
