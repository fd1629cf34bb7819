/**
 * @file
 * Equivalence pins for the relation-level checkers (Dally CDG,
 * Mendlovic–Matias fixpoint, connectivity, Duato escape check).
 *
 * Pinned digests: every relation of the repo benchmark's verify catalog,
 * plus a dateline torus, Elevator-First and a torus EbDa relation, has
 * an FNV-1a digest of its full checker reports — the Dally dependency
 * edges in insertion order and the cycle witness, the MM state count,
 * occupiable channels, release order and stuck witness, the
 * connectivity failures and the Duato report. Any change to how the
 * checkers walk routing states must keep every byte.
 *
 * Differential cases: a wrapper that forwards every call but keeps the
 * default source classes, one per source, forces the checkers to walk
 * one source at a time. Over seeded random 2D and 3D meshes and tori
 * and every factory router they host, Elevator-First on seeded partial
 * 3D meshes, an ASCII-map fabric, and relations that lie about source
 * independence or source classes, the wrapped and unwrapped reports
 * must be byte-identical. The same cases cross-check the verdicts: an acyclic
 * Dally CDG implies a Mendlovic–Matias release, and the two agree on
 * deterministic relations.
 *
 * Thread counts: the checkers build destinations' state graphs on
 * several threads and merge them in destination order, so every pinned
 * digest, differential case and lying relation is checked at each of
 * kThreadCounts (1 is the calling thread alone; 8 oversubscribes any
 * small host). A relation that lies at one state shows that the spot
 * checks catch the same lies on every thread count, and one that
 * throws shows that the error reaches the caller without stranding the
 * walk's threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdg/duato_check.hh"
#include "cdg/mm_check.hh"
#include "cdg/relation_cdg.hh"
#include "cdg/state_walk.hh"
#include "core/torus.hh"
#include "routing/baselines.hh"
#include "routing/dateline.hh"
#include "routing/duato.hh"
#include "routing/ebda_routing.hh"
#include "routing/elevator.hh"
#include "sweep/router_factory.hh"
#include "sweep/sweep_spec.hh"
#include "topo/ascii_map.hh"

namespace ebda::cdg {
namespace {

/** Forwards every call to `base` but keeps the default source classes,
 *  one per source. */
class UndeclaredView final : public RoutingRelation
{
  public:
    explicit UndeclaredView(const RoutingRelation &base) : base(base) {}

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
    }
    std::string name() const override { return base.name(); }
    const topo::Network &network() const override
    {
        return base.network();
    }

  private:
    const RoutingRelation &base;
};

/**
 * Lies about source independence: candidate order flips whenever the
 * consulted source differs from the current node (the same lie as
 * tests/test_route_table.cc). The checkers' spot check must catch it.
 */
class MisdeclaredRelation final : public RoutingRelation
{
  public:
    explicit MisdeclaredRelation(const topo::Network &net) : base(net) {}

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

/**
 * Lies about Odd-Even's source classes: it declares one class per row,
 * but ROUTE reads the source column. The checkers' spot check must
 * catch it.
 */
class RowClassedOddEven final : public RoutingRelation
{
  public:
    explicit RowClassedOddEven(const topo::Network &net) : base(net) {}

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
    }
    std::string name() const override { return "Odd-Even by rows"; }
    const topo::Network &network() const override
    {
        return base.network();
    }
    topo::NodeId
    srcClass(topo::NodeId src) const override
    {
        return static_cast<topo::NodeId>(network().coordAlong(src, 1));
    }

  private:
    routing::OddEvenRouting base;
};

/** The thread counts every case is checked at. */
constexpr unsigned kThreadCounts[] = {1, 2, 3, 8};

/** Every checker report of one relation, as text, and the two
 *  deadlock verdicts. */
struct Reports
{
    std::string text;
    bool dallyFree = false;
    bool mmFree = false;
};

/** The checker reports of `rel`, each checker walking on `threads`
 *  threads. The Duato report is added when an escape predicate is
 *  given. */
Reports
checkerReports(const RoutingRelation &rel, const EscapePredicate &is_escape,
               unsigned threads)
{
    std::ostringstream os;
    const graph::Digraph g = buildRelationCdg(rel, threads);
    os << "dally edges";
    for (graph::NodeId u = 0; u < g.numNodes(); ++u)
        for (const graph::NodeId v : g.successors(u))
            os << ' ' << u << '>' << v;
    const CdgReport dally = checkDeadlockFree(rel, threads);
    os << "\ndally " << dally.deadlockFree << ' ' << dally.numChannels
       << ' ' << dally.numDependencies << " witness";
    for (const std::string &w : dally.witness)
        os << ' ' << w;

    const MmReport mm = checkMendlovicMatias(rel, threads);
    os << "\nmm " << mm.deadlockFree << ' ' << mm.numChannels << ' '
       << mm.occupiableChannels << ' ' << mm.numStates << " order";
    for (const topo::ChannelId c : mm.releaseOrder)
        os << ' ' << c;
    os << " stuck";
    for (const std::string &w : mm.stuckWitness)
        os << ' ' << w;

    const ConnectivityReport conn = checkConnectivity(rel, threads);
    os << "\nconn " << conn.connected;
    for (const auto &[s, d] : conn.failures)
        os << ' ' << s << '>' << d;

    if (is_escape) {
        const DuatoReport du =
            checkDuatoDeadlockFree(rel, is_escape, threads);
        os << "\nduato " << du.ok << du.escapeAcyclic << du.escapeConnected
           << du.escapeAlwaysAvailable << ' ' << du.numEscapeChannels;
    }
    return {os.str(), dally.deadlockFree, mm.deadlockFree};
}

std::string
checkerText(const RoutingRelation &rel, const EscapePredicate &is_escape,
            unsigned threads)
{
    return checkerReports(rel, is_escape, threads).text;
}

/** True when the state walk on `threads` threads kept `rel`'s declared
 *  source classes. */
bool
classesHold(const RoutingRelation &rel, unsigned threads)
{
    return walkStateGraphs(
        rel, threads, [](std::size_t, const StateGraph &) {},
        [](std::size_t) {});
}

/** True when every reachable state of `rel` has at most one candidate. */
bool
deterministic(const RoutingRelation &rel)
{
    bool one = true;
    walkStateGraphs(
        rel, 1,
        [&](std::size_t, const StateGraph &g) {
            for (std::size_t k = 0; k < g.sources.size(); ++k)
                one = one && g.injection(k).size() <= 1;
            for (std::size_t i = 0; i < g.size(); ++i)
                one = one && g.candidates(i).size() <= 1;
        },
        [](std::size_t) {});
    return one;
}

/**
 * The differential case: at every thread count, `rel`'s reports must
 * equal those of the same relation behind UndeclaredView (one class per
 * source) on one thread, and its verdicts must be consistent —
 * Dally-free implies MM-free, and on a deterministic relation the two
 * agree.
 */
void
expectMatchesUndeclared(const RoutingRelation &rel,
                        const EscapePredicate &is_escape,
                        const std::string &label)
{
    const UndeclaredView undeclared(rel);
    const std::string serial = checkerText(undeclared, is_escape, 1);
    Reports as_declared;
    for (const unsigned threads : kThreadCounts) {
        // An honest declaration never fails its spot check.
        EXPECT_TRUE(classesHold(rel, threads)) << label;
        as_declared = checkerReports(rel, is_escape, threads);
        EXPECT_EQ(as_declared.text, serial)
            << label << ", " << threads << " threads";
        EXPECT_EQ(checkerText(undeclared, is_escape, threads), serial)
            << label << ", undeclared, " << threads << " threads";
    }
    if (as_declared.dallyFree) {
        EXPECT_TRUE(as_declared.mmFree) << label << ": Dally-free, MM not";
    }
    if (deterministic(rel)) {
        EXPECT_EQ(as_declared.dallyFree, as_declared.mmFree)
            << label << ": deterministic, yet Dally and MM disagree";
    }
}

/** Escape predicate: the first VC of every link. */
EscapePredicate
firstVc(const topo::Network &net)
{
    return [&net](topo::ChannelId c) { return net.vcOf(c) == 0; };
}

/** The digest of `rel`'s reports, the same at every thread count. */
std::string
digestOf(const RoutingRelation &rel, const EscapePredicate &is_escape)
{
    const std::string text = checkerText(rel, is_escape, 1);
    for (const unsigned threads : kThreadCounts)
        EXPECT_EQ(checkerText(rel, is_escape, threads), text)
            << rel.name() << ", " << threads << " threads";
    return sweep::keyToHex(sweep::fnv1a64(text));
}

/** One verify-catalog entry (perfbench/verify_catalog.cc, seed 1). */
struct CatalogCase
{
    const char *label;
    std::function<topo::Network()> build;
    const char *router;
    const char *digest;
};

TEST(CheckerEquiv, VerifyCatalogDigestsArePinned)
{
    const auto mesh = [](int k, int vcs) {
        return [=] { return topo::Network::mesh({k, k}, {vcs, vcs}); };
    };
    const auto dragonfly = [] { return topo::Network::dragonfly(6, 3, 3); };
    const auto fullmesh = [] { return topo::Network::fullMesh(16); };
    const std::vector<CatalogCase> cases = {
        {"mesh 24x24", mesh(24, 1), "xy", "8fafa86c1e029704"},
        {"mesh 16x16 vc2", mesh(16, 2), "fig7b", "ec7b33679bb9e251"},
        {"mesh 16x16", mesh(16, 1), "odd-even", "6f15dddb51dc69bb"},
        {"torus 8x8 vc2",
         [] { return topo::Network::torus({8, 8}, {2, 2}); }, "updown:1",
         "919d10f47cb897fd"},
        {"dragonfly(6,3,3)", dragonfly, "dragonfly-min",
         "5a8f4c14310f09c5"},
        {"fullmesh 16", fullmesh, "fullmesh-2hop", "fd229b4b149dcd1a"},
        {"mesh 8x8 vc2", mesh(8, 2), "duato", "852a867679c488e1"},
        {"mesh 8x8", mesh(8, 1), "minimal", "3a580d4c5c8b5e5a"},
        {"dragonfly(6,3,3)", dragonfly, "dragonfly-noescape",
         "7766af9717765128"},
        {"fullmesh 16", fullmesh, "fullmesh-naive", "4f783128a17173d5"},
    };
    for (const CatalogCase &c : cases) {
        const topo::Network net = c.build();
        std::string err;
        const auto rel = sweep::makeRouter(net, c.router, &err);
        ASSERT_NE(rel, nullptr) << c.router << ": " << err;
        EscapePredicate is_escape;
        if (const auto *du =
                dynamic_cast<const routing::DuatoFullyAdaptive *>(rel.get()))
            is_escape = [du](topo::ChannelId ch) { return du->isEscape(ch); };
        EXPECT_EQ(digestOf(*rel, is_escape), c.digest)
            << c.router << " on " << c.label;
    }
}

TEST(CheckerEquiv, DatelineTorusDigestIsPinned)
{
    const auto net = topo::Network::torus({6, 6}, {2, 2});
    const routing::TorusDatelineRouting rel(net);
    EXPECT_EQ(digestOf(rel, firstVc(net)), "de3cf6e1548469c4");
}

TEST(CheckerEquiv, ElevatorFirstDigestIsPinned)
{
    const std::vector<std::pair<int, int>> elevators = {{0, 0}, {2, 1}};
    const auto net =
        topo::Network::partialMesh3d({3, 3, 2}, {2, 2, 1}, elevators);
    const routing::ElevatorFirstRouting rel(net, elevators);
    EXPECT_EQ(digestOf(rel, firstVc(net)), "5f4e6a6621576e50");
}

TEST(CheckerEquiv, TorusEbdaDigestIsPinned)
{
    const auto net = topo::Network::torus({6, 6}, {2, 2});
    const routing::EbDaRouting rel(
        net, core::torusAdaptiveScheme2d(), {},
        routing::EbDaRouting::Mode::ShortestState);
    EXPECT_EQ(digestOf(rel, firstVc(net)), "e10504b9a2e6ff0f");
}

/** The sweep catalog's routers, per topology family. */
const std::vector<const char *> kMeshSpecs = {
    "xy",       "yx",       "west-first", "north-last", "negative-first",
    "odd-even", "duato",    "minimal",    "fig7b",      "fig7c",
    "region:4", "merged:4", "updown",
};
const std::vector<const char *> kTorusSpecs = {
    "minimal", "fig7b", "fig7c", "region:4", "merged:4", "updown",
};

/** Routers that host 3D meshes (the 2D turn models assert on them). */
const std::vector<const char *> kMesh3dSpecs = {
    "xy", "yx", "minimal", "duato", "region:3", "merged:3", "updown",
};

/** An irregular fabric: drawn links with 1 and 2 VCs plus two
 *  edge-list links, so up/down routing has no grid to lean on. */
const char *const kAsciiFabric = "A--B==C--D\n"
                                 "|  |     !\n"
                                 "E--F  G==H\n"
                                 "   |  |\n"
                                 "   I--J\n"
                                 "+ A-J D=I\n";

TEST(CheckerEquiv, UndeclaredSensitivityGivesIdenticalReports)
{
    std::mt19937_64 rng(20170624);
    std::uniform_int_distribution<int> side(2, 6);
    std::uniform_int_distribution<int> vcs(1, 3);
    std::size_t compared = 0;
    for (int trial = 0; trial < 16; ++trial) {
        const bool torus = trial % 2 == 1;
        const std::vector<int> dims = {side(rng), side(rng)};
        const std::vector<int> vc = {vcs(rng), vcs(rng)};
        const topo::Network net = torus ? topo::Network::torus(dims, vc)
                                        : topo::Network::mesh(dims, vc);
        for (const char *spec : torus ? kTorusSpecs : kMeshSpecs) {
            // Duato's relation asserts on a dimension with one VC.
            if (std::string(spec) == "duato" && std::min(vc[0], vc[1]) < 2)
                continue;
            const auto rel = sweep::makeRouter(net, spec);
            if (!rel)
                continue; // not hostable on this network
            std::ostringstream label;
            label << spec << (torus ? " torus " : " mesh ") << dims[0]
                  << 'x' << dims[1] << " vcs " << vc[0] << ',' << vc[1];
            expectMatchesUndeclared(*rel, firstVc(net), label.str());
            ++compared;
        }
    }
    // Guard against makeRouter silently rejecting routers: the seed
    // hosts 148 (network, router) cases.
    EXPECT_GE(compared, 140u);

    // 3D meshes, 2-3 nodes and 1-4 VCs per dimension.
    std::uniform_int_distribution<int> side3(2, 3);
    std::uniform_int_distribution<int> vcs3(1, 4);
    std::size_t compared3d = 0;
    for (int trial = 0; trial < 6; ++trial) {
        const std::vector<int> dims = {side3(rng), side3(rng), side3(rng)};
        const std::vector<int> vc = {vcs3(rng), vcs3(rng), vcs3(rng)};
        const topo::Network net = topo::Network::mesh(dims, vc);
        for (const char *spec : kMesh3dSpecs) {
            if (std::string(spec) == "duato"
                && *std::min_element(vc.begin(), vc.end()) < 2)
                continue;
            const auto rel = sweep::makeRouter(net, spec);
            if (!rel)
                continue;
            std::ostringstream label;
            label << spec << " mesh " << dims[0] << 'x' << dims[1] << 'x'
                  << dims[2] << " vcs " << vc[0] << ',' << vc[1] << ','
                  << vc[2];
            expectMatchesUndeclared(*rel, firstVc(net), label.str());
            ++compared3d;
        }
    }
    EXPECT_GE(compared3d, 35u); // 38 with this seed

    // Elevator-First on partial 3D meshes: it keeps the default classes,
    // so both sides walk one class per source.
    std::bernoulli_distribution lift(0.4);
    for (int trial = 0; trial < 4; ++trial) {
        const std::vector<int> dims = {side3(rng) + 1, side3(rng) + 1,
                                       side3(rng)};
        std::vector<std::pair<int, int>> elevators;
        for (int x = 0; x < dims[0]; ++x)
            for (int y = 0; y < dims[1]; ++y)
                if (lift(rng) || (x == dims[0] - 1 && y == dims[1] - 1
                                  && elevators.empty()))
                    elevators.emplace_back(x, y);
        const auto net =
            topo::Network::partialMesh3d(dims, {2, 2, 1}, elevators);
        const routing::ElevatorFirstRouting rel(net, elevators);
        expectMatchesUndeclared(rel, firstVc(net),
                                "elevator-first " + std::to_string(dims[0])
                                    + 'x' + std::to_string(dims[1]) + 'x'
                                    + std::to_string(dims[2]));
    }

    // The ASCII-map fabric under up/down routing from three roots.
    const topo::AsciiMap fabric = topo::parseAsciiMap(kAsciiFabric);
    for (const char *spec : {"updown", "updown:4", "updown:9"}) {
        const auto rel = sweep::makeRouter(fabric.network, spec);
        ASSERT_NE(rel, nullptr) << spec;
        expectMatchesUndeclared(*rel, firstVc(fabric.network),
                                std::string(spec) + " ascii fabric");
    }
}

TEST(CheckerEquiv, MisdeclaredIndependenceIsCaught)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const MisdeclaredRelation rel(net);
    // The lie shows only where the consulted source is the current
    // node, which the walk meets only in its probes: the reports would
    // match without the spot check, so its verdict is checked too.
    const UndeclaredView undeclared(rel);
    const std::string serial = checkerText(undeclared, firstVc(net), 1);
    for (const unsigned threads : kThreadCounts) {
        EXPECT_FALSE(classesHold(rel, threads)) << threads << " threads";
        EXPECT_EQ(checkerText(rel, firstVc(net), threads), serial)
            << threads << " threads";
    }
}

TEST(CheckerEquiv, MisdeclaredClassesAreCaught)
{
    const auto net = topo::Network::mesh({6, 6}, {2, 2});
    const RowClassedOddEven rel(net);
    // The lie is real: two sources of one declared class (row 0) get
    // different candidates at an even column on the way east.
    const topo::NodeId corner = net.node({0, 0});
    const topo::NodeId at = net.node({2, 0});
    const topo::NodeId dest = net.node({3, 3});
    ASSERT_EQ(rel.srcClass(corner), rel.srcClass(at));
    EXPECT_NE(rel.candidates(kInjectionChannel, at, corner, dest),
              rel.candidates(kInjectionChannel, at, at, dest));

    // No packet of row 0 meets such a state on a channel another source
    // of the row reaches, so, as with the independence lie, the reports
    // alone would not show a missing spot check.
    const UndeclaredView undeclared(rel);
    const std::string serial = checkerText(undeclared, firstVc(net), 1);
    for (const unsigned threads : kThreadCounts) {
        EXPECT_FALSE(classesHold(rel, threads)) << threads << " threads";
        EXPECT_EQ(checkerText(rel, firstVc(net), threads), serial)
            << threads << " threads";
    }
}

/**
 * Minimal adaptive routing declared source-independent, lying at one
 * state: at (in, dest) its candidates flip whenever the consulted
 * source is not the current node. Only a spot check that lands on that
 * state can see it.
 */
class LiesAtOneState final : public RoutingRelation
{
  public:
    LiesAtOneState(const topo::Network &net, topo::ChannelId in,
                   topo::NodeId dest)
        : base(net), lieIn(in), lieDest(dest)
    {
    }

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
        if (in == lieIn && dest == lieDest && src != at)
            std::reverse(out.begin(), out.end());
    }
    std::string name() const override { return "Lies at one state"; }
    const topo::Network &network() const override
    {
        return base.network();
    }
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

  private:
    routing::MinimalAdaptiveRouting base;
    topo::ChannelId lieIn;
    topo::NodeId lieDest;
};

TEST(CheckerEquiv, SpotChecksDoNotDependOnThreadCount)
{
    // Whether the lie is caught depends on where the spot-check tick
    // falls. It restarts at each destination, so every thread count
    // probes the same states, catches the same lies and, after a
    // caught one, rebuilds from the same destination.
    const auto net = topo::Network::mesh({5, 5}, {2, 2});
    std::size_t caught = 0;
    std::size_t missed = 0;
    for (const topo::NodeId dest : {3u, 12u, 24u})
        for (topo::ChannelId c = 0; c < net.numChannels(); c += 7) {
            const LiesAtOneState rel(net, c, dest);
            const bool held = classesHold(rel, 1);
            (held ? missed : caught) += 1;
            const std::string serial = checkerText(rel, firstVc(net), 1);
            for (const unsigned threads : {2u, 3u, 8u}) {
                EXPECT_EQ(classesHold(rel, threads), held)
                    << "lie at channel " << c << ", dest " << dest << ", "
                    << threads << " threads";
                EXPECT_EQ(checkerText(rel, firstVc(net), threads), serial)
                    << "lie at channel " << c << ", dest " << dest << ", "
                    << threads << " threads";
            }
        }
    EXPECT_GT(caught, 0u);
    EXPECT_GT(missed, 0u);
}

/** XY routing that throws for one destination. */
class ThrowingRelation final : public RoutingRelation
{
  public:
    ThrowingRelation(const topo::Network &net, topo::NodeId bad)
        : base(routing::DimensionOrderRouting::xy(net)), bad(bad)
    {
    }

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        if (dest == bad)
            throw std::runtime_error("no route");
        base.candidatesInto(in, at, src, dest, out);
    }
    std::string name() const override { return "Throwing XY"; }
    const topo::Network &network() const override
    {
        return base.network();
    }
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

  private:
    routing::DimensionOrderRouting base;
    topo::NodeId bad;
};

TEST(CheckerEquiv, RelationErrorsReachTheCaller)
{
    // A destination whose graph cannot be built must not strand the
    // threads waiting for its partial to be merged.
    const auto net = topo::Network::mesh({6, 6}, {1, 1});
    for (const topo::NodeId bad : {0u, 5u, 35u}) {
        const ThrowingRelation rel(net, bad);
        for (const unsigned threads : kThreadCounts) {
            EXPECT_THROW(checkMendlovicMatias(rel, threads),
                         std::runtime_error);
            EXPECT_THROW(checkConnectivity(rel, threads),
                         std::runtime_error);
        }
    }
}

} // namespace
} // namespace ebda::cdg
