/**
 * @file
 * Property-based cross-validation of the EbDa theory against the Dally
 * oracle: every scheme the theory accepts must have an acyclic concrete
 * CDG on every network we throw at it, sub-partitions of cycle-free
 * partitions stay cycle-free, and randomized turn subsets confirm the
 * oracle's monotonicity.
 */

#include <gtest/gtest.h>

#include "cdg/adaptivity.hh"
#include "cdg/relation_cdg.hh"
#include "cdg/turn_cdg.hh"
#include "core/catalog.hh"
#include "core/derivation.hh"
#include "core/enumerate.hh"
#include "core/minimal.hh"
#include "routing/ebda_routing.hh"
#include "sim/simulator.hh"
#include "util/random.hh"

namespace ebda {
namespace {

using core::ChannelClass;
using core::makeClass;
using core::Partition;
using core::PartitionScheme;
using core::Sign;

/** Random ordered Theorem-1 scheme over the given classes, or nullopt
 *  when the assignment draw violates the theorems. */
std::optional<PartitionScheme>
randomScheme(const core::ClassList &classes, Rng &rng)
{
    const std::size_t blocks = 1 + rng.nextBounded(classes.size());
    std::vector<core::ClassList> assign(blocks);
    for (const auto &c : classes)
        assign[rng.nextBounded(blocks)].push_back(c);

    std::vector<Partition> parts;
    for (auto &b : assign) {
        if (b.empty())
            continue;
        Partition p(b);
        if (!p.satisfiesTheorem1())
            return std::nullopt;
        parts.push_back(std::move(p));
    }
    PartitionScheme scheme(std::move(parts));
    if (!scheme.validate().ok)
        return std::nullopt;
    return scheme;
}

core::ClassList
allClasses(std::uint8_t dims, const std::vector<int> &vcs)
{
    core::ClassList out;
    for (std::uint8_t d = 0; d < dims; ++d) {
        for (int v = 0; v < vcs[d]; ++v) {
            out.push_back(makeClass(d, Sign::Pos,
                                    static_cast<std::uint8_t>(v)));
            out.push_back(makeClass(d, Sign::Neg,
                                    static_cast<std::uint8_t>(v)));
        }
    }
    return out;
}

/** The central soundness property, parameterized by network shape. */
struct ShapeParam
{
    std::vector<int> dims;
    std::vector<int> vcs;
    bool torus;
};

/**
 * Readable parameterized-test names like "mesh_4x4_vcs1_1"; one-dimensional
 * shapes are tagged as a line or a ring, e.g. "mesh_line_8_vcs3".
 */
std::string
shapeName(const ::testing::TestParamInfo<ShapeParam> &info)
{
    std::string name = info.param.torus ? "torus" : "mesh";
    if (info.param.dims.size() == 1)
        name += info.param.torus ? "_ring" : "_line";
    for (std::size_t i = 0; i < info.param.dims.size(); ++i)
        name += (i ? "x" : "_") + std::to_string(info.param.dims[i]);
    name += "_vcs";
    for (std::size_t i = 0; i < info.param.vcs.size(); ++i)
        name += (i ? "_" : "") + std::to_string(info.param.vcs[i]);
    return name;
}

class SchemeSoundness : public ::testing::TestWithParam<ShapeParam>
{
};

TEST_P(SchemeSoundness, AcceptedSchemesHaveAcyclicCdg)
{
    const auto &param = GetParam();
    const auto net = param.torus
        ? topo::Network::torus(param.dims, param.vcs)
        : topo::Network::mesh(param.dims, param.vcs);
    const auto classes = allClasses(
        static_cast<std::uint8_t>(param.dims.size()), param.vcs);

    Rng rng(0xEBDA + param.dims.size() * 1000
            + static_cast<std::uint64_t>(param.torus));
    int accepted = 0;
    for (int trial = 0; trial < 400 && accepted < 60; ++trial) {
        const auto scheme = randomScheme(classes, rng);
        if (!scheme)
            continue;
        ++accepted;
        const auto report = cdg::checkDeadlockFree(net, *scheme);
        EXPECT_TRUE(report.deadlockFree)
            << "theorem-accepted scheme with cyclic CDG: "
            << scheme->toString() << "\nfirst witness channel: "
            << (report.witness.empty() ? "-" : report.witness.front());
    }
    EXPECT_GT(accepted, 5) << "generator produced too few valid schemes";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchemeSoundness,
    ::testing::Values(ShapeParam{{4, 4}, {1, 1}, false},
                      ShapeParam{{5, 3}, {2, 2}, false},
                      ShapeParam{{3, 3, 3}, {1, 1, 1}, false},
                      ShapeParam{{3, 3, 3}, {2, 2, 2}, false},
                      ShapeParam{{6, 6}, {1, 1}, true},
                      ShapeParam{{4, 4, 4}, {2, 1, 2}, false},
                      ShapeParam{{8}, {3}, false},
                      ShapeParam{{5, 5}, {3, 1}, false}),
    shapeName);

TEST(SchemeProperties, SubPartitionsOfCycleFreePartitionsAreCycleFree)
{
    // Corollary of Theorem 1, checked via the oracle: dropping classes
    // from a valid scheme keeps it valid and acyclic.
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto base = core::regionScheme(2);
    Rng rng(99);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<Partition> parts;
        for (const auto &p : base.partitions()) {
            core::ClassList keep;
            for (const auto &c : p.classes())
                if (rng.nextBool(0.7))
                    keep.push_back(c);
            if (!keep.empty())
                parts.emplace_back(keep);
        }
        if (parts.empty())
            continue;
        PartitionScheme sub(std::move(parts));
        ASSERT_TRUE(sub.validate().ok);
        EXPECT_TRUE(cdg::checkDeadlockFree(net, sub).deadlockFree)
            << sub.toString();
    }
}

TEST(SchemeProperties, EveryEnumerated2dSchemeDeadlockFreeAndConnected)
{
    // Exhaustive rather than random: all 74 ordered Theorem-1 schemes
    // over the four 2D classes are deadlock-free; those covering all
    // four classes in a connected chain deliver all pairs minimally.
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto schemes = core::enumerateSchemes(core::classes2d());
    ASSERT_EQ(schemes.size(), 74u);
    for (const auto &s : schemes) {
        EXPECT_TRUE(cdg::checkDeadlockFree(net, s).deadlockFree)
            << s.toString();
        const auto adapt = cdg::measureAdaptiveness(net, s);
        EXPECT_FALSE(adapt.disconnectedMinimal) << s.toString();
    }
}

TEST(SchemeProperties, DerivedSchemesAreSound)
{
    // Everything Algorithm 1 + Algorithm 2 emit across VC budgets is
    // oracle-verified.
    const auto net = topo::Network::mesh({4, 4}, {3, 3});
    for (const auto &vcs :
         {std::vector<int>{1, 1}, std::vector<int>{2, 1},
          std::vector<int>{2, 2}, std::vector<int>{3, 2},
          std::vector<int>{1, 3}}) {
        for (const auto &scheme : core::deriveAll(vcs)) {
            EXPECT_TRUE(cdg::checkDeadlockFree(net, scheme).deadlockFree)
                << scheme.toString();
        }
    }
}

TEST(SchemeProperties, Derived3dSchemesAreSound)
{
    const auto net = topo::Network::mesh({3, 3, 3}, {2, 2, 2});
    core::DerivationOptions opts;
    opts.maxSchemes = 40;
    for (const auto &scheme : core::deriveAll({2, 2, 2}, opts)) {
        EXPECT_TRUE(cdg::checkDeadlockFree(net, scheme).deadlockFree)
            << scheme.toString();
    }
}

TEST(SchemeProperties, MinimalConstructionsSoundForHigherDims)
{
    // 4D sweep: 40 channels, merged construction still acyclic.
    const auto net = topo::Network::mesh({3, 3, 3, 3}, {2, 2, 2, 8});
    EXPECT_TRUE(
        cdg::checkDeadlockFree(net, core::mergedScheme(4)).deadlockFree);
}

TEST(SchemeProperties, ViolatingSchemesAreCaughtByOracle)
{
    // Randomized negative control: explicit turn sets that allow every
    // turn of two complete pairs must be cyclic on a concrete mesh.
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto classes = core::classes2d();
    std::vector<std::pair<ChannelClass, ChannelClass>> all_turns;
    for (const auto &a : classes)
        for (const auto &b : classes)
            if (!(a == b))
                all_turns.emplace_back(a, b);

    Rng rng(7);
    int cyclic_found = 0;
    for (int trial = 0; trial < 40; ++trial) {
        // Keep a random 80%+ of the turns; with both pairs fully
        // present most subsets remain cyclic, and whenever our oracle
        // says acyclic the subset must genuinely miss a cycle corner.
        std::vector<std::pair<ChannelClass, ChannelClass>> subset;
        for (const auto &t : all_turns)
            if (rng.nextBool(0.85))
                subset.push_back(t);
        const auto set = core::TurnSet::fromExplicit(classes, subset);
        const cdg::ClassMap map(net, classes);
        if (!cdg::checkDeadlockFree(net, map, set).deadlockFree)
            ++cyclic_found;
    }
    EXPECT_GT(cyclic_found, 20);
}

TEST(SchemeProperties, RelationCdgIsSubgraphOfTurnCdg)
{
    // The routing relation's reachable dependencies are a subset of the
    // turn-level over-approximation — the formal reason EbDaRouting
    // inherits the oracle verdict.
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    for (const auto &scheme :
         {core::schemeFig7b(), core::schemeOddEven(),
          core::schemeNorthLast()}) {
        const routing::EbDaRouting r(net, scheme);
        const auto relation_cdg = cdg::buildRelationCdg(r);
        const cdg::ClassMap map(net, scheme);
        const auto turn_cdg =
            cdg::buildTurnCdg(net, map, r.turnSet());
        for (graph::NodeId u = 0; u < relation_cdg.numNodes(); ++u) {
            for (graph::NodeId v : relation_cdg.successors(u)) {
                EXPECT_TRUE(turn_cdg.hasEdge(u, v))
                    << scheme.toString() << ": relation dependency "
                    << net.channelName(u) << " -> " << net.channelName(v)
                    << " missing from the turn CDG";
            }
        }
    }
}

TEST(SchemeProperties, FourDimensionalEndToEnd)
{
    // Arbitrary-n support, end to end: the merged construction on a
    // 2^4 hypercube-like mesh routes, verifies and simulates.
    const auto scheme = core::mergedScheme(4);
    const auto net = topo::Network::mesh({2, 2, 2, 2},
                                         core::vcsRequired(scheme));
    EXPECT_TRUE(cdg::checkDeadlockFree(net, scheme).deadlockFree);

    const routing::EbDaRouting r(net, scheme);
    EXPECT_TRUE(cdg::checkConnectivity(r).connected);

    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.injectionRate = 0.05;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    cfg.seed = 41;
    const auto result = runSimulation(net, r, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
}

TEST(SchemeProperties, MonotoneUnderMeshGrowth)
{
    // If a scheme is deadlock-free on a larger mesh it must be
    // deadlock-free on any sub-mesh (the CDG embeds).
    for (const auto &scheme : core::deriveAll({2, 2})) {
        const auto small = topo::Network::mesh({3, 3}, {2, 2});
        const auto large = topo::Network::mesh({6, 6}, {2, 2});
        const bool ok_small =
            cdg::checkDeadlockFree(small, scheme).deadlockFree;
        const bool ok_large =
            cdg::checkDeadlockFree(large, scheme).deadlockFree;
        EXPECT_EQ(ok_small, ok_large) << scheme.toString();
    }
}

} // namespace
} // namespace ebda
