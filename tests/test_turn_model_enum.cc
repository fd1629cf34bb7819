/**
 * @file
 * Unit tests for the turn-model design-space enumeration (the Section 2
 * scalability argument and the Section 6.1 "12 of 16 deadlock-free"
 * cross-check).
 *
 * enumerateTurnModels() runs a compiled, turn-labelled CDG kernel; the
 * reference below is the direct per-combination flow it replaces:
 * build the explicit TurnSet, build its turn CDG, test acyclicity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cdg/adaptivity.hh"
#include "cdg/class_map.hh"
#include "cdg/turn_cdg.hh"
#include "cdg/turn_model_enum.hh"
#include "graph/cycles.hh"

namespace ebda::cdg {
namespace {

using core::ChannelClass;

/**
 * Per-combination reference enumeration: one TurnSet::fromExplicit,
 * buildTurnCdg and isAcyclic per combination, odometer order matching
 * enumerateTurnModels (cycle 0 varies fastest).
 */
TurnModelEnumResult
referenceEnumeration(const topo::Network &net, std::size_t max_combinations)
{
    const auto cycles = abstractCycles(net.numDims(), net.vcs());
    core::ClassList classes;
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        for (int v = 0; v < net.vcs()[d]; ++v) {
            const auto vc = static_cast<std::uint8_t>(v);
            classes.push_back(core::makeClass(d, core::Sign::Pos, vc));
            classes.push_back(core::makeClass(d, core::Sign::Neg, vc));
        }
    }
    std::vector<std::pair<ChannelClass, ChannelClass>> universe;
    for (const auto &c1 : classes)
        for (const auto &c2 : classes)
            if (c1.dim != c2.dim)
                universe.emplace_back(c1, c2);
    const ClassMap map(net, classes);

    TurnModelEnumResult result;
    std::set<std::vector<std::size_t>> free_sets;
    std::vector<std::size_t> choice(cycles.size(), 0);
    while (result.combinations < max_combinations) {
        ++result.combinations;
        std::vector<std::pair<ChannelClass, ChannelClass>> allowed;
        std::vector<std::size_t> allowed_idx;
        for (std::size_t t = 0; t < universe.size(); ++t) {
            bool removed = false;
            for (std::size_t i = 0; i < cycles.size(); ++i)
                removed = removed || cycles[i].turns[choice[i]] == universe[t];
            if (!removed) {
                allowed.push_back(universe[t]);
                allowed_idx.push_back(t);
            }
        }
        const auto set = core::TurnSet::fromExplicit(classes, allowed);
        if (graph::isAcyclic(buildTurnCdg(net, map, set))) {
            ++result.deadlockFree;
            free_sets.insert(allowed_idx);
            if (!measureAdaptiveness(net, map, set).disconnectedMinimal)
                ++result.connected;
        }
        std::size_t i = 0;
        while (i < choice.size() && ++choice[i] == 4)
            choice[i++] = 0;
        if (i == choice.size())
            break;
    }
    result.distinctDeadlockFreeSets = free_sets.size();
    return result;
}

void
expectMatchesReference(const topo::Network &net, std::size_t cap)
{
    const auto got = enumerateTurnModels(net, cap);
    const auto want = referenceEnumeration(net, cap);
    EXPECT_GT(want.deadlockFree, 0u) << "vacuous comparison";
    EXPECT_EQ(got.combinations, want.combinations);
    EXPECT_EQ(got.deadlockFree, want.deadlockFree);
    EXPECT_EQ(got.connected, want.connected);
    EXPECT_EQ(got.distinctDeadlockFreeSets, want.distinctDeadlockFreeSets);
}

TEST(TurnModelSpace, PaperCombinationCounts)
{
    // 2D no VC: 2 cycles -> 16 combinations.
    const auto s2 = turnModelSpace(2, {1, 1});
    EXPECT_EQ(s2.numCycles, 2u);
    EXPECT_DOUBLE_EQ(s2.numCombinations, 16.0);

    // 2D one extra VC per dimension: 8 cycles -> 65,536.
    const auto s2v = turnModelSpace(2, {2, 2});
    EXPECT_EQ(s2v.numCycles, 8u);
    EXPECT_DOUBLE_EQ(s2v.numCombinations, 65536.0);

    // 3D no VC: 6 cycles -> 4,096 (the paper's prose says 29,696 with
    // the same "4^6" exponent; 4^6 = 4096).
    const auto s3 = turnModelSpace(3, {1, 1, 1});
    EXPECT_EQ(s3.numCycles, 6u);
    EXPECT_DOUBLE_EQ(s3.numCombinations, 4096.0);

    // 3D with one extra VC per dimension: 24 cycles.
    const auto s3v = turnModelSpace(3, {2, 2, 2});
    EXPECT_EQ(s3v.numCycles, 24u);
    EXPECT_DOUBLE_EQ(s3v.numCombinations, std::pow(4.0, 24.0));
}

TEST(AbstractCycles, TwoDStructure)
{
    const auto cycles = abstractCycles(2, {1, 1});
    ASSERT_EQ(cycles.size(), 2u);
    for (const auto &cycle : cycles) {
        EXPECT_EQ(cycle.dimA, 0);
        EXPECT_EQ(cycle.dimB, 1);
        // Four turns chaining head-to-tail back to the start.
        for (std::size_t t = 0; t < 4; ++t) {
            EXPECT_EQ(cycle.turns[t].second,
                      cycle.turns[(t + 1) % 4].first);
        }
    }
    EXPECT_NE(cycles[0].clockwise, cycles[1].clockwise);
}

TEST(AbstractCycles, VcChoicesMultiply)
{
    EXPECT_EQ(abstractCycles(2, {2, 3}).size(), 2u * 2 * 3);
    EXPECT_EQ(abstractCycles(3, {1, 1, 1}).size(), 6u);
    EXPECT_EQ(abstractCycles(4, {1, 1, 1, 1}).size(), 12u);
}

TEST(EnumerateTurnModels, TwelveOfSixteenDeadlockFree2d)
{
    // Glass-Ni via the oracle: of the 16 one-turn-per-cycle removals in
    // a 2D network, 12 are deadlock-free, and all 12 remain connected.
    const auto net = topo::Network::mesh({5, 5}, {1, 1});
    const auto result = enumerateTurnModels(net);
    EXPECT_EQ(result.combinations, 16u);
    EXPECT_EQ(result.deadlockFree, 12u);
    EXPECT_EQ(result.connected, 12u);
    EXPECT_EQ(result.distinctDeadlockFreeSets, 12u);
}

TEST(EnumerateTurnModels, ResultStableAcrossMeshSizes)
{
    // The verdicts must not depend on the verification mesh size (above
    // the minimum that can express the cycles).
    const auto net4 = topo::Network::mesh({4, 4}, {1, 1});
    const auto net6 = topo::Network::mesh({6, 6}, {1, 1});
    EXPECT_EQ(enumerateTurnModels(net4).deadlockFree,
              enumerateTurnModels(net6).deadlockFree);
}

TEST(EnumerateTurnModels, CapBoundsWork)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto result = enumerateTurnModels(net, 5);
    EXPECT_EQ(result.combinations, 5u);
    EXPECT_LE(result.deadlockFree, 5u);
}

TEST(EnumerateTurnModels, ThreeDimensionalFullSpacePinned)
{
    // Regression pin for the full 3D enumeration: of the 4096
    // one-turn-per-cycle combinations, 176 are deadlock-free (a number
    // the paper does not report; deterministic given the oracle).
    const auto net = topo::Network::mesh({3, 3, 3}, {1, 1, 1});
    for (const unsigned threads : {1u, 3u}) {
        const auto result = enumerateTurnModels(net, 1 << 20, threads);
        EXPECT_EQ(result.combinations, 4096u) << threads << " threads";
        EXPECT_EQ(result.deadlockFree, 176u) << threads << " threads";
        EXPECT_EQ(result.connected, 176u) << threads << " threads";
    }
}

TEST(EnumerateTurnModels, TwoVcFullSpacePinned)
{
    // The Section 2 space: 65,536 combinations on a 2D mesh with 2 VCs
    // per dimension, of which 68 are deadlock-free, all minimally
    // connected, and no two of them the same turn set. The index ranges
    // split differently on 1 and 3 threads; the counts may not move.
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    for (const unsigned threads : {1u, 3u}) {
        const auto result = enumerateTurnModels(net, 1 << 20, threads);
        EXPECT_EQ(result.combinations, 65536u) << threads << " threads";
        EXPECT_EQ(result.deadlockFree, 68u) << threads << " threads";
        EXPECT_EQ(result.connected, 68u) << threads << " threads";
        EXPECT_EQ(result.distinctDeadlockFreeSets, 68u)
            << threads << " threads";
    }
}

TEST(EnumerateTurnModels, CappedRangesMatchAcrossThreadCounts)
{
    // A cap that splits unevenly into ranges, and one below the range
    // count: every thread count covers the same combinations.
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    for (const std::size_t cap : {std::size_t{3}, std::size_t{5000}}) {
        const auto want = enumerateTurnModels(net, cap, 1);
        for (const unsigned threads : {2u, 3u, 8u}) {
            const auto got = enumerateTurnModels(net, cap, threads);
            EXPECT_EQ(got.combinations, cap);
            EXPECT_EQ(got.deadlockFree, want.deadlockFree);
            EXPECT_EQ(got.connected, want.connected);
            EXPECT_EQ(got.distinctDeadlockFreeSets,
                      want.distinctDeadlockFreeSets);
        }
    }
}

TEST(EnumerateTurnModels, LabelledKernelMatchesReference2d)
{
    expectMatchesReference(topo::Network::mesh({5, 5}, {1, 1}), 1 << 20);
}

TEST(EnumerateTurnModels, LabelledKernelMatchesReference3d)
{
    expectMatchesReference(topo::Network::mesh({3, 3, 3}, {1, 1, 1}),
                           1 << 20);
}

TEST(EnumerateTurnModels, LabelledKernelMatchesReferenceTwoVcPrefix)
{
    // A 4,096-combination prefix of the 2-VC space: the first six
    // cycles take every choice while the last two stay at their first.
    expectMatchesReference(topo::Network::mesh({4, 4}, {2, 2}), 4096);
}

TEST(EnumerateTurnModels, ThreeDimensionalSubset)
{
    // First 256 of the 4096 3D combinations on a small mesh: the counts
    // must be internally consistent.
    const auto net = topo::Network::mesh({3, 3, 3}, {1, 1, 1});
    const auto result = enumerateTurnModels(net, 256);
    EXPECT_EQ(result.combinations, 256u);
    EXPECT_LE(result.connected, result.deadlockFree);
    EXPECT_LE(result.distinctDeadlockFreeSets, result.deadlockFree);
}

} // namespace
} // namespace ebda::cdg
