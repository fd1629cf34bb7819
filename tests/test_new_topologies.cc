/**
 * @file
 * End-to-end acceptance for the new fabrics: dragonfly(4,2,2) and
 * fullMesh(8) declared via BOTH the factory and the ASCII-map DSL must
 * agree structurally, satisfy both deadlock checkers under their
 * routing engines, and complete a watchdog-clean simulation run.
 */

#include <gtest/gtest.h>

#include <string>

#include "cdg/mm_check.hh"
#include "cdg/relation_cdg.hh"
#include "routing/dragonfly.hh"
#include "routing/fullmesh.hh"
#include "sim/simulator.hh"
#include "topo/ascii_map.hh"
#include "topo/network.hh"

namespace ebda {
namespace {

/** Base-36 single-character node name: ids 0..35 -> '0'..'9','A'..'Z'
 *  (uppercase, so 'x' never appears and ASCII order matches id order). */
char
base36(topo::NodeId n)
{
    return n < 10 ? static_cast<char>('0' + n)
                  : static_cast<char>('A' + (n - 10));
}

/**
 * Renders any network with <= 36 nodes as an ASCII map: one picture row
 * naming every node, then one `S>D:V` edge token per directed link.
 * Round-tripping through the DSL must reproduce the structure.
 */
std::string
asciiMapFor(const topo::Network &net)
{
    std::string map;
    for (topo::NodeId n = 0; n < net.numNodes(); ++n) {
        if (n)
            map += ' ';
        map += base36(n);
    }
    map += '\n';
    for (topo::LinkId l = 0; l < net.numLinks(); ++l) {
        const topo::Link &lk = net.link(l);
        map += "+ ";
        map += base36(lk.src);
        map += '>';
        map += base36(lk.dst);
        map += ':';
        map += std::to_string(net.vcsOnLink(l));
        map += '\n';
    }
    return map;
}

void
expectStructurallyEqual(const topo::Network &a, const topo::Network &b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    EXPECT_EQ(a.numLinks(), b.numLinks());
    EXPECT_EQ(a.numChannels(), b.numChannels());
    for (topo::NodeId u = 0; u < a.numNodes(); ++u)
        for (topo::NodeId v = 0; v < a.numNodes(); ++v) {
            const auto la = a.linkBetween(u, v);
            const auto lb = b.linkBetween(u, v);
            ASSERT_EQ(la.has_value(), lb.has_value())
                << "link " << u << "->" << v;
            if (la) {
                EXPECT_EQ(a.vcsOnLink(*la), b.vcsOnLink(*lb))
                    << "link " << u << "->" << v;
            }
        }
}

void
expectDeadlockFreeAndSimClean(const topo::Network &net,
                              const cdg::RoutingRelation &r)
{
    SCOPED_TRACE(r.name());
    EXPECT_TRUE(cdg::checkDeadlockFree(r).deadlockFree);
    EXPECT_TRUE(cdg::checkMendlovicMatias(r).deadlockFree);

    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 2000;
    cfg.injectionRate = 0.05;
    const auto result = sim::runSimulation(net, r, gen, cfg);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
    EXPECT_GT(result.packetsMeasured, 20u);
}

TEST(DragonflyAcceptance, FactoryNetwork)
{
    const auto net = topo::Network::dragonfly(4, 2, 2);
    const routing::DragonflyMinRouting r(net, 4);
    expectDeadlockFreeAndSimClean(net, r);
}

TEST(DragonflyAcceptance, AsciiDeclaredNetwork)
{
    const auto factory = topo::Network::dragonfly(4, 2, 2);
    const auto parsed = topo::parseAsciiMap(asciiMapFor(factory));
    expectStructurallyEqual(parsed.network, factory);

    // The structural engine accepts the ASCII-declared fabric directly.
    const routing::DragonflyMinRouting r(parsed.network, 4);
    expectDeadlockFreeAndSimClean(parsed.network, r);
}

TEST(FullMeshAcceptance, FactoryNetwork)
{
    const auto net = topo::Network::fullMesh(8);
    const routing::FullMeshRouting r(net);
    expectDeadlockFreeAndSimClean(net, r);
}

TEST(FullMeshAcceptance, AsciiDeclaredNetwork)
{
    // Hand-drawn: eight isolated picture nodes plus the 28 undirected
    // pairs of K8 as edge-list tokens.
    std::string map = "0 1 2 3 4 5 6 7\n";
    for (int i = 0; i < 8; ++i) {
        map += '+';
        for (int j = i + 1; j < 8; ++j) {
            map += ' ';
            map += base36(i);
            map += '-';
            map += base36(j);
        }
        map += '\n';
    }
    // Row 7 contributes no tokens; a bare '+' line is legal.
    const auto parsed = topo::parseAsciiMap(map);
    expectStructurallyEqual(parsed.network, topo::Network::fullMesh(8));

    const routing::FullMeshRouting r(parsed.network);
    expectDeadlockFreeAndSimClean(parsed.network, r);
}

} // namespace
} // namespace ebda
