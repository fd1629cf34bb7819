/**
 * @file
 * Up/Down (Up*-Down*) routing from Autonet — the classical spanning-
 * tree-based
 * deadlock-free algorithm the paper's Theorem-2 proof leans on ("no
 * cycle is introduced when channels are taken in a strictly ascending
 * order").
 *
 * A BFS spanning tree is built from a root; every link is oriented "up"
 * (toward the root: to a lower BFS level, or to a lower node id at the
 * same level) or "down". A legal path is zero or more up links followed
 * by zero or more down links. Works on arbitrary connected topologies,
 * including the vertically partially connected 3D mesh.
 */

#ifndef EBDA_ROUTING_UPDOWN_HH
#define EBDA_ROUTING_UPDOWN_HH

#include <cstdint>
#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/**
 * Up/Down routing relation over an arbitrary connected network.
 */
class UpDownRouting : public cdg::RoutingRelation
{
  public:
    /**
     * @param net  network (must be connected; verified by construction)
     * @param root spanning-tree root node
     */
    explicit UpDownRouting(const topo::Network &net, topo::NodeId root = 0);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "Up*/Down*"; }

    const topo::Network &network() const override { return net; }

    /** Source-independent: every source is one class. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

    /** True when the link is oriented toward the root. */
    bool isUp(topo::LinkId l) const { return upLink[l]; }

  private:
    /** Per-node flags toward dest (bit0: reachable via down links only,
     *  bit1: via up-then-down), built on the first query for dest. */
    const std::vector<std::uint8_t> &reachTable(topo::NodeId dest) const;

    const topo::Network &net;
    std::vector<std::uint32_t> level;
    std::vector<bool> upLink;
    mutable std::vector<std::vector<std::uint8_t>> reach;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_UPDOWN_HH
