/**
 * @file
 * VC-free deadlock-free routing on a full mesh (complete graph), after
 * the HOTI'25 full-mesh scheme: a packet either takes the direct link
 * or detours through one intermediate node with a HIGHER id than both
 * endpoints ("ascend, then descend").
 *
 * Every first hop to an intermediate ascends (m > s) and every second
 * hop descends (t < m), so all channel dependencies point from
 * ascending links to descending links and the channel dependency graph
 * is acyclic with a single VC per link — no virtual channels needed.
 *
 * Mode::Unrestricted allows ANY intermediate node instead; its
 * dependency graph contains (s,m) -> (m,t) for every distinct triple
 * and is cyclic for n >= 3 — the deadlock-prone negative control.
 *
 * The relation is structural (it only needs a complete digraph), so it
 * routes fullMesh() factory networks and ASCII-declared complete graphs
 * alike. Construction throws std::invalid_argument if some ordered node
 * pair lacks a direct link.
 */

#ifndef EBDA_ROUTING_FULLMESH_HH
#define EBDA_ROUTING_FULLMESH_HH

#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/**
 * Direct-or-one-detour routing on a complete graph.
 */
class FullMeshRouting : public cdg::RoutingRelation
{
  public:
    enum class Mode : std::uint8_t
    {
        /** Detour only via m > max(src, dest): deadlock-free, VC-free. */
        Ascend,
        /** Detour via any intermediate: the deadlock-prone control. */
        Unrestricted,
    };

    explicit FullMeshRouting(const topo::Network &net,
                             Mode mode = Mode::Ascend);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string
    name() const override
    {
        return mode == Mode::Ascend ? "FullMesh-2Hop"
                                    : "FullMesh-2Hop/Unrestricted";
    }

    /** Source-independent: every source is one class. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

    const topo::Network &network() const override { return net; }

  private:
    topo::LinkId direct(topo::NodeId u, topo::NodeId v) const
    {
        return directLink[u * net.numNodes() + v];
    }

    const topo::Network &net;
    const Mode mode;
    /** Row-major direct-link table over ordered node pairs. */
    std::vector<topo::LinkId> directLink;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_FULLMESH_HH
