/**
 * @file
 * Elevator-First routing (Dubois et al.) for vertically partially
 * connected 3D meshes — the deterministic baseline of Section 6.3.
 *
 * Packets route XY (dimension order) on VC 0 to a chosen elevator
 * column, ride the vertical links to the destination layer, then route
 * XY on VC 1 to the destination. VC requirements are (2, 2, 1) along
 * (X, Y, Z), matching the paper. The elevator for a (source, dest) pair
 * is the one nearest the source (ties by catalogue order), a
 * deterministic choice that keeps the relation memoryless.
 */

#ifndef EBDA_ROUTING_ELEVATOR_HH
#define EBDA_ROUTING_ELEVATOR_HH

#include <utility>
#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/**
 * Deterministic Elevator-First routing.
 */
class ElevatorFirstRouting : public cdg::RoutingRelation
{
  public:
    /**
     * @param net       a partially connected 3D mesh with VCs >= (2,2,1)
     * @param elevators the (x, y) columns owning vertical links (must
     *                  match the columns the network was built with)
     */
    ElevatorFirstRouting(const topo::Network &net,
                         std::vector<std::pair<int, int>> elevators);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "Elevator-First"; }

    const topo::Network &network() const override { return net; }

    /** The elevator column used for packets of the given source. */
    std::pair<int, int> elevatorFor(topo::NodeId src) const;

  private:
    /** XY dimension-order hop toward (x, y) on the given VC, written
     *  into `out` (left empty when already there). */
    void xyHop(topo::NodeId at, int x, int y, int vc,
               std::vector<topo::ChannelId> &out) const;

    const topo::Network &net;
    std::vector<std::pair<int, int>> elevators;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_ELEVATOR_HH
