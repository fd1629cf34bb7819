/**
 * @file
 * Classic torus dimension-order routing with dateline VCs — the baseline
 * the paper's Theorem-2 torus note (wrap traversal as U-turn) is
 * compared against.
 *
 * Each dimension needs two VCs: packets travel on VC 0 until they cross
 * the dimension's dateline (realised by the wrap link) and on VC 1
 * afterwards, which cuts the ring cycle in the dependency graph.
 * Requires a torus built with WrapClassification::SameAsTravel so wrap
 * links keep the travel direction's class (classes are unused here, but
 * the network is shared with class-based relations in benches).
 */

#ifndef EBDA_ROUTING_DATELINE_HH
#define EBDA_ROUTING_DATELINE_HH

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/**
 * Torus dimension-order routing with dateline VC switching.
 */
class TorusDatelineRouting : public cdg::RoutingRelation
{
  public:
    /** Requires a torus network with >= 2 VCs in every dimension. */
    explicit TorusDatelineRouting(const topo::Network &net);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "Torus-DOR-dateline"; }

    const topo::Network &network() const override { return net; }

    /** Source-independent: every source is one class. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

  private:
    const topo::Network &net;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_DATELINE_HH
