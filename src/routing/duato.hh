/**
 * @file
 * Duato-style fully adaptive routing: every VC except the last on each
 * link is an *adaptive* channel usable toward any productive direction;
 * the last VC is the *escape* channel routed by deterministic dimension
 * order. Deadlock freedom follows from Duato's theorem (the escape
 * subnetwork is acyclic and always reachable), NOT from Dally's: the
 * full channel dependency graph is deliberately cyclic, so the relation
 * CDG check is expected to fail on this relation — the benches use that
 * contrast to illustrate the difference between the two theories
 * discussed in Section 2 of the paper.
 *
 * Duato's guarantee additionally requires atomic VC buffers (one packet
 * per buffer, header at the head — Assumption 3 of his theory, quoted in
 * the paper); the simulator enforces this when configured with
 * atomicVcAllocation.
 */

#ifndef EBDA_ROUTING_DUATO_HH
#define EBDA_ROUTING_DUATO_HH

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/**
 * Fully adaptive minimal routing with a dimension-order escape VC.
 */
class DuatoFullyAdaptive : public cdg::RoutingRelation
{
  public:
    /** Requires every dimension to have at least 2 VCs (>= 1 adaptive
     *  plus the escape). */
    explicit DuatoFullyAdaptive(const topo::Network &net);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "Duato-FA"; }

    const topo::Network &network() const override { return net; }

    /** Source-independent: every source is one class. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

    /** True when the channel is the escape VC of its link. */
    bool isEscape(topo::ChannelId c) const;

  private:
    const topo::Network &net;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_DUATO_HH
