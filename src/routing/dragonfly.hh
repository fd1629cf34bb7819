/**
 * @file
 * Minimal dragonfly routing with an escape VC, the baseline engine of
 * the dragonfly literature (Dally's VC-escalation discipline; the
 * "minimal with escape VCs" class in the InfiniBand dragonfly engine
 * taxonomy).
 *
 * A minimal route is local-global-local: a hop inside the source group
 * to the router owning the global link toward the destination group,
 * the global hop, and a hop inside the destination group to the
 * destination router (degenerate hops are skipped). Cyclic dependencies
 * local -> global -> local -> global ... are broken by VC escalation:
 *
 *   - local hop before the global hop: VC 0 only,
 *   - global hop: any VC of the global link,
 *   - local hop after the global hop: VCs >= 1 only,
 *   - purely intra-group packets: any VC (single hop, then ejection).
 *
 * The channel dependency graph is then layered (local vc0 -> global ->
 * local vc>=1) and acyclic. Construction with vc_escalation = false
 * drops the escalation (every local hop uses VC 0) and is the
 * deliberately deadlock-PRONE negative control for checker tests.
 *
 * The relation is structural: it derives groups from node ids
 * (group = node / a) and discovers local/global links from the graph,
 * so it routes networks declared by the dragonfly() factory and by
 * ASCII maps alike. Construction throws std::invalid_argument if the
 * network is not a canonical dragonfly for the given group size.
 */

#ifndef EBDA_ROUTING_DRAGONFLY_HH
#define EBDA_ROUTING_DRAGONFLY_HH

#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/**
 * Minimal dragonfly routing with VC escalation over the canonical
 * dragonfly (one global link between every pair of groups).
 */
class DragonflyMinRouting : public cdg::RoutingRelation
{
  public:
    /**
     * @param net network whose structure is a canonical dragonfly
     * @param a   routers per group (node id = group * a + router)
     * @param vc_escalation true for the deadlock-free engine; false for
     *                      the deadlock-prone negative control
     */
    DragonflyMinRouting(const topo::Network &net, int a,
                        bool vc_escalation = true);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string
    name() const override
    {
        return escalate ? "Dragonfly-Min" : "Dragonfly-Min/NoEscape";
    }

    /** Source-independent: every source is one class. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

    const topo::Network &network() const override { return net; }

    int routersPerGroup() const { return a; }
    int numGroups() const { return groups; }

  private:
    int group(topo::NodeId n) const { return static_cast<int>(n) / a; }

    const topo::Network &net;
    const int a;
    int groups = 0;
    bool escalate = true;

    /** groupGlobal[g * groups + g']: the unique global link g -> g'. */
    std::vector<topo::LinkId> groupGlobal;
    /** localLink[u * a + r]: link from u to router r of u's group. */
    std::vector<topo::LinkId> localLink;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_DRAGONFLY_HH
