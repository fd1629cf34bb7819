/**
 * @file
 * The routing-relation abstraction shared by the Dally relation-CDG
 * verifier (cdg/relation_cdg.hh) and the wormhole simulator (sim/).
 *
 * A routing relation maps (current channel, current node, destination)
 * to the set of output channels the packet may acquire next. The current
 * channel is kInjectionChannel for freshly injected packets. An empty
 * candidate set at a non-destination node means the packet is stuck —
 * the connectivity checker flags such relations.
 */

#ifndef EBDA_CDG_ROUTING_RELATION_HH
#define EBDA_CDG_ROUTING_RELATION_HH

#include <string>
#include <vector>

#include "topo/network.hh"

namespace ebda::cdg {

/** Sentinel for "packet is at its source, not yet on any channel". */
constexpr topo::ChannelId kInjectionChannel = topo::kInvalidId;

/**
 * Abstract routing relation over a concrete network.
 *
 * Concurrency contract: the checkers walk destinations on several
 * threads at once (cdg/state_walk.hh), so candidatesInto() and
 * srcClass() may run concurrently, from different threads, for
 * distinct destinations. A relation may therefore memoise only per
 * destination: state it fills lazily must be indexed by the
 * destination and sized before the first query (as EbDaRouting's
 * survivor and distance tables and UpDownRouting's reach tables are),
 * and no query for one destination may touch another's.
 */
class RoutingRelation
{
  public:
    virtual ~RoutingRelation() = default;

    /**
     * Output channels the packet may take next, written into `out`.
     *
     * The call *replaces* `out`'s contents (it never appends), so one
     * buffer reused across calls makes route compute allocation-free
     * once its capacity has grown to the largest candidate set. The
     * order is the relation's preference order and is part of the
     * contract: simulators select by position, and checkers report
     * witnesses in discovery order.
     *
     * @param in   channel the packet currently occupies, or
     *             kInjectionChannel when it is still at its source
     * @param at   the node the packet's head is at (head of `in`, or the
     *             source node on injection)
     * @param src  the packet's source node (some algorithms, e.g.
     *             Odd-Even, consult it; most ignore it)
     * @param dest the destination node (never equal to `at` for routing
     *             queries; callers eject on arrival)
     * @param out  receives the candidates
     */
    virtual void candidatesInto(topo::ChannelId in, topo::NodeId at,
                                topo::NodeId src, topo::NodeId dest,
                                std::vector<topo::ChannelId> &out) const = 0;

    /** candidatesInto() into a fresh vector (cold paths and tests). */
    std::vector<topo::ChannelId>
    candidates(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
               topo::NodeId dest) const
    {
        std::vector<topo::ChannelId> out;
        candidatesInto(in, at, src, dest, out);
        return out;
    }

    /** Human-readable algorithm name for reports. */
    virtual std::string name() const = 0;

    /**
     * The source class of `src`, a node id below network().numNodes():
     * the one source hint. Contract: two sources with the same class get
     * the same candidates, in the same order, for every reachable
     * (in, at, dest). The state walk (cdg/state_walk.hh) asks the
     * relation once per (channel, class, destination) and spot-checks
     * the classes. Route tables (routing/route_table.hh) key their rows
     * by (channel, destination) when every source has one class,
     * checking each row's first fill against a second source, and by
     * (channel, source, destination) otherwise.
     *
     * Source-independent relations return 0; Odd-Even returns the
     * source column. The default, one class per source, is always
     * sound: then each state is one (src, dest) pair's state.
     */
    virtual topo::NodeId srcClass(topo::NodeId src) const { return src; }

    /** The network this relation routes on. */
    virtual const topo::Network &network() const = 0;
};

} // namespace ebda::cdg

#endif // EBDA_CDG_ROUTING_RELATION_HH
