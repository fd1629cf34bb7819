/**
 * @file
 * Dally's channel dependency graph for an arbitrary routing relation.
 *
 * The CDG contains an edge c1 -> c2 when, for some destination, the
 * routing relation can route a packet that holds c1 onto c2. Only
 * dependencies that are *reachable* count: c1 must itself be acquirable
 * for that destination starting from some source. Acyclicity of this
 * graph is Dally's necessary-and-sufficient deadlock-freedom condition
 * for the relation.
 *
 * This is the verifier used for handcrafted baselines (XY, Odd-Even,
 * Duato-style, Elevator-First, ...) that are not expressed as EbDa
 * schemes, and it cross-checks the turn-level oracle on EbDa-derived
 * routing functions.
 */

#ifndef EBDA_CDG_RELATION_CDG_HH
#define EBDA_CDG_RELATION_CDG_HH

#include "cdg/routing_relation.hh"
#include "cdg/turn_cdg.hh"
#include "graph/digraph.hh"

namespace ebda::cdg {

/** Build the reachable-dependency CDG of a routing relation, walking
 *  its states on `threads` threads (0: hostThreads(); see
 *  cdg/state_walk.hh). The graph is the same for any thread count. */
graph::Digraph buildRelationCdg(const RoutingRelation &relation,
                                unsigned threads = 0);

/** Build the CDG and run the acyclicity check with witness reporting. */
CdgReport checkDeadlockFree(const RoutingRelation &relation,
                            unsigned threads = 0);

/** Result of the connectivity check. */
struct ConnectivityReport
{
    bool connected = true;
    /** Pairs (src, dest) that cannot be routed; empty when connected. */
    std::vector<std::pair<topo::NodeId, topo::NodeId>> failures;
    /** Cap on recorded failures. */
    static constexpr std::size_t kMaxFailures = 16;
};

/**
 * Verify every source can deliver to every destination: from injection
 * at src, following candidate channels, the destination is reachable and
 * no reachable state is stuck (non-empty candidates until arrival).
 * `threads` as for buildRelationCdg().
 */
ConnectivityReport checkConnectivity(const RoutingRelation &relation,
                                     unsigned threads = 0);

} // namespace ebda::cdg

#endif // EBDA_CDG_RELATION_CDG_HH
