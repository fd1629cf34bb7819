/**
 * @file
 * The reachable-state walk shared by the relation-level checkers: the
 * Dally CDG (relation_cdg), the Mendlovic–Matias fixpoint (mm_check),
 * the connectivity check and Duato's escape check.
 *
 * A routing state is (channel, src, dest) with the packet's head at the
 * channel's sink. For every (src, dest) pair with src != dest — dest
 * major, src minor — the injection candidates seed a depth-first stack,
 * and every channel popped off it is one reachable state. States whose
 * head is the destination eject; every other state queries the relation
 * and pushes the candidates not yet seen for this pair.
 *
 * The walk owns one candidate buffer, reused by every query, and an
 * epoch-stamped visited array, so it allocates only while its buffers
 * grow. The visit order is fixed, which keeps checker outputs
 * (dependency insertion order, witnesses, release orders) deterministic.
 */

#ifndef EBDA_CDG_STATE_WALK_HH
#define EBDA_CDG_STATE_WALK_HH

#include <cstdint>
#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::cdg {

/**
 * Hooks of walkReachableStates(). A visitor derives from this struct and
 * hides the hooks it needs; the walk binds them statically.
 */
struct StateVisitor
{
    /** A new (src, dest) pair; `inject` holds its injection candidates. */
    void pair(topo::NodeId, topo::NodeId,
              const std::vector<topo::ChannelId> &)
    {
    }
    /** A reachable state on channel c whose head is the destination. */
    void eject(topo::ChannelId) {}
    /** A reachable non-ejecting state on channel c and its candidates
     *  (the walk's buffer: valid until the hook returns). */
    void route(topo::ChannelId, const std::vector<topo::ChannelId> &) {}
    /** Every state of the current pair has been visited. */
    void endPair(topo::NodeId, topo::NodeId) {}
};

/** Visit every reachable routing state of `relation` (see file doc). */
template <typename Visitor>
void
walkReachableStates(const RoutingRelation &relation, Visitor &visitor)
{
    const topo::Network &net = relation.network();
    std::vector<std::uint32_t> stamp(net.numChannels(), 0);
    std::uint32_t epoch = 0;
    std::vector<topo::ChannelId> frontier;
    std::vector<topo::ChannelId> cand;

    const auto push = [&] {
        for (const topo::ChannelId c : cand) {
            if (stamp[c] != epoch) {
                stamp[c] = epoch;
                frontier.push_back(c);
            }
        }
    };

    for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
        for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
            if (src == dest)
                continue;
            ++epoch;
            frontier.clear();
            relation.candidatesInto(kInjectionChannel, src, src, dest, cand);
            visitor.pair(src, dest, cand);
            push();

            while (!frontier.empty()) {
                const topo::ChannelId c = frontier.back();
                frontier.pop_back();
                const topo::NodeId at = net.link(net.linkOf(c)).dst;
                if (at == dest) {
                    visitor.eject(c);
                    continue;
                }
                relation.candidatesInto(c, at, src, dest, cand);
                visitor.route(c, cand);
                push();
            }
            visitor.endPair(src, dest);
        }
    }
}

} // namespace ebda::cdg

#endif // EBDA_CDG_STATE_WALK_HH
