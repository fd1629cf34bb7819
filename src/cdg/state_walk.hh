/**
 * @file
 * The reachable-state walk shared by the relation-level checkers: the
 * Dally CDG (relation_cdg), the Mendlovic–Matias fixpoint (mm_check),
 * the connectivity check and Duato's escape check.
 *
 * A routing state is (channel, src, dest) with the packet's head at the
 * channel's sink. A packet of the (src, dest) pair starts on one of its
 * injection candidates; a state whose head is the destination ejects,
 * every other state may move onto its candidates.
 *
 * walkStateGraphs() hands the checkers one StateGraph at a time, dest
 * major. A graph holds the states of one destination for a *source
 * group*, each state once, keyed by channel:
 *
 *   - all sources together when the relation declares
 *     SrcSensitivity::Independent and is probe-safe: the candidates of
 *     (c, src, dest) are then the same for every src, so the states of
 *     all pairs bound for dest form one graph, and the relation is
 *     asked once per (channel, destination) instead of once per source;
 *   - one source at a time otherwise (Dependent, Unknown, probe-unsafe
 *     relations), ascending. Such a graph is exactly one pair's walk.
 *
 * Grouped graphs are spot-checked with RouteTable::fill()'s rule: every
 * 16th state's candidates are compared against three probe sources. A
 * mismatch means the Independent declaration is false; that destination
 * and every later one are then built one source at a time.
 *
 * A graph stores its channels in first-discovery order (breadth first
 * from the group's injection candidates), and each non-ejecting state's
 * candidates, in the relation's order, as indices into that order. The
 * per-pair view is still there: the states of pair (src, dest) are the
 * closure of src's injection candidates, and a checker that needs the
 * per-pair visit order (the MM release order does) replays it over the
 * graph without asking the relation again. Checkers that fold states
 * per channel (Dally's successor lists) see each distinct state once;
 * a state met again for the same destination would add nothing, since
 * its candidates were all discovered the first time, so first-discovery
 * orders come out as in a per-pair walk.
 *
 * The walk owns its candidate buffers and reuses one graph, so it
 * allocates only while they grow.
 */

#ifndef EBDA_CDG_STATE_WALK_HH
#define EBDA_CDG_STATE_WALK_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::cdg {

/** The reachable routing states of one destination for a source group
 *  (see file doc). States are indexed 0..size()-1. */
struct StateGraph
{
    topo::NodeId dest = 0;
    /** The group's sources, ascending (never dest). */
    std::vector<topo::NodeId> sources;
    /** Per state, in first-discovery order: the channel it occupies. */
    std::vector<topo::ChannelId> channel;
    /** Per state: 1 when its head is at the destination. */
    std::vector<std::uint8_t> ejects;
    /** CSR of candidates as state indices: state i's are
     *  next[nextBegin[i] .. nextBegin[i + 1]); empty for ejecting
     *  states and for dead ends. */
    std::vector<std::uint32_t> nextBegin;
    std::vector<std::uint32_t> next;
    /** CSR of injection candidates as state indices, one row per entry
     *  of `sources`. */
    std::vector<std::uint32_t> injBegin;
    std::vector<std::uint32_t> inj;

    std::size_t size() const { return channel.size(); }

    std::span<const std::uint32_t>
    candidates(std::size_t state) const
    {
        return {next.data() + nextBegin[state],
                next.data() + nextBegin[state + 1]};
    }

    /** Injection candidates of sources[k]. */
    std::span<const std::uint32_t>
    injection(std::size_t k) const
    {
        return {inj.data() + injBegin[k], inj.data() + injBegin[k + 1]};
    }
};

/**
 * Build the state graph of every destination of `relation` (see file
 * doc) and pass each to `visit`, dest major and, within a destination,
 * in ascending source order. The graph is valid until `visit` returns.
 */
void walkStateGraphs(const RoutingRelation &relation,
                     const std::function<void(const StateGraph &)> &visit);

} // namespace ebda::cdg

#endif // EBDA_CDG_STATE_WALK_HH
