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

#include <cstdint>
#include <string>
#include <vector>

#include "topo/network.hh"

namespace ebda::cdg {

/** Sentinel for "packet is at its source, not yet on any channel". */
constexpr topo::ChannelId kInjectionChannel = topo::kInvalidId;

/**
 * Whether a relation's candidate sets depend on the packet's source
 * node. Table compilers (routing/route_table.hh) use the hint to size
 * the compiled table: source-independent relations need one row per
 * (input channel, destination); source-dependent ones one row per
 * (input channel, source, destination). The relation checkers
 * (cdg/state_walk.hh) read it too: they walk the routing states of
 * every source that shares candidates only once.
 */
enum class SrcSensitivity : std::uint8_t
{
    /** Not declared — a compiler must probe every source exhaustively
     *  before it may collapse the source axis. The sound default. */
    Unknown,
    /** candidatesInto() ignores `src`. Compilers may collapse the source
     *  axis after a spot-check (the claim is also pinned exhaustively
     *  by tests/test_route_table.cc). */
    Independent,
    /** candidatesInto() consults `src` (e.g. Odd-Even's source column,
     *  Elevator-First's per-source elevator choice). */
    Dependent,
};

/**
 * Abstract routing relation over a concrete network.
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

    /** Source-dependence hint for table compilers and the checkers. The
     *  Unknown default is always sound: compilers then probe every
     *  source, and the checkers walk every source on its own. */
    virtual SrcSensitivity
    srcSensitivity() const
    {
        return SrcSensitivity::Unknown;
    }

    /**
     * The source class of `src`, a node id below network().numNodes().
     * Contract: two sources with the same class get the same
     * candidates, in the same order, for every in-contract
     * (in, at, dest). The checkers read it only from probe-safe
     * relations that declare SrcSensitivity::Dependent, and spot-check
     * it. The default, one class per source, is always sound.
     */
    virtual topo::NodeId srcClass(topo::NodeId src) const { return src; }

    /**
     * True when candidatesInto() tolerates every in-contract
     * (in, at, src, dest) combination, including (in, src) pairs no
     * real packet could exhibit. Relations that assert on unreachable
     * states (e.g. Elevator-First's phase checks) return false, which
     * keeps table compilers from probing them.
     */
    virtual bool probeSafe() const { return true; }

    /** The network this relation routes on. */
    virtual const topo::Network &network() const = 0;
};

} // namespace ebda::cdg

#endif // EBDA_CDG_ROUTING_RELATION_HH
