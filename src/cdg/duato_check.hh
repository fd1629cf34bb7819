/**
 * @file
 * Duato-style verification for fully adaptive routing with escape
 * channels — the comparison theory of Section 2.
 *
 * Duato's 1993 theorem: a fully adaptive relation is deadlock-free if a
 * subset of channels (the *escape* channels) forms a connected routing
 * subfunction whose (extended) channel dependency graph is acyclic.
 * This checker verifies the practically sufficient design rule used for
 * dimension-order escape VCs:
 *   (a) the escape subrelation is acyclic (escape-to-escape
 *       dependencies only),
 *   (b) the escape subrelation alone delivers every (src, dest) pair,
 *   (c) every reachable routing state offers at least one escape
 *       candidate (packets can always fall back when blocked).
 * For a dimension-order escape on a mesh these conditions coincide with
 * Duato's theorem (there are no indirect escape dependencies through
 * adaptive channels under DOR); the general theorem's extended-
 * dependency analysis is out of scope and documented as such.
 *
 * Note the contrast exercised by tests/benches: the *full* CDG of such
 * a relation is cyclic (Dally's check fails) while this check passes —
 * and it only holds under atomic VC buffers (Duato Assumption 3),
 * which the simulator's atomicVcAllocation models.
 */

#ifndef EBDA_CDG_DUATO_CHECK_HH
#define EBDA_CDG_DUATO_CHECK_HH

#include <functional>

#include "cdg/routing_relation.hh"

namespace ebda::cdg {

/** Predicate selecting the escape channels of a relation. */
using EscapePredicate = std::function<bool(topo::ChannelId)>;

/** Outcome of the Duato-style check. */
struct DuatoReport
{
    /** All three conditions hold. */
    bool ok = true;
    /** (a) escape-subrelation CDG acyclic. */
    bool escapeAcyclic = true;
    /** (b) escape subrelation connects every pair. */
    bool escapeConnected = true;
    /** (c) every reachable state has an escape candidate. */
    bool escapeAlwaysAvailable = true;
    /** Number of escape channels found. */
    std::size_t numEscapeChannels = 0;
};

/**
 * Run the Duato-style check on a relation, walking its states on
 * `threads` threads (0: hostThreads(); see cdg/state_walk.hh).
 * `is_escape` is called from all of them.
 */
DuatoReport checkDuatoDeadlockFree(const RoutingRelation &relation,
                                   const EscapePredicate &is_escape,
                                   unsigned threads = 0);

} // namespace ebda::cdg

#endif // EBDA_CDG_DUATO_CHECK_HH
