/**
 * @file
 * The Mendlovic–Matias condition as an executable deadlock-freedom
 * checker (arXiv 2503.04583): a routing relation on an arbitrary
 * directed graph is deadlock-free iff there is a channel order such
 * that every reachable packet state can always escape into a channel
 * released before its own — equivalently, iff the iterated-release
 * fixpoint peels every occupiable channel.
 *
 * checkMendlovicMatias() runs that fixpoint on the *states* of a
 * routing relation. A channel is releasable when every reachable
 * non-ejecting state occupying it has at least one candidate channel
 * already released (ejecting states are trivially fine). Repeating to
 * a fixpoint yields either
 *
 *   - a release order covering every occupiable channel — a
 *     certificate of deadlock freedom (the MM channel order), or
 *   - a non-empty residual set in which every channel has a state
 *     whose candidates all lie inside the set — a deadlock knot, i.e.
 *     a fillable configuration in which no packet can ever advance.
 *
 * Relationship to the Dally relation-CDG oracle (relation_cdg.hh):
 * for deterministic relations the two verdicts coincide (single-
 * candidate states make "some candidate released" = "the successor is
 * released", so the fixpoint peels exactly the channels that reach no
 * CDG cycle). For adaptive relations with escape paths the CDG test is
 * conservative while this one is exact: the repo's Duato relation has
 * a cyclic full CDG yet peels completely here. The fixpoint also
 * flags relations with reachable dead-end states (a stuck packet
 * holds its channel forever), which acyclicity alone cannot see.
 *
 * deadlockFreeRoutingExists() answers the companion *existence*
 * question on a raw digraph: is there ANY complete deadlock-free
 * routing? By the MM equivalence this holds iff the edges can be
 * totally ordered so every connected node pair has a rank-ascending
 * path. The checker is exact for small graphs (exhaustive order search
 * with pruning), constructive for bidirected graphs (up/down order on
 * a BFS tree), and falls back to a greedy order plus a forced-
 * dependency-cycle refutation elsewhere; it may return Undetermined.
 */

#ifndef EBDA_CDG_MM_CHECK_HH
#define EBDA_CDG_MM_CHECK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cdg/routing_relation.hh"
#include "graph/digraph.hh"

namespace ebda::cdg {

/** Result of the Mendlovic–Matias fixpoint on a routing relation. */
struct MmReport
{
    /** True when every occupiable channel was released. */
    bool deadlockFree = false;

    std::size_t numChannels = 0;
    /** Channels some reachable packet can occupy. */
    std::size_t occupiableChannels = 0;
    /** Reachable non-ejecting (channel, src, dest) states examined. */
    std::size_t numStates = 0;

    /**
     * Channel release order — the MM order certificate. Contains every
     * occupiable channel when deadlock-free (never-occupied channels
     * are omitted; they cannot participate in a deadlock).
     */
    std::vector<topo::ChannelId> releaseOrder;

    /** When not deadlock-free: names of residual knot channels (capped
     *  at kMaxWitness). */
    std::vector<std::string> stuckWitness;
    static constexpr std::size_t kMaxWitness = 16;
};

/** Run the fixpoint, walking the relation's states on `threads`
 *  threads (0: hostThreads(); see cdg/state_walk.hh). The report is the
 *  same for any thread count. */
MmReport checkMendlovicMatias(const RoutingRelation &relation,
                              unsigned threads = 0);

/** Verdict of the routing-existence question on a raw digraph. */
struct ExistenceReport
{
    enum class Verdict : std::uint8_t
    {
        /** A complete deadlock-free routing exists (order certificate
         *  attached). */
        Exists,
        /** No complete deadlock-free routing exists. */
        NotExists,
        /** The heuristics were inconclusive. */
        Undetermined,
    };

    Verdict verdict = Verdict::Undetermined;

    /** How the verdict was reached: "exact", "updown-order",
     *  "greedy-order" or "forced-cycle". */
    std::string method;

    /**
     * Exists: the edge order, ascending — every connected pair has a
     * rank-ascending path. NotExists via "forced-cycle": the cycle of
     * forced dependencies (e0, e1, ..., ek-1) where each ei's
     * continuation into e(i+1 mod k) is unavoidable; empty for "exact".
     */
    std::vector<std::pair<graph::NodeId, graph::NodeId>> certificate;
};

/**
 * Does ANY complete deadlock-free routing exist on this digraph?
 * "Complete" means every ordered pair (s, t) with t reachable from s
 * must be routed.
 */
ExistenceReport deadlockFreeRoutingExists(const graph::Digraph &g);

} // namespace ebda::cdg

#endif // EBDA_CDG_MM_CHECK_HH
