/**
 * @file
 * The one reachable-state walk. The relation-level checkers read it —
 * the Dally CDG (relation_cdg), the Mendlovic–Matias fixpoint
 * (mm_check), the connectivity check and Duato's escape check. The
 * route table (routing/route_table.hh) does not walk: it fills rows
 * keyed by source class as packets query them, and checks each fill of
 * a class with two or more sources by this walk's spot-check probe
 * rule.
 *
 * A routing state is (channel, src, dest) with the packet's head at the
 * channel's sink. A packet of the (src, dest) pair starts on one of its
 * injection candidates; a state whose head is the destination ejects,
 * every other state may move onto its candidates.
 *
 * walkStateGraphs() hands its callers one StateGraph per destination,
 * dest major. The graph holds the states of every source bound for
 * dest, keyed by (channel, source class), the classes being
 * RoutingRelation::srcClass(). Two sources share a class when they get
 * the same candidates in every state, so a state of a class is one set
 * of candidates however many of its sources reach it, and the relation
 * is asked once per (channel, class, destination). A source-independent
 * relation has one class (srcClass() == 0), Odd-Even one per source
 * column; with the default, one class per source, each state is one
 * pair's state, as in a walk of one (src, dest) pair at a time.
 *
 * A state is asked for with a real source of its class: the one whose
 * walk discovered it. So the relation is only ever asked about states a
 * real packet can occupy, and relations may assert on the others. Every
 * 16th state of a class with two or more sources is spot-checked
 * against another of them — the current node when it belongs to the
 * class, else the class's first or last source. A mismatch means the
 * declaration is false; that destination and every later one are then
 * rebuilt with one class per source.
 *
 * Replay order: states are numbered in the order a per-source replay
 * meets them. Sources are walked in ascending order, each breadth first
 * from its injection candidates; a source appends only the states its
 * class has not met yet, and those come out in the order its own walk
 * meets them, since a state met before was expanded with its whole
 * closure then. So a checker that folds states per channel (Dally's
 * successor lists) gets the first-discovery orders of a walk of one
 * (src, dest) pair at a time, and states of one channel in different
 * classes come out in source order. The per-pair view is still there:
 * the states of pair (src, dest) are the closure of src's injection
 * candidates, and StateGraph::replay() visits them over the graph
 * without asking the relation again (the MM release order needs the
 * per-pair visit order).
 *
 * The walk owns its candidate buffers and reuses one graph, so it
 * allocates only while they grow.
 *
 * Threads: destinations are independent, so the folding form
 * (foldStateGraphs) builds them on several threads, each with its own
 * builder and graph, and folds each graph into a small per-destination
 * partial on the thread that built it. The partials are merged one at
 * a time in ascending destination order, and only O(threads) of them
 * exist at once: a destination waits for a free partial before it is
 * built. A merge that appends in that order sees exactly what a serial
 * walk's visitor sees, so every checker report is the same for any
 * thread count. The spot-check tick restarts at each destination, so a
 * graph depends only on (relation, destination, classes), not on which
 * thread built it; when a spot check fails at destination d, the
 * partials built past d are discarded and d and every later
 * destination are rebuilt with one class per source, as in a serial
 * walk. The relation is queried concurrently for distinct destinations
 * (cdg/routing_relation.hh states that contract).
 */

#ifndef EBDA_CDG_STATE_WALK_HH
#define EBDA_CDG_STATE_WALK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::cdg {

/** Reusable scratch of StateGraph::replay(). */
struct ReplayScratch
{
    /** Per state: the epoch of the replay that last met it. */
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> stack;
};

/** The reachable routing states of one destination (see file doc).
 *  States are indexed 0..size()-1. */
struct StateGraph
{
    topo::NodeId dest = 0;
    /** Every source but dest, ascending. */
    std::vector<topo::NodeId> sources;
    /** Per state, in replay order: the channel it occupies. */
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

    /**
     * Call visit(i) once for every state i of pair (sources[k], dest),
     * the closure of injection(k), ejecting states included: in the
     * order a walk of that pair alone pops them off a stack seeded with
     * injection(k), pushing each state's unmet candidates. `scratch` is
     * reused across calls and graphs.
     */
    template <typename Visit>
    void
    replay(std::size_t k, ReplayScratch &scratch, Visit &&visit) const
    {
        if (scratch.stamp.size() < size())
            scratch.stamp.resize(size(), 0);
        if (++scratch.epoch == 0) {
            std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
            scratch.epoch = 1;
        }
        const std::uint32_t epoch = scratch.epoch;
        const auto push = [&](std::span<const std::uint32_t> states) {
            for (const std::uint32_t i : states)
                if (scratch.stamp[i] != epoch) {
                    scratch.stamp[i] = epoch;
                    scratch.stack.push_back(i);
                }
        };
        push(injection(k));
        while (!scratch.stack.empty()) {
            const std::uint32_t i = scratch.stack.back();
            scratch.stack.pop_back();
            visit(i);
            push(candidates(i));
        }
    }
};

/** The number of partials a walk on `threads` threads keeps (0 threads:
 *  hostThreads()). */
std::size_t walkSlots(unsigned threads);

/**
 * The walk on up to `threads` threads (0: hostThreads(); 1 builds every
 * graph on the calling thread). fold(slot, g) runs on the thread that
 * built g and may write only partial `slot`, slot < walkSlots(threads),
 * and scratch of its own. merge(slot) runs once per destination, in
 * ascending destination order and never two at once, after that
 * destination's fold; the slot's partial is reused once merge returns,
 * so fold starts from whatever that merge left. Returns false when a
 * spot check found the relation's declaration false and the walk fell
 * back to one class per source.
 */
bool walkStateGraphs(
    const RoutingRelation &relation, unsigned threads,
    const std::function<void(std::size_t, const StateGraph &)> &fold,
    const std::function<void(std::size_t)> &merge);

/** walkStateGraphs() with the partials owned here: fold(g, partial)
 *  and merge(partial), Partial default-constructible. */
template <typename Partial, typename Fold, typename Merge>
bool
foldStateGraphs(const RoutingRelation &relation, unsigned threads,
                Fold &&fold, Merge &&merge)
{
    std::vector<Partial> partials(walkSlots(threads));
    return walkStateGraphs(
        relation, threads,
        [&](std::size_t slot, const StateGraph &g) {
            fold(g, partials[slot]);
        },
        [&](std::size_t slot) { merge(partials[slot]); });
}

/**
 * One destination's distinct (c1, c2) channel dependencies, in the
 * order a walk of its graph first meets them: the per-destination
 * partial of the dependency folds (Dally's CDG, Duato's escape CDG).
 */
struct DependencyFold
{
    std::vector<std::pair<topo::ChannelId, topo::ChannelId>> pairs;

    /** Start a destination: forget the last one's pairs. */
    void
    clear()
    {
        for (const auto &[c1, c2] : pairs)
            succ[c1].clear();
        pairs.clear();
    }

    /** Record c1 -> c2 unless this destination already has it. A
     *  channel has few successors, so a linear scan rejects repeats. */
    void
    add(topo::ChannelId c1, topo::ChannelId c2)
    {
        if (succ.size() <= c1)
            succ.resize(c1 + 1);
        auto &out = succ[c1];
        if (std::find(out.begin(), out.end(), c2) == out.end()) {
            out.push_back(c2);
            pairs.emplace_back(c1, c2);
        }
    }

  private:
    /** Per channel: its successors in `pairs`. */
    std::vector<std::vector<topo::ChannelId>> succ;
};

} // namespace ebda::cdg

#endif // EBDA_CDG_STATE_WALK_HH
