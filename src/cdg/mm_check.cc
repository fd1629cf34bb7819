#include "mm_check.hh"

#include <algorithm>
#include <cstddef>
#include <span>

#include "cdg/state_walk.hh"
#include "graph/cycles.hh"
#include "util/logging.hh"

namespace ebda::cdg {

using topo::ChannelId;
using topo::NodeId;

// ---------------------------------------------------------------------
// Relation-level fixpoint
// ---------------------------------------------------------------------

namespace {

/** The kept states of one destination, with the scratch of its fold. */
struct MmFold
{
    /** The graph's channels: every one of them is occupiable. */
    std::vector<ChannelId> channels;
    /** Its non-ejecting states' per-pair copies (MmReport::numStates). */
    std::size_t copies = 0;
    /** Per kept state, in release order: channel, candidate channels
     *  (CSR in candBegin/cands) and a hash of both. */
    std::vector<ChannelId> stateChannel;
    std::vector<std::uint32_t> candBegin;
    std::vector<ChannelId> cands;
    std::vector<std::uint64_t> hash;

    ReplayScratch replay;
    /** The graph's non-ejecting states in per-pair visit order, and
     *  each state's last position in it. */
    std::vector<std::uint32_t> visits;
    std::vector<std::uint32_t> last;

    std::span<const ChannelId>
    candidates(std::size_t k) const
    {
        return {cands.data() + candBegin[k], cands.data() + candBegin[k + 1]};
    }

    void
    fold(const StateGraph &g)
    {
        channels.assign(g.channel.begin(), g.channel.end());
        last.resize(g.size());
        visits.clear();
        for (std::size_t k = 0; k < g.sources.size(); ++k)
            g.replay(k, replay, [&](std::uint32_t i) {
                if (g.ejects[i])
                    return;
                last[i] = static_cast<std::uint32_t>(visits.size());
                visits.push_back(i);
            });
        copies = visits.size();
        stateChannel.clear();
        candBegin.assign(1, 0);
        cands.clear();
        hash.clear();
        for (std::uint32_t pos = 0; pos < visits.size(); ++pos) {
            const std::uint32_t i = visits[pos];
            if (last[i] != pos)
                continue;
            const ChannelId c = g.channel[i];
            // FNV-1a over the channel ids, then a finaliser so the
            // store's table can index by the low bits.
            std::uint64_t h = (0xcbf29ce484222325ULL ^ c) * 0x100000001b3ULL;
            for (const std::uint32_t j : g.candidates(i)) {
                cands.push_back(g.channel[j]);
                h = (h ^ g.channel[j]) * 0x100000001b3ULL;
            }
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdULL;
            h ^= h >> 33;
            stateChannel.push_back(c);
            candBegin.push_back(static_cast<std::uint32_t>(cands.size()));
            hash.push_back(h);
        }
    }
};

/**
 * The distinct (channel, candidate channels) states of every
 * destination, each at its last occurrence (see checkMendlovicMatias).
 */
class MmStore
{
  public:
    /** Append part's states in order, moving a repeat to the end. */
    void
    merge(const MmFold &part)
    {
        for (std::size_t k = 0; k < part.stateChannel.size(); ++k) {
            if (2 * (stateChannel.size() + 1) > table.size())
                grow();
            const auto cs = part.candidates(k);
            std::uint32_t &s =
                table[slotOf(part.hash[k], part.stateChannel[k], cs)];
            if (s != kNone) {
                lastSeq[s] = seq++;
                continue;
            }
            s = static_cast<std::uint32_t>(stateChannel.size());
            stateChannel.push_back(part.stateChannel[k]);
            cands.insert(cands.end(), cs.begin(), cs.end());
            candBegin.push_back(static_cast<std::uint32_t>(cands.size()));
            hash.push_back(part.hash[k]);
            lastSeq.push_back(seq++);
        }
    }

    /** The states ordered by last occurrence. */
    std::vector<std::uint32_t>
    order() const
    {
        std::vector<std::uint32_t> by(stateChannel.size());
        for (std::uint32_t s = 0; s < by.size(); ++s)
            by[s] = s;
        std::sort(by.begin(), by.end(), [&](std::uint32_t a, std::uint32_t b) {
            return lastSeq[a] < lastSeq[b];
        });
        return by;
    }

    std::size_t size() const { return stateChannel.size(); }
    ChannelId channel(std::size_t s) const { return stateChannel[s]; }
    std::span<const ChannelId>
    candidates(std::size_t s) const
    {
        return {cands.data() + candBegin[s], cands.data() + candBegin[s + 1]};
    }

  private:
    static constexpr std::uint32_t kNone = ~0u;

    /** The table slot holding the state, or the empty slot it would go
     *  in. */
    std::size_t
    slotOf(std::uint64_t h, ChannelId c, std::span<const ChannelId> cs) const
    {
        const std::size_t mask = table.size() - 1;
        for (std::size_t t = h & mask;; t = (t + 1) & mask) {
            const std::uint32_t s = table[t];
            if (s == kNone
                || (hash[s] == h && stateChannel[s] == c
                    && std::ranges::equal(candidates(s), cs)))
                return t;
        }
    }

    void
    grow()
    {
        table.assign(std::max<std::size_t>(64, 2 * table.size()), kNone);
        const std::size_t mask = table.size() - 1;
        for (std::uint32_t s = 0; s < stateChannel.size(); ++s) {
            std::size_t t = hash[s] & mask;
            while (table[t] != kNone)
                t = (t + 1) & mask;
            table[t] = s;
        }
    }

    std::vector<ChannelId> stateChannel;
    std::vector<std::uint32_t> candBegin{0};
    std::vector<ChannelId> cands;
    std::vector<std::uint64_t> hash;
    std::vector<std::uint64_t> lastSeq;
    /** Open addressing over `hash`, at most half full. */
    std::vector<std::uint32_t> table;
    std::uint64_t seq = 0;
};

} // namespace

MmReport
checkMendlovicMatias(const RoutingRelation &relation, unsigned threads)
{
    const topo::Network &net = relation.network();
    const std::size_t nc = net.numChannels();

    MmReport report;
    report.numChannels = nc;

    // Phase 1: every distinct reachable packet state. A state is
    // (channel, src, dest) with the packet's head at the channel's
    // sink. Ejecting states (head == dest) impose no release
    // obligation; non-ejecting states record their candidate set.
    //
    // The fixpoint visits the states waiting on a released channel in
    // state order, which decides the release order within a step. That
    // order is the per-pair enumeration: dest major, src minor, each
    // pair's walk popping a stack seeded with its injection candidates.
    // Two states on one channel with the same candidate channels are
    // released by the same step (the first of their candidates to be
    // released), the later one last, and the channel no earlier than
    // that. So only the last copy of such a state needs to be kept, and
    // the release order is unchanged. A graph state stands for one copy
    // per source of its class that reaches it; replaying each source's
    // walk over the graph finds its last copy (MmFold). Across
    // destinations the store keeps the last of the states with the
    // same channel and candidates (MmStore).
    std::vector<std::uint8_t> occupied(nc, 0);
    MmStore store;
    foldStateGraphs<MmFold>(
        relation, threads,
        [](const StateGraph &g, MmFold &part) { part.fold(g); },
        [&](const MmFold &part) {
            for (const ChannelId c : part.channels)
                occupied[c] = 1;
            report.numStates += part.copies;
            store.merge(part);
        });

    for (std::size_t c = 0; c < nc; ++c)
        if (occupied[c])
            ++report.occupiableChannels;

    // The kept states in release order, and the reverse index:
    // candidate channel -> states waiting on it.
    const std::vector<std::uint32_t> order = store.order();
    std::vector<ChannelId> stateChannel(order.size());
    std::vector<std::uint32_t> pending(nc, 0);
    std::vector<std::uint32_t> byCandOffset(nc + 1, 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        stateChannel[i] = store.channel(order[i]);
        ++pending[stateChannel[i]];
        for (const ChannelId c : store.candidates(order[i]))
            ++byCandOffset[c + 1];
    }
    for (std::size_t c = 0; c < nc; ++c)
        byCandOffset[c + 1] += byCandOffset[c];
    std::vector<std::uint32_t> byCand(byCandOffset[nc]);
    {
        std::vector<std::uint32_t> cursor(byCandOffset.begin(),
                                          byCandOffset.end() - 1);
        for (std::size_t i = 0; i < order.size(); ++i)
            for (const ChannelId c : store.candidates(order[i]))
                byCand[cursor[c]++] = static_cast<std::uint32_t>(i);
    }

    // Phase 2: iterated release as a worklist fixpoint. A channel is
    // released once every state on it has some released candidate.
    std::vector<std::uint8_t> released(nc, 0);
    std::vector<std::uint8_t> stateOk(stateChannel.size(), 0);
    std::vector<ChannelId> queue;

    auto release = [&](ChannelId c) {
        if (!released[c]) {
            released[c] = 1;
            if (occupied[c])
                report.releaseOrder.push_back(c);
            queue.push_back(c);
        }
    };
    for (std::size_t c = 0; c < nc; ++c)
        if (pending[c] == 0)
            release(static_cast<ChannelId>(c));

    for (std::size_t head = 0; head < queue.size(); ++head) {
        const ChannelId d = queue[head];
        for (std::uint32_t k = byCandOffset[d]; k < byCandOffset[d + 1];
             ++k) {
            const std::uint32_t s = byCand[k];
            if (stateOk[s])
                continue;
            stateOk[s] = 1;
            if (--pending[stateChannel[s]] == 0)
                release(stateChannel[s]);
        }
    }

    report.deadlockFree = true;
    for (std::size_t c = 0; c < nc; ++c) {
        if (occupied[c] && !released[c]) {
            report.deadlockFree = false;
            if (report.stuckWitness.size() < MmReport::kMaxWitness)
                report.stuckWitness.push_back(
                    net.channelName(static_cast<ChannelId>(c)));
        }
    }
    return report;
}

// ---------------------------------------------------------------------
// Existence on a raw digraph
// ---------------------------------------------------------------------

namespace {

using graph::Digraph;
using GNode = graph::NodeId;
using Edge = std::pair<GNode, GNode>;

std::vector<Edge>
edgeList(const Digraph &g)
{
    std::vector<Edge> edges;
    for (GNode u = 0; u < g.numNodes(); ++u)
        for (GNode v : g.successors(u))
            edges.emplace_back(u, v);
    return edges;
}

/** All-pairs reachability (excluding the trivial s == s unless cyclic),
 *  optionally skipping one edge; row-major n*n. */
std::vector<std::uint8_t>
reachability(const Digraph &g, const std::vector<Edge> &edges,
             std::size_t skip_edge = static_cast<std::size_t>(-1))
{
    const std::size_t n = g.numNodes();
    std::vector<std::uint8_t> reach(n * n, 0);
    std::vector<GNode> queue;
    for (GNode s = 0; s < n; ++s) {
        std::uint8_t *row = reach.data() + s * n;
        queue.clear();
        queue.push_back(s);
        std::vector<std::uint8_t> seen(n, 0);
        seen[s] = 1;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const GNode u = queue[head];
            for (GNode v : g.successors(u)) {
                if (skip_edge != static_cast<std::size_t>(-1)
                    && edges[skip_edge] == Edge{u, v})
                    continue;
                if (!seen[v]) {
                    seen[v] = 1;
                    row[v] = 1;
                    queue.push_back(v);
                }
            }
        }
    }
    return reach;
}

/**
 * True when the given ascending edge order gives every reachable pair a
 * rank-ascending path. P[s][t] is built incrementally: when edge (u,v)
 * is appended (highest rank so far), any ascending path reaching u —
 * or u itself — extends to v.
 */
bool
orderCovers(std::size_t n, const std::vector<Edge> &order,
            const std::vector<std::uint8_t> &reach)
{
    std::vector<std::uint8_t> p(n * n, 0);
    for (const auto &[u, v] : order)
        for (std::size_t s = 0; s < n; ++s)
            if (s == u || p[s * n + u])
                p[s * n + v] = 1;
    for (std::size_t s = 0; s < n; ++s)
        for (std::size_t t = 0; t < n; ++t)
            if (s != t && reach[s * n + t] && !p[s * n + t])
                return false;
    return true;
}

/** Exhaustive order search for tiny graphs. Returns 1 (order found,
 *  written to *found), 0 (no order exists) or -1 (node budget hit). */
int
exactSearch(std::size_t n, const std::vector<Edge> &edges,
            const std::vector<std::uint8_t> &reach,
            std::vector<Edge> *found)
{
    const std::size_t m = edges.size();
    std::vector<Edge> order;
    std::vector<bool> used(m, false);
    std::vector<std::vector<std::uint8_t>> pstack;
    pstack.emplace_back(n * n, 0);
    std::size_t budget = 2'000'000;

    // Iterative DFS with explicit choice stack.
    struct Frame
    {
        std::size_t next_choice = 0;
    };
    std::vector<Frame> stack(1);

    auto covered = [&](const std::vector<std::uint8_t> &p) {
        for (std::size_t s = 0; s < n; ++s)
            for (std::size_t t = 0; t < n; ++t)
                if (s != t && reach[s * n + t] && !p[s * n + t])
                    return false;
        return true;
    };
    // Optimistic bound: close P under unrestricted use of the unused
    // edges; a pair uncovered even then can never be covered.
    auto doomed = [&](const std::vector<std::uint8_t> &p) {
        std::vector<std::uint8_t> opt = p;
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t e = 0; e < m; ++e) {
                if (used[e])
                    continue;
                const auto &[u, v] = edges[e];
                for (std::size_t s = 0; s < n; ++s)
                    if ((s == u || opt[s * n + u]) && !opt[s * n + v]) {
                        opt[s * n + v] = 1;
                        changed = true;
                    }
            }
        }
        for (std::size_t s = 0; s < n; ++s)
            for (std::size_t t = 0; t < n; ++t)
                if (s != t && reach[s * n + t] && !opt[s * n + t])
                    return true;
        return false;
    };

    while (!stack.empty()) {
        if (covered(pstack.back())) {
            *found = order;
            // Complete the certificate into a total order; edges above
            // the covering prefix cannot break ascent of existing paths.
            for (std::size_t e = 0; e < m; ++e)
                if (!used[e])
                    found->push_back(edges[e]);
            return 1;
        }
        Frame &f = stack.back();
        bool descended = false;
        while (f.next_choice < m) {
            const std::size_t e = f.next_choice++;
            if (used[e])
                continue;
            if (budget-- == 0)
                return -1;
            std::vector<std::uint8_t> p = pstack.back();
            const auto &[u, v] = edges[e];
            for (std::size_t s = 0; s < n; ++s)
                if (s == u || p[s * n + u])
                    p[s * n + v] = 1;
            used[e] = true;
            order.push_back(edges[e]);
            if (doomed(p)) {
                used[e] = false;
                order.pop_back();
                continue;
            }
            pstack.push_back(std::move(p));
            stack.emplace_back();
            descended = true;
            break;
        }
        if (!descended) {
            stack.pop_back();
            pstack.pop_back();
            if (!order.empty()) {
                // Un-take the edge the parent frame chose.
                for (std::size_t e = 0; e < m; ++e)
                    if (used[e] && edges[e] == order.back()) {
                        used[e] = false;
                        break;
                    }
                order.pop_back();
            }
        }
    }
    return 0;
}

/** True when every edge has its reverse. */
bool
isBidirected(const Digraph &g)
{
    for (GNode u = 0; u < g.numNodes(); ++u)
        for (GNode v : g.successors(u))
            if (!g.hasEdge(v, u))
                return false;
    return true;
}

/**
 * Up/down edge order on a bidirected graph: BFS-forest levels orient
 * every edge; up edges rank below down edges, ups by strictly
 * decreasing (level, id) of their source along any legal path, downs
 * by strictly increasing (level, id). Rank-ascending paths are exactly
 * the up-then-down paths, which cover every connected pair.
 */
std::vector<Edge>
upDownOrder(const Digraph &g, const std::vector<Edge> &edges)
{
    const std::size_t n = g.numNodes();
    std::vector<std::uint32_t> level(n, 0xffffffffu);
    std::vector<GNode> queue;
    for (GNode root = 0; root < n; ++root) {
        if (level[root] != 0xffffffffu)
            continue;
        level[root] = 0;
        queue.clear();
        queue.push_back(root);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const GNode u = queue[head];
            for (GNode v : g.successors(u))
                if (level[v] == 0xffffffffu) {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
        }
    }

    // (level, id) descending rank for node order along up paths.
    std::vector<GNode> nodes(n);
    for (GNode i = 0; i < n; ++i)
        nodes[i] = i;
    std::sort(nodes.begin(), nodes.end(), [&](GNode a, GNode b) {
        if (level[a] != level[b])
            return level[a] > level[b];
        return a > b;
    });
    std::vector<std::uint32_t> downRank(n);
    for (std::size_t i = 0; i < n; ++i)
        downRank[nodes[i]] = static_cast<std::uint32_t>(i);

    auto isUp = [&](const Edge &e) {
        const auto &[u, v] = e;
        if (level[v] != level[u])
            return level[v] < level[u];
        return v < u;
    };
    std::vector<Edge> order = edges;
    std::sort(order.begin(), order.end(), [&](const Edge &a,
                                              const Edge &b) {
        const bool ua = isUp(a);
        const bool ub = isUp(b);
        if (ua != ub)
            return ua; // all ups before all downs
        if (ua) {
            // Up ranks follow the descending (level, id) node order of
            // their sources.
            if (downRank[a.first] != downRank[b.first])
                return downRank[a.first] < downRank[b.first];
        } else {
            // Down ranks follow ascending (level, id) of their sources.
            if (downRank[a.first] != downRank[b.first])
                return downRank[a.first] > downRank[b.first];
        }
        return a < b;
    });
    return order;
}

/**
 * Forced-dependency refutation: when edge e is unavoidable for some
 * pair and the packet's continuation after e is unique, every complete
 * routing contains that dependency; a cycle of forced dependencies
 * rules out deadlock freedom entirely.
 */
std::vector<Edge>
forcedDependencyCycle(const Digraph &g, const std::vector<Edge> &edges,
                      const std::vector<std::uint8_t> &reach)
{
    const std::size_t n = g.numNodes();
    const std::size_t m = edges.size();
    Digraph forced(m);

    for (std::size_t e = 0; e < m; ++e) {
        const auto without = reachability(g, edges, e);
        const auto &[u, v] = edges[e];
        for (GNode t = 0; t < n; ++t) {
            if (t == v)
                continue; // packet ejects at v, no continuation
            // Is e unavoidable for some (s, t)?
            bool unavoidable = false;
            for (GNode s = 0; s < n && !unavoidable; ++s)
                if (s != t && reach[s * n + t] && !without[s * n + t])
                    unavoidable = true;
            if (!unavoidable)
                continue;
            // Unique viable continuation out of v toward t?
            std::size_t viable = 0;
            std::size_t last = 0;
            for (std::size_t f = 0; f < m; ++f) {
                if (edges[f].first != v)
                    continue;
                const GNode w = edges[f].second;
                if (w == t || reach[w * n + t]) {
                    ++viable;
                    last = f;
                }
            }
            if (viable == 1)
                forced.addEdge(static_cast<GNode>(e),
                               static_cast<GNode>(last));
        }
    }

    const auto cyc = graph::findCycle(forced);
    std::vector<Edge> result;
    for (GNode e : cyc.cycle)
        result.push_back(edges[e]);
    return result;
}

} // namespace

ExistenceReport
deadlockFreeRoutingExists(const Digraph &g)
{
    ExistenceReport report;
    const std::vector<Edge> edges = edgeList(g);
    const std::size_t n = g.numNodes();
    const auto reach = reachability(g, edges);

    if (edges.empty()) {
        report.verdict = ExistenceReport::Verdict::Exists;
        report.method = "exact";
        return report;
    }

    // DAGs: order edges by topological position of their endpoints;
    // every path ascends, so all reachable pairs are covered.
    if (const auto topo_order = graph::topologicalSort(g)) {
        std::vector<std::uint32_t> rank(n);
        for (std::size_t i = 0; i < topo_order->size(); ++i)
            rank[(*topo_order)[i]] = static_cast<std::uint32_t>(i);
        std::vector<Edge> order = edges;
        std::sort(order.begin(), order.end(),
                  [&](const Edge &a, const Edge &b) {
                      if (rank[a.first] != rank[b.first])
                          return rank[a.first] < rank[b.first];
                      return rank[a.second] < rank[b.second];
                  });
        EBDA_ASSERT(orderCovers(n, order, reach),
                    "topological edge order must cover a DAG");
        report.verdict = ExistenceReport::Verdict::Exists;
        report.method = "topo-order";
        report.certificate = std::move(order);
        return report;
    }

    // Bidirected graphs always admit up/down routing.
    if (isBidirected(g)) {
        std::vector<Edge> order = upDownOrder(g, edges);
        EBDA_ASSERT(orderCovers(n, order, reach),
                    "up/down order must cover a bidirected graph");
        report.verdict = ExistenceReport::Verdict::Exists;
        report.method = "updown-order";
        report.certificate = std::move(order);
        return report;
    }

    // Tiny graphs: exhaustive order search is exact.
    constexpr std::size_t kExactEdgeLimit = 8;
    if (edges.size() <= kExactEdgeLimit) {
        std::vector<Edge> found;
        const int r = exactSearch(n, edges, reach, &found);
        if (r == 1) {
            report.verdict = ExistenceReport::Verdict::Exists;
            report.method = "exact";
            report.certificate = std::move(found);
            return report;
        }
        if (r == 0) {
            report.verdict = ExistenceReport::Verdict::NotExists;
            report.method = "exact";
            return report;
        }
    }

    // Refutation: a cycle of forced dependencies.
    std::vector<Edge> cycle = forcedDependencyCycle(g, edges, reach);
    if (!cycle.empty()) {
        report.verdict = ExistenceReport::Verdict::NotExists;
        report.method = "forced-cycle";
        report.certificate = std::move(cycle);
        return report;
    }

    // Last resort: a greedy order by SCC condensation position.
    {
        std::uint32_t num_scc = 0;
        const auto scc = graph::stronglyConnectedComponents(g, &num_scc);
        std::vector<Edge> order = edges;
        // Tarjan numbers components in reverse topological order.
        std::sort(order.begin(), order.end(),
                  [&](const Edge &a, const Edge &b) {
                      if (scc[a.first] != scc[b.first])
                          return scc[a.first] > scc[b.first];
                      if (scc[a.second] != scc[b.second])
                          return scc[a.second] > scc[b.second];
                      return a < b;
                  });
        if (orderCovers(n, order, reach)) {
            report.verdict = ExistenceReport::Verdict::Exists;
            report.method = "greedy-order";
            report.certificate = std::move(order);
            return report;
        }
    }

    report.verdict = ExistenceReport::Verdict::Undetermined;
    report.method = "inconclusive";
    return report;
}

} // namespace ebda::cdg
