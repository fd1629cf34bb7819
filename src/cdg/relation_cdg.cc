#include "relation_cdg.hh"

#include <algorithm>
#include <vector>

#include "cdg/state_walk.hh"

namespace ebda::cdg {

graph::Digraph
buildRelationCdg(const RoutingRelation &relation, unsigned threads)
{
    const topo::Network &net = relation.network();

    // Per channel, its distinct successors in first-discovery order: a
    // dependency is found once per state that induces it. Each
    // destination's new pairs are found on its own thread; appending
    // them in destination order keeps the serial walk's order. Only
    // distinct edges reach the graph.
    std::vector<std::vector<topo::ChannelId>> succ(net.numChannels());
    foldStateGraphs<DependencyFold>(
        relation, threads,
        [&](const StateGraph &g, DependencyFold &part) {
            part.clear();
            for (std::size_t i = 0; i < g.size(); ++i)
                for (const std::uint32_t j : g.candidates(i))
                    part.add(g.channel[i], g.channel[j]);
        },
        [&](const DependencyFold &part) {
            for (const auto &[c1, c2] : part.pairs) {
                auto &out = succ[c1];
                if (std::find(out.begin(), out.end(), c2) == out.end())
                    out.push_back(c2);
            }
        });

    graph::Digraph g(net.numChannels());
    for (topo::ChannelId c1 = 0; c1 < net.numChannels(); ++c1)
        for (const topo::ChannelId c2 : succ[c1])
            g.addEdge(c1, c2);
    return g;
}

CdgReport
checkDeadlockFree(const RoutingRelation &relation, unsigned threads)
{
    const topo::Network &net = relation.network();
    const graph::Digraph g = buildRelationCdg(relation, threads);
    const graph::CycleReport cyc = graph::findCycle(g);

    CdgReport report;
    report.deadlockFree = cyc.acyclic;
    report.numChannels = net.numChannels();
    report.numDependencies = g.numEdges();
    for (graph::NodeId n : cyc.cycle)
        report.witness.push_back(net.channelName(n));
    return report;
}

namespace {

/** One destination's connectivity verdicts, with the scratch of its
 *  fold. */
struct ConnectivityFold
{
    topo::NodeId dest = 0;
    /** The sources that cannot reach dest, ascending. */
    std::vector<topo::NodeId> failed;

    std::vector<std::uint32_t> predBegin;
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> pred;
    std::vector<std::uint8_t> arrives;
    std::vector<std::uint8_t> sticks;
    std::vector<std::uint32_t> queue;

    /** Mark every state of g that can reach a seed state, seeds
     *  included. */
    template <typename Seed>
    void
    closure(const StateGraph &g, std::vector<std::uint8_t> &mark,
            const Seed &seed)
    {
        mark.assign(g.size(), 0);
        queue.clear();
        for (std::uint32_t i = 0; i < g.size(); ++i)
            if (seed(i)) {
                mark[i] = 1;
                queue.push_back(i);
            }
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const std::uint32_t j = queue[head];
            for (std::uint32_t k = predBegin[j]; k < predBegin[j + 1]; ++k)
                if (!mark[pred[k]]) {
                    mark[pred[k]] = 1;
                    queue.push_back(pred[k]);
                }
        }
    }

    void
    fold(const StateGraph &g)
    {
        dest = g.dest;
        failed.clear();
        // Predecessor CSR: the candidate edges reversed.
        predBegin.assign(g.size() + 1, 0);
        for (const std::uint32_t j : g.next)
            ++predBegin[j + 1];
        for (std::size_t i = 0; i < g.size(); ++i)
            predBegin[i + 1] += predBegin[i];
        cursor.assign(predBegin.begin(), predBegin.end() - 1);
        pred.resize(g.next.size());
        for (std::uint32_t i = 0; i < g.size(); ++i)
            for (const std::uint32_t j : g.candidates(i))
                pred[cursor[j]++] = i;

        closure(g, arrives, [&](std::uint32_t i) { return g.ejects[i]; });
        closure(g, sticks, [&](std::uint32_t i) {
            return !g.ejects[i] && g.candidates(i).empty();
        });
        for (std::size_t k = 0; k < g.sources.size(); ++k) {
            const auto inject = g.injection(k);
            bool arrived = false;
            bool stuck = inject.empty();
            for (const std::uint32_t i : inject) {
                arrived = arrived || arrives[i];
                stuck = stuck || sticks[i];
            }
            if (!arrived || stuck)
                failed.push_back(g.sources[k]);
        }
    }
};

} // namespace

ConnectivityReport
checkConnectivity(const RoutingRelation &relation, unsigned threads)
{
    // The pair is routable when the destination is reachable and no
    // reachable state dead-ends (a dead-ending branch is a hazard: an
    // adaptive router may commit to it). Two backward closures over the
    // destination's graph answer both for every source.
    ConnectivityReport report;
    foldStateGraphs<ConnectivityFold>(
        relation, threads,
        [](const StateGraph &g, ConnectivityFold &part) { part.fold(g); },
        [&](const ConnectivityFold &part) {
            for (const topo::NodeId src : part.failed) {
                report.connected = false;
                if (report.failures.size() < ConnectivityReport::kMaxFailures)
                    report.failures.emplace_back(src, part.dest);
            }
        });
    return report;
}

} // namespace ebda::cdg
