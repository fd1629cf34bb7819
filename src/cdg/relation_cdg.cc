#include "relation_cdg.hh"

#include <algorithm>
#include <vector>

#include "cdg/state_walk.hh"

namespace ebda::cdg {

graph::Digraph
buildRelationCdg(const RoutingRelation &relation)
{
    const topo::Network &net = relation.network();

    // Per channel, its distinct successors in first-discovery order: a
    // dependency is found once per state that induces it, and a short
    // linear scan over the channel's few successors rejects repeats
    // without hashing every find. Only distinct edges reach the graph.
    std::vector<std::vector<topo::ChannelId>> succ(net.numChannels());
    walkStateGraphs(relation, [&](const StateGraph &g) {
        for (std::size_t i = 0; i < g.size(); ++i) {
            auto &out = succ[g.channel[i]];
            for (const std::uint32_t j : g.candidates(i)) {
                const topo::ChannelId c2 = g.channel[j];
                if (std::find(out.begin(), out.end(), c2) == out.end())
                    out.push_back(c2);
            }
        }
    });

    graph::Digraph g(net.numChannels());
    for (topo::ChannelId c1 = 0; c1 < net.numChannels(); ++c1)
        for (const topo::ChannelId c2 : succ[c1])
            g.addEdge(c1, c2);
    return g;
}

CdgReport
checkDeadlockFree(const RoutingRelation &relation)
{
    const topo::Network &net = relation.network();
    const graph::Digraph g = buildRelationCdg(relation);
    const graph::CycleReport cyc = graph::findCycle(g);

    CdgReport report;
    report.deadlockFree = cyc.acyclic;
    report.numChannels = net.numChannels();
    report.numDependencies = g.numEdges();
    for (graph::NodeId n : cyc.cycle)
        report.witness.push_back(net.channelName(n));
    return report;
}

ConnectivityReport
checkConnectivity(const RoutingRelation &relation)
{
    // The pair is routable when the destination is reachable and no
    // reachable state dead-ends (a dead-ending branch is a hazard: an
    // adaptive router may commit to it). Two backward closures over the
    // destination's graph answer both for every source.
    ConnectivityReport report;
    std::vector<std::uint32_t> predBegin;
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> pred;
    std::vector<std::uint8_t> arrives;
    std::vector<std::uint8_t> sticks;
    std::vector<std::uint32_t> queue;

    // Mark every state that can reach a seed state, seeds included.
    const auto closure = [&](const StateGraph &g,
                             std::vector<std::uint8_t> &mark,
                             const auto &seed) {
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
    };

    walkStateGraphs(relation, [&](const StateGraph &g) {
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
            if (arrived && !stuck)
                continue;
            report.connected = false;
            if (report.failures.size() < ConnectivityReport::kMaxFailures)
                report.failures.emplace_back(g.sources[k], g.dest);
        }
    });
    return report;
}

} // namespace ebda::cdg
