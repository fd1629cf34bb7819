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
    struct Collect : StateVisitor
    {
        std::vector<std::vector<topo::ChannelId>> succ;

        void
        route(topo::ChannelId c1, const std::vector<topo::ChannelId> &next)
        {
            auto &out = succ[c1];
            for (const topo::ChannelId c2 : next)
                if (std::find(out.begin(), out.end(), c2) == out.end())
                    out.push_back(c2);
        }
    } collect;
    collect.succ.resize(net.numChannels());
    walkReachableStates(relation, collect);

    graph::Digraph g(net.numChannels());
    for (topo::ChannelId c1 = 0; c1 < net.numChannels(); ++c1)
        for (const topo::ChannelId c2 : collect.succ[c1])
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
    // adaptive router may commit to it).
    struct Check : StateVisitor
    {
        ConnectivityReport report;
        bool arrived = false;
        bool stuck = false;

        void
        pair(topo::NodeId, topo::NodeId,
             const std::vector<topo::ChannelId> &inject)
        {
            arrived = false;
            stuck = inject.empty();
        }
        void eject(topo::ChannelId) { arrived = true; }
        void
        route(topo::ChannelId, const std::vector<topo::ChannelId> &next)
        {
            if (next.empty())
                stuck = true;
        }
        void
        endPair(topo::NodeId src, topo::NodeId dest)
        {
            if (arrived && !stuck)
                return;
            report.connected = false;
            if (report.failures.size() < ConnectivityReport::kMaxFailures)
                report.failures.emplace_back(src, dest);
        }
    } check;
    walkReachableStates(relation, check);
    return check.report;
}

} // namespace ebda::cdg
