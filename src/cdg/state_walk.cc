#include "state_walk.hh"

namespace ebda::cdg {

namespace {

using topo::ChannelId;
using topo::NodeId;

constexpr std::uint32_t kUnseen = UINT32_MAX;

/** Builds state graphs into one reused StateGraph. */
class GraphBuilder
{
  public:
    explicit GraphBuilder(const RoutingRelation &relation)
        : rel(relation), net(relation.network()),
          local(net.numChannels(), kUnseen),
          probes{0, static_cast<NodeId>(net.numNodes() / 2),
                 static_cast<NodeId>(net.numNodes() - 1)}
    {
    }

    /**
     * Build dest's graph for every source (`grouped`) or for `src`
     * alone. Returns false when a grouped graph fails the spot check.
     */
    bool
    build(StateGraph &g, NodeId dest, bool grouped, NodeId src)
    {
        g.dest = dest;
        g.sources.clear();
        g.channel.clear();
        g.ejects.clear();
        g.nextBegin.clear();
        g.next.clear();
        g.injBegin.assign(1, 0);
        g.inj.clear();
        if (grouped) {
            for (NodeId s = 0; s < net.numNodes(); ++s)
                if (s != dest)
                    g.sources.push_back(s);
        } else {
            g.sources.push_back(src);
        }

        for (const NodeId s : g.sources) {
            rel.candidatesInto(kInjectionChannel, s, s, dest, cand);
            for (const ChannelId c : cand)
                g.inj.push_back(indexOf(g, c));
            g.injBegin.push_back(static_cast<std::uint32_t>(g.inj.size()));
        }

        bool honest = true;
        // g.channel grows while it is scanned: breadth first.
        for (std::size_t i = 0; i < g.channel.size() && honest; ++i) {
            g.nextBegin.push_back(static_cast<std::uint32_t>(g.next.size()));
            const ChannelId c = g.channel[i];
            const NodeId at = net.link(net.linkOf(c)).dst;
            g.ejects.push_back(at == dest);
            if (at == dest)
                continue;
            // A grouped graph asks as RouteTable::fill() does, with the
            // current node standing in for the source.
            rel.candidatesInto(c, at, grouped ? at : src, dest, cand);
            if (grouped && (spotTick++ & 15u) == 0) {
                for (const NodeId s : probes) {
                    if (s == at)
                        continue;
                    rel.candidatesInto(c, at, s, dest, probe);
                    if (probe != cand)
                        honest = false;
                }
            }
            for (const ChannelId d : cand)
                g.next.push_back(indexOf(g, d));
        }
        g.nextBegin.push_back(static_cast<std::uint32_t>(g.next.size()));
        for (const ChannelId c : g.channel)
            local[c] = kUnseen;
        return honest;
    }

  private:
    /** c's state index in g, appending it on first discovery. */
    std::uint32_t
    indexOf(StateGraph &g, ChannelId c)
    {
        if (local[c] == kUnseen) {
            local[c] = static_cast<std::uint32_t>(g.channel.size());
            g.channel.push_back(c);
        }
        return local[c];
    }

    const RoutingRelation &rel;
    const topo::Network &net;
    /** Channel -> state index in the graph being built. */
    std::vector<std::uint32_t> local;
    std::vector<ChannelId> cand;
    std::vector<ChannelId> probe;
    std::size_t spotTick = 0;
    const NodeId probes[3];
};

} // namespace

void
walkStateGraphs(const RoutingRelation &relation,
                const std::function<void(const StateGraph &)> &visit)
{
    const topo::Network &net = relation.network();
    GraphBuilder builder(relation);
    StateGraph g;
    bool grouped = relation.srcSensitivity() == SrcSensitivity::Independent
        && relation.probeSafe();
    for (NodeId dest = 0; dest < net.numNodes(); ++dest) {
        if (grouped) {
            if (builder.build(g, dest, true, 0)) {
                visit(g);
                continue;
            }
            // The Independent declaration failed its spot check.
            grouped = false;
        }
        for (NodeId src = 0; src < net.numNodes(); ++src) {
            if (src == dest)
                continue;
            builder.build(g, dest, false, src);
            visit(g);
        }
    }
}

} // namespace ebda::cdg
