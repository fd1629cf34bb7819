#include "duato_check.hh"

#include <algorithm>
#include <vector>

#include "cdg/relation_cdg.hh"
#include "cdg/state_walk.hh"
#include "graph/cycles.hh"

namespace ebda::cdg {

namespace {

/** The escape subrelation: candidates filtered to escape channels. */
class EscapeSubrelation : public RoutingRelation
{
  public:
    EscapeSubrelation(const RoutingRelation &base,
                      const EscapePredicate &is_escape)
        : base(base), isEscape(is_escape)
    {
    }

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
        out.erase(std::remove_if(out.begin(), out.end(),
                                 [&](topo::ChannelId c) {
                                     return !isEscape(c);
                                 }),
                  out.end());
    }

    std::string
    name() const override
    {
        return base.name() + " [escape subrelation]";
    }

    const topo::Network &
    network() const override
    {
        return base.network();
    }

    /** Forwarded from the base relation: filtering out channels does not
     *  change which sources share candidates. */
    topo::NodeId
    srcClass(topo::NodeId src) const override
    {
        return base.srcClass(src);
    }

  private:
    const RoutingRelation &base;
    const EscapePredicate &isEscape;
};

} // namespace

DuatoReport
checkDuatoDeadlockFree(const RoutingRelation &relation,
                       const EscapePredicate &is_escape, unsigned threads)
{
    const topo::Network &net = relation.network();
    DuatoReport report;
    for (topo::ChannelId c = 0; c < net.numChannels(); ++c)
        if (is_escape(c))
            ++report.numEscapeChannels;

    // (a) + (b): the escape subrelation on its own.
    const EscapeSubrelation escape(relation, is_escape);

    // Dependencies within the escape set, reachable via *any* legal
    // path of the full relation: a blocked packet may sit on an
    // adaptive channel when it takes the escape, so escape dependencies
    // are collected from the full relation's reachable states.
    // The fold is order-free: a set of edges and one flag.
    struct EscapeFold
    {
        DependencyFold deps;
        bool alwaysAvailable = true;
    };
    graph::Digraph g(net.numChannels());
    bool always_available = true;
    foldStateGraphs<EscapeFold>(
        relation, threads,
        [&](const StateGraph &sg, EscapeFold &part) {
            part.deps.clear();
            part.alwaysAvailable = true;
            for (std::size_t k = 0; k < sg.sources.size(); ++k) {
                const auto inject = sg.injection(k);
                if (!inject.empty()
                    && std::none_of(inject.begin(), inject.end(),
                                    [&](std::uint32_t i) {
                                        return is_escape(sg.channel[i]);
                                    }))
                    part.alwaysAvailable = false;
            }
            // An ejecting state has no candidates: it adds no edge and
            // passes (c), like a dead end (connectivity flags those).
            for (std::size_t i = 0; i < sg.size(); ++i) {
                const topo::ChannelId c1 = sg.channel[i];
                const auto next = sg.candidates(i);
                bool has_escape = next.empty();
                for (const std::uint32_t j : next) {
                    const topo::ChannelId c2 = sg.channel[j];
                    if (is_escape(c2)) {
                        has_escape = true;
                        if (is_escape(c1))
                            part.deps.add(c1, c2);
                    }
                }
                if (!has_escape)
                    part.alwaysAvailable = false;
            }
        },
        [&](const EscapeFold &part) {
            for (const auto &[c1, c2] : part.deps.pairs)
                g.addEdge(c1, c2);
            always_available = always_available && part.alwaysAvailable;
        });

    report.escapeAcyclic = graph::isAcyclic(g);
    report.escapeAlwaysAvailable = always_available;
    report.escapeConnected = checkConnectivity(escape, threads).connected;
    report.ok = report.escapeAcyclic && report.escapeConnected
        && report.escapeAlwaysAvailable;
    return report;
}

} // namespace ebda::cdg
