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

  private:
    const RoutingRelation &base;
    const EscapePredicate &isEscape;
};

} // namespace

DuatoReport
checkDuatoDeadlockFree(const RoutingRelation &relation,
                       const EscapePredicate &is_escape)
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
    struct Collect : StateVisitor
    {
        const EscapePredicate &isEscape;
        graph::Digraph g;
        bool alwaysAvailable = true;

        Collect(const EscapePredicate &is_escape, std::size_t channels)
            : isEscape(is_escape), g(channels)
        {
        }

        void
        pair(topo::NodeId, topo::NodeId,
             const std::vector<topo::ChannelId> &inject)
        {
            if (!inject.empty()
                && std::none_of(inject.begin(), inject.end(),
                                [&](topo::ChannelId c) {
                                    return isEscape(c);
                                }))
                alwaysAvailable = false;
        }
        void
        route(topo::ChannelId c1, const std::vector<topo::ChannelId> &next)
        {
            bool has_escape = next.empty();
            for (const topo::ChannelId c2 : next) {
                if (isEscape(c2)) {
                    has_escape = true;
                    if (isEscape(c1))
                        g.addEdge(c1, c2);
                }
            }
            if (!has_escape)
                alwaysAvailable = false;
        }
    } collect(is_escape, net.numChannels());
    walkReachableStates(relation, collect);

    report.escapeAcyclic = graph::isAcyclic(collect.g);
    report.escapeAlwaysAvailable = collect.alwaysAvailable;
    report.escapeConnected = checkConnectivity(escape).connected;
    report.ok = report.escapeAcyclic && report.escapeConnected
        && report.escapeAlwaysAvailable;
    return report;
}

} // namespace ebda::cdg
