#include "dragonfly.hh"

#include <stdexcept>

#include "util/logging.hh"

namespace ebda::routing {

using topo::ChannelId;
using topo::LinkId;
using topo::NodeId;

namespace {

[[noreturn]] void
reject(const std::string &msg)
{
    throw std::invalid_argument("dragonfly routing: " + msg);
}

} // namespace

DragonflyMinRouting::DragonflyMinRouting(const topo::Network &net_, int a_,
                                         bool vc_escalation)
    : net(net_), a(a_), escalate(vc_escalation)
{
    if (a < 2)
        reject("routers per group must be >= 2 (got "
               + std::to_string(a) + ")");
    if (net.numNodes() % static_cast<std::size_t>(a) != 0)
        reject(std::to_string(net.numNodes())
               + " nodes do not divide into groups of "
               + std::to_string(a));
    groups = static_cast<int>(net.numNodes()) / a;
    if (groups < 2)
        reject("need at least 2 groups (got " + std::to_string(groups)
               + ")");

    // Discover the intra-group full meshes and check their VC budget.
    localLink.assign(net.numNodes() * static_cast<std::size_t>(a),
                     topo::kInvalidId);
    for (NodeId u = 0; u < net.numNodes(); ++u)
        for (int r = 0; r < a; ++r) {
            const NodeId v =
                static_cast<NodeId>(group(u)) * a + static_cast<NodeId>(r);
            if (v == u)
                continue;
            const auto l = net.linkBetween(u, v);
            if (!l)
                reject("group " + std::to_string(group(u))
                       + " is not a full mesh: missing local link "
                       + net.nodeName(u) + "->" + net.nodeName(v));
            if (escalate && net.vcsOnLink(*l) < 2)
                reject("local link " + net.nodeName(u) + "->"
                       + net.nodeName(v)
                       + " needs >= 2 VCs for escalation (has "
                       + std::to_string(net.vcsOnLink(*l)) + ")");
            localLink[u * static_cast<std::size_t>(a)
                      + static_cast<std::size_t>(r)] = *l;
        }

    // Discover the global links: exactly one per ordered group pair.
    groupGlobal.assign(
        static_cast<std::size_t>(groups) * static_cast<std::size_t>(groups),
        topo::kInvalidId);
    for (LinkId l = 0; l < net.numLinks(); ++l) {
        const topo::Link &lk = net.link(l);
        const int gs = group(lk.src);
        const int gd = group(lk.dst);
        if (gs == gd)
            continue;
        LinkId &slot =
            groupGlobal[static_cast<std::size_t>(gs) * groups + gd];
        if (slot != topo::kInvalidId)
            reject("more than one global link from group "
                   + std::to_string(gs) + " to group "
                   + std::to_string(gd));
        slot = l;
    }
    for (int gs = 0; gs < groups; ++gs)
        for (int gd = 0; gd < groups; ++gd) {
            if (gs == gd)
                continue;
            if (groupGlobal[static_cast<std::size_t>(gs) * groups + gd]
                == topo::kInvalidId)
                reject("no global link from group " + std::to_string(gs)
                       + " to group " + std::to_string(gd));
        }
}

void
DragonflyMinRouting::candidatesInto(ChannelId in, NodeId at, NodeId /*src*/,
                                    NodeId dest,
                                    std::vector<ChannelId> &out) const
{
    out.clear();
    const int g_at = group(at);
    const int g_dest = group(dest);

    if (g_at != g_dest) {
        // Pre-global phase: reach this group's gateway, then cross.
        const LinkId glob =
            groupGlobal[static_cast<std::size_t>(g_at) * groups + g_dest];
        const NodeId gateway = net.link(glob).src;
        if (at == gateway) {
            for (int v = 0; v < net.vcsOnLink(glob); ++v)
                out.push_back(net.channel(glob, v));
        } else {
            const LinkId l =
                localLink[at * static_cast<std::size_t>(a)
                          + static_cast<std::size_t>(gateway)
                              % static_cast<std::size_t>(a)];
            // Escape discipline: pre-global local hops stay on VC 0.
            out.push_back(net.channel(l, 0));
        }
        return;
    }

    // Destination group. The packet either never left it (injected
    // here: any VC — it ejects after this hop) or arrived over a
    // global link (VC escalation: VCs >= 1 only).
    const LinkId l = localLink[at * static_cast<std::size_t>(a)
                               + static_cast<std::size_t>(dest)
                                   % static_cast<std::size_t>(a)];
    const bool after_global = in != cdg::kInjectionChannel
        && group(net.link(net.linkOf(in)).src)
            != group(net.link(net.linkOf(in)).dst);
    // With escalation off every local hop is pinned to VC 0 (offering
    // higher VCs adaptively would act as an accidental escape path and
    // defeat the negative control).
    const int first_vc = (escalate && after_global) ? 1 : 0;
    const int last_vc = escalate ? net.vcsOnLink(l) : 1;
    for (int v = first_vc; v < last_vc; ++v)
        out.push_back(net.channel(l, v));
}

} // namespace ebda::routing
