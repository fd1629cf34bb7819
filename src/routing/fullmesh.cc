#include "fullmesh.hh"

#include <stdexcept>

namespace ebda::routing {

using topo::ChannelId;
using topo::LinkId;
using topo::NodeId;

FullMeshRouting::FullMeshRouting(const topo::Network &net_, Mode mode_)
    : net(net_), mode(mode_)
{
    const std::size_t n = net.numNodes();
    if (n < 2)
        throw std::invalid_argument(
            "fullmesh routing: need >= 2 nodes (got " + std::to_string(n)
            + ")");
    directLink.assign(n * n, topo::kInvalidId);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) {
            if (u == v)
                continue;
            const auto l = net.linkBetween(u, v);
            if (!l)
                throw std::invalid_argument(
                    "fullmesh routing: network is not a complete graph; "
                    "missing link "
                    + net.nodeName(u) + "->" + net.nodeName(v));
            directLink[u * n + v] = *l;
        }
}

void
FullMeshRouting::candidatesInto(ChannelId in, NodeId at, NodeId /*src*/,
                                NodeId dest,
                                std::vector<ChannelId> &out) const
{
    out.clear();
    auto push_all = [&](LinkId l) {
        for (int v = 0; v < net.vcsOnLink(l); ++v)
            out.push_back(net.channel(l, v));
    };

    // The direct link is always legal (and the only choice once the
    // packet sits on an intermediate node).
    push_all(direct(at, dest));
    if (in != cdg::kInjectionChannel)
        return;

    if (mode == Mode::Ascend) {
        // Ascend-then-descend: intermediates above both endpoints.
        for (NodeId m = std::max(at, dest) + 1; m < net.numNodes(); ++m)
            push_all(direct(at, m));
    } else {
        for (NodeId m = 0; m < net.numNodes(); ++m)
            if (m != at && m != dest)
                push_all(direct(at, m));
    }
}

} // namespace ebda::routing
