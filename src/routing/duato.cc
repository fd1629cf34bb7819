#include "duato.hh"

#include "util/logging.hh"

namespace ebda::routing {

using core::Sign;

DuatoFullyAdaptive::DuatoFullyAdaptive(const topo::Network &network)
    : net(network)
{
    EBDA_ASSERT(!net.isTorus(),
                "Duato escape here is mesh dimension-order");
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        EBDA_ASSERT(net.vcs()[d] >= 2, "Duato routing needs >= 2 VCs per "
                    "dimension; dim ", d, " has ", net.vcs()[d]);
    }
}

bool
DuatoFullyAdaptive::isEscape(topo::ChannelId c) const
{
    const topo::LinkId l = net.linkOf(c);
    return net.vcOf(c) == net.vcsOnLink(l) - 1;
}

void
DuatoFullyAdaptive::candidatesInto(topo::ChannelId /*in*/, topo::NodeId at,
                                   topo::NodeId /*src*/, topo::NodeId dest,
                                   std::vector<topo::ChannelId> &out) const
{
    out.clear();
    bool escape_added = false;
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        const int off = net.minimalOffset(at, dest, d);
        if (off == 0)
            continue;
        const auto link =
            net.linkFrom(at, d, off > 0 ? Sign::Pos : Sign::Neg);
        if (!link)
            continue;
        const int nvc = net.vcsOnLink(*link);
        // Adaptive VCs of every productive link.
        for (int v = 0; v + 1 < nvc; ++v)
            out.push_back(net.channel(*link, v));
        // Escape VC only along the dimension-order direction (the
        // lowest unresolved dimension).
        if (!escape_added) {
            out.push_back(net.channel(*link, nvc - 1));
            escape_added = true;
        }
    }
}

} // namespace ebda::routing
