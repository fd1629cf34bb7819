#include "dateline.hh"

#include "util/logging.hh"

namespace ebda::routing {

using core::Sign;

TorusDatelineRouting::TorusDatelineRouting(const topo::Network &network)
    : net(network)
{
    EBDA_ASSERT(net.isTorus(), "dateline routing is for tori");
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        EBDA_ASSERT(net.vcs()[d] >= 2,
                    "dateline routing needs >= 2 VCs per dimension");
    }
}

void
TorusDatelineRouting::candidatesInto(topo::ChannelId in, topo::NodeId at,
                                     topo::NodeId /*src*/,
                                     topo::NodeId dest,
                                     std::vector<topo::ChannelId> &out) const
{
    out.clear();
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        const int off = net.minimalOffset(at, dest, d);
        if (off == 0)
            continue;
        const auto link =
            net.linkFrom(at, d, off > 0 ? Sign::Pos : Sign::Neg);
        if (!link)
            return;
        const topo::Link &lk = net.link(*link);

        // VC 1 once the dateline (wrap link) of this dimension has been
        // crossed; VC 0 before. The wrap link itself is the crossing.
        int vc = 0;
        if (lk.wrap) {
            vc = 1;
        } else if (in != cdg::kInjectionChannel) {
            const topo::Link &prev = net.link(net.linkOf(in));
            if (prev.dim == d)
                vc = net.vcOf(in); // keep post-dateline VC in-dimension
        }
        out.push_back(net.channel(*link, vc));
        break; // strict dimension order
    }
}

} // namespace ebda::routing
