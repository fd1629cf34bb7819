#include "baselines.hh"

#include <numeric>
#include <sstream>

#include "util/logging.hh"

namespace ebda::routing {

using core::Sign;

MeshRouting::MeshRouting(const topo::Network &network) : net(network)
{
    EBDA_ASSERT(!net.isTorus(),
                "mesh baseline routing does not handle wrap links");
}

void
MeshRouting::appendLink(std::vector<topo::ChannelId> &out, topo::NodeId at,
                        std::uint8_t dim, Sign sign) const
{
    const auto link = net.linkFrom(at, dim, sign);
    if (!link)
        return;
    for (int v = 0; v < net.vcsOnLink(*link); ++v)
        out.push_back(net.channel(*link, v));
}

int
MeshRouting::offset(topo::NodeId at, topo::NodeId dest, std::uint8_t d) const
{
    return net.minimalOffset(at, dest, d);
}

DimensionOrderRouting::DimensionOrderRouting(
    const topo::Network &network, std::vector<std::uint8_t> dim_order)
    : MeshRouting(network), order(std::move(dim_order))
{
    EBDA_ASSERT(order.size() == network.numDims(),
                "dimension order must mention every dimension once");
}

DimensionOrderRouting
DimensionOrderRouting::xy(const topo::Network &net)
{
    std::vector<std::uint8_t> order(net.numDims());
    std::iota(order.begin(), order.end(), 0);
    return DimensionOrderRouting(net, std::move(order));
}

DimensionOrderRouting
DimensionOrderRouting::yx(const topo::Network &net)
{
    std::vector<std::uint8_t> order(net.numDims());
    std::iota(order.rbegin(), order.rend(), 0);
    return DimensionOrderRouting(net, std::move(order));
}

void
DimensionOrderRouting::candidatesInto(topo::ChannelId /*in*/,
                                      topo::NodeId at,
                                      topo::NodeId /*src*/,
                                      topo::NodeId dest,
                                      std::vector<topo::ChannelId> &out) const
{
    out.clear();
    for (std::uint8_t d : order) {
        const int off = offset(at, dest, d);
        if (off == 0)
            continue;
        appendLink(out, at, d, off > 0 ? Sign::Pos : Sign::Neg);
        break; // strictly one dimension at a time
    }
}

std::string
DimensionOrderRouting::name() const
{
    std::ostringstream os;
    os << "DOR[";
    for (std::uint8_t d : order)
        os << core::dimLetter(d);
    os << ']';
    return os.str();
}

WestFirstRouting::WestFirstRouting(const topo::Network &network)
    : MeshRouting(network)
{
    EBDA_ASSERT(network.numDims() == 2, "West-First is a 2D turn model");
}

void
WestFirstRouting::candidatesInto(topo::ChannelId /*in*/, topo::NodeId at,
                                 topo::NodeId /*src*/, topo::NodeId dest,
                                 std::vector<topo::ChannelId> &out) const
{
    out.clear();
    const int dx = offset(at, dest, 0);
    const int dy = offset(at, dest, 1);
    if (dx < 0) {
        // All westward hops must come first and exclusively.
        appendLink(out, at, 0, Sign::Neg);
        return;
    }
    if (dx > 0)
        appendLink(out, at, 0, Sign::Pos);
    if (dy != 0)
        appendLink(out, at, 1, dy > 0 ? Sign::Pos : Sign::Neg);
}

NorthLastRouting::NorthLastRouting(const topo::Network &network)
    : MeshRouting(network)
{
    EBDA_ASSERT(network.numDims() == 2, "North-Last is a 2D turn model");
}

void
NorthLastRouting::candidatesInto(topo::ChannelId /*in*/, topo::NodeId at,
                                 topo::NodeId /*src*/, topo::NodeId dest,
                                 std::vector<topo::ChannelId> &out) const
{
    out.clear();
    const int dx = offset(at, dest, 0);
    const int dy = offset(at, dest, 1);
    if (dx != 0)
        appendLink(out, at, 0, dx > 0 ? Sign::Pos : Sign::Neg);
    if (dy < 0)
        appendLink(out, at, 1, Sign::Neg);
    if (out.empty() && dy > 0) {
        // North only when it is the sole productive direction; once a
        // packet heads north it can never leave the column again.
        appendLink(out, at, 1, Sign::Pos);
    }
}

NegativeFirstRouting::NegativeFirstRouting(const topo::Network &network)
    : MeshRouting(network)
{
    EBDA_ASSERT(network.numDims() == 2, "Negative-First here is 2D");
}

void
NegativeFirstRouting::candidatesInto(topo::ChannelId /*in*/,
                                     topo::NodeId at, topo::NodeId /*src*/,
                                     topo::NodeId dest,
                                     std::vector<topo::ChannelId> &out) const
{
    out.clear();
    const int dx = offset(at, dest, 0);
    const int dy = offset(at, dest, 1);
    // Every negative hop strictly precedes every positive hop.
    if (dx < 0)
        appendLink(out, at, 0, Sign::Neg);
    if (dy < 0)
        appendLink(out, at, 1, Sign::Neg);
    if (!out.empty())
        return;
    if (dx > 0)
        appendLink(out, at, 0, Sign::Pos);
    if (dy > 0)
        appendLink(out, at, 1, Sign::Pos);
}

OddEvenRouting::OddEvenRouting(const topo::Network &network)
    : MeshRouting(network)
{
    EBDA_ASSERT(network.numDims() == 2, "Odd-Even is a 2D turn model");
}

void
OddEvenRouting::candidatesInto(topo::ChannelId /*in*/, topo::NodeId at,
                               topo::NodeId src, topo::NodeId dest,
                               std::vector<topo::ChannelId> &out) const
{
    out.clear();
    const int dx = offset(at, dest, 0);
    const int dy = offset(at, dest, 1);
    const int cur_col = net.coordAlong(at, 0);
    const int src_col = net.coordAlong(src, 0);
    const int dst_col = net.coordAlong(dest, 0);
    const bool cur_odd = cur_col % 2 != 0;
    const bool dst_odd = dst_col % 2 != 0;

    if (dx == 0) {
        appendLink(out, at, 1, dy > 0 ? Sign::Pos : Sign::Neg);
        return;
    }
    if (dx > 0) { // eastbound
        if (dy == 0) {
            appendLink(out, at, 0, Sign::Pos);
            return;
        }
        // The EN/ES turn will happen in some column ahead; it is legal
        // only in odd columns, except that the source column may always
        // start the northward/southward leg.
        if (cur_odd || cur_col == src_col)
            appendLink(out, at, 1, dy > 0 ? Sign::Pos : Sign::Neg);
        // Going further east is only safe if the turn column remains
        // available: destination column odd, or more than one hop left.
        if (dst_odd || dx != 1)
            appendLink(out, at, 0, Sign::Pos);
        return;
    }
    // Westbound: west is always available; the NW/SW turn back into the
    // west direction is legal only in even columns, so the north/south
    // leg may only start there.
    appendLink(out, at, 0, Sign::Neg);
    if (dy != 0 && !cur_odd)
        appendLink(out, at, 1, dy > 0 ? Sign::Pos : Sign::Neg);
}

void
MinimalAdaptiveRouting::candidatesInto(
    topo::ChannelId /*in*/, topo::NodeId at, topo::NodeId /*src*/,
    topo::NodeId dest, std::vector<topo::ChannelId> &out) const
{
    out.clear();
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        const int off = net.minimalOffset(at, dest, d);
        if (off == 0)
            continue;
        const auto link =
            net.linkFrom(at, d, off > 0 ? Sign::Pos : Sign::Neg);
        if (!link)
            continue;
        for (int v = 0; v < net.vcsOnLink(*link); ++v)
            out.push_back(net.channel(*link, v));
    }
}

} // namespace ebda::routing
