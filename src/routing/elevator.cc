#include "elevator.hh"

#include <cmath>

#include "util/logging.hh"

namespace ebda::routing {

using core::Sign;

ElevatorFirstRouting::ElevatorFirstRouting(
    const topo::Network &network,
    std::vector<std::pair<int, int>> elevator_columns)
    : net(network), elevators(std::move(elevator_columns))
{
    EBDA_ASSERT(net.numDims() == 3, "Elevator-First routes 3D networks");
    EBDA_ASSERT(!elevators.empty(), "need at least one elevator column");
    EBDA_ASSERT(net.vcs()[0] >= 2 && net.vcs()[1] >= 2,
                "Elevator-First needs 2 VCs along X and Y");
}

std::pair<int, int>
ElevatorFirstRouting::elevatorFor(topo::NodeId src) const
{
    const int sx = net.coordAlong(src, 0);
    const int sy = net.coordAlong(src, 1);
    std::pair<int, int> best = elevators.front();
    int best_dist = std::abs(best.first - sx) + std::abs(best.second - sy);
    for (const auto &e : elevators) {
        const int d = std::abs(e.first - sx) + std::abs(e.second - sy);
        if (d < best_dist) {
            best = e;
            best_dist = d;
        }
    }
    return best;
}

void
ElevatorFirstRouting::xyHop(topo::NodeId at, int x, int y, int vc,
                            std::vector<topo::ChannelId> &out) const
{
    out.clear();
    const int dx = x - net.coordAlong(at, 0);
    const int dy = y - net.coordAlong(at, 1);
    std::uint8_t dim = 0;
    Sign sign = Sign::Pos;
    if (dx != 0) {
        dim = 0;
        sign = dx > 0 ? Sign::Pos : Sign::Neg;
    } else if (dy != 0) {
        dim = 1;
        sign = dy > 0 ? Sign::Pos : Sign::Neg;
    } else {
        return;
    }
    const auto link = net.linkFrom(at, dim, sign);
    EBDA_ASSERT(link.has_value(), "mesh link missing during XY leg");
    out.push_back(net.channel(*link, vc));
}

void
ElevatorFirstRouting::candidatesInto(topo::ChannelId in, topo::NodeId at,
                                     topo::NodeId src, topo::NodeId dest,
                                     std::vector<topo::ChannelId> &out) const
{
    const int dz = net.coordAlong(dest, 2) - net.coordAlong(at, 2);

    // Same-layer delivery never uses the vertical phase: pure XY, VC 0.
    if (net.coordAlong(src, 2) == net.coordAlong(dest, 2)) {
        xyHop(at, net.coordAlong(dest, 0), net.coordAlong(dest, 1), 0,
              out);
        return;
    }

    // Phase is recoverable from the current channel: XY VC 1 and
    // downstream of a Z link mean the vertical leg is done.
    const bool post_vertical = in != cdg::kInjectionChannel
        && (net.link(net.linkOf(in)).dim == 2 ? dz == 0
                                              : net.vcOf(in) == 1);

    if (!post_vertical) {
        const auto [ex, ey] = elevatorFor(src);
        if (net.coordAlong(at, 0) != ex || net.coordAlong(at, 1) != ey) {
            xyHop(at, ex, ey, 0, out); // ride to the elevator on VC 0
            return;
        }
        // At the elevator column: ride vertically.
        EBDA_ASSERT(dz != 0, "vertical phase entered with no Z offset");
        const auto link =
            net.linkFrom(at, 2, dz > 0 ? Sign::Pos : Sign::Neg);
        EBDA_ASSERT(link.has_value(),
                    "elevator column lacks a vertical link at node ", at);
        out.assign(1, net.channel(*link, 0));
        return;
    }

    if (dz != 0) {
        // Still riding the elevator.
        const auto link =
            net.linkFrom(at, 2, dz > 0 ? Sign::Pos : Sign::Neg);
        EBDA_ASSERT(link.has_value(), "vertical link chain interrupted");
        out.assign(1, net.channel(*link, 0));
        return;
    }

    // Destination layer: XY on VC 1.
    xyHop(at, net.coordAlong(dest, 0), net.coordAlong(dest, 1), 1, out);
}

} // namespace ebda::routing
