#include "updown.hh"

#include <deque>
#include <limits>

#include "util/logging.hh"

namespace ebda::routing {

namespace {

constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint8_t kDownReach = 1;
constexpr std::uint8_t kUpReach = 2;

} // namespace

UpDownRouting::UpDownRouting(const topo::Network &network,
                             topo::NodeId root)
    : net(network), reach(network.numNodes())
{
    // BFS levels from the root over physical links.
    level.assign(net.numNodes(), kUnseen);
    std::deque<topo::NodeId> queue;
    level[root] = 0;
    queue.push_back(root);
    while (!queue.empty()) {
        const topo::NodeId n = queue.front();
        queue.pop_front();
        for (topo::LinkId l : net.outLinks(n)) {
            const topo::NodeId m = net.link(l).dst;
            if (level[m] == kUnseen) {
                level[m] = level[n] + 1;
                queue.push_back(m);
            }
        }
    }
    for (topo::NodeId n = 0; n < net.numNodes(); ++n) {
        EBDA_ASSERT(level[n] != kUnseen,
                    "network is disconnected: node ", n,
                    " unreachable from root ", root);
    }

    // Orient links: up = toward the root (lower level, id tiebreak).
    // The (level, id) lexicographic order makes both orientations DAGs.
    upLink.assign(net.numLinks(), false);
    for (topo::LinkId l = 0; l < net.numLinks(); ++l) {
        const topo::Link &lk = net.link(l);
        upLink[l] = level[lk.dst] < level[lk.src]
            || (level[lk.dst] == level[lk.src] && lk.dst < lk.src);
    }
}

const std::vector<std::uint8_t> &
UpDownRouting::reachTable(topo::NodeId dest) const
{
    std::vector<std::uint8_t> &table = reach[dest];
    if (!table.empty())
        return table;

    table.assign(net.numNodes(), 0);
    std::deque<topo::NodeId> queue;

    // Phase 1: nodes reaching dest via down links only (reverse BFS).
    table[dest] |= kDownReach;
    queue.push_back(dest);
    while (!queue.empty()) {
        const topo::NodeId m = queue.front();
        queue.pop_front();
        for (topo::LinkId l : net.inLinks(m)) {
            const topo::NodeId n = net.link(l).src;
            if (!upLink[l] && !(table[n] & kDownReach)) {
                table[n] |= kDownReach;
                queue.push_back(n);
            }
        }
    }

    // Phase 2: nodes reaching dest via up* then down* (reverse BFS over
    // up links from every down-reaching node).
    for (topo::NodeId n = 0; n < net.numNodes(); ++n) {
        if (table[n] & kDownReach) {
            table[n] |= kUpReach;
            queue.push_back(n);
        }
    }
    while (!queue.empty()) {
        const topo::NodeId m = queue.front();
        queue.pop_front();
        for (topo::LinkId l : net.inLinks(m)) {
            const topo::NodeId n = net.link(l).src;
            if (upLink[l] && !(table[n] & kUpReach)) {
                table[n] |= kUpReach;
                queue.push_back(n);
            }
        }
    }

    return table;
}

void
UpDownRouting::candidatesInto(topo::ChannelId in, topo::NodeId at,
                              topo::NodeId /*src*/, topo::NodeId dest,
                              std::vector<topo::ChannelId> &out) const
{
    const auto &table = reachTable(dest);
    const bool down_phase =
        in != cdg::kInjectionChannel && !upLink[net.linkOf(in)];

    out.clear();
    for (topo::LinkId l : net.outLinks(at)) {
        const bool up = upLink[l];
        if (down_phase && up)
            continue; // once down, never up again
        const topo::NodeId m = net.link(l).dst;
        const std::uint8_t need = up ? kUpReach : kDownReach;
        if (!(table[m] & need))
            continue;
        for (int v = 0; v < net.vcsOnLink(l); ++v)
            out.push_back(net.channel(l, v));
    }
}

} // namespace ebda::routing
