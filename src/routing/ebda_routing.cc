#include "ebda_routing.hh"

#include <deque>
#include <limits>

#include "util/logging.hh"

namespace ebda::routing {

using core::Sign;

namespace {

constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/** fn(c) for every channel leaving node n, in Network::outChannels()
 *  order, without materialising the list. */
template <typename Fn>
void
forEachOutChannel(const topo::Network &net, topo::NodeId n, Fn &&fn)
{
    for (topo::LinkId l : net.outLinks(n))
        for (int v = 0; v < net.vcsOnLink(l); ++v)
            fn(net.channel(l, v));
}

} // namespace

EbDaRouting::EbDaRouting(const topo::Network &network,
                         const core::PartitionScheme &sch,
                         const core::TurnExtractionOptions &opts, Mode m)
    : net(network), scheme(sch),
      turns(core::TurnSet::extract(sch, opts)), map(network, sch), mode(m),
      survivors(network.numNodes()), distances(network.numNodes())
{
    const std::size_t nc = map.numClasses();
    maskWords = (nc + 63) / 64;
    allowedNext.assign(nc * maskWords, 0);
    for (std::size_t k1 = 0; k1 < nc; ++k1)
        for (std::size_t k2 = 0; k2 < nc; ++k2)
            if (turns.allows(map.classAt(static_cast<cdg::ClassIndex>(k1)),
                             map.classAt(static_cast<cdg::ClassIndex>(k2))))
                allowedNext[k1 * maskWords + k2 / 64] |= 1ULL << (k2 % 64);
}

std::string
EbDaRouting::name() const
{
    return "EbDa[" + scheme.toString() + "]";
}

bool
EbDaRouting::legal(topo::ChannelId in, topo::ChannelId ch) const
{
    const cdg::ClassIndex k2 = map.classOf(ch);
    if (k2 == cdg::kUnclassified)
        return false;
    if (in == cdg::kInjectionChannel)
        return true;
    const cdg::ClassIndex k1 = map.classOf(in);
    EBDA_ASSERT(k1 != cdg::kUnclassified,
                "packet occupies unclassified channel ",
                net.channelName(in));
    const auto row = static_cast<std::size_t>(k1) * maskWords;
    const auto col = static_cast<std::size_t>(k2);
    return (allowedNext[row + col / 64] >> (col % 64)) & 1;
}

template <typename Fn>
bool
EbDaRouting::anyRawMinimal(topo::ChannelId in, topo::NodeId at,
                           topo::NodeId dest, Fn &&fn) const
{
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        const int off = net.minimalOffset(at, dest, d);
        if (off == 0)
            continue;
        const auto link =
            net.linkFrom(at, d, off > 0 ? Sign::Pos : Sign::Neg);
        if (!link)
            continue;
        for (int v = 0; v < net.vcsOnLink(*link); ++v) {
            const topo::ChannelId ch = net.channel(*link, v);
            if (legal(in, ch) && fn(ch))
                return true;
        }
    }
    return false;
}

bool
EbDaRouting::survives(topo::ChannelId c, topo::NodeId dest) const
{
    auto &table = survivors[dest];
    if (table.empty())
        table.assign(net.numChannels(), 0);
    if (table[c])
        return table[c] == 1;

    const topo::NodeId head = net.link(net.linkOf(c)).dst;
    // Minimal moves strictly decrease the head-to-dest distance, so the
    // recursion is well-founded.
    const bool ok = head == dest
        || anyRawMinimal(c, head, dest, [&](topo::ChannelId next) {
               return survives(next, dest);
           });
    table[c] = ok ? 1 : 2;
    return ok;
}

void
EbDaRouting::minimalCandidates(topo::ChannelId in, topo::NodeId at,
                               topo::NodeId dest,
                               std::vector<topo::ChannelId> &out) const
{
    out.clear();
    anyRawMinimal(in, at, dest, [&](topo::ChannelId c) {
        if (survives(c, dest))
            out.push_back(c);
        return false;
    });
}

const std::vector<std::uint32_t> &
EbDaRouting::distTable(topo::NodeId dest) const
{
    std::vector<std::uint32_t> &dist = distances[dest];
    if (!dist.empty())
        return dist;

    // Backward BFS in the channel state graph: channels whose head is
    // dest are one hop from ejection; predecessors of channel c2 are the
    // in-channels of c2's tail with a legal transition to c2.
    dist.assign(net.numChannels(), kUnreachable);
    std::deque<topo::ChannelId> queue;
    for (topo::ChannelId c = 0; c < net.numChannels(); ++c) {
        if (map.classOf(c) == cdg::kUnclassified)
            continue;
        if (net.link(net.linkOf(c)).dst == dest) {
            dist[c] = 1;
            queue.push_back(c);
        }
    }
    while (!queue.empty()) {
        const topo::ChannelId c2 = queue.front();
        queue.pop_front();
        const topo::NodeId tail = net.link(net.linkOf(c2)).src;
        for (topo::LinkId l : net.inLinks(tail)) {
            for (int v = 0; v < net.vcsOnLink(l); ++v) {
                const topo::ChannelId c1 = net.channel(l, v);
                if (dist[c1] != kUnreachable)
                    continue;
                if (map.classOf(c1) == cdg::kUnclassified)
                    continue;
                // A packet on c1 must not be at its destination already;
                // it is, by construction, since head(c1)=tail != dest
                // unless tail == dest, in which case c1 ejects instead.
                if (tail == dest)
                    continue;
                if (legal(c1, c2)) {
                    dist[c1] = dist[c2] + 1;
                    queue.push_back(c1);
                }
            }
        }
    }
    return dist;
}

std::uint32_t
EbDaRouting::stateDistance(topo::ChannelId c, topo::NodeId dest) const
{
    return distTable(dest)[c];
}

void
EbDaRouting::shortestStateCandidates(topo::ChannelId in, topo::NodeId at,
                                     topo::NodeId dest,
                                     std::vector<topo::ChannelId> &out) const
{
    const auto &dist = distTable(dest);
    out.clear();

    if (in == cdg::kInjectionChannel) {
        // All first channels at the global minimum distance.
        std::uint32_t best = kUnreachable;
        forEachOutChannel(net, at, [&](topo::ChannelId c) {
            if (map.classOf(c) != cdg::kUnclassified)
                best = std::min(best, dist[c]);
        });
        if (best == kUnreachable)
            return;
        forEachOutChannel(net, at, [&](topo::ChannelId c) {
            if (map.classOf(c) != cdg::kUnclassified && dist[c] == best)
                out.push_back(c);
        });
        return;
    }

    const std::uint32_t here = dist[in];
    if (here == kUnreachable || here == 1)
        return; // unreachable, or next step is ejection
    forEachOutChannel(net, at, [&](topo::ChannelId c) {
        if (dist[c] == here - 1 && legal(in, c))
            out.push_back(c);
    });
}

void
EbDaRouting::candidatesInto(topo::ChannelId in, topo::NodeId at,
                            topo::NodeId /*src*/, topo::NodeId dest,
                            std::vector<topo::ChannelId> &out) const
{
    if (mode == Mode::Minimal)
        minimalCandidates(in, at, dest, out);
    else
        shortestStateCandidates(in, at, dest, out);
}

} // namespace ebda::routing
