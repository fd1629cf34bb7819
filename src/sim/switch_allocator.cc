#include "sim/switch_allocator.hh"

#include "sim/downstream.hh"
#include "sim/protocol.hh"

namespace ebda::sim {

template <class Down>
bool
SwitchAllocator::traverse(Down &down, std::uint64_t cycle,
                          ActiveSet &linkActive, ActiveSet &allocActive,
                          std::vector<Router> &routers)
{
    bool moved = false;
    ++swArbOffset;

    // Hoisted loop invariants: the sweep visits every active link
    // every cycle, so per-flit work must not re-derive them.
    const SwitchingMode switching = fab.cfg.switching;
    const int packet_length = fab.cfg.packetLength;
    const std::uint64_t pipe_extra =
        static_cast<std::uint64_t>(fab.cfg.routerLatency - 1);
    // Rotated starting positions for every VC/ejection arity in the
    // fabric. The offset advances by exactly one per traverse, so
    // rotStart[n] == swArbOffset % n is maintained incrementally —
    // no division per link or node visit, none per cycle either.
    for (std::size_t n = 1; n < rotStart.size(); ++n) {
        if (++rotStart[n] >= n)
            rotStart[n] = 0;
    }

    linkActive.sweep(
        swArbOffset % fab.net.numLinks(), [&](std::size_t li) -> bool {
            const topo::LinkId l = static_cast<topo::LinkId>(li);
            // Channel base + VC arity in one 8-byte probe record.
            const LinkProbe lp = linkInfo[li];
            const int nvc = static_cast<int>(lp.nvc);
            const topo::ChannelId base = lp.base;
            // Rotated VC order: v walks v0, v0+1, ..., wrapping by
            // conditional subtract instead of a modulo per probe.
            int v = static_cast<int>(rotStart[lp.nvc]);
            for (int vi = 0; vi < nvc; ++vi, ++v) {
                if (v >= nvc)
                    v -= nvc;
                const topo::ChannelId out =
                    base + static_cast<topo::ChannelId>(v);
                ChannelState &cs = fab.chan[out];
                const std::uint32_t holder = cs.owner;
                if (holder == topo::kInvalidId)
                    continue;
                InputVc &vc = fab.ivcs[holder];
                if (vc.buf.empty() || vc.buf.front().arrival >= cycle)
                    continue; // nothing movable yet: not a stall
                const int space = down.space(out);
                if (space <= 0) {
                    ++routers[vc.atNode].stalls.creditStarved;
                    continue;
                }
                if (vc.buf.front().head
                    && !headMayAdvance(switching, packet_length, vc,
                                       space)) {
                    ++routers[vc.atNode].stalls.creditStarved;
                    continue;
                }
                if (portUsedStamp[portOf(vc)] == cycle) {
                    ++routers[vc.atNode].stalls.switchLost;
                    continue;
                }

                Flit flit = fab.popFlit(holder, vc, cycle);
                down.released(holder, cycle);
                portUsedStamp[portOf(vc)] = cycle;
                // The flit becomes movable routerLatency cycles after
                // the hop (pipeline depth).
                flit.arrival = cycle + pipe_extra;
                down.deliver(out, flit, cycle, allocActive);
                ++cs.load;
                if (flit.head)
                    ++fab.packets[flit.pkt].hops;
                if (flit.tail) {
                    cs.owner = topo::kInvalidId;
                    --fab.ownedOnLink[l];
                    vc.routed = false;
                    vc.out = topo::kInvalidId;
                    vc.curPkt = topo::kInvalidId;
                    // The next packet's head (if any) needs an output.
                    if (!vc.buf.empty())
                        allocActive.schedule(holder);
                }
                moved = true;
                break; // one flit per output link per cycle
            }
            return fab.ownedOnLink[l] > 0;
        });
    return moved;
}

template <class Down>
bool
SwitchAllocator::eject(Down &down, std::uint64_t cycle,
                       ActiveSet &ejectActive, ActiveSet &allocActive,
                       std::vector<Router> &routers, PipelineStats &stats,
                       bool measuring)
{
    bool moved = false;

    ejectActive.sweep(0, [&](std::size_t ni) -> bool {
        const topo::NodeId n = static_cast<topo::NodeId>(ni);
        const auto &locals = routers[n].localIvcs;
        const std::size_t nloc = locals.size();
        // Rotated candidate order over the eject-routed VCs only: the
        // per-node mask replaces a scan of every local VC (most are
        // not eject-routed, and skipping one is side-effect free).
        // Splitting the mask at the rotated start position and
        // scanning each half ascending reproduces the original
        // p0, p0+1, ..., nloc-1, 0, ..., p0-1 visiting order exactly.
        const std::size_t p0 = rotStart[nloc];
        const std::uint64_t mask = fab.ejectMask[n];
        const std::uint64_t low = (std::uint64_t{1} << p0) - 1;
        std::uint64_t ranges[2] = {mask & ~low, mask & low};
        bool granted = false;
        for (std::uint64_t m : ranges) {
            while (m && !granted) {
                const auto p = static_cast<std::size_t>(
                    std::countr_zero(m));
                m &= m - 1;
                const std::size_t idx = locals[p];
                InputVc &vc = fab.ivcs[idx];
                if (vc.buf.empty() || vc.buf.front().arrival >= cycle)
                    continue;
                if (portUsedStamp[portOf(vc)] == cycle) {
                    ++routers[vc.atNode].stalls.switchLost;
                    continue;
                }
                const Flit flit = fab.popFlit(idx, vc, cycle);
                down.released(idx, cycle);
                portUsedStamp[portOf(vc)] = cycle;
                --down.flitsInFlight();
                ++down.flitMoves();
                moved = true;
                if (flit.tail) {
                    vc.routed = false;
                    vc.eject = false;
                    vc.curPkt = topo::kInvalidId;
                    --fab.ejectPending[n];
                    fab.ejectMask[n] &=
                        ~(std::uint64_t{1} << vc.localPos);
                    if (!vc.buf.empty())
                        allocActive.schedule(idx);
                    PacketRec &pkt = fab.packets[flit.pkt];
                    ++stats.packetsEjected;
                    if (measuring)
                        ++stats.measuredEjectedFlits;
                    if (pkt.measured) {
                        const auto latency = cycle - pkt.genCycle;
                        stats.latencyHist.add(latency);
                        stats.latencyStat.add(
                            static_cast<double>(latency));
                        stats.hopsStat.add(
                            static_cast<double>(pkt.hops));
                        --stats.measuredInFlight;
                    }
                    if (proto) {
                        if (pkt.msgClass == 0)
                            proto->onRequestDelivered(n, pkt, cycle);
                        else
                            proto->onReplyDelivered(n);
                    }
                    // Tail gone, stats recorded: the slot can host
                    // the next generated packet.
                    down.freePacket(flit.pkt);
                } else if (measuring) {
                    ++stats.measuredEjectedFlits;
                }
                granted = true; // one ejected flit per node per cycle
            }
            if (granted)
                break;
        }
        return fab.ejectPending[n] > 0;
    });
    return moved;
}

template bool SwitchAllocator::traverse(LiveDownstream &, std::uint64_t,
                                        ActiveSet &, ActiveSet &,
                                        std::vector<Router> &);
template bool SwitchAllocator::traverse(CutDownstream &, std::uint64_t,
                                        ActiveSet &, ActiveSet &,
                                        std::vector<Router> &);
template bool SwitchAllocator::eject(LiveDownstream &, std::uint64_t,
                                     ActiveSet &, ActiveSet &,
                                     std::vector<Router> &,
                                     PipelineStats &, bool);
template bool SwitchAllocator::eject(CutDownstream &, std::uint64_t,
                                     ActiveSet &, ActiveSet &,
                                     std::vector<Router> &,
                                     PipelineStats &, bool);

} // namespace ebda::sim
