#include "sim/vc_allocator.hh"

#include "sim/downstream.hh"
#include "sim/protocol.hh"

namespace ebda::sim {

template <class Down>
void
VcAllocator::allocate(const Down &down, ActiveSet &active,
                      std::vector<Router> &routers,
                      ActiveSet &linkActive, ActiveSet &ejectActive)
{
    const int depth = fab.cfg.vcDepth;
    const std::size_t count = fab.ivcs.size();
    vcArbOffset = (vcArbOffset + 1) % count;

    active.sweep(vcArbOffset, [&](std::size_t i) -> bool {
        InputVc &vc = fab.ivcs[i];
        if (vc.routed || vc.buf.empty())
            return false; // stale: re-scheduled on the next transition
        if (!vc.buf.front().head)
            return true; // mid-packet front; wait for the head
        const PacketRec &pkt = fab.packets[vc.buf.front().pkt];
        Router &rtr = routers[vc.atNode];

        if (vc.atNode == pkt.dest) {
            if (proto && pkt.msgClass == 0 && !proto->canAccept(vc.atNode)) {
                // Endpoint reply buffer full: the request head keeps
                // its VC and waits — this refusal is how endpoint
                // backpressure reaches the fabric.
                ++rtr.stalls.creditStarved;
                ++proto->endpointStalls;
                return true;
            }
            if (proto && pkt.msgClass == 0)
                proto->reserveDelivery(vc.atNode);
            vc.eject = true;
            vc.routed = true;
            vc.curPkt = vc.buf.front().pkt;
            fab.ejectMask[vc.atNode] |= std::uint64_t{1} << vc.localPos;
            if (fab.ejectPending[vc.atNode]++ == 0)
                ejectActive.schedule(vc.atNode);
            return false;
        }

        // Collect the free legal candidates, then apply the selection
        // policy.
        free.clear();
        bool any_candidate = false;
        ++routeCallCount;
        for (topo::ChannelId c :
             route.candidatesView(vc.self, vc.atNode, pkt.src, pkt.dest,
                                  scratch)) {
            any_candidate = true;
            if (proto && !proto->channelAllowed(c, pkt.msgClass))
                continue;
            if (fab.chan[c].owner != topo::kInvalidId)
                continue;
            // Atomic mode wants an empty downstream buffer; on a cut
            // channel that reads "all credits home" (conservative by
            // the one-cycle credit lag).
            if (fab.cfg.atomicVcAllocation && down.space(c) != depth)
                continue;
            free.push_back(c);
        }
        if (free.empty()) {
            if (any_candidate) {
                ++rtr.stalls.vcStarved;
            } else {
                ++rtr.stalls.routeCompute;
                if (collectStranded)
                    stranded.push_back(i);
            }
            return true; // keep waiting for an output VC
        }

        const topo::ChannelId best = selectOutput(
            fab.cfg.selection, free, down, vcArbOffset, rtr.rng);
        vc.out = best;
        vc.eject = false;
        vc.routed = true;
        vc.curPkt = vc.buf.front().pkt;
        fab.chan[best].owner = static_cast<std::uint32_t>(i);
        const topo::LinkId l = fab.net.linkOf(best);
        if (fab.ownedOnLink[l]++ == 0)
            linkActive.schedule(l);
        return false;
    });
}

template void VcAllocator::allocate(const LiveDownstream &, ActiveSet &,
                                    std::vector<Router> &, ActiveSet &,
                                    ActiveSet &);
template void VcAllocator::allocate(const CutDownstream &, ActiveSet &,
                                    std::vector<Router> &, ActiveSet &,
                                    ActiveSet &);

} // namespace ebda::sim
