#include "sim/forensics.hh"

#include <algorithm>
#include <sstream>

#include "cdg/relation_cdg.hh"
#include "graph/cycles.hh"
#include "sim/protocol.hh"

namespace ebda::sim {

DeadlockForensics
buildForensics(const Fabric &fab, const routing::RouteTable &route,
               std::uint64_t cycle, const ProtocolState *proto)
{
    DeadlockForensics out;
    out.frozenAtCycle = cycle;
    out.frozenFlits = fab.flitsInFlight;

    // Wait-for graph over input VC indices. Channel buffers use their
    // channel id as vertex; injection buffers follow (they can start a
    // wait chain but, without the protocol layer, nothing waits on
    // them, so they never cycle). Protocol runs append one endpoint
    // vertex per node: that is where the cross-message edges meet.
    const std::size_t endpoint_base = fab.ivcs.size();
    graph::Digraph waits(
        endpoint_base + (proto ? fab.net.numNodes() : 0));
    if (proto) {
        out.protocolRun = true;
        out.numChannels = fab.net.numChannels();
        out.endpointVertexBase =
            static_cast<std::uint32_t>(endpoint_base);
        out.injectionVcs =
            static_cast<std::uint32_t>(fab.cfg.injectionVcs);
    }
    for (std::size_t i = 0; i < fab.ivcs.size(); ++i) {
        const InputVc &vc = fab.ivcs[i];
        if (vc.buf.empty())
            continue;
        if (vc.routed && vc.eject)
            continue; // ejection has no backpressure: drains eventually

        BlockedVc rec;
        rec.channel = vc.self;
        rec.node = vc.atNode;
        rec.packet = vc.buf.front().pkt;
        rec.routed = vc.routed;
        rec.bufferedFlits = static_cast<std::uint32_t>(vc.buf.size());
        if (vc.routed) {
            rec.waitingOn.push_back(vc.out);
        } else if (vc.buf.front().head) {
            const PacketRec &pkt = fab.packets[vc.buf.front().pkt];
            if (proto && pkt.msgClass == 0 && vc.atNode == pkt.dest
                && !proto->canAccept(vc.atNode)) {
                // Request head refused ejection: it waits on the full
                // endpoint, not on any channel.
                rec.waitsOnEndpoint = true;
                waits.addEdge(static_cast<graph::NodeId>(i),
                              static_cast<graph::NodeId>(endpoint_base
                                                         + vc.atNode));
            } else {
                ++out.routeQueries;
                route.candidatesInto(vc.self, vc.atNode, pkt.src,
                                     pkt.dest, rec.waitingOn);
                // The class partition narrows the wait set to the
                // channels this message may legally allocate.
                if (proto)
                    rec.waitingOn.erase(
                        std::remove_if(
                            rec.waitingOn.begin(), rec.waitingOn.end(),
                            [&](topo::ChannelId c) {
                                return !proto->channelAllowed(
                                    c, pkt.msgClass);
                            }),
                        rec.waitingOn.end());
            }
        }
        for (topo::ChannelId w : rec.waitingOn)
            waits.addEdge(static_cast<graph::NodeId>(i), w);
        out.blocked.push_back(std::move(rec));
    }

    // Spawned-message edges: an endpoint with serviced replies pending
    // waits on its reply-band injection VCs — its slots free only once
    // a reply has fully entered one of them.
    if (proto) {
        for (topo::NodeId n = 0; n < fab.net.numNodes(); ++n) {
            if (proto->endpointsView()[n].pending.empty())
                continue;
            for (int k = proto->replyInjVcBegin();
                 k < fab.cfg.injectionVcs; ++k)
                waits.addEdge(
                    static_cast<graph::NodeId>(endpoint_base + n),
                    static_cast<graph::NodeId>(fab.injIndex(n, k)));
        }
        // reserveReplyBuffer mode adds the requester-side half of the
        // round trip: a reserved slot at node n frees only when n's
        // own outstanding exchange completes, so endpoint@n waits on
        // every buffer holding one of n's requests (outbound) or
        // replies to n (inbound), and on the server endpoint whose
        // pending queue holds the not-yet-injected reply. Edges from
        // endpoints that are not actually full are harmless: nothing
        // points *into* an endpoint unless it refused an ejection.
        if (proto->reservationMode()) {
            const auto owner_edge = [&](std::uint32_t pid,
                                        std::size_t vertex) {
                const PacketRec &pkt = fab.packets[pid];
                const topo::NodeId owner =
                    pkt.msgClass == 0 ? pkt.src : pkt.dest;
                waits.addEdge(
                    static_cast<graph::NodeId>(endpoint_base + owner),
                    static_cast<graph::NodeId>(vertex));
            };
            for (std::size_t i = 0; i < fab.ivcs.size(); ++i) {
                const InputVc &vc = fab.ivcs[i];
                std::uint32_t last = topo::kInvalidId;
                for (std::size_t k = 0; k < vc.buf.size(); ++k) {
                    if (vc.buf[k].pkt == last)
                        continue; // one edge per packet per buffer
                    last = vc.buf[k].pkt;
                    owner_edge(last, i);
                }
            }
            for (topo::NodeId n = 0; n < fab.net.numNodes(); ++n) {
                const auto &pending = proto->endpointsView()[n].pending;
                for (std::size_t k = 0; k < pending.size(); ++k)
                    waits.addEdge(
                        static_cast<graph::NodeId>(endpoint_base
                                                   + pending[k].dest),
                        static_cast<graph::NodeId>(endpoint_base + n));
            }
        }
        // The verifier-blind-spot cross-check: on a genuine protocol
        // wedge the channel-level Dally oracle still certifies the
        // relation clean. The forensics run inside a simulation, which
        // may be one of a sweep's workers, so the checkers take one
        // thread.
        out.channelOracleClean =
            cdg::checkDeadlockFree(route.relation(), 1).deadlockFree;
    }

    const graph::CycleReport cyc = graph::findCycle(waits);
    if (cyc.acyclic)
        return out;
    out.waitCycle.assign(cyc.cycle.begin(), cyc.cycle.end());
    if (proto)
        out.protocolDeadlock = std::any_of(
            out.waitCycle.begin(), out.waitCycle.end(),
            [&](topo::ChannelId v) {
                return v >= fab.net.numChannels();
            });

    // Cross-reference: every wait edge between channels must be a
    // dependency the static Dally verifier already knows about.
    const graph::Digraph cdgGraph =
        cdg::buildRelationCdg(route.relation(), 1);
    out.cycleInRelationCdg = true;
    for (std::size_t k = 0; k < out.waitCycle.size(); ++k) {
        const topo::ChannelId from = out.waitCycle[k];
        const topo::ChannelId to =
            out.waitCycle[(k + 1) % out.waitCycle.size()];
        if (from >= fab.net.numChannels() || to >= fab.net.numChannels()
            || !cdgGraph.hasEdge(from, to)) {
            out.cycleInRelationCdg = false;
            break;
        }
    }
    return out;
}

std::string
DeadlockForensics::describe(const topo::Network &net) const
{
    // Vertex naming: channels by their network name; in protocol runs
    // the appended injection and endpoint vertices get synthetic names.
    // Channel-only dumps render byte-identically to the pre-protocol
    // format (tests/test_golden_sim.cc pins them).
    const auto vname = [&](topo::ChannelId v) -> std::string {
        if (!protocolRun || v < numChannels)
            return net.channelName(v);
        if (v < endpointVertexBase) {
            const std::uint32_t rel = v - numChannels;
            return "injection@node" + std::to_string(rel / injectionVcs)
                + ".vc" + std::to_string(rel % injectionVcs);
        }
        return "endpoint@node"
            + std::to_string(v - endpointVertexBase);
    };
    std::ostringstream os;
    os << "deadlock forensics: frozen at cycle " << frozenAtCycle
       << ", " << frozenFlits << " flits stuck, " << blocked.size()
       << " blocked buffers\n";
    for (const BlockedVc &b : blocked) {
        os << "  ";
        if (b.channel == cdg::kInjectionChannel)
            os << "injection@node" << b.node;
        else
            os << net.channelName(b.channel);
        os << ": pkt " << b.packet << ", " << b.bufferedFlits
           << " flits, ";
        if (b.waitsOnEndpoint) {
            os << "unrouted, waits on full [endpoint@node" << b.node
               << "]";
        } else {
            os << (b.routed ? "holds output, waits on"
                            : "unrouted, candidates:");
            for (topo::ChannelId w : b.waitingOn)
                os << " [" << net.channelName(w) << "]";
        }
        os << "\n";
    }
    if (waitCycle.empty()) {
        os << "  no wait-for cycle found (livelock or starvation, not "
              "hold-and-wait)\n";
    } else {
        os << "  wait-for cycle (" << waitCycle.size()
           << (protocolRun ? " vertices):\n" : " channels):\n");
        for (topo::ChannelId c : waitCycle)
            os << "    " << vname(c) << "\n";
        if (protocolDeadlock) {
            // The cycle crosses endpoint/injection vertices, which the
            // channel CDG cannot represent — its absence there is the
            // point, not a verifier gap.
            os << "  every edge in static relation CDG: n/a (cycle "
                  "crosses message-dependency edges)\n";
        } else {
            os << "  every edge in static relation CDG: "
               << (cycleInRelationCdg ? "yes" : "NO (verifier gap!)")
               << "\n";
        }
    }
    if (protocolRun) {
        os << "  classification: "
           << (protocolDeadlock
                   ? "protocol (message-dependency) deadlock"
                   : "channel deadlock")
           << "\n";
        os << "  channel-level Dally oracle on the relation: "
           << (channelOracleClean ? "clean" : "cyclic") << "\n";
    }
    return os.str();
}

} // namespace ebda::sim
