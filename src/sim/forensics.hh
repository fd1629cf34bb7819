/**
 * @file
 * Deadlock forensics: when the progress watchdog fires, walk the frozen
 * fabric, reconstruct the wait-for graph among buffers, extract a
 * concrete cycle of channels, and cross-reference it against the Dally
 * relation-CDG — the runtime witness must be an instance of a
 * statically predicted dependency cycle.
 *
 * Wait-for model (over input VC buffers):
 *  - a routed, non-eject VC waits on its allocated output channel
 *    (buffer space there frees only when that channel's VC advances);
 *  - an unrouted VC with a head flit at its front waits on *all* of its
 *    routing candidates (an OR-wait; modelling it as AND over-
 *    approximates, but any cycle found is still a genuine hold-and-wait
 *    witness because in a frozen fabric none of the candidates ever
 *    frees);
 *  - eject-routed VCs never block permanently (the ejection port has no
 *    backpressure) and injection VCs have no in-edges, so neither can
 *    lie on a cycle.
 *
 * Protocol extension (when the request–reply layer is active): the
 * graph grows one vertex per node endpoint, after the injection VC
 * vertices. Three new edge kinds close the cross-message loop the
 * channel-only graph cannot see (Verbeek & Schmaltz wait-for-graph
 * discipline, arXiv:1110.4677):
 *  - a request head refused eject-routing at its destination waits on
 *    that *endpoint* (its reply buffer is full);
 *  - an endpoint with serviced replies pending waits on its reply-band
 *    *injection VCs* (slots free only when a reply fully injects);
 *  - an injection VC holding a blocked reply waits on the reply's
 *    routing candidates — the spawned-message edge, already covered by
 *    the baseline rules but now class-filtered to the channels the
 *    reply may legally allocate.
 * A cycle through an endpoint vertex is a *protocol* (message-
 * dependency) deadlock; the dump then also records whether the
 * channel-level Dally oracle still certifies the relation clean —
 * on a true protocol wedge it does, which is exactly the blind spot
 * (arXiv:2101.06015) this layer exists to demonstrate.
 */

#ifndef EBDA_SIM_FORENSICS_HH
#define EBDA_SIM_FORENSICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "routing/route_table.hh"
#include "sim/router.hh"

namespace ebda::sim {

/** One buffer holding a blocked packet in the frozen fabric. */
struct BlockedVc
{
    /** Channel the buffer belongs to (kInjectionChannel for injection
     *  buffers). */
    topo::ChannelId channel = 0;
    /** Router the buffer feeds. */
    topo::NodeId node = 0;
    /** Packet at the buffer front (index into the packet table). */
    std::uint32_t packet = 0;
    /** Holds an output allocation (waitingOn is then that single
     *  channel); otherwise waitingOn lists all routing candidates. */
    bool routed = false;
    std::vector<topo::ChannelId> waitingOn;
    std::uint32_t bufferedFlits = 0;
    /** Request head refused ejection by a full endpoint: the wait
     *  target is the endpoint at `node`, not a channel. */
    bool waitsOnEndpoint = false;
};

/** The forensic dump extracted from a frozen fabric. */
struct DeadlockForensics
{
    /** Cycle the watchdog fired at. */
    std::uint64_t frozenAtCycle = 0;
    /** Flits stuck in the fabric. */
    std::uint64_t frozenFlits = 0;
    /** Every buffer with a blocked packet. */
    std::vector<BlockedVc> blocked;
    /** A concrete wait-for cycle as a vertex sequence v0, ..., vk-1
     *  (each vi waits on v(i+1 mod k)); empty when no cycle was found
     *  (e.g. a route-compute livelock rather than hold-and-wait).
     *  Vertices below the network channel count are channels; in
     *  protocol runs, [numChannels, endpointVertexBase) are injection
     *  VCs and [endpointVertexBase, ...) are node endpoints. */
    std::vector<topo::ChannelId> waitCycle;
    /** True when every edge of waitCycle is an edge of the relation's
     *  Dally CDG — the static verifier predicted this cycle. */
    bool cycleInRelationCdg = false;
    /** Route-table queries the dump made (part of the run's
     *  routeComputeCalls). */
    std::uint64_t routeQueries = 0;

    /** @name Protocol (message-dependency) classification
     *  Populated only when buildForensics ran with protocol state.
     *  @{ */
    /** The request–reply layer was active for this dump. */
    bool protocolRun = false;
    /** The wait cycle passes through an endpoint or injection vertex:
     *  a cross-message deadlock, invisible to the channel CDG. */
    bool protocolDeadlock = false;
    /** Channel-level Dally oracle verdict on the routing relation,
     *  re-checked at dump time — clean on a true protocol wedge. */
    bool channelOracleClean = false;
    /** Vertex-space layout for decoding waitCycle entries. */
    std::uint32_t numChannels = 0;
    std::uint32_t endpointVertexBase = 0;
    std::uint32_t injectionVcs = 0;
    /** @} */

    /** Multi-line human-readable dump with channel names. */
    std::string describe(const topo::Network &net) const;
};

class ProtocolState;

/** Walk the frozen fabric and build the forensic dump. `route` is the
 *  simulator's route table over the effective relation: candidate
 *  queries go through it, the Dally cross-reference through
 *  route.relation(). Pass the protocol state to extend the graph with
 *  endpoint vertices and cross-message edges. */
DeadlockForensics buildForensics(const Fabric &fab,
                                 const routing::RouteTable &route,
                                 std::uint64_t cycle,
                                 const ProtocolState *proto = nullptr);

} // namespace ebda::sim

#endif // EBDA_SIM_FORENSICS_HH
