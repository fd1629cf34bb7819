/**
 * @file
 * The decomposed router model: a `Router` object per network node
 * (local input VCs, stall attribution, the node's RNG substream) over a
 * shared `Fabric` holding the flat buffer arrays.
 *
 * The buffer arrays stay flat and globally indexed — input VC `c` IS
 * concrete channel `c`, injection VCs follow — for two reasons: the
 * rotating-priority allocators arbitrate across the whole fabric (so
 * any per-router split would have to reconstruct the global order to
 * stay bit-identical with the original monolithic scan), and the flat
 * layout is what makes the hot loops cache-friendly. Routers therefore
 * hold *indices into* the fabric, not copies of it.
 *
 * The Fabric also maintains the observability state: per-channel
 * forwarded-flit loads, exact time-weighted occupancy integrals
 * (updated O(1) per flit move, so the active-set scheduler's work
 * bound is preserved), and the per-link/per-node pending-work counters
 * that drive active-set membership.
 *
 * Memory layout: every flit buffer is a fixed-capacity FlitRing view
 * into ONE contiguous arena (`flitSlab`) allocated at construction —
 * VC i owns slab slots [i*stride, (i+1)*stride) where the uniform
 * stride is max(vcDepth, packetLength) (an injection buffer holds at
 * most one whole packet). Nothing in the flit path allocates after the
 * constructor returns, and the per-cycle working set is contiguous.
 * The packet table likewise stops growing once warm: ejected and lost
 * PacketRec slots recycle through `pktFreelist`.
 */

#ifndef EBDA_SIM_ROUTER_HH
#define EBDA_SIM_ROUTER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/flit.hh"
#include "sim/simconfig.hh"
#include "util/random.hh"

namespace ebda::sim {

/** Time-weighted buffer statistics of one concrete channel. */
struct ChannelOccupancy
{
    /** Mean buffered flits over the run (exact integral / cycles). */
    double mean = 0.0;
    /** Peak buffered flits. */
    std::uint32_t peak = 0;
};

/**
 * Per-node router state: which fabric VCs terminate here, the node's
 * deterministic RNG substream, and the stall attribution counters the
 * pipeline stages charge to this router.
 */
class Router
{
  public:
    Router(topo::NodeId node, std::uint64_t seed)
        : node(node), rng(seed, node)
    {
    }

    topo::NodeId node;
    /** Fabric indices of the input VCs at this node, ascending — the
     *  ejection arbitration domain. */
    std::vector<std::size_t> localIvcs;
    /** Stall-cycles charged to this router, by pipeline stage. */
    StallCounters stalls;
    /** Per-node xoshiro substream (injection + Random selection). */
    Rng rng;
};

/**
 * Per-channel bookkeeping, packed so one flit event touches a single
 * record (32 bytes, two channels per cache line) instead of parallel
 * arrays: output-VC ownership, forwarded-flit load, and the exact
 * time-weighted occupancy integral, updated lazily at each push/pop so
 * tracking stays O(1) per flit move.
 */
struct ChannelState
{
    /** integral(c) = sum over cycles of buffered flits, flushed up to
     *  `occStamp`. */
    double occIntegral = 0.0;
    /** Cycle the integral was last flushed to. */
    std::uint64_t occStamp = 0;
    /** Flits forwarded over the channel (load distribution). */
    std::uint64_t load = 0;
    /** Peak buffered flits. */
    std::uint32_t occPeak = 0;
    /** Owning input VC (index into ivcs), kInvalidId when free. */
    std::uint32_t owner = topo::kInvalidId;
};

/**
 * The shared buffer fabric the pipeline stages operate on.
 */
struct Fabric
{
    Fabric(const topo::Network &net, const SimConfig &cfg);

    const topo::Network &net;
    const SimConfig &cfg;

    /** The flit arena: one contiguous slab backing every VC's ring
     *  buffer. Never resized after construction (the rings hold raw
     *  pointers into it). */
    std::vector<Flit> flitSlab;
    /** Slab slots per VC: max(vcDepth, packetLength). */
    std::uint32_t vcStride = 0;

    /** Input VC buffers: [0, numChannels) are channel buffers indexed
     *  by ChannelId, then injectionVcs buffers per node. */
    std::vector<InputVc> ivcs;
    /** Per-channel bookkeeping indexed by ChannelId (`chan`). One flit
     *  move reads/writes the channel's ownership, load and occupancy
     *  together, so they share one 32-byte record — one cache line
     *  covers two channels instead of five scattered arrays. */
    std::vector<ChannelState> chan;
    /** Owned output VCs per link — drives the link active set. */
    std::vector<std::uint32_t> ownedOnLink;
    /** Eject-routed local VCs per node — drives the ejection set. */
    std::vector<std::uint32_t> ejectPending;
    /** Per-node bitmask of eject-routed local VCs, bit = the VC's
     *  localPos. The ejection stage scans only these candidates
     *  instead of every VC at the node; must mirror the
     *  routed-and-eject flag pair exactly (set by VC allocation,
     *  cleared by tail ejection and by the fault purge). */
    std::vector<std::uint64_t> ejectMask;
    /** Packet table. Slots of ejected/lost packets are recycled via
     *  `pktFreelist`, so size() is the live high-water mark, not the
     *  total generated count; PacketRec::seq keeps generation order. */
    std::vector<PacketRec> packets;
    /** Recyclable packet slots (LIFO). */
    std::vector<std::uint32_t> pktFreelist;
    /** Next PacketRec::seq to assign. */
    std::uint64_t nextPacketSeq = 0;

    /** Flits currently buffered anywhere. */
    std::uint64_t flitsInFlight = 0;
    /** Flit movements over the run: every buffer push (injection or
     *  hop) plus every ejection pop — the numerator of the
     *  flit-moves/s figure bench_cycle_rate reports. */
    std::uint64_t flitMoves = 0;

    /** Index of the injection VC k of node n in `ivcs`. */
    std::size_t
    injIndex(topo::NodeId n, int k) const
    {
        return net.numChannels()
            + static_cast<std::size_t>(n)
                * static_cast<std::size_t>(cfg.injectionVcs)
            + static_cast<std::size_t>(k);
    }

    /** True when ivcs[idx] is a channel buffer (occupancy-tracked). */
    bool
    isChannelVc(std::size_t idx) const
    {
        return idx < net.numChannels();
    }

    /** Append a flit to `vc` (== ivcs[idx], hoisted by the caller),
     *  maintaining occupancy integrals. The move is charged to
     *  `moves` — the fabric-wide counter for the serial loop, a
     *  per-shard counter for the sharded one (shard workers must not
     *  contend on one shared scalar; the scheduler sums the shard
     *  counters into `flitMoves` after the run). */
    void
    pushFlit(std::size_t idx, InputVc &vc, const Flit &flit,
             std::uint64_t cycle, std::uint64_t &moves)
    {
        if (isChannelVc(idx)) {
            ChannelState &cs = chan[idx];
            cs.occIntegral += static_cast<double>(vc.buf.size())
                * static_cast<double>(cycle - cs.occStamp);
            cs.occStamp = cycle;
            const auto depth =
                static_cast<std::uint32_t>(vc.buf.size() + 1);
            if (depth > cs.occPeak)
                cs.occPeak = depth;
        }
        vc.buf.push_back(flit);
        ++moves;
    }

    /** Append a flit to ivcs[idx], maintaining occupancy integrals
     *  and charging the fabric-wide move counter. */
    void
    pushFlit(std::size_t idx, const Flit &flit, std::uint64_t cycle)
    {
        pushFlit(idx, ivcs[idx], flit, cycle, flitMoves);
    }

    /** Pop the front flit of `vc` (== ivcs[idx], hoisted by the
     *  caller), maintaining occupancy. */
    Flit
    popFlit(std::size_t idx, InputVc &vc, std::uint64_t cycle)
    {
        if (isChannelVc(idx))
            touchOccupancy(static_cast<topo::ChannelId>(idx),
                           vc.buf.size(), cycle);
        const Flit flit = vc.buf.front();
        vc.buf.pop_front();
        return flit;
    }

    /** Pop the front flit of ivcs[idx], maintaining occupancy. */
    Flit
    popFlit(std::size_t idx, std::uint64_t cycle)
    {
        return popFlit(idx, ivcs[idx], cycle);
    }

    /** Remove every flit of ivcs[idx] matching `pred`, maintaining the
     *  occupancy integral (fault-injection purge). Wrap-aware in-place
     *  compaction, order-preserving. Returns the number of flits
     *  removed; the caller adjusts flitsInFlight. */
    template <typename Pred>
    std::size_t
    eraseFlits(std::size_t idx, std::uint64_t cycle, Pred &&pred)
    {
        InputVc &vc = ivcs[idx];
        if (isChannelVc(idx))
            touchOccupancy(static_cast<topo::ChannelId>(idx),
                           vc.buf.size(), cycle);
        return vc.buf.eraseIf(pred);
    }

    /** Claim a packet slot (recycling freed slots) and stamp the
     *  generation sequence number. Returns the slot id. */
    std::uint32_t
    allocPacket(const PacketRec &rec)
    {
        std::uint32_t id;
        if (!pktFreelist.empty()) {
            id = pktFreelist.back();
            pktFreelist.pop_back();
            packets[id] = rec;
        } else {
            id = static_cast<std::uint32_t>(packets.size());
            packets.push_back(rec);
        }
        packets[id].seq = nextPacketSeq++;
        return id;
    }

    /** Release a packet slot for reuse. Only call once the packet has
     *  fully left the system (tail ejected, or declared lost with no
     *  flit, queue entry or retry entry referencing it). */
    void
    freePacket(std::uint32_t id)
    {
        pktFreelist.push_back(id);
    }

    /** Per-channel occupancy statistics with integrals flushed to
     *  `horizon` (the final cycle count of the run). */
    std::vector<ChannelOccupancy> channelOccupancy(
        std::uint64_t horizon) const;

  private:
    void
    touchOccupancy(topo::ChannelId c, std::size_t size_now,
                   std::uint64_t cycle)
    {
        ChannelState &cs = chan[c];
        cs.occIntegral += static_cast<double>(size_now)
            * static_cast<double>(cycle - cs.occStamp);
        cs.occStamp = cycle;
    }
};

} // namespace ebda::sim

#endif // EBDA_SIM_ROUTER_HH
