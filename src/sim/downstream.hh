/**
 * @file
 * Downstream policies: how the pipeline stage kernels see and reach
 * the buffers their flits move into.
 *
 * Every stage kernel (VcAllocator::allocate, SwitchAllocator::traverse
 * and eject, Simulator::fillInjectionVcs and the per-node generation
 * body) is a template over one of these policies. The kernels never
 * ask which loop runs them; everything that differs lives here:
 *
 *  - `space(c)`: free slots of channel c's downstream buffer, as the
 *    caller may observe them. VC selection (MaxCredits), the atomic
 *    allocation rule (`space(c) == vcDepth`) and the switch stage's
 *    credit check all read it.
 *  - `deliver(out, flit, cycle, allocActive)`: hand a flit that crossed
 *    a link to its downstream buffer, scheduling the buffer for VC
 *    allocation when it has none.
 *  - `released(idx, cycle)`: a flit left input VC idx, freeing a slot.
 *  - `flitMoves()` / `flitsInFlight()`: the counter sinks for buffer
 *    pushes and ejections, and for flits in the fabric.
 *  - `allocPacket(rec)` / `freePacket(id)`: packet-table slots.
 *
 * LiveDownstream is the serial loop's instance:
 * one domain over the whole fabric, so every buffer is read live, a
 * flit is pushed straight into it, a pop needs no credit message, and
 * the sinks are the fabric's own counters and free list.
 *
 * CutDownstream is the sharded instance (sim/shard_sched.hh). For a
 * channel whose link stays inside the shard it behaves exactly like
 * LiveDownstream. For a cut channel, whose downstream buffer belongs to
 * another shard, it changes three things:
 *  - space(c) reads the sender-side credit counter, which lags the
 *    live buffer by one cycle (the mailbox hop);
 *  - deliver() spends a credit and appends the flit to the cut link's
 *    mailbox; the receiving shard pushes it at the top of the next
 *    cycle;
 *  - released() on a cut channel's buffer appends a credit for the
 *    upstream shard.
 * Its sinks are per-shard counters (summed after the run) and the
 * shard's packet-slot pool, so workers never share a scalar.
 */

#ifndef EBDA_SIM_DOWNSTREAM_HH
#define EBDA_SIM_DOWNSTREAM_HH

#include <cstdint>
#include <vector>

#include "sim/active_set.hh"
#include "sim/router.hh"

namespace ebda::sim {

/** The serial loop's policy: every downstream buffer is local and
 *  live. */
struct LiveDownstream
{
    explicit LiveDownstream(Fabric &f) : fab(f), depth(f.cfg.vcDepth) {}

    int
    space(topo::ChannelId c) const
    {
        return depth - static_cast<int>(fab.ivcs[c].buf.size());
    }

    void
    deliver(topo::ChannelId out, const Flit &flit, std::uint64_t cycle,
            ActiveSet &allocActive)
    {
        InputVc &down = fab.ivcs[out];
        fab.pushFlit(out, down, flit, cycle, fab.flitMoves);
        // The moved flit may be a head waiting for allocation.
        if (!down.routed)
            allocActive.schedule(out);
    }

    void released(std::size_t, std::uint64_t) {}

    std::uint64_t &flitMoves() { return fab.flitMoves; }
    std::uint64_t &flitsInFlight() { return fab.flitsInFlight; }

    std::uint32_t
    allocPacket(const PacketRec &rec)
    {
        return fab.allocPacket(rec);
    }
    void freePacket(std::uint32_t id) { fab.freePacket(id); }

    Fabric &fab;
    int depth;
};

/** One flit crossing a cut link: the channel it was sent into plus the
 *  flit itself (arrival already stamped by the sender). */
struct FlitMsg
{
    topo::ChannelId chan;
    Flit flit;
};

/**
 * Double-buffered message queue for one ordered shard pair: flits for
 * cut links producer -> consumer, credits for cut links the other way.
 * The producer appends to parity (cycle & 1) during its cycle; the
 * consumer drains the opposite parity at the top of its next cycle —
 * so a buffer is never touched by two shards in the same inter-barrier
 * window, whatever order the shards execute in.
 */
struct Mailbox
{
    std::uint16_t producer = 0;
    std::uint16_t consumer = 0;
    std::vector<FlitMsg> flits[2];
    std::vector<topo::ChannelId> credits[2];
};

/** The cut-link tables all shards share. Each entry is written by at
 *  most one shard per inter-barrier window. */
struct CutLinks
{
    /** Per-channel outbound mailbox (cut channels only, -1 local):
     *  sendBoxOf for the flit direction, creditBoxOf for the credit
     *  return the other way. */
    std::vector<std::int32_t> sendBoxOf;
    std::vector<std::int32_t> creditBoxOf;
    /** Sender-side credit counters per channel; only the cut channels'
     *  entries are ever read, each by exactly one shard. */
    std::vector<std::int32_t> credits;
    std::vector<Mailbox> mailboxes;
};

/** The sharded policy: live buffers for the shard's own channels,
 *  credits and mailboxes for cut ones. */
struct CutDownstream
{
    CutDownstream(Fabric &f, CutLinks &l)
        : fab(f), links(l), depth(f.cfg.vcDepth)
    {
    }

    int
    space(topo::ChannelId c) const
    {
        if (links.sendBoxOf[c] >= 0)
            return links.credits[c];
        return depth - static_cast<int>(fab.ivcs[c].buf.size());
    }

    void
    deliver(topo::ChannelId out, const Flit &flit, std::uint64_t cycle,
            ActiveSet &allocActive)
    {
        if (const std::int32_t box = links.sendBoxOf[out]; box >= 0) {
            // The receiver pushes (and counts the move) when it drains
            // the mailbox next cycle; the credit is spent now so this
            // shard's space view stays conservative.
            --links.credits[out];
            links.mailboxes[static_cast<std::size_t>(box)]
                .flits[cycle & 1]
                .push_back(FlitMsg{out, flit});
            return;
        }
        InputVc &down = fab.ivcs[out];
        fab.pushFlit(out, down, flit, cycle, moves);
        if (!down.routed)
            allocActive.schedule(out);
    }

    /** Return the freed slot of input VC `idx` to the upstream shard
     *  when its channel is cut (a local pop needs no message — the
     *  sender reads the buffer directly). */
    void
    released(std::size_t idx, std::uint64_t cycle)
    {
        if (!fab.isChannelVc(idx))
            return;
        if (const std::int32_t box = links.creditBoxOf[idx]; box >= 0)
            links.mailboxes[static_cast<std::size_t>(box)]
                .credits[cycle & 1]
                .push_back(static_cast<topo::ChannelId>(idx));
    }

    std::uint64_t &flitMoves() { return moves; }
    std::uint64_t &flitsInFlight() { return inFlight; }

    /** Take a slot from the shard pool (non-empty by the barrier
     *  hook's refill invariant). The sequence number derives from
     *  (cycle, node): unique and deterministic without a shared
     *  counter. */
    std::uint32_t
    allocPacket(const PacketRec &rec)
    {
        const std::uint32_t id = pool.back();
        pool.pop_back();
        fab.packets[id] = rec;
        fab.packets[id].seq = rec.genCycle * fab.net.numNodes() + rec.src;
        return id;
    }
    void freePacket(std::uint32_t id) { pool.push_back(id); }

    Fabric &fab;
    CutLinks &links;
    int depth;
    /** Buffer pushes and ejections performed by this shard. */
    std::uint64_t moves = 0;
    /** In-flight delta, modulo 2^64: injection adds, ejection
     *  subtracts, cut transfers touch neither side. Each flit is
     *  counted once by its injector shard and released once by its
     *  ejector shard, so the sum over shards is the exact global count
     *  (flits sitting in a mailbox included). */
    std::uint64_t inFlight = 0;
    /** Packet slots this shard may allocate from; refilled to at least
     *  one slot per owned node by the barrier hook. */
    std::vector<std::uint32_t> pool;
};

} // namespace ebda::sim

#endif // EBDA_SIM_DOWNSTREAM_HH
