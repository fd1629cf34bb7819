/**
 * @file
 * The switch-allocation + traversal pipeline stage.
 *
 * One flit per output link per cycle, one flit per input port per
 * cycle, one ejected flit per node per cycle, granted round-robin via
 * a rotating offset shared by link order, per-link VC order and
 * per-node ejection order. The offset advances by one per cycle, so
 * grants are a pure function of the cycle count.
 *
 * The stage sweeps only links with owned output VCs and nodes with
 * eject-routed VCs (skipped entries are provable no-ops), attributes
 * refusals to the upstream router's stall counters (credit-starved vs.
 * switch-lost), and reactivates the VC-allocation set when a tail
 * departure exposes the next packet's head.
 *
 * traverse() and eject() are one kernel for both loops: templates
 * over the downstream policy (sim/downstream.hh), which supplies the
 * downstream space a move needs, delivers the moved flit, hears about
 * every freed input slot, and owns the move, in-flight and packet-slot
 * sinks. The serial loop runs one allocator over the whole fabric;
 * the sharded loop runs one per shard.
 */

#ifndef EBDA_SIM_SWITCH_ALLOCATOR_HH
#define EBDA_SIM_SWITCH_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "sim/active_set.hh"
#include "sim/router.hh"
#include "util/stats.hh"

namespace ebda::sim {

class ProtocolState;

/**
 * Statistics one pipeline domain accumulates: the whole fabric for the
 * serial loop, one shard for the sharded loop (folded into
 * the simulator's in ascending shard order after the run).
 */
struct PipelineStats
{
    Histogram latencyHist{4096};
    StatAccumulator latencyStat;
    StatAccumulator hopsStat;
    std::uint64_t packetsEjected = 0;
    std::uint64_t measuredEjectedFlits = 0;
    std::uint64_t generatedFlits = 0;
    std::uint64_t measuredGenerated = 0;
    /** Measured packets generated and not yet ejected or lost. A
     *  shard holds a delta modulo 2^64; the sum over shards is exact. */
    std::uint64_t measuredInFlight = 0;

    void
    merge(const PipelineStats &o)
    {
        latencyHist.merge(o.latencyHist);
        latencyStat.merge(o.latencyStat);
        hopsStat.merge(o.hopsStat);
        packetsEjected += o.packetsEjected;
        measuredEjectedFlits += o.measuredEjectedFlits;
        generatedFlits += o.generatedFlits;
        measuredGenerated += o.measuredGenerated;
        measuredInFlight += o.measuredInFlight;
    }
};

/** Switch allocation: link traversal and ejection. */
class SwitchAllocator
{
  public:
    explicit SwitchAllocator(Fabric &fab)
        : fab(fab),
          portUsedStamp(fab.net.numLinks() + fab.net.numNodes(),
                        UINT64_MAX)
    {
        // Per-link probe record (channel base + VC arity in one 8-byte
        // load) and the rotation-start table size: the rotated orders
        // need `offset % arity`, and precomputing one start per
        // distinct arity per cycle replaces one integer division per
        // link/node visit.
        linkInfo.reserve(fab.net.numLinks());
        std::size_t max_rot = 1;
        std::vector<std::uint32_t> node_vcs(
            fab.net.numNodes(),
            static_cast<std::uint32_t>(fab.cfg.injectionVcs));
        for (topo::LinkId l = 0; l < fab.net.numLinks(); ++l) {
            const int nvc = fab.net.vcsOnLink(l);
            linkInfo.push_back({fab.net.linkChannelBase(l),
                                static_cast<std::uint32_t>(nvc)});
            max_rot = std::max(max_rot, static_cast<std::size_t>(nvc));
            node_vcs[fab.net.link(l).dst] +=
                static_cast<std::uint32_t>(nvc);
        }
        // A node's ejection domain holds every VC terminating there.
        for (const std::uint32_t v : node_vcs)
            max_rot = std::max(max_rot, static_cast<std::size_t>(v));
        rotStart.assign(max_rot + 1, 0);
    }

    /**
     * Network traversal: move at most one flit per active output link.
     * Advances the rotating grant offset (shared with ejection).
     * Instantiated for LiveDownstream and CutDownstream.
     *
     * @return true when any flit moved.
     */
    template <class Down>
    bool traverse(Down &down, std::uint64_t cycle, ActiveSet &linkActive,
                  ActiveSet &allocActive, std::vector<Router> &routers);

    /**
     * Ejection: consume at most one flit per active node. Must run
     * after traverse() in the same cycle (shares the per-cycle input
     * port grants). `measuring` is true while the measurement window
     * is open this cycle.
     *
     * @return true when any flit ejected.
     */
    template <class Down>
    bool eject(Down &down, std::uint64_t cycle, ActiveSet &ejectActive,
               ActiveSet &allocActive, std::vector<Router> &routers,
               PipelineStats &stats, bool measuring);

    /**
     * Pure switching-mode gate for moving a head flit out of vc into
     * an output buffer with the given free space. Inline: traverse
     * evaluates this for every movable head every cycle.
     */
    static bool
    headMayAdvance(SwitchingMode switching, int packet_length,
                   const InputVc &vc, int space_at_out)
    {
        switch (switching) {
          case SwitchingMode::Wormhole:
            return true;
          case SwitchingMode::VirtualCutThrough:
            // The downstream buffer must be able to accept the entire
            // packet so a blocked packet never straddles routers.
            return space_at_out >= packet_length;
          case SwitchingMode::StoreAndForward:
            // Additionally the whole packet must already be buffered
            // here.
            if (space_at_out < packet_length)
                return false;
            if (vc.buf.size() < static_cast<std::size_t>(packet_length))
                return false;
            {
                const Flit &last =
                    vc.buf[static_cast<std::size_t>(packet_length) - 1];
                return last.tail && last.pkt == vc.buf.front().pkt;
            }
        }
        return true;
    }

    /** Request–reply protocol layer (sim/protocol.hh), or nullptr.
     *  When set, ejected request tails convert their reserved endpoint
     *  slot into a pending reply; ejected reply tails complete the
     *  round trip. */
    ProtocolState *proto = nullptr;

    /** Current rotating grant offset (advanced at each traverse). */
    std::size_t offset() const { return swArbOffset; }

    /** Re-derive the grant offset and the per-arity rotation starts
     *  after skipped cycles. traverse() advances both unconditionally,
     *  so they are pure functions of the cycle count: before executing
     *  the iteration for `cycle`, swArbOffset == cycle and
     *  rotStart[n] == cycle % n (traverse then increments to the
     *  (cycle+1) values, exactly as if every skipped cycle had run).
     *  The event scheduler calls this after each idle jump. */
    void
    resyncOffset(std::uint64_t cycle)
    {
        swArbOffset = static_cast<std::size_t>(cycle);
        for (std::size_t n = 1; n < rotStart.size(); ++n)
            rotStart[n] = static_cast<std::uint32_t>(
                cycle % static_cast<std::uint64_t>(n));
    }

  private:
    /** Input port of a VC: its link, or the node's injection port
     *  (precomputed at Fabric construction). */
    static std::size_t portOf(const InputVc &vc) { return vc.port; }

    /** Per-link switch-probe record: first channel and VC arity,
     *  fetched with one load in the traversal inner loop. */
    struct LinkProbe
    {
        topo::ChannelId base;
        std::uint32_t nvc;
    };

    Fabric &fab;
    std::size_t swArbOffset = 0;
    /** Input-port usage stamps (one flit per port per cycle). */
    std::vector<std::uint64_t> portUsedStamp;
    /** Probe records indexed by LinkId. */
    std::vector<LinkProbe> linkInfo;
    /** rotStart[n] = swArbOffset % n, refreshed once per traverse —
     *  the rotated VC / ejection starting position for every arity
     *  that occurs in the fabric. */
    std::vector<std::uint32_t> rotStart;
};

} // namespace ebda::sim

#endif // EBDA_SIM_SWITCH_ALLOCATOR_HH
