/**
 * @file
 * Runtime fault injection: a deterministic schedule of link and router
 * deaths applied to a live fabric mid-simulation, plus the degraded
 * routing view the VC allocator routes through afterwards.
 *
 * This is the dynamic complement of `Network::withoutLinks` (the static
 * fault model of bench_fault_tolerance): instead of rebuilding the
 * network, the injector keeps dead-element masks over the *original*
 * topology and performs fabric surgery when an event fires —
 *
 *  - every flit buffered in a dead channel, at a dead router, or
 *    belonging to a packet whose held allocation crosses a dead channel
 *    is purged (a wormhole packet cannot be spliced mid-body);
 *  - held allocations of purged packets are released and allocations
 *    into dead channels revoked, so surviving head flits re-enter route
 *    compute against the degraded view;
 *  - purged packets are reported back to the simulator, which applies
 *    the drop-and-source-retransmit policy (capped exponential
 *    backoff) or declares them lost.
 *
 * `FaultedRelationView` filters dead output channels out of the base
 * relation's candidate sets. Routing it instead of the base relation is
 * the entire reroute mechanism: route compute, the forensics walker and
 * the Dally relation-CDG oracle all consume the same degraded relation,
 * which is how each fault event doubles as a machine check of the
 * paper's Theorem-2 note that U-turns are what keep degraded networks
 * deadlock-free and connected.
 *
 * Everything is deterministic: random schedules come from a dedicated
 * xoshiro substream of the plan's own seed, purge scans run in fabric
 * index order, and dead routers simply stop drawing from their
 * per-node traffic streams — no other router's substream shifts, so a
 * faulty run replays bit-identically from (seed, FaultPlan).
 */

#ifndef EBDA_SIM_FAULT_INJECTOR_HH
#define EBDA_SIM_FAULT_INJECTOR_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cdg/routing_relation.hh"
#include "sim/active_set.hh"
#include "sim/router.hh"

namespace ebda::sim {

/** Applies a FaultPlan to a live fabric and answers liveness queries. */
class FaultInjector
{
  public:
    /** Materializes the schedule (explicit events validated against the
     *  network, random events drawn from the plan's seed) sorted by
     *  cycle. Invalid explicit events (no such link / node) are
     *  dropped. */
    FaultInjector(const topo::Network &net, const FaultPlan &plan);

    /** True when the plan schedules any fault — the simulator gates
     *  every fault-path branch on this, keeping fault-free runs
     *  bit-identical to the pre-fault simulator. */
    bool enabled() const { return enabledFlag; }

    const FaultPlan &plan() const { return thePlan; }

    /** The materialized schedule, sorted by cycle. */
    const std::vector<FaultEvent> &schedule() const { return events; }

    /** Cycle of the next unapplied event (UINT64_MAX when done). */
    std::uint64_t
    nextEventCycle() const
    {
        return nextIdx < events.size() ? events[nextIdx].cycle
                                       : ~std::uint64_t{0};
    }

    /** Events applied so far. */
    std::size_t eventsApplied() const { return nextIdx; }

    /** @name Liveness masks
     *  @{ */
    bool nodeDead(topo::NodeId n) const { return nodeDeadMask[n] != 0; }
    bool linkDead(topo::LinkId l) const { return linkDeadMask[l] != 0; }
    bool channelDead(topo::ChannelId c) const
    {
        return chanDeadMask[c] != 0;
    }
    bool anyDead() const { return deadLinks > 0 || deadNodes > 0; }
    std::size_t deadLinkCount() const { return deadLinks; }
    std::size_t deadNodeCount() const { return deadNodes; }
    /** @} */

    /**
     * Apply every event scheduled at or before `cycle`: update the
     * masks, then purge affected packets from the fabric. Returns the
     * purged packet ids (ascending; empty when no event was due).
     * Revoked-but-surviving VCs are rescheduled on `allocActive`.
     */
    std::vector<std::uint32_t> apply(std::uint64_t cycle, Fabric &fab,
                                     ActiveSet &allocActive);

    /**
     * Purge every flit of the marked packets (`kill[pkt] != 0`) from
     * the fabric, releasing/revoking allocations and maintaining the
     * occupancy, ownership and flitsInFlight invariants. Also used by
     * the simulator's watchdog recovery pass. Returns the purged
     * packet ids in ascending order.
     */
    std::vector<std::uint32_t> purge(Fabric &fab, ActiveSet &allocActive,
                                     const std::vector<std::uint8_t> &kill,
                                     std::uint64_t cycle);

  private:
    void killLink(topo::NodeId src, topo::NodeId dst);
    void killNode(topo::NodeId n);
    void markLinkDead(topo::LinkId l);

    /** True when ivcs[idx] can never hold a live flit again. */
    bool deadIvc(const Fabric &fab, std::size_t idx) const;

    const topo::Network &net;
    FaultPlan thePlan;
    bool enabledFlag = false;

    std::vector<FaultEvent> events;
    std::size_t nextIdx = 0;

    std::vector<std::uint8_t> nodeDeadMask;
    std::vector<std::uint8_t> linkDeadMask;
    std::vector<std::uint8_t> chanDeadMask;
    std::size_t deadLinks = 0;
    std::size_t deadNodes = 0;
};

/**
 * The degraded routing relation: the base relation with every candidate
 * that enters a dead channel filtered out. The simulator routes, walks
 * forensics and runs the Dally oracle through this view once a plan is
 * enabled; before the first event fires it is transparent.
 */
class FaultedRelationView final : public cdg::RoutingRelation
{
  public:
    FaultedRelationView(const cdg::RoutingRelation &base,
                        const FaultInjector &faults)
        : base(base), faults(faults)
    {
    }

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
        if (faults.anyDead()) {
            out.erase(std::remove_if(out.begin(), out.end(),
                                     [&](topo::ChannelId c) {
                                         return faults.channelDead(c);
                                     }),
                      out.end());
        }
    }

    std::string
    name() const override
    {
        return base.name() + " (degraded)";
    }

    const topo::Network &network() const override
    {
        return base.network();
    }

    /** Forwarded from the base relation: filtering dead channels does not
     *  change which sources share candidates. */
    topo::NodeId
    srcClass(topo::NodeId src) const override
    {
        return base.srcClass(src);
    }

  private:
    const cdg::RoutingRelation &base;
    const FaultInjector &faults;
};

/**
 * Parse the command-line fault list: semicolon-separated entries of
 * the form "CYCLE:link:SRC->DST" or "CYCLE:node:N", appended to `out`
 * in order (empty entries are skipped). On malformed input, returns
 * false with *err naming the offending entry.
 */
bool parseFaultEvents(const std::string &text,
                      std::vector<FaultEvent> &out, std::string *err);

} // namespace ebda::sim

#endif // EBDA_SIM_FAULT_INJECTOR_HH
