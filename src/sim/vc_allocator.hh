/**
 * @file
 * The route-compute + VC-allocation pipeline stage.
 *
 * A head flit at the front of an unrouted input VC asks the routing
 * relation for candidate output channels, keeps those whose output VC
 * is unowned (and whose downstream buffer is empty, in atomic mode),
 * and applies the configured selection policy. Rotating priority
 * across input VCs approximates a separable round-robin allocator; the
 * rotation offset advances by one every cycle, so arbitration is a pure
 * function of the cycle count.
 *
 * The stage sweeps only the active set of VCs that hold flits and lack
 * an output (every skipped VC is a provable no-op), charges failed
 * allocations to the owning router's stall counters, and activates the
 * downstream link / ejection sets for the switch stage.
 *
 * allocate() is one kernel for both loops: a template over the
 * downstream policy (sim/downstream.hh), whose space(c) is the only
 * view of downstream buffers the stage takes. The serial loop runs
 * one allocator over the whole fabric; the sharded loop runs one per
 * shard, each sweeping only its own nodes' VCs.
 */

#ifndef EBDA_SIM_VC_ALLOCATOR_HH
#define EBDA_SIM_VC_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "routing/route_table.hh"
#include "sim/active_set.hh"
#include "sim/router.hh"

namespace ebda::sim {

class ProtocolState;

/** Route computation and output-VC allocation. */
class VcAllocator
{
  public:
    /** `route` is the table over the simulator's effective relation —
     *  zero-allocation candidate lookup in steady state. */
    VcAllocator(Fabric &fab, const routing::RouteTable &route)
        : fab(fab), route(route)
    {
    }

    /**
     * One allocation pass over the scheduled input VCs. Newly routed
     * VCs activate their output link (or their node's ejection port)
     * for the switch stage; VCs that fail stay scheduled and charge a
     * stall to their router. Instantiated for LiveDownstream and
     * CutDownstream (sim/downstream.hh).
     */
    template <class Down>
    void allocate(const Down &down, ActiveSet &active,
                  std::vector<Router> &routers, ActiveSet &linkActive,
                  ActiveSet &ejectActive);

    /**
     * Pure selection-policy kernel: pick one of the free candidates.
     * `free` must be non-empty; `down.space(c)` is the downstream
     * space MaxCredits compares, `rotation` the allocator's rotating
     * offset (RoundRobin), `rng` the node's stream (Random). Inline:
     * called for every successful head allocation every cycle.
     */
    template <class Down>
    static topo::ChannelId
    selectOutput(SelectionPolicy policy,
                 const std::vector<topo::ChannelId> &free,
                 const Down &down, std::size_t rotation, Rng &rng)
    {
        topo::ChannelId best = topo::kInvalidId;
        switch (policy) {
          case SelectionPolicy::MaxCredits: {
              int best_space = -1;
              for (topo::ChannelId c : free) {
                  const int space = down.space(c);
                  if (space > best_space) {
                      best_space = space;
                      best = c;
                  }
              }
              break;
          }
          case SelectionPolicy::RoundRobin:
            best = free[rotation % free.size()];
            break;
          case SelectionPolicy::Random:
            best = free[rng.nextBounded(free.size())];
            break;
          case SelectionPolicy::FirstCandidate:
            best = free.front();
            break;
        }
        return best;
    }

    /** Current rotating-priority offset (advanced at each allocate). */
    std::size_t offset() const { return vcArbOffset; }

    /** Route-compute queries this allocator made. The table keeps no
     *  count (shard workers share it), so the simulator sums every
     *  allocator's tally into SimResult::routeComputeCalls. */
    std::uint64_t routeCalls() const { return routeCallCount; }

    /** Re-derive the rotating offset after skipped cycles. allocate()
     *  advances the offset unconditionally, so it is a pure function
     *  of the cycle count: before executing the iteration for `cycle`
     *  the offset must be `cycle % numVcs` (allocate then advances it
     *  to the (cycle+1) value, exactly as if every skipped cycle had
     *  run). The event scheduler calls this after each idle jump. */
    void
    resyncOffset(std::uint64_t cycle)
    {
        vcArbOffset = static_cast<std::size_t>(
            cycle % static_cast<std::uint64_t>(fab.ivcs.size()));
    }

    /** @name Stranded-packet reporting (fault path)
     *  With `collectStranded` set, every swept VC whose head found no
     *  route candidate at all (a dead end of the degraded relation, not
     *  mere congestion) is appended to `stranded` for the simulator to
     *  purge the same cycle. Off by default: fault-free runs take the
     *  exact pre-fault code path.
     *  @{ */
    bool collectStranded = false;
    std::vector<std::size_t> stranded;
    /** @} */

    /** Request–reply protocol layer (sim/protocol.hh), or nullptr.
     *  When set, heads at their destination only eject-route while the
     *  endpoint reply buffer has space (endpoint backpressure), and
     *  the candidate sweep filters channels by message class. */
    ProtocolState *proto = nullptr;

  private:
    Fabric &fab;
    const routing::RouteTable &route;
    std::size_t vcArbOffset = 0;
    std::uint64_t routeCallCount = 0;
    /** Fallback-path buffer for candidatesView (unused once a row is
     *  filled: views then point straight into it). */
    std::vector<topo::ChannelId> scratch;
    /** Free legal candidates of the VC under allocation. A member so
     *  its capacity persists across cycles (steady-state allocate()
     *  performs no heap allocation). */
    std::vector<topo::ChannelId> free;
};

} // namespace ebda::sim

#endif // EBDA_SIM_VC_ALLOCATOR_HH
