/**
 * @file
 * A Booksim-style cycle-level wormhole network simulator, decomposed
 * into per-router pipeline stages over a shared buffer fabric.
 *
 * Model (one cycle minimum per hop, credit-equivalent backpressure):
 *  - Every concrete channel (link x VC) is an input VC buffer of
 *    `vcDepth` flits at the link's downstream router; injection ports
 *    add `injectionVcs` buffers per node (sim/router.hh).
 *  - Route computation + VC allocation (sim/vc_allocator.hh): a head
 *    flit at the front of an unrouted input VC asks the routing
 *    relation for candidate output channels, keeps those whose output
 *    VC is unowned (wormhole: a VC is owned from head allocation until
 *    the tail is sent into it), and takes the one with most free
 *    downstream space. Rotating priority across input VCs approximates
 *    a separable round-robin allocator.
 *  - Switch allocation (sim/switch_allocator.hh): one flit per output
 *    link per cycle, one flit per input link per cycle, one ejected
 *    flit per node per cycle, granted round-robin; a flit moves only
 *    if the downstream buffer has space.
 *  - Wormhole, non-atomic buffers by default: a freed output VC may be
 *    reallocated while earlier packets still drain downstream, so a
 *    buffer can hold flits of several packets — the operating mode
 *    EbDa's theorems cover and Duato's Assumption 3 forbids. With
 *    `atomicVcAllocation` a VC is only allocated when its downstream
 *    buffer is empty (Duato-safe mode).
 *  - Progress watchdog: if no flit moves for `watchdogCycles` while
 *    flits are in flight, the run is declared deadlocked, the frozen
 *    fabric is walked for a concrete wait-for cycle, and the witness
 *    is cross-referenced against the Dally relation-CDG
 *    (sim/forensics.hh) — the runtime complement to the CDG verifier.
 *
 * Scheduling: the stages sweep *active sets* (sim/active_set.hh) — the
 * input VCs that hold flits and lack an output, the links with owned
 * output VCs, the nodes with pending ejections — instead of rescanning
 * the whole fabric each cycle, visiting members in exactly the rotated
 * order the monolithic scan used. Results are bit-identical to the
 * original single-loop simulator (tests/test_golden_sim.cc pins this
 * against captured pre-refactor outputs); per-cycle cost scales with
 * traffic in flight rather than fabric size.
 *
 * The stages are one kernel set for both loops: templates
 * over a downstream policy (sim/downstream.hh) that sweep a
 * PipelineDomain. The serial loop runs the live-buffer policy over one
 * whole-fabric domain; the sharded loop runs the cut-link policy over
 * one domain per shard.
 *
 * Simplifications vs. a full Booksim: single-stage router pipeline (no
 * extra RC/VA/SA latency cycles) and instantaneous credit return. Both
 * shift latency curves by a constant; saturation ordering and deadlock
 * behaviour — what the benches compare — are unaffected.
 */

#ifndef EBDA_SIM_SIMULATOR_HH
#define EBDA_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include <memory>

#include "sim/active_set.hh"
#include "sim/fault_injector.hh"
#include "sim/forensics.hh"
#include "sim/protocol.hh"
#include "sim/router.hh"
#include "sim/scheduler.hh"
#include "sim/simconfig.hh"
#include "sim/switch_allocator.hh"
#include "sim/traffic.hh"
#include "sim/vc_allocator.hh"
#include "util/ring_queue.hh"
#include "util/stats.hh"

namespace ebda::sim {

/**
 * One pipeline domain: the active sets the stage kernels sweep, the
 * allocators holding their arbitration state, and the statistics they
 * charge. The serial loop runs one domain over the whole fabric; the
 * sharded loop runs one per shard (sim/shard_sched.hh).
 * Sweeping active sets instead of rescanning the fabric keeps the
 * per-cycle cost proportional to the traffic in flight.
 */
struct PipelineDomain
{
    PipelineDomain(Fabric &fab, const routing::RouteTable &table)
        : allocActive(fab.ivcs.size()),
          linkActive(fab.net.numLinks()),
          ejectActive(fab.net.numNodes()),
          injectActive(fab.net.numNodes()), vcAlloc(fab, table),
          swAlloc(fab)
    {
    }

    /** Input VCs holding flits without an output allocation. */
    ActiveSet allocActive;
    /** Links with at least one owned output VC. */
    ActiveSet linkActive;
    /** Nodes with at least one eject-routed VC. */
    ActiveSet ejectActive;
    /** Nodes with queued packets awaiting an injection VC — the
     *  injection fill visits these instead of scanning every node
     *  every cycle. */
    ActiveSet injectActive;
    VcAllocator vcAlloc;
    SwitchAllocator swAlloc;
    PipelineStats stats;
};

/**
 * The simulator: holds the fabric, the pipeline stages, the per-run
 * bookkeeping and the serial loop; resolveSchedule (sim/scheduler.hh)
 * decides which cycles execute, and over which domains. Construct once
 * per run.
 */
class Simulator
{
  public:
    Simulator(const topo::Network &net,
              const cdg::RoutingRelation &routing,
              const TrafficGenerator &traffic, const SimConfig &config);

    /** Execute warmup, measurement and drain under the schedule
     *  resolved from cfg; return the results.
     *  @throws std::invalid_argument on a malformed EBDA_SCHED_MODE or
     *          EBDA_SHARD_THREADS. */
    SimResult run();

    /** @name Cooperative abort hooks (sweep job budgets)
     *  Must be set before run(). The callback is polled every 1024
     *  cycles; returning true marks the result aborted and stops the
     *  run. A cycle limit of 0 means unlimited.
     *  @{ */
    void setAbortCheck(std::function<bool()> cb)
    {
        abortCheck = std::move(cb);
    }
    void setCycleLimit(std::uint64_t limit) { cycleLimit = limit; }
    /** @} */

    /** @name Measurement-phase hooks (perf instrumentation)
     *  Invoked at the top of the first measurement cycle and at the
     *  top of the first post-measurement cycle respectively.
     *  bench_cycle_rate brackets its allocation-count and wall-clock
     *  window with these to time exactly the steady-state loop —
     *  construction, warmup and drain excluded. Unset by default (the
     *  hot loop skips the checks entirely).
     *  @{ */
    void
    setMeasurePhaseHooks(std::function<void()> onStart,
                         std::function<void()> onEnd)
    {
        measureStartHook = std::move(onStart);
        measureEndHook = std::move(onEnd);
    }
    /** @} */

    /** @name Post-run observability
     *  Valid after run() returns.
     *  @{ */

    /** Per-router state (stall attribution lives here). */
    const std::vector<Router> &routers() const { return routerTable; }

    /** Per-channel time-weighted occupancy over the whole run. */
    std::vector<ChannelOccupancy>
    channelOccupancy() const
    {
        return fab.channelOccupancy(finalCycle);
    }

    /** Forensic dump of the frozen fabric; meaningful only when the
     *  run deadlocked. */
    const DeadlockForensics &forensics() const { return forensicsDump; }

    /** The fault injector (schedule, liveness masks). */
    const FaultInjector &faults() const { return injector; }

    /** The route table (valid from construction; rows fill as the
     *  run queries them). */
    const routing::RouteTable &routeTable() const { return table; }

    /** The shared buffer fabric (arena, packet table, flit-move
     *  counter). Valid from construction. */
    const Fabric &fabric() const { return fab; }

    /** The request–reply protocol state, or nullptr when the layer is
     *  disabled. Valid from construction. */
    const ProtocolState *protocol() const { return proto.get(); }

    /** @} */

  private:
    /** The sharded loop and its ShardRun (shard_sched.cc) drive the
     *  private phase code directly. */
    friend std::uint64_t runSharded(Simulator &sim, SimResult &result,
                                    int shards);
    friend struct ShardRun;

    /** The one scheduling decision: resolve cfg.schedMode, the shard
     *  count and whether the serial loop may skip idle spans. */
    Schedule resolveSchedule() const;
    /** The serial loop: the cycles in order over `dom`, jumping idle
     *  spans when `skip_idle`. Counts result.wakeups and returns the
     *  final cycle. */
    std::uint64_t runSerial(SimResult &result, bool skip_idle);

    /** @name Pipeline kernels
     *  Templates over the downstream policy (sim/downstream.hh) and the
     *  domain they sweep. The serial loop runs the LiveDownstream
     *  instances on `dom`; each shard runs the CutDownstream instances
     *  on its own domain.
     *  @{ */
    /** Per-node body of generation: draw node n's injection coin and
     *  destination and queue the packet. */
    template <class Down>
    void generateAt(Down &down, PipelineDomain &d, topo::NodeId n,
                    std::uint64_t cycle, bool measuring);
    /** Queue a packet n -> dest generated this cycle (per-node
     *  generation and the injection engine's hits). */
    template <class Down>
    void enqueuePacket(Down &down, PipelineDomain &d, topo::NodeId n,
                       topo::NodeId dest, std::uint64_t cycle,
                       bool measuring);
    /** Move queued packets into free injection VCs. */
    template <class Down>
    void fillInjectionVcs(Down &down, PipelineDomain &d,
                          std::uint64_t cycle);
    /** Injection fill, VC allocation, traversal and ejection; true
     *  when any flit moved. */
    template <class Down>
    bool pipelineStep(Down &down, PipelineDomain &d, std::uint64_t cycle,
                      bool measuring);
    /** @} */

    /** Generation at every node for one cycle. Kept out of runSerial's
     *  body: written inline there, the per-node draw loop ran about 40%
     *  slower on an idle 16x16 cycle-mode run (4-core x86 host). */
    void generate(std::uint64_t cycle, bool measuring);
    /** Purge the packets whose heads VC allocation found stranded on a
     *  dead end of the degraded relation (fault runs only). */
    void purgeStranded(PipelineDomain &d, std::uint64_t cycle);
    /** True during the measurement window. */
    bool
    inMeasurement(std::uint64_t cycle) const
    {
        return cycle >= measureStart && cycle < measureEnd;
    }
    /** The watchdog shared by both loops: record whether `cycle` made
     *  progress (a flit moved, or none was in flight) and report
     *  whether nothing has moved for more than cfg.watchdogCycles. */
    bool
    watchdogExpired(std::uint64_t cycle, bool moved,
                    std::uint64_t in_flight)
    {
        if (moved || in_flight == 0)
            lastProgress = cycle;
        return cycle - lastProgress > cfg.watchdogCycles;
    }
    /** The drain test shared by both loops: the measurement window has
     *  closed and every measured packet has left the fabric. */
    bool
    drainComplete(std::uint64_t cycle,
                  std::uint64_t measured_in_flight) const
    {
        return cycle >= measureEnd && measured_in_flight == 0;
    }
    /** Top-of-cycle bookkeeping shared by both loops: fire the
     *  measurement-phase hooks due at `cycle`, then poll the cycle
     *  limit and the abort callback. True (and the run marked aborted)
     *  when the run must stop before executing `cycle`. */
    bool abortBefore(std::uint64_t cycle);
    /** Mark the run deadlocked at `cycle` and record the forensic walk
     *  of the frozen fabric. */
    void declareDeadlock(SimResult &result, std::uint64_t cycle);

    /** @name Request–reply protocol path (no-ops when disabled)
     *  @{ */
    /** Inject ready replies into (reply-class) injection VCs, freeing
     *  their endpoint slots. Runs between generation and the request
     *  injection fill each cycle. */
    void injectReplies(std::uint64_t cycle, bool measuring);
    /** Watchdog escalation for protocol runs: abort-and-retransmit the
     *  oldest in-fabric request through the fault-recovery backoff
     *  machinery (falls back to the kill-all drain when no request is
     *  in flight). */
    void recoverProtocolWedge(std::uint64_t cycle);
    /** injector.purge plus endpoint-slot release for eject-reserved
     *  victims — every purge site goes through this so protocol runs
     *  never leak reply-buffer slots. */
    std::vector<std::uint32_t>
    purgePackets(const std::vector<std::uint8_t> &kill,
                 std::uint64_t cycle);
    /** injector.apply with endpoint-slot release for any eject-reserved
     *  request the event purged (the injector picks its own victims,
     *  so the reservations are snapshotted pre-purge). */
    std::vector<std::uint32_t> applyFaultEvents(std::uint64_t cycle);
    /** @} */

    /** @name Fault path (all no-ops when the FaultPlan is empty)
     *  @{ */
    /** Classify purged packets: schedule a source retransmit with
     *  capped exponential backoff, or declare them lost. */
    void handleDropped(const std::vector<std::uint32_t> &purged,
                       std::uint64_t cycle);
    /** Move due retry-queue packets back into their source queues. */
    void releaseRetries(std::uint64_t cycle);
    /** Drop queued packets whose source or destination died. */
    void dropDeadQueuedPackets();
    /** Purge packets whose head waits on an empty degraded candidate
     *  set (they can never move again; without this the drain phase
     *  would hang on them). */
    void strandedScan(std::uint64_t cycle);
    /** Watchdog escalation: drain-and-reroute recovery pass. */
    void recoverWedged(std::uint64_t cycle);
    /** Count the loss and recycle the packet's table slot. */
    void losePacket(std::uint32_t id);
    /** @} */

    const topo::Network &net;
    const cdg::RoutingRelation &routing;
    const TrafficGenerator &traffic;
    SimConfig cfg;

    FaultInjector injector;
    FaultedRelationView faultedView;
    /** The relation the pipeline routes through: the degraded view
     *  when a FaultPlan is present, the base relation otherwise. */
    const cdg::RoutingRelation &effective;

    /** Route table over `effective` — every route-compute call site
     *  queries this. Fault events filter its filled rows in place,
     *  keeping it exactly equal to the degraded virtual view. */
    routing::RouteTable table;

    Fabric fab;
    std::vector<Router> routerTable;
    /** The whole-fabric domain of the serial loop (a sharded run folds
     *  its shards' statistics into it). */
    PipelineDomain dom;
    /** Per-node packet probability per cycle (injectionRate over
     *  packetLength). */
    double packetRate = 0.0;

    /** Request–reply endpoint state (sim/protocol.hh); nullptr when
     *  the layer is disabled, so the one-way hot path never tests
     *  more than a pointer. */
    std::unique_ptr<ProtocolState> proto;

    /** Per-node queues of generated packets awaiting injection VCs.
     *  Ring queues: steady-state push/pop/erase never allocates (a
     *  deque's chunked storage would, at every chunk boundary). */
    std::vector<RingQueue<std::uint32_t>> sourceQueues;

    /** Phase boundaries: measurement covers [measureStart,
     *  measureEnd); the drain phase ends at hardStop. */
    std::uint64_t measureStart = 0;
    std::uint64_t measureEnd = 0;
    std::uint64_t hardStop = 0;
    /** Last cycle the watchdog saw progress (watchdogExpired). */
    std::uint64_t lastProgress = 0;

    std::uint64_t genCycles = 0;

    /** @name Fault-path state
     *  @{ */
    /** A dropped packet awaiting its backoff deadline. */
    struct RetryEntry
    {
        std::uint32_t pkt;
        std::uint64_t ready;
        /** Fault events applied when the retry was scheduled. The
         *  liveness masks are immutable between events, so release
         *  skips the dead/routable re-check while the epoch is
         *  unchanged — handleDropped already computed it. */
        std::size_t epoch;
    };
    std::vector<RetryEntry> retryQueue;
    std::uint64_t packetsDroppedCount = 0;
    std::uint64_t packetsLostCount = 0;
    std::uint64_t retransmitCount = 0;
    std::uint64_t recoveryPassCount = 0;
    std::uint64_t faultCheckCount = 0;
    std::uint64_t faultCheckCleanCount = 0;
    /** Stranded-packet scan cadence (cycles). */
    std::uint64_t strandedPeriod = 0;
    /** @} */

    std::function<bool()> abortCheck;
    std::uint64_t cycleLimit = 0;
    bool abortedFlag = false;

    /** Measurement-phase boundary hooks (see setMeasurePhaseHooks). */
    std::function<void()> measureStartHook;
    std::function<void()> measureEndHook;

    /** Fallback buffer for the simulator's own candidatesView calls
     *  (injection routability checks, stranded scans). */
    std::vector<topo::ChannelId> routeScratch;

    std::uint64_t finalCycle = 0;
    DeadlockForensics forensicsDump;
};

/**
 * Convenience: run one simulation with the given parameters.
 */
SimResult runSimulation(const topo::Network &net,
                        const cdg::RoutingRelation &routing,
                        const TrafficGenerator &traffic,
                        const SimConfig &config);

} // namespace ebda::sim

#endif // EBDA_SIM_SIMULATOR_HH
