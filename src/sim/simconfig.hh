/**
 * @file
 * Simulation parameters and results — the value types shared by the
 * pipeline stages (router.hh, vc_allocator.hh, switch_allocator.hh),
 * the orchestrating Simulator, the JSON wire format (sim_json.hh) and
 * the sweep engine. Split out of simulator.hh so a stage object can be
 * built and unit-tested without the whole simulator.
 */

#ifndef EBDA_SIM_SIMCONFIG_HH
#define EBDA_SIM_SIMCONFIG_HH

#include <cstdint>
#include <vector>

#include "routing/route_table.hh"
#include "sim/scheduler.hh"

namespace ebda::sim {

/** Packet switching technique (Section 1 of the paper; Assumption 1:
 *  EbDa covers all three). */
enum class SwitchingMode : std::uint8_t
{
    /** Pipelined flits; buffers may be smaller than packets. */
    Wormhole,
    /** Head advances only when the downstream buffer can hold the
     *  whole packet (requires vcDepth >= packetLength). */
    VirtualCutThrough,
    /** Head advances only after the whole packet is buffered locally
     *  (requires vcDepth >= packetLength). */
    StoreAndForward,
};

/**
 * Output-selection policy: how a router picks among the (several)
 * legal candidates an adaptive routing relation offers. DyXY-style
 * congestion awareness is MaxCredits (pick the least congested
 * downstream buffer); the others serve as ablation baselines.
 */
enum class SelectionPolicy : std::uint8_t
{
    /** Most free downstream space (congestion-aware, default). */
    MaxCredits,
    /** Rotate deterministically across candidates. */
    RoundRobin,
    /** Uniform random choice (per-node deterministic stream). */
    Random,
    /** Always the first legal candidate (relation order). */
    FirstCandidate,
};

/** One scheduled fault: a unidirectional link or a whole router dying
 *  at a given cycle. */
struct FaultEvent
{
    /** Cycle the fault takes effect (start of cycle, before routing). */
    std::uint64_t cycle = 0;
    /** True: router fault (kills `node` and every adjacent link).
     *  False: link fault (kills the src -> dst link). */
    bool router = false;
    /** Failing router (router faults). */
    std::uint32_t node = 0;
    /** Endpoints of the failing link (link faults). */
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
};

/**
 * Deterministic fault schedule plus the recovery policy knobs. Part of
 * SimConfig (and of the sweep cache identity): identical seed +
 * FaultPlan replays bit-identically.
 *
 * Faults are either listed explicitly in `events` or derived from
 * `seed`: `randomLinkFaults` physical links (both directions) and
 * `randomRouterFaults` routers, scheduled at `firstCycle`,
 * `firstCycle + spacing`, ... The derivation uses its own SplitMix64 /
 * xoshiro substream, so it never perturbs the traffic streams.
 */
struct FaultPlan
{
    /** Explicit fault events (applied in cycle order). */
    std::vector<FaultEvent> events;
    /** Randomly drawn physical link faults (both directions die). */
    int randomLinkFaults = 0;
    /** Randomly drawn whole-router faults. */
    int randomRouterFaults = 0;
    /** Seed of the random fault schedule (independent of cfg.seed). */
    std::uint64_t seed = 1;
    /** Cycle of the first random fault. */
    std::uint64_t firstCycle = 1000;
    /** Cycles between consecutive random faults. */
    std::uint64_t spacing = 500;
    /** Watchdog-escalation drain-and-reroute passes before a run is
     *  declared wedged. */
    int maxRecoveryAttempts = 3;
    /** Source-retransmit attempts per packet before it is lost. */
    int maxRetransmits = 8;
    /** Base retransmit backoff in cycles; doubles per retry. */
    std::uint64_t retransmitBackoff = 16;
    /** Backoff ceiling in cycles. */
    std::uint64_t retransmitBackoffCap = 1024;
    /** Re-check the degraded relation against the Dally relation-CDG
     *  oracle after every applied fault event. */
    bool checkDegradedCdg = true;

    /** True when the plan schedules no fault at all (the simulator then
     *  runs the exact pre-fault code path, bit for bit). */
    bool
    empty() const
    {
        return events.empty() && randomLinkFaults == 0
               && randomRouterFaults == 0;
    }
};

/**
 * Request–reply protocol layer (sim/protocol.hh). When enabled, every
 * generated packet is a *request*; its delivery consumes a slot in the
 * destination endpoint's finite reply buffer and, after a service
 * latency, spawns a *reply* packet back to the requester. A full
 * endpoint refuses ejection, so endpoint backpressure propagates into
 * the fabric — which makes message-dependency (protocol) deadlock
 * reachable even on channel-level deadlock-free topologies
 * (arXiv:2101.06015). Part of the sweep cache identity; a disabled
 * layer is never serialized, so legacy configs keep their keys.
 */
struct ProtocolConfig
{
    /** Master switch: request–reply traffic instead of one-way. */
    bool requestReply = false;
    /** Per-endpoint reply/reassembly buffer in packets. A delivered
     *  request holds one slot until its reply has fully entered an
     *  injection VC. */
    int replyBufferDepth = 4;
    /** Cycles between request delivery and the reply becoming ready. */
    std::uint64_t serviceLatency = 8;
    /** Extra uniform service jitter in [0, serviceJitter] cycles,
     *  drawn from a dedicated per-endpoint RNG substream (never
     *  perturbs the per-router traffic streams). */
    std::uint64_t serviceJitter = 0;
    /** Message-class VC partitioning: 1 shares every VC between
     *  requests and replies (protocol deadlock reachable); 2 carves a
     *  dedicated reply class out of each link's (and each node's
     *  injection) VCs — the standard prevention: replies always sink,
     *  so the request→reply dependency cycle cannot close. */
    int messageClasses = 1;
    /** Buffer-reservation alternative: a node only generates a request
     *  when it can reserve a slot in its *own* reply buffer for the
     *  eventual reply (end-to-end credit). Bounds outstanding requests
     *  per node by the buffer depth — a throttle, not a proof. */
    bool reserveReplyBuffer = false;

    bool enabled() const { return requestReply; }
};

/** Simulation parameters. */
struct SimConfig
{
    std::uint64_t seed = 12345;
    /** Flits per VC buffer. */
    int vcDepth = 4;
    /** Flits per packet. */
    int packetLength = 4;
    /** Switching technique. */
    SwitchingMode switching = SwitchingMode::Wormhole;
    /** Router pipeline depth in cycles per hop (>= 1). The default of
     *  1 models a single-stage router; 3-4 approximates the classic
     *  RC/VA/SA/ST pipeline, shifting latency curves by a constant
     *  factor of the hop count. */
    int routerLatency = 1;
    /** Output-selection policy among legal adaptive candidates. */
    SelectionPolicy selection = SelectionPolicy::MaxCredits;
    /** Offered load in flits/node/cycle. */
    double injectionRate = 0.1;
    /** Injection-port VC buffers per node. */
    int injectionVcs = 2;
    /** Duato-safe atomic VC allocation (one packet per buffer). */
    bool atomicVcAllocation = false;
    std::uint64_t warmupCycles = 2000;
    std::uint64_t measureCycles = 10000;
    /** Post-measurement cap while waiting for measured packets. */
    std::uint64_t drainCycles = 100000;
    /** No-progress window that declares deadlock. */
    std::uint64_t watchdogCycles = 5000;
    /** Serve the routing relation from a flat route table, each row
     *  filled on its first query, so steady-state route compute is
     *  allocation-free array indexing (routing/route_table.hh). Off
     *  forces the virtual relation. */
    bool routeTable = true;
    /** Route-table size cap in bytes; a table that would exceed it
     *  falls back to the virtual relation. */
    std::uint64_t routeTableBudget = routing::kDefaultRouteTableBudget;
    /** Scheduling mode (sim/scheduler.hh). Auto resolves per run
     *  via EBDA_SCHED_MODE / the injection-rate heuristic; both
     *  modes produce trace-equivalent results, so the resolved
     *  choice is an execution detail, not part of the cache identity
     *  (Auto is never serialized). */
    SchedMode schedMode = SchedMode::Auto;
    /** Spatial shard count for the multi-core sharded loop
     *  (sim/shard_sched.hh). 0 = Auto: engage sharding only on fabrics
     *  at or above the node-count cutoff, with a shard count derived
     *  from the fabric size alone — never from the machine — so a
     *  result stays a pure function of its config (worker threads are
     *  the hardware-adaptive knob and never change results). 1 forces
     *  the single-threaded serial loop (bit-identical to the golden
     *  rows); >1 forces that many shards. Values other
     *  than 0 are serialized and therefore part of the sweep cache
     *  identity: a sharded run arbitrates per shard domain, so its
     *  results legitimately differ from the single-shard run. */
    int shards = 0;
    /** Request–reply protocol layer (disabled by default: the exact
     *  one-way code path runs, bit for bit). */
    ProtocolConfig protocol;
    /** Runtime fault schedule (empty by default: no fault path runs). */
    FaultPlan faults;
};

/** Aggregate results of one run. */
struct SimResult
{
    /** Generation-to-ejection latency of measured packets (cycles). */
    double avgLatency = 0.0;
    std::uint64_t p50Latency = 0;
    std::uint64_t p99Latency = 0;
    std::uint64_t maxLatency = 0;
    /** Average hop count of measured packets. */
    double avgHops = 0.0;
    /** Ejected flits per node per cycle during the measurement window. */
    double acceptedRate = 0.0;
    /** Generated flits per node per cycle (sanity echo of the config). */
    double offeredRate = 0.0;
    std::uint64_t packetsMeasured = 0;
    std::uint64_t packetsEjected = 0;
    /** True when the watchdog fired. */
    bool deadlocked = false;
    /** False when the drain cap expired with measured packets stuck. */
    bool drained = true;
    std::uint64_t cycles = 0;

    /** @name Channel-load distribution (flits forwarded per channel,
     *  network channels only) — backs the paper's claim that EbDa
     *  spreads traffic better than escape-channel designs.
     *  @{ */
    double channelLoadMean = 0.0;
    /** Coefficient of variation (stddev / mean); lower = more even. */
    double channelLoadCv = 0.0;
    /** Max / mean load ratio. */
    double channelLoadMaxRatio = 0.0;
    /** Fraction of channels that carried no flit at all. */
    double channelsUnused = 0.0;
    /** @} */

    /** @name Stall attribution (stall-cycles summed over all routers,
     *  whole run) — which pipeline stage refused flits, and where.
     *  @{ */
    std::uint64_t stallRouteCompute = 0;
    std::uint64_t stallVcStarved = 0;
    std::uint64_t stallCreditStarved = 0;
    std::uint64_t stallSwitchLost = 0;
    /** Node with the most stall-cycles and its count. */
    std::uint32_t hottestRouter = 0;
    std::uint64_t hottestRouterStalls = 0;
    /** @} */

    /** @name Channel occupancy (time-weighted, network channels)
     *  @{ */
    /** Mean over channels of the per-channel mean buffered flits. */
    double channelOccupancyMean = 0.0;
    /** Largest per-channel peak (saturates at vcDepth). */
    std::uint64_t channelOccupancyPeak = 0;
    /** @} */

    /** @name Deadlock forensics (empty / false unless deadlocked)
     *  The concrete wait-for cycle among channels extracted from the
     *  frozen fabric, and whether every one of its edges is a
     *  dependency of the Dally relation-CDG (it must be: the runtime
     *  witness is an instance of the statically predicted cycle).
     *  @{ */
    std::vector<std::uint32_t> deadlockCycle;
    bool deadlockCycleInCdg = false;
    /** @} */

    /** @name Fault injection and graceful degradation (all zero / true
     *  when the FaultPlan is empty)
     *  @{ */
    /** Fault events actually applied before the run ended. */
    std::uint64_t faultEventsApplied = 0;
    /** Packets purged from the fabric by faults / recovery passes. */
    std::uint64_t packetsDropped = 0;
    /** Source retransmissions scheduled for dropped packets. */
    std::uint64_t packetsRetransmitted = 0;
    /** Packets permanently lost (dead endpoint, unroutable, or retry
     *  budget exhausted). */
    std::uint64_t packetsLost = 0;
    /** Watchdog-escalation drain-and-reroute passes taken. */
    std::uint64_t recoveryPasses = 0;
    /** Degraded-relation CDG oracle runs (one per applied event). */
    std::uint64_t faultChecks = 0;
    /** ... of which found the degraded CDG still acyclic. */
    std::uint64_t faultChecksClean = 0;
    /** Measured packets delivered / measured packets generated. */
    double deliveredFraction = 1.0;
    /** True when the run ended without wedging: every watchdog event
     *  (if any) was absorbed by a recovery pass. */
    bool degradedGracefully = true;
    /** Aborted by an external budget / interrupt hook (sweep engine
     *  job budgets); results are partial. */
    bool aborted = false;
    /** @} */

    /** @name Route-compute accounting (routing/route_table.hh)
     *  @{ */
    /** Route-compute queries answered during the run (table or
     *  virtual fallback; identical either way, so sweeps stay
     *  bit-comparable across the two modes). */
    std::uint64_t routeComputeCalls = 0;
    /** True when the run ended with every query served from table rows
     *  or filling one; false on any fallback, mid-run ones included
     *  (RouteTable::fallback()). */
    bool routeTableCompiled = false;
    /** True when the table's rows are keyed by more than one source
     *  class (RouteTable::sourceClasses() > 1: Odd-Even's columns, or
     *  one class per source for a relation that declares none). */
    bool routeTablePerSource = false;
    /** Table size at the end of the run: rows + the candidate pool of
     *  the rows the run filled (0 on any fallback). */
    std::uint64_t routeTableBytes = 0;
    /** Wall-clock nanoseconds spent sizing the table's rows. NOT part
     *  of the JSON wire format: it varies run to run, and serialized
     *  results must be byte-identical across serial/parallel/cached
     *  sweeps. bench_route_compute reports sizing and first-touch
     *  timings. */
    std::uint64_t routeTableCompileNanos = 0;
    /** @} */

    /** @name Request–reply protocol layer (sim/protocol.hh). All
     *  zero / false when the layer is disabled, and then omitted from
     *  the JSON wire format so pre-protocol results stay byte-identical.
     *  @{ */
    /** True when the run used the request–reply protocol layer. */
    bool protocolEnabled = false;
    /** Requests delivered into endpoint reply buffers. */
    std::uint64_t protocolRequestsDelivered = 0;
    /** Replies injected into the fabric. */
    std::uint64_t protocolRepliesInjected = 0;
    /** Replies delivered back to their requesters. */
    std::uint64_t protocolRepliesDelivered = 0;
    /** Head-of-line attempts refused because the destination endpoint
     *  buffer was full (endpoint backpressure into the fabric). */
    std::uint64_t protocolEndpointStalls = 0;
    /** Requests discarded at generation because no reply-buffer slot
     *  could be reserved (reserveReplyBuffer mode only). */
    std::uint64_t protocolThrottled = 0;
    /** Largest endpoint-buffer occupancy seen anywhere. */
    std::uint64_t protocolPeakOccupancy = 0;
    /** True when the watchdog wedge was a *protocol* (message-
     *  dependency) deadlock: the wait-for cycle crosses an endpoint or
     *  injection vertex, invisible to the channel-level CDG. */
    bool protocolDeadlock = false;
    /** @} */

    /** @name Scheduling mode (sim/scheduler.hh)
     *  Execution metadata, appended after every other field in the
     *  JSON wire format: equivalence tests strip exactly these two
     *  when diffing cycle- against event-mode results.
     *  @{ */
    /** The resolved mode that produced this result (never Auto). */
    SchedMode schedMode = SchedMode::Cycle;
    /** Cycles the loop actually executed. Equals `cycles` (+1) in
     *  cycle mode; far fewer in event mode at low load. */
    std::uint64_t wakeups = 0;
    /** Spatial shards the run used (1: the serial loop). NOT part of
     *  the JSON wire format: a sharded run and its serial twin
     *  serialise byte-identically. */
    int shards = 1;
    /** @} */
};

} // namespace ebda::sim

#endif // EBDA_SIM_SIMCONFIG_HH
