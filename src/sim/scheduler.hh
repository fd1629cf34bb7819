/**
 * @file
 * The scheduler seam: how simulated time advances.
 *
 * The pipeline stages (generate, injection fill, route compute and VC
 * allocation, switch traversal, eject) are one kernel set shared by
 * every backend: templates over a downstream policy
 * (sim/downstream.hh) that run over a pipeline domain's active sets and
 * take the current cycle as a parameter. Simulator::pipelineStep runs
 * fill, allocate, traverse and eject for one cycle; the top-of-cycle
 * hooks, limit and abort poll (Simulator::abortBefore) and the deadlock
 * verdict (Simulator::declareDeadlock) are shared too. A
 * SchedulerBackend only decides WHICH cycles to execute, and over
 * which domains:
 *
 *  - CycleScheduler executes every cycle in order over one domain
 *    spanning the whole fabric: the classic cycle-driven loop
 *    (tests/test_golden_sim.cc pins its results).
 *  - EventScheduler (sim/event_queue.hh) executes only cycles on which
 *    something can happen. Injection timers are precomputed from the
 *    per-node RNG streams by a block-batched draw engine, and spans
 *    where the fabric is empty and no timer is due are skipped in one
 *    jump; while flits are in flight every cycle is executed, because
 *    in this single-cycle-per-hop model every in-flight flit is
 *    eligible to move each cycle. Both backends consume identical
 *    per-router RNG streams, so results are trace-equivalent
 *    (tests/test_sched_equiv.cc diffs the full result JSON).
 *  - ShardedCycleScheduler (sim/shard_sched.hh) executes every cycle
 *    over one domain per spatial shard, on worker threads, with the
 *    cut-link policy in place of the live-buffer one.
 *
 * Mode selection: SimConfig::schedMode is a tri-state. Auto defers to
 * the EBDA_SCHED_MODE environment variable if set ("cycle"/"event"),
 * otherwise to the load heuristic in resolveSchedMode — event mode
 * pays off exactly where most cycles are empty, i.e. at low injection
 * rates; near saturation the cycle loop's linear scan wins. An
 * explicit Cycle/Event setting always wins (so equivalence tests stay
 * meaningful under a CI-wide EBDA_SCHED_MODE override).
 */

#ifndef EBDA_SIM_SCHEDULER_HH
#define EBDA_SIM_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ebda::sim {

class Simulator;
struct SimResult;

/** How simulated time advances (SimConfig::schedMode). */
enum class SchedMode : std::uint8_t
{
    /** Resolve via EBDA_SCHED_MODE, else the injection-rate
     *  heuristic. The default: existing configs keep their exact
     *  serialized form (Auto is never emitted to JSON). */
    Auto,
    /** Execute every cycle (the pre-seam loop, bit for bit). */
    Cycle,
    /** Skip provably idle cycles via the event queue. */
    Event,
};

std::string toString(SchedMode mode);
std::optional<SchedMode> schedModeFromString(const std::string &text);

/**
 * Resolve Auto to a concrete backend for a run at the given injection
 * rate: the EBDA_SCHED_MODE environment variable ("cycle" / "event")
 * wins when set; otherwise event mode below the load heuristic's
 * cutoff, cycle mode at or above it. Explicit Cycle/Event pass through
 * untouched. The sweep runner calls this per job (after cache-key
 * computation, so both modes share cache entries); Simulator::run
 * calls it for direct users.
 *
 * `numNodes` scales the cutoff to the fabric: what makes a cycle worth
 * skipping is the *fabric-wide* arrival rate (rate x nodes), so on
 * fabrics larger than the reference the cutoff shrinks proportionally
 * — a 0.005 rate that leaves a 64-node mesh mostly idle keeps a
 * 4096-node dragonfly busy every cycle. At or below the reference
 * size (and with numNodes 0, the legacy form) the cutoff is exactly
 * kEventModeRateThreshold, so existing resolutions are unchanged.
 */
SchedMode resolveSchedMode(SchedMode requested, double injectionRate,
                           std::size_t numNodes = 0);

/** Auto picks event mode strictly below this injection rate
 *  (flits/node/cycle) at the reference fabric size. At 0.01 on the
 *  benchmarked 16x16 mesh the cycle loop already spends most of its
 *  time on empty cycles. */
inline constexpr double kEventModeRateThreshold = 0.01;

/** Fabric size the rate threshold was calibrated on (16x16 mesh).
 *  Larger fabrics scale the cutoff down by refNodes/numNodes. */
inline constexpr std::size_t kEventModeRefNodes = 256;

/**
 * A scheduling backend: drives the warmup / measurement / drain phases
 * over the simulator's phase code and returns the final cycle (the
 * value the cycle counter held when the loop ended). Termination
 * verdicts (deadlock, abort) are written into `result`; the caller
 * fills in everything derivable from post-run state.
 */
class SchedulerBackend
{
  public:
    virtual ~SchedulerBackend() = default;

    virtual std::uint64_t run(Simulator &sim, SimResult &result) = 0;

    /** Cycles the backend actually executed (== cycles for the cycle
     *  loop; typically far fewer for the event loop at low load). */
    std::uint64_t wakeups = 0;
};

/** The cycle-driven backend: every cycle, in order. */
class CycleScheduler final : public SchedulerBackend
{
  public:
    std::uint64_t run(Simulator &sim, SimResult &result) override;
};

} // namespace ebda::sim

#endif // EBDA_SIM_SCHEDULER_HH
