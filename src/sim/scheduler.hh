/**
 * @file
 * How simulated time advances: the scheduling mode and its resolution.
 *
 * The pipeline stages (generate, injection fill, route compute and VC
 * allocation, switch traversal, eject) are one kernel set: templates
 * over a downstream policy (sim/downstream.hh) that run over a pipeline
 * domain's active sets and take the current cycle as a parameter. Two
 * loops drive them, and Simulator::resolveSchedule picks one per run,
 * together with the shard count and whether idle spans are skipped:
 *
 *  - Simulator::runSerial executes the cycles in order over one domain
 *    spanning the whole fabric (tests/test_golden_sim.cc pins its
 *    results). It owns all per-run bookkeeping: fault events, retry
 *    release, stranded scans, protocol replies, the watchdog with
 *    recovery escalation and the drain test. When the run can skip
 *    (sim/event_queue.hh) it also jumps over spans where the fabric is
 *    empty and no packet awaits injection, straight to the next
 *    deadline (Simulator::nextDeadline), and draws injections from a
 *    block-batched engine; skipping and non-skipping runs are
 *    trace-equivalent (tests/test_sched_equiv.cc diffs the full result
 *    JSON).
 *  - runSharded (sim/shard_sched.hh) executes every cycle over one
 *    domain per spatial shard, on worker threads, with the cut-link
 *    policy in place of the live-buffer one. Its barrier hook uses the
 *    serial loop's watchdog and drain test.
 *
 * Mode selection: SimConfig::schedMode is a tri-state. Auto defers to
 * the EBDA_SCHED_MODE environment variable if set ("cycle", "event" or
 * "auto"; anything else is an error), otherwise to the load heuristic
 * in resolveSchedMode — skipping pays off exactly where most cycles are
 * empty, i.e. at low injection rates; near saturation the plain loop
 * wins. An explicit Cycle/Event setting always wins (so equivalence
 * tests stay meaningful under a CI-wide EBDA_SCHED_MODE override).
 */

#ifndef EBDA_SIM_SCHEDULER_HH
#define EBDA_SIM_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ebda::sim {

/** How simulated time advances (SimConfig::schedMode). */
enum class SchedMode : std::uint8_t
{
    /** Resolve via EBDA_SCHED_MODE, else the injection-rate
     *  heuristic. The default: existing configs keep their exact
     *  serialized form (Auto is never emitted to JSON). */
    Auto,
    /** Execute every cycle. */
    Cycle,
    /** Skip provably idle cycles where the run allows it
     *  (sim/event_queue.hh). */
    Event,
};

std::string toString(SchedMode mode);
std::optional<SchedMode> schedModeFromString(const std::string &text);

/**
 * Resolve Auto to a concrete mode for a run at the given injection
 * rate: the EBDA_SCHED_MODE environment variable ("cycle" / "event")
 * wins when set; otherwise event mode below the load heuristic's
 * cutoff, cycle mode at or above it. Explicit Cycle/Event pass through
 * untouched. Simulator::resolveSchedule calls this once per run (after
 * the sweep runner has computed the cache key, so both modes share
 * cache entries).
 *
 * `numNodes` scales the cutoff to the fabric: what makes a cycle worth
 * skipping is the *fabric-wide* arrival rate (rate x nodes), so on
 * fabrics larger than the reference the cutoff shrinks proportionally
 * — a 0.005 rate that leaves a 64-node mesh mostly idle keeps a
 * 4096-node dragonfly busy every cycle. At or below the reference
 * size (and with numNodes 0, the legacy form) the cutoff is exactly
 * kEventModeRateThreshold, so existing resolutions are unchanged.
 *
 * @throws std::invalid_argument when Auto consults an EBDA_SCHED_MODE
 *         that is not "cycle", "event" or "auto".
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

/** What one run executes, resolved once by Simulator::run. */
struct Schedule
{
    /** The resolved mode (never Auto); reported in SimResult. */
    SchedMode mode = SchedMode::Cycle;
    /** Spatial shards: 1 runs the serial loop, more the sharded one. */
    int shards = 1;
    /** The serial loop jumps idle spans (sim/event_queue.hh): Event
     *  mode, selection not Random and a packet rate in (0, 1). */
    bool skipIdle = false;
};

} // namespace ebda::sim

#endif // EBDA_SIM_SCHEDULER_HH
