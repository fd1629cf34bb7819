/**
 * @file
 * Idle-span skipping for the serial loop (Simulator::runSerial).
 *
 * Model: in this single-cycle-per-hop simulator every in-flight flit
 * is eligible to move every cycle, so while the fabric holds flits
 * every cycle must execute. The win is elsewhere: at low injection
 * rates almost all cycles are *empty* (no flits in flight, no queued
 * packets), and an empty cycle's only side effects are
 *  - one Bernoulli draw per live node (the injection coin),
 *  - the unconditional advance of the two arbiter rotations,
 *  - the genCycles counter.
 * All three are reproducible out of band: the injection draws by
 * running the per-node xoshiro256** streams forward in a block-batched
 * engine (InjectionEngine, below) whose helper threads each draw a
 * fixed slice of the streams whole windows of cycles ahead of the
 * serial loop, the rotations by closed-form resync
 * (VcAllocator::resyncOffset / SwitchAllocator::resyncOffset), and the
 * counter by adding the span length. So when the fabric is empty the
 * serial loop jumps straight to the next cycle it must execute,
 * Simulator::nextDeadline: the earliest of the draw engine's next
 * injection hit, the measurement-phase boundaries, the abort-poll
 * cadence, the cycle limit, the next fault event and the retransmit
 * and reply timers. Idle routers are never touched.
 *
 * Trace equivalence (tests/test_sched_equiv.cc): a skipping and a
 * non-skipping run consume identical per-router RNG streams and execute
 * identical phase code on every non-empty cycle, so every SimResult
 * field except the trailing schedMode/wakeups pair is identical by
 * construction. The injection engine guarantees the stream part: its
 * vectorized pass is the exact xoshiro256** recurrence (any divergence
 * from interleaved destination draws is impossible because a lane that
 * hits is re-played through the scalar Rng — including
 * TrafficGenerator::dest — from a pre-block state snapshot, and the
 * replayed state is written back). By induction over blocks the
 * engine's streams equal the streams per-cycle generation would have
 * produced. Which thread draws a window cannot matter: a slice's
 * windows are drawn one at a time and in order, and the hits reach the
 * serial loop sorted by (cycle, node) whichever thread found them.
 *
 * Which runs skip is decided once, by Simulator::resolveSchedule: the
 * mode must resolve to Event, the selection policy must not be Random
 * (its draws come from the same per-router streams during allocation,
 * so the streams cannot be precomputed) and the per-flit packet rate
 * must lie strictly between 0 and 1 (Rng::nextBool draws nothing
 * otherwise). Fault plans and the protocol layer skip too: their fault
 * events, retransmit backoffs and reply service timers are deadlines.
 * Every other Event run executes each cycle, exactly as a Cycle run
 * does (same wakeups; results identical by construction).
 */

#ifndef EBDA_SIM_EVENT_QUEUE_HH
#define EBDA_SIM_EVENT_QUEUE_HH

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "sim/router.hh"
#include "sim/traffic.hh"
#include "util/logging.hh"

namespace ebda::sim {

/**
 * Eight xoshiro256** streams in structure-of-arrays form: state word w
 * of lane i at s[w][i], so one aligned 512-bit load fetches word w of
 * all eight lanes. One Lanes8 covers nodes [8g, 8g+8) of group g.
 */
struct alignas(64) Lanes8
{
    std::uint64_t s[4][8];
};

namespace detail {

/**
 * One block pass over a group at `width` streams per vector: 8 (needs
 * AVX-512F on the running CPU), 4 (needs AVX2) or 1. Advances every
 * stream of `g` 64 draws and returns the mask of streams (bit i: lane
 * i) that drew a value whose top 53 bits are below `thr`. The engine
 * runs the widest width the CPU executes; this entry point lets tests
 * run the others.
 */
unsigned injectionBlockPass(unsigned width, Lanes8 &g, std::uint64_t thr);

} // namespace detail

/**
 * The injection timer source: advances every node's RNG stream in
 * 64-cycle blocks, 8, 4 or 1 streams in lockstep (the widest vector
 * the CPU executes: AVX-512, AVX2 or one word; one block pass written
 * once for all three), and materializes the rare sub-threshold draws
 * as (cycle, node, dest) hit records. The vector pass only *detects*
 * lanes with a hit; any such lane is re-played through the scalar Rng
 * from a pre-block state snapshot so the interleaved
 * TrafficGenerator::dest draws land in the exact positions per-cycle
 * generation would have given them, and the replayed state overwrites
 * the vector lane. A no-hit vector lane consumed exactly one draw per
 * cycle, so by induction every lane state at every block boundary
 * equals the true stream's.
 *
 * Windows and helpers: the engine draws windows of 4096 cycles (64
 * blocks). The 8-stream groups split into contiguous slices, one per
 * helper thread. Helpers may draw up to kWindowsAhead windows ahead,
 * counting the one the serial loop takes next. When it takes window w
 * it waits until every slice has drawn w, copies out the slices' hits,
 * releases window w + kWindowsAhead and only then sorts w's hits by
 * (cycle, node) — the order per-cycle generation scans the nodes in —
 * so drawing overlaps the pipeline work. A slice whose helper has not
 * started window w by then (the OS has not run it) is drawn by the
 * serial loop itself instead of waited for. With no helpers (a 1-CPU
 * host) there is one slice, and the serial loop draws each window
 * itself, through the same code, when it takes it. Helpers block on a
 * condition variable when they are kWindowsAhead windows ahead, and the
 * destructor joins them, also when a run ends with windows in flight.
 *
 * Stream ownership: the engine owns the streams for the whole run.
 * Each slice's streams are advanced one window at a time, in window
 * order, by its helper or by the serial loop; the mutex hand-off orders
 * each window after the one before, so the draw sequence of every
 * stream is the same whichever thread runs it. A skipping run has no
 * other consumer of these streams: Random selection, the only other
 * draw site, does not skip, and fault plans and protocol service
 * jitter draw from substreams of their own. So the live per-router Rng
 * objects are left untouched at their seed state. A dead router's
 * lane keeps drawing, which nothing can observe: routers never come
 * back, and admission drops the packets its hits draw.
 */
class InjectionEngine
{
  public:
    /** Helpers an engine starts by default: one fewer than the CPUs
     *  this process may run on (hostThreads()), the serial loop
     *  keeping the last. */
    static unsigned defaultHelpers();

    /** One block pass over a group (detail::injectionBlockPass at a
     *  fixed width). */
    using BlockPass = unsigned (*)(Lanes8 &, std::uint64_t);

    /**
     * @param routers     per-node routers; their rng states seed the
     *                    lanes (the objects are not modified)
     * @param traffic     destination generator for replayed hits
     * @param packet_rate per-cycle Bernoulli probability, in (0, 1)
     * @param horizon     no hits are sought at or beyond this cycle
     * @param helpers     helper threads, clamped to [0, lane groups];
     *                    the hit stream is the same for every count
     */
    InjectionEngine(const std::vector<Router> &routers,
                    const TrafficGenerator &traffic, double packet_rate,
                    std::uint64_t horizon,
                    unsigned helpers = defaultHelpers());
    ~InjectionEngine();
    InjectionEngine(const InjectionEngine &) = delete;
    InjectionEngine &operator=(const InjectionEngine &) = delete;

    /** Helper threads drawing windows (0: the serial loop draws
     *  them). */
    unsigned helpers() const
    {
        return static_cast<unsigned>(threads.size());
    }

    /**
     * Cycle of the earliest pending hit, taking windows on demand;
     * std::nullopt when no stream hits again before the horizon.
     */
    std::optional<std::uint64_t>
    nextHitCycle()
    {
        while (hitHead >= hits.size()) {
            if (frontier >= horizon)
                return std::nullopt;
            takeWindow();
        }
        return hits[hitHead].cycle;
    }

    /**
     * Apply every hit landing exactly at `cycle` (non-decreasing
     * between calls, below the horizon), in ascending node order —
     * the order per-cycle generation scans the nodes and allocates
     * packets in.
     */
    template <typename Fn>
    void
    consumeHits(std::uint64_t cycle, Fn &&apply)
    {
        while (frontier <= cycle)
            takeWindow();
        EBDA_ASSERT(hitHead >= hits.size()
                        || hits[hitHead].cycle >= cycle,
                    "injection hit skipped by an idle jump");
        while (hitHead < hits.size() && hits[hitHead].cycle == cycle) {
            apply(hits[hitHead].node, hits[hitHead].dest);
            ++hitHead;
        }
    }

    /** Slice-windows drawn so far by the helper threads and by the
     *  serial loop (which draws a slice whose helper has not started
     *  the window, and every slice when there are no helpers): tells
     *  helpers that never ran from helpers that ran slowly. */
    struct DrawCounts
    {
        std::uint64_t helper = 0;
        std::uint64_t serial = 0;
    };
    DrawCounts drawCounts() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return counts;
    }

    /** Cycles [0, drawnCycles()) have been drawn for every stream. */
    std::uint64_t drawnCycles() const { return frontier; }

    /** xoshiro256** state of `node`'s stream after drawnCycles()
     *  draws; no window may be in flight (take every hit first). */
    std::array<std::uint64_t, 4> streamState(std::uint32_t node) const;

  private:
    /** Windows the helpers may draw ahead, counting the one the
     *  serial loop takes next; each slice keeps one hit buffer per
     *  window in flight. Two keep the helpers busy while the serial
     *  loop merges. */
    static constexpr std::uint64_t kWindowsAhead = 2;

    struct Hit
    {
        std::uint64_t cycle;
        std::uint32_t node;
        std::uint32_t dest;
    };

    /** Groups [firstGroup, endGroup) with the hits window w found in
     *  hits[w % kWindowsAhead]. Windows [0, claimed) have been started
     *  and [0, drawn) finished, one at a time and in order (both
     *  guarded by mtx). */
    struct Slice
    {
        std::size_t firstGroup;
        std::size_t endGroup;
        std::array<std::vector<Hit>, kWindowsAhead> hits;
        std::uint64_t claimed = 0;
        std::uint64_t drawn = 0;
    };

    /** Collect the next window from every slice (drawing a slice's
     *  share here when its helper has not started it), merge its hits
     *  and release one more window. */
    void takeWindow();
    /** Let the helpers draw windows [0, upto). */
    void releaseWindows(std::uint64_t upto);
    /** Draw window w for one slice's streams. */
    void drawWindow(Slice &slice, std::uint64_t w);
    /** Authoritative scalar replay of the flagged lanes of one group
     *  over the block starting at `base` (see class comment). */
    void replayGroup(std::size_t g, unsigned lane_mask,
                     const Lanes8 &snap, std::uint64_t base,
                     std::vector<Hit> &out);
    void helperLoop(Slice &slice);
    void stopHelpers();

    const TrafficGenerator &traffic;
    std::uint64_t thr = 0;
    std::uint64_t horizon;
    /** Windows end on block boundaries: the horizon rounded up. */
    std::uint64_t drawEnd;
    std::uint64_t numWindows;
    /** Windows merged into `hits`; cycles [0, frontier) are drawn. */
    std::uint64_t taken = 0;
    std::uint64_t frontier = 0;
    std::uint32_t numNodes;
    /** The block pass chosen for this CPU at construction. */
    BlockPass pass;
    std::vector<Lanes8> lanes;
    std::vector<Slice> slices;
    std::vector<Hit> hits;
    std::size_t hitHead = 0;

    /** Hand-off between the serial loop and the helpers: windows
     *  [0, released) may be drawn; each Slice::drawn reports back. */
    mutable std::mutex mtx;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    std::uint64_t released = 0;
    DrawCounts counts;
    bool stopping = false;
    std::vector<std::thread> threads;
};

/** The SIMD path the injection draw engine dispatched to on this
 *  machine: "avx512", "avx2" or "scalar" (bench_sched_mode prints it
 *  so perf numbers are interpretable across hosts). */
const char *injectionEngineSimdPath();

} // namespace ebda::sim

#endif // EBDA_SIM_EVENT_QUEUE_HH
