/**
 * @file
 * Shared pieces of the end-to-end benchmark: the span recorder, the
 * per-round record every workload returns, and the workload factories.
 *
 * A workload runs in *rounds*. Each round sets up from scratch (the
 * `setup` span), then makes the timed calls (the `work` span), then
 * checks its outputs. main.cc repeats rounds for the requested time and
 * turns the rounds into metrics.
 */

#ifndef EBDA_PERFBENCH_PERFBENCH_HH
#define EBDA_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simconfig.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** One timed call into a layer of the library. */
struct Span
{
    std::string name;
    /** Index of the enclosing span in the recorder, -1 for a root. */
    int parent = -1;
    /** Id of the workload run (workload/seed/round) it belongs to. */
    std::string run;
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * Times the benchmark's calls into the library. Every call is timed,
 * because the end-to-end metrics need the durations; spans are kept
 * only while recording is on (traced rounds), in memory, and written
 * out when the run ends. No span comes from inside the library.
 */
class Tracer
{
  public:
    /** Start a workload run; spans recorded from now on carry `id`. */
    void
    beginRun(std::string id, bool record)
    {
        runId = std::move(id);
        recordOn = record;
    }

    /** Time fn() as a span named `name`, nested in the innermost open
     *  span. Returns the duration in seconds. */
    template <typename F>
    double
    span(const char *name, F &&fn)
    {
        Open open(*this, name);
        fn();
        return open.close();
    }

    /** Record an interval timed elsewhere (the simulator's phase hooks)
     *  as a child of the innermost open span. */
    void interval(const char *name, Clock::time_point start,
                  Clock::time_point end);

    const std::vector<Span> &spans() const { return recorded; }

    /** One JSON object per span: run, id, parent, name, start and end
     *  in seconds since the first span, and self time. */
    void writeJsonl(std::ostream &out) const;

    /** Per span name: count, total seconds and self seconds (duration
     *  minus the time its child spans cover). */
    void printSelfTimes(std::ostream &out) const;

  private:
    /** Scope of one span; closes it on unwind too. */
    class Open
    {
      public:
        Open(Tracer &t, const char *name);
        ~Open();
        Open(const Open &) = delete;
        Open &operator=(const Open &) = delete;
        double close();

      private:
        Tracer &tracer;
        Clock::time_point start;
        int index = -1;
        bool closed = false;
    };

    std::vector<double> selfSeconds() const;

    std::string runId;
    bool recordOn = false;
    std::vector<Span> recorded;
    std::vector<int> openStack;
};

/** What one round of a workload did and measured. */
struct Round
{
    /** Seconds from the start of a setup to its end, where the first
     *  timed call follows. Rounds that are few per run set up several
     *  times and keep the last. */
    std::vector<double> setupSamples;
    /** Host seconds the rate metrics divide by (see README.md). */
    double workSeconds = 0.0;
    /** Operations (simulation jobs or checker verdicts) attempted and
     *  failed. */
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /** Simulated cycles and flit moves over simSeconds of host time;
     *  zero when the workload simulates nothing. */
    double simCycles = 0.0;
    double flitMoves = 0.0;
    double simSeconds = 0.0;
    /** Per-layer values of this round, by metric name. */
    std::map<std::string, double> layer;
    /** Digest of the simulated results / verdicts; rounds of one run
     *  must agree. */
    std::uint64_t digest = 0;
    /** What actually executed, one JSON object per line. */
    std::vector<std::string> provenance;
};

/** A named workload; its inputs are fixed at construction from the
 *  seed, each round() call repeats the same work. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual Round round(Tracer &tracer, int index) = 0;
};

std::unique_ptr<Workload> makeKneeStudy(std::uint64_t seed,
                                        const std::string &work_dir,
                                        int workers);
std::unique_ptr<Workload> makeIdleSurvey(std::uint64_t seed);
std::unique_ptr<Workload> makeSaturatedSurvey(std::uint64_t seed);
std::unique_ptr<Workload> makeVerifyCatalog(std::uint64_t seed);

/** @name Helpers shared by the workloads
 *  @{ */

/** The result's JSON with the execution metadata (resolved backend and
 *  wakeups) normalised away: equal for any backend that simulates the
 *  same thing. */
std::string simulatedJson(const ebda::sim::SimResult &result);

/** A simulation job fails on an abort, a watchdog stop (every router
 *  simulated here is meant to be deadlock-free), or a run that drained
 *  without delivering every measured packet. Not draining at
 *  saturation is a simulated outcome, not a failure. Errors thrown by
 *  the library are counted by the caller. */
bool simulationFailed(const ebda::sim::SimResult &result);

/** Linear-interpolated quantile q in [0, 1] of `values` (copied). */
double quantile(std::vector<double> values, double q);

/** Sums over the executed simulations of a round: the routing and sim
 *  layers' counters, and what actually executed (provenance). */
struct SimTotals
{
    /** Fold in one executed run on a fabric of `nodes` nodes whose
     *  config requested `shards` (SimConfig::shards). */
    void add(const ebda::sim::SimResult &r, std::size_t nodes, int shards);

    /** The routing.* and sim.* counters, into round.layer. */
    void report(Round &round) const;

    /** {"runs":..,"sched":{..},"wakeups":..,...} */
    std::string provenance() const;

    std::uint64_t runs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t cycleRuns = 0;
    std::uint64_t eventRuns = 0;
    std::uint64_t routeCalls = 0;
    std::uint64_t compileNanos = 0;
    std::uint64_t tablesCompiled = 0;
    std::uint64_t maxTableBytes = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t stallRouteCompute = 0;
    std::uint64_t stallVcStarved = 0;
    std::uint64_t stallCreditStarved = 0;
    std::uint64_t stallSwitchLost = 0;
    int maxShards = 0;
    unsigned maxShardThreads = 0;
};

/** The shard count and worker threads a run resolved to: event-mode
 *  runs never shard; cycle-mode runs follow resolveShardCount. */
std::pair<int, unsigned> resolvedShards(const ebda::sim::SimResult &r,
                                        std::size_t nodes, int shards);

/** @} */

} // namespace perfbench

#endif // EBDA_PERFBENCH_PERFBENCH_HH
