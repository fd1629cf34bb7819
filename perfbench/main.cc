/**
 * @file
 * ebda_perfbench: run one benchmark workload for a given time and print
 * its metrics. See README.md for the workloads and metrics.
 *
 *   ebda_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--work-dir <dir>] [--trace-out <file>]
 *
 * Rounds of the workload repeat until --seconds have passed (at least
 * three, or four when tracing). With --trace 0 the last stdout line
 * holds the end-to-end metrics; with --trace 1 every other round
 * records spans, the last line holds the per-layer metrics, and the
 * spans go to --trace-out. Informational lines come first: host shape,
 * provenance of what executed, the simulated-result digest, and a
 * summary of every workload-level rate. Exit 2 on bad arguments, 1 when
 * the workload cannot run.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "perfbench.hh"
#include "sim/event_queue.hh"
#include "sweep/sweep_spec.hh"
#include "util/json.hh"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workDir = ".";
    std::string traceOut;
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The result line's metrics of an untraced run. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/** The result line's metrics of a traced run. A layer the workload
 *  does not call reads 0. */
constexpr MetricDef kPerLayer[] = {
    {"topo.build_s", "s"},
    {"routing.make_router_s", "s"},
    {"routing.table_compile_s", "s"},
    {"routing.table_compiled", "ratio"},
    {"routing.table_bytes", "B"},
    {"routing.route_calls", "count"},
    {"sim.construct_s", "s"},
    {"sim.warmup_s", "s"},
    {"sim.measure_s", "s"},
    {"sim.drain_s", "s"},
    {"sim.wakeup_frac", "ratio"},
    {"sim.ns_per_flit_move", "ns"},
    {"sim.cycles", "count"},
    {"sim.flit_moves", "count"},
    {"sim.packets_ejected", "count"},
    {"sim.stall_route_compute", "count"},
    {"sim.stall_vc_starved", "count"},
    {"sim.stall_credit_starved", "count"},
    {"sim.stall_switch_lost", "count"},
    {"sim.shards", "count"},
    {"sim.shard_threads", "count"},
    {"sweep.cache_open_s", "s"},
    {"sweep.grid_s", "s"},
    {"sweep.refine_s", "s"},
    {"sweep.cache_blocked_s", "s"},
    {"sweep.hit_frac", "ratio"},
    {"sweep.worker_busy_frac", "ratio"},
    {"sweep.job_s_p50", "s"},
    {"sweep.job_s_p90", "s"},
    {"sweep.simulated", "count"},
    {"sweep.cache_hits", "count"},
    {"sweep.refine_points", "count"},
    {"cdg.dally_s", "s"},
    {"cdg.mm_s", "s"},
    {"cdg.connectivity_s", "s"},
    {"cdg.turn_enum_s", "s"},
    {"cdg.dependencies", "count"},
    {"cdg.mm_states", "count"},
    {"cdg.turn_combinations", "count"},
    {"cdg.mm_states_per_s", "1/s"},
    {"core.validate_s", "s"},
    {"sim_cycles_per_s", "1/s"},
    {"flit_moves_per_s", "1/s"},
    {"verify_s", "s"},
    {"error_rate", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

int
usage(const std::string &message)
{
    std::cerr << "ebda_perfbench: " << message
              << "\nusage: ebda_perfbench --workload "
                 "<knee_study_8x8|idle_16x16|sat_32x32|verify_catalog> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--trace-out <file>]\n";
    return 2;
}

std::optional<Args>
parseArgs(int argc, char **argv, std::string *error)
{
    Args a;
    bool seed = false, secs = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            *error = flag + " needs a value";
            return std::nullopt;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            seed = !value.empty() && *end == '\0' && value[0] != '-';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            secs = !value.empty() && *end == '\0' && a.seconds > 0.0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                *error = "--trace must be 0 or 1";
                return std::nullopt;
            }
            a.trace = value == "1";
        } else if (flag == "--work-dir") {
            a.workDir = value;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            *error = "unknown flag " + flag;
            return std::nullopt;
        }
    }
    if (!seed || !secs) {
        *error = "--seed must be a whole number and --seconds positive";
        return std::nullopt;
    }
    return a;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "knee_study_8x8")
        return makeKneeStudy(a.seed, a.workDir,
                             static_cast<int>(std::max(1u, nproc() / 2)));
    if (a.workload == "idle_16x16")
        return makeIdleSurvey(a.seed);
    if (a.workload == "sat_32x32")
        return makeSaturatedSurvey(a.seed);
    if (a.workload == "verify_catalog")
        return makeVerifyCatalog(a.seed);
    return nullptr;
}

template <typename F>
double
medianOf(const std::vector<Round> &rounds, F &&value)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(value(r));
    return quantile(std::move(v), 0.5);
}

/** Operations per host second of the timed calls: one simulation job
 *  or one checker verdict is one operation. */
double
jobsPerSecond(const Round &r)
{
    return static_cast<double>(r.ops) / r.workSeconds;
}

double
cyclesPerSecond(const Round &r)
{
    return r.simSeconds > 0.0 ? r.simCycles / r.simSeconds : 0.0;
}

double
flitMovesPerSecond(const Round &r)
{
    return r.simSeconds > 0.0 ? r.flitMoves / r.simSeconds : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string error;
    const auto parsed = parseArgs(argc, argv, &error);
    if (!parsed)
        return usage(error);
    const Args &args = *parsed;

    std::unique_ptr<Workload> workload;
    try {
        workload = makeWorkload(args);
    } catch (const std::exception &e) {
        std::cerr << "ebda_perfbench: " << e.what() << '\n';
        return 1;
    }
    if (!workload)
        return usage("unknown workload " + args.workload);

    std::cout << "host {\"nproc\":" << nproc() << ",\"hardware_threads\":"
              << std::thread::hardware_concurrency() << ",\"simd_path\":\""
              << ebda::sim::injectionEngineSimdPath() << "\"}\n";

    // Rounds alternate untraced / traced when tracing, so both kinds
    // see the same warm state and their difference is the overhead.
    Tracer tracer;
    std::vector<Round> plain, traced;
    std::vector<double> plain_s, traced_s;
    const int min_rounds = args.trace ? 4 : 3;
    const auto start = Clock::now();
    try {
        for (int i = 0; i < min_rounds
                        || seconds(Clock::now() - start) < args.seconds;
             ++i) {
            const bool record = args.trace && i % 2 == 1;
            tracer.beginRun(args.workload + "/s" + std::to_string(args.seed)
                                + "/r" + std::to_string(i),
                            record);
            Round r;
            const double s =
                tracer.span("round", [&] { r = workload->round(tracer, i); });
            (record ? traced : plain).push_back(std::move(r));
            (record ? traced_s : plain_s).push_back(s);
            // Hand the round's freed heap back to the OS, so the peak
            // RSS is that of one round and not of allocator
            // fragmentation across however many rounds fit the time.
            malloc_trim(0);
        }
    } catch (const std::exception &e) {
        std::cerr << "ebda_perfbench: " << args.workload << ": " << e.what()
                  << '\n';
        return 1;
    }

    std::uint64_t attempted = 0, failed = 0;
    bool same_digest = true;
    for (const auto *set : {&plain, &traced})
        for (const Round &r : *set) {
            attempted += r.ops;
            failed += r.failed;
            same_digest = same_digest && r.digest == plain.front().digest;
        }
    const bool correct = failed == 0 && same_digest && attempted > 0;
    const double error_rate = attempted
        ? static_cast<double>(failed) / static_cast<double>(attempted)
        : 1.0;

    for (const std::string &line : plain.front().provenance)
        std::cout << "provenance " << line << '\n';
    std::cout << "digest " << args.workload << " seed " << args.seed << ' '
              << ebda::sweep::keyToHex(plain.front().digest)
              << (same_digest ? "" : " (rounds DISAGREE)") << '\n';

    std::cout << "rounds work_s";
    for (const Round &r : plain)
        std::cout << ' ' << r.workSeconds;
    std::cout << " | setup_s";
    for (const Round &r : plain)
        for (const double v : r.setupSamples)
            std::cout << ' ' << v;
    std::cout << '\n';

    // Every workload-level metric, by name with its unit.
    std::vector<double> setups;
    for (const Round &r : plain)
        setups.insert(setups.end(), r.setupSamples.begin(),
                      r.setupSamples.end());
    const double setup_s = quantile(setups, 0.5);
    const double jobs_per_s = medianOf(plain, jobsPerSecond);
    const double rss_mb = peakRssMb();
    const Round &first = plain.front();
    std::cout << "summary rounds " << plain.size() + traced.size()
              << " setup_s " << setup_s << " s | jobs_per_s " << jobs_per_s
              << " 1/s";
    if (first.simCycles > 0.0)
        std::cout << " | sim_cycles_per_s "
                  << medianOf(plain, cyclesPerSecond) << " 1/s";
    if (first.flitMoves > 0.0)
        std::cout << " | flit_moves_per_s "
                  << medianOf(plain, flitMovesPerSecond) << " 1/s";
    if (first.layer.count("verify_s"))
        std::cout << " | verify_s "
                  << medianOf(plain,
                              [](const Round &r) { return r.workSeconds; })
                  << " s";
    std::cout << " | peak_rss_mb " << rss_mb << " MB | error_rate "
              << error_rate << " ratio\n";

    std::map<std::string, double> values;
    const MetricDef *defs = kEndToEnd;
    std::size_t ndefs = std::size(kEndToEnd);
    if (!args.trace) {
        values["setup_s"] = setup_s;
        values["jobs_per_s"] = jobs_per_s;
        values["peak_rss_mb"] = rss_mb;
    } else {
        defs = kPerLayer;
        ndefs = std::size(kPerLayer);
        for (const MetricDef &d : kPerLayer)
            values[d.name] = medianOf(traced, [&](const Round &r) {
                const auto it = r.layer.find(d.name);
                return it == r.layer.end() ? 0.0 : it->second;
            });
        values["sim_cycles_per_s"] = medianOf(traced, cyclesPerSecond);
        values["flit_moves_per_s"] = medianOf(traced, flitMovesPerSecond);
        values["error_rate"] = error_rate;
        values["trace.overhead_frac"] = quantile(traced_s, 0.5)
                / quantile(plain_s, 0.5)
            - 1.0;
        values["trace.spans"] = static_cast<double>(tracer.spans().size());

        tracer.printSelfTimes(std::cout);
        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut);
            tracer.writeJsonl(out);
            if (!out) {
                std::cerr << "ebda_perfbench: cannot write "
                          << args.traceOut << '\n';
                return 1;
            }
        }
    }

    ebda::JsonWriter w;
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.beginObject("metrics");
    for (std::size_t i = 0; i < ndefs; ++i) {
        w.beginObject(defs[i].name);
        w.field("value", values[defs[i].name], 17);
        w.field("unit", defs[i].unit);
        w.end();
    }
    w.end();
    w.end();
    std::cout << w.str() << std::endl;
    return 0;
}
