/**
 * @file
 * Scaling study: the Mendlovic-Matias fixpoint checker vs the Dally
 * relation-CDG oracle, wall-clock, across mesh/torus/dragonfly/
 * full-mesh sizes. The CDG oracle walks channel dependencies; the MM
 * checker iterates a release fixpoint over reachable routing states —
 * this bench quantifies what the exactness of MM costs (and verifies
 * the two verdicts agree at every size). A last row times the Section-2
 * enumerate-then-verify flow: every one of the 65,536 turn-removal
 * combinations of a 4x4 mesh with 2 VCs per dimension, checked by the
 * turn-level Dally oracle.
 *
 * The table rows and the enumeration run on every host thread
 * (hostThreads()). Two within-run ratio rows time the state walk's
 * source classes on one thread: the checkers once on a relation as
 * declared and once through a wrapper that keeps the default source
 * classes (one per source). The grouped walk runs XY on the 24x24 mesh
 * (source-independent, so one class), its Dally speedup gated at >= 4x;
 * the source-classes row runs Odd-Even on the 16x16 mesh (one class per
 * source column), gated at >= 3x. A ratio taken within one run holds on
 * any host. A third ratio row times Dally and MM on 24x24 XY at one
 * thread and at hostThreads(), the reports compared in full; both
 * speedups are gated at >= 2x only when hostThreads() >= 4, and smaller
 * hosts print a NOTICE instead.
 *
 * Machine-readable output: the JSON summary is printed to stdout and,
 * when EBDA_CHECKER_BENCH_JSON is set, written to that path (same
 * convention as bench_route_compute's BENCH_sim.json feed). Exits
 * non-zero when the checkers disagree, a relation is not deadlock-free,
 * the enumeration counts drift from 65,536 / 68 / 68 / 68, the two walks
 * of a ratio row disagree, or a speedup falls below its gate.
 */

#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "cdg/mm_check.hh"
#include "cdg/relation_cdg.hh"
#include "cdg/turn_model_enum.hh"
#include "sweep/router_factory.hh"
#include "topo/network.hh"
#include "util/host_threads.hh"
#include "util/table.hh"

namespace {

using namespace ebda;

struct Config
{
    std::string label;
    std::string router;
    topo::Network net;
};

std::vector<Config>
configs()
{
    std::vector<Config> out;
    for (int k : {8, 16, 24})
        out.push_back({"mesh " + std::to_string(k) + "x"
                           + std::to_string(k),
                       "xy", topo::Network::mesh({k, k}, {1, 1})});
    out.push_back({"mesh 16x16", "odd-even",
                   topo::Network::mesh({16, 16}, {1, 1})});
    out.push_back(
        {"torus 8x8", "updown", topo::Network::torus({8, 8}, {2, 2})});
    out.push_back({"dragonfly(4,2,2)", "dragonfly-min",
                   topo::Network::dragonfly(4, 2, 2)});
    out.push_back({"dragonfly(6,3,3)", "dragonfly-min",
                   topo::Network::dragonfly(6, 3, 3)});
    out.push_back({"fullmesh 16", "fullmesh-2hop",
                   topo::Network::fullMesh(16)});
    return out;
}

double
secondsOf(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Pinned outcome of the 4x4 2-VC turn-model space (EXPERIMENTS.md). */
constexpr std::size_t kTurnCombinations = 65536;
constexpr std::size_t kTurnDeadlockFree = 68;

/** Minimum Dally speedups over one-source graphs: of the grouped walk
 *  (one class) and of Odd-Even's column classes. */
constexpr double kGroupedDallyGate = 4.0;
constexpr double kClassesDallyGate = 3.0;

/** Minimum Dally and MM speedups of hostThreads() threads over one, and
 *  the host threads below which that gate is not applied. */
constexpr double kThreadsGate = 2.0;
constexpr unsigned kThreadsGateMinHost = 4;

/** Forwards every call to `base` but keeps the default source classes,
 *  one per source, which makes the checkers walk one source at a time. */
class UndeclaredView final : public cdg::RoutingRelation
{
  public:
    explicit UndeclaredView(const cdg::RoutingRelation &base) : base(base) {}

    void
    candidatesInto(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &out) const override
    {
        base.candidatesInto(in, at, src, dest, out);
    }
    std::string name() const override { return base.name(); }
    const topo::Network &network() const override
    {
        return base.network();
    }

  private:
    const cdg::RoutingRelation &base;
};

/** Best of three timings of fn. */
double
bestSecondsOf(const std::function<void()> &fn)
{
    double best = secondsOf(fn);
    for (int rep = 1; rep < 3; ++rep)
        best = std::min(best, secondsOf(fn));
    return best;
}

/**
 * One relation's checkers timed as declared and through UndeclaredView
 * (one-source graphs), best of three each. The walks must agree and
 * the Dally speedup must reach `gate`.
 */
struct WalkRatio
{
    std::string network;
    std::string router;
    double gate = 0.0;
    double dallyS = 0.0, dallyOneS = 0.0, mmS = 0.0, mmOneS = 0.0;
    bool agree = false;
    bool pass = false;

    double dallyRatio() const { return dallyS > 0.0 ? dallyOneS / dallyS : 0.0; }
    double mmRatio() const { return mmS > 0.0 ? mmOneS / mmS : 0.0; }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{\"network\":\"" << network << "\",\"router\":\"" << router
           << "\",\"dally_ms\":" << dallyS * 1e3
           << ",\"dally_one_source_ms\":" << dallyOneS * 1e3
           << ",\"dally_ratio\":" << dallyRatio()
           << ",\"mm_ms\":" << mmS * 1e3
           << ",\"mm_one_source_ms\":" << mmOneS * 1e3
           << ",\"mm_ratio\":" << mmRatio()
           << ",\"dally_ratio_gate\":" << gate
           << ",\"agree\":" << (agree ? "true" : "false")
           << ",\"pass\":" << (pass ? "true" : "false") << "}";
        return os.str();
    }

    std::string
    text() const
    {
        return network + " " + router + ": dally "
            + TextTable::num(dallyS * 1e3, 1) + " ms vs "
            + TextTable::num(dallyOneS * 1e3, 1) + " ms one source ("
            + TextTable::num(dallyRatio(), 1) + "x, gate >= "
            + TextTable::num(gate, 0) + "x), mm "
            + TextTable::num(mmS * 1e3, 1) + " ms vs "
            + TextTable::num(mmOneS * 1e3, 1) + " ms ("
            + TextTable::num(mmRatio(), 1) + "x)"
            + (agree ? "" : "  WALKS DISAGREE");
    }
};

WalkRatio
walkRatio(const std::string &label, const std::vector<int> &dims,
          const std::string &spec, double gate)
{
    const auto net = topo::Network::mesh(dims, {1, 1});
    const auto rel = sweep::makeRouter(net, spec);
    const UndeclaredView undeclared(*rel);
    cdg::CdgReport dally, dallyOne;
    cdg::MmReport mm, mmOne;
    WalkRatio r{label, spec, gate};
    r.dallyS =
        bestSecondsOf([&] { dally = cdg::checkDeadlockFree(*rel, 1); });
    r.dallyOneS = bestSecondsOf(
        [&] { dallyOne = cdg::checkDeadlockFree(undeclared, 1); });
    r.mmS = bestSecondsOf([&] { mm = cdg::checkMendlovicMatias(*rel, 1); });
    r.mmOneS = bestSecondsOf(
        [&] { mmOne = cdg::checkMendlovicMatias(undeclared, 1); });
    r.agree = dally.numDependencies == dallyOne.numDependencies
        && mm.numStates == mmOne.numStates
        && mm.releaseOrder == mmOne.releaseOrder;
    r.pass = r.agree && r.dallyRatio() >= gate;
    return r;
}

/**
 * Dally and MM on 24x24 XY timed at one thread and at hostThreads(),
 * best of three each. The reports must be identical; on a host with at
 * least kThreadsGateMinHost threads both speedups must reach
 * kThreadsGate.
 */
struct ThreadRatio
{
    unsigned threads = 1;
    double dallyOneS = 0.0, dallyS = 0.0, mmOneS = 0.0, mmS = 0.0;
    bool agree = false;
    bool gated = false;
    bool pass = false;

    double dallyRatio() const { return dallyS > 0.0 ? dallyOneS / dallyS : 0.0; }
    double mmRatio() const { return mmS > 0.0 ? mmOneS / mmS : 0.0; }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{\"network\":\"mesh 24x24\",\"router\":\"xy\",\"threads\":"
           << threads << ",\"dally_one_thread_ms\":" << dallyOneS * 1e3
           << ",\"dally_ms\":" << dallyS * 1e3
           << ",\"dally_ratio\":" << dallyRatio()
           << ",\"mm_one_thread_ms\":" << mmOneS * 1e3
           << ",\"mm_ms\":" << mmS * 1e3 << ",\"mm_ratio\":" << mmRatio()
           << ",\"ratio_gate\":" << kThreadsGate
           << ",\"gated\":" << (gated ? "true" : "false")
           << ",\"agree\":" << (agree ? "true" : "false")
           << ",\"pass\":" << (pass ? "true" : "false") << "}";
        return os.str();
    }

    std::string
    text() const
    {
        return "mesh 24x24 xy on " + std::to_string(threads)
            + " threads: dally " + TextTable::num(dallyS * 1e3, 1)
            + " ms vs " + TextTable::num(dallyOneS * 1e3, 1)
            + " ms on one (" + TextTable::num(dallyRatio(), 2) + "x), mm "
            + TextTable::num(mmS * 1e3, 1) + " ms vs "
            + TextTable::num(mmOneS * 1e3, 1) + " ms ("
            + TextTable::num(mmRatio(), 2) + "x)"
            + (agree ? "" : "  REPORTS DIFFER");
    }
};

ThreadRatio
threadRatio()
{
    const auto net = topo::Network::mesh({24, 24}, {1, 1});
    const auto rel = sweep::makeRouter(net, "xy");
    ThreadRatio r;
    r.threads = hostThreads();
    cdg::CdgReport dallyOne, dally;
    cdg::MmReport mmOne, mm;
    r.dallyOneS =
        bestSecondsOf([&] { dallyOne = cdg::checkDeadlockFree(*rel, 1); });
    r.dallyS = bestSecondsOf(
        [&] { dally = cdg::checkDeadlockFree(*rel, r.threads); });
    r.mmOneS =
        bestSecondsOf([&] { mmOne = cdg::checkMendlovicMatias(*rel, 1); });
    r.mmS = bestSecondsOf(
        [&] { mm = cdg::checkMendlovicMatias(*rel, r.threads); });
    r.agree = dally.deadlockFree == dallyOne.deadlockFree
        && dally.numDependencies == dallyOne.numDependencies
        && dally.witness == dallyOne.witness
        && mm.deadlockFree == mmOne.deadlockFree
        && mm.numStates == mmOne.numStates
        && mm.occupiableChannels == mmOne.occupiableChannels
        && mm.releaseOrder == mmOne.releaseOrder
        && mm.stuckWitness == mmOne.stuckWitness;
    r.gated = r.threads >= kThreadsGateMinHost;
    r.pass = r.agree
        && (!r.gated
            || (r.dallyRatio() >= kThreadsGate
                && r.mmRatio() >= kThreadsGate));
    return r;
}

/** Print the tables and the JSON summary; exit 1 when a gate failed. */
void
reproduce()
{
    bench::banner("checker scaling: Mendlovic-Matias fixpoint vs Dally "
                  "relation-CDG oracle");

    TextTable t;
    t.setHeader({"network", "router", "channels", "deps", "states",
                 "dally", "mm", "mm/dally", "agree"});

    std::ostringstream json;
    json << "{\"bench\":\"checker_scaling\",\"rows\":[";
    bool pass = true;
    bool first = true;
    for (const auto &cfg : configs()) {
        std::string err;
        const auto router = sweep::makeRouter(cfg.net, cfg.router, &err);
        if (!router) {
            std::cout << "SKIP " << cfg.label << ": " << err << '\n';
            pass = false;
            continue;
        }
        cdg::CdgReport dally;
        cdg::MmReport mm;
        const double dally_s =
            secondsOf([&] { dally = cdg::checkDeadlockFree(*router); });
        const double mm_s =
            secondsOf([&] { mm = cdg::checkMendlovicMatias(*router); });
        const bool agree = dally.deadlockFree == mm.deadlockFree;
        pass = pass && agree && mm.deadlockFree;
        t.addRow({cfg.label, cfg.router,
                  TextTable::num(dally.numChannels),
                  TextTable::num(dally.numDependencies),
                  TextTable::num(mm.numStates),
                  TextTable::num(dally_s * 1e3, 2) + " ms",
                  TextTable::num(mm_s * 1e3, 2) + " ms",
                  TextTable::num(dally_s > 0.0 ? mm_s / dally_s : 0.0, 2)
                      + "x",
                  agree ? "yes" : "NO"});
        json << (first ? "" : ",") << "{\"network\":\"" << cfg.label
             << "\",\"router\":\"" << cfg.router
             << "\",\"channels\":" << dally.numChannels
             << ",\"dependencies\":" << dally.numDependencies
             << ",\"states\":" << mm.numStates
             << ",\"dally_ms\":" << dally_s * 1e3
             << ",\"mm_ms\":" << mm_s * 1e3
             << ",\"deadlock_free\":"
             << (mm.deadlockFree ? "true" : "false")
             << ",\"agree\":" << (agree ? "true" : "false") << "}";
        first = false;
    }
    json << "]";

    const auto turnNet = topo::Network::mesh({4, 4}, {2, 2});
    cdg::TurnModelEnumResult turns;
    const double enum_s =
        secondsOf([&] { turns = cdg::enumerateTurnModels(turnNet); });
    const bool turnsPinned = turns.combinations == kTurnCombinations
        && turns.deadlockFree == kTurnDeadlockFree
        && turns.connected == kTurnDeadlockFree
        && turns.distinctDeadlockFreeSets == kTurnDeadlockFree;
    pass = pass && turnsPinned;

    // Each walk against one-source graphs, same relation, same run.
    const WalkRatio grouped = walkRatio("mesh 24x24", {24, 24}, "xy",
                                        kGroupedDallyGate);
    const WalkRatio classes = walkRatio("mesh 16x16", {16, 16}, "odd-even",
                                        kClassesDallyGate);
    const ThreadRatio threads = threadRatio();
    pass = pass && grouped.pass && classes.pass && threads.pass;
    json << ",\"turn_enum\":{\"network\":\"mesh 4x4 vc2\""
         << ",\"combinations\":" << turns.combinations
         << ",\"deadlock_free\":" << turns.deadlockFree
         << ",\"connected\":" << turns.connected
         << ",\"distinct_sets\":" << turns.distinctDeadlockFreeSets
         << ",\"enum_ms\":" << enum_s * 1e3
         << ",\"us_per_combination\":"
         << (turns.combinations
                 ? enum_s * 1e6 / static_cast<double>(turns.combinations)
                 : 0.0)
         << ",\"pinned\":" << (turnsPinned ? "true" : "false") << "}"
         << ",\"grouped_walk\":" << grouped.json()
         << ",\"source_classes\":" << classes.json()
         << ",\"threads\":" << threads.json()
         << ",\"hardware_threads\":"
         << std::thread::hardware_concurrency()
         << ",\"host_threads\":" << hostThreads()
         << ",\"cpu_model\":\"" << bench::cpuModel() << "\""
         << ",\"pass\":" << (pass ? "true" : "false") << "}";

    t.print(std::cout);
    std::cout << "turn-model space, mesh 4x4 vc2: " << turns.combinations
              << " combinations, " << turns.deadlockFree
              << " deadlock-free, " << turns.connected << " connected, "
              << turns.distinctDeadlockFreeSets << " distinct sets in "
              << TextTable::num(enum_s * 1e3, 1) << " ms"
              << (turnsPinned ? "" : "  UNEXPECTED COUNTS") << '\n';
    std::cout << "grouped walk, " << grouped.text() << '\n';
    std::cout << "source classes, " << classes.text() << '\n';
    std::cout << "threads, " << threads.text() << '\n';
    if (threads.gated)
        std::cout << "  threads gate: dally and mm >= "
                  << TextTable::num(kThreadsGate, 0) << "x: "
                  << (threads.pass ? "ok" : "TOO SLOW") << '\n';
    else
        std::cout << "  NOTICE: threads gate SKIPPED — host has "
                  << threads.threads << " thread"
                  << (threads.threads == 1 ? "" : "s") << " (< "
                  << kThreadsGateMinHost << ")\n";
    std::cout << "takeaway: MM examines per-destination routing states "
                 "where the CDG collapses them into channel edges; the "
                 "exact verdict costs a bounded constant factor, not an "
                 "asymptotic blowup\n";
    std::cout << "\nCHECKER_BENCH_JSON: " << json.str() << '\n';
    if (const char *path = std::getenv("EBDA_CHECKER_BENCH_JSON");
        path && *path) {
        std::ofstream out(path);
        out << json.str() << '\n';
    }
    if (!pass) {
        std::cout << "UNEXPECTED checker disagreement, deadlock verdict, "
                     "turn-model count or walk ratio above\n";
        std::exit(1);
    }
}

void
bmDallyMesh(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const auto net = topo::Network::mesh({k, k}, {1, 1});
    const auto router = sweep::makeRouter(net, "xy");
    for (auto _ : state) {
        auto report = cdg::checkDeadlockFree(*router);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(bmDallyMesh)->Arg(8)->Arg(16)->Arg(24);

void
bmMmMesh(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const auto net = topo::Network::mesh({k, k}, {1, 1});
    const auto router = sweep::makeRouter(net, "xy");
    for (auto _ : state) {
        auto report = cdg::checkMendlovicMatias(*router);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(bmMmMesh)->Arg(8)->Arg(16)->Arg(24);

void
bmDallyDragonfly(benchmark::State &state)
{
    const int a = static_cast<int>(state.range(0));
    const auto net = topo::Network::dragonfly(a, a / 2, a / 2);
    const auto router = sweep::makeRouter(net, "dragonfly-min");
    for (auto _ : state) {
        auto report = cdg::checkDeadlockFree(*router);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(bmDallyDragonfly)->Arg(4)->Arg(6);

void
bmMmDragonfly(benchmark::State &state)
{
    const int a = static_cast<int>(state.range(0));
    const auto net = topo::Network::dragonfly(a, a / 2, a / 2);
    const auto router = sweep::makeRouter(net, "dragonfly-min");
    for (auto _ : state) {
        auto report = cdg::checkMendlovicMatias(*router);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(bmMmDragonfly)->Arg(4)->Arg(6);

} // namespace

EBDA_BENCH_MAIN(reproduce)
