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
 * A within-run ratio row times the grouped state walk: on the 24x24 XY
 * mesh, the checkers once on the relation as declared (source-
 * independent, so one state graph per destination) and once through a
 * wrapper that declares no source sensitivity (one graph per (src,
 * dest) pair). The Dally speedup of the grouped walk is gated at >= 4x;
 * a ratio taken within one run holds on any host.
 *
 * Machine-readable output: the JSON summary is printed to stdout and,
 * when EBDA_CHECKER_BENCH_JSON is set, written to that path (same
 * convention as bench_route_compute's BENCH_sim.json feed). Exits
 * non-zero when the checkers disagree, a relation is not deadlock-free,
 * the enumeration counts drift from 65,536 / 68 / 68 / 68, the two walks
 * of the ratio row disagree, or its Dally speedup falls below 4x.
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

/** Minimum Dally speedup of the grouped walk over one-source graphs. */
constexpr double kGroupedDallyGate = 4.0;

/** Forwards every call to `base` but declares no source sensitivity,
 *  which makes the checkers walk one source at a time. */
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
    bool probeSafe() const override { return base.probeSafe(); }
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

/** The host's CPU model from /proc/cpuinfo (JSON-safe), or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
            continue;
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::replace_if(
            model.begin(), model.end(),
            [](char ch) { return ch == '"' || ch == '\\'; }, ' ');
        return model;
    }
    return "unknown";
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

    // Grouped walk vs one-source graphs, same relation, same run.
    const auto walkNet = topo::Network::mesh({24, 24}, {1, 1});
    const auto xy = sweep::makeRouter(walkNet, "xy");
    const UndeclaredView undeclared(*xy);
    cdg::CdgReport dallyGrouped, dallyOne;
    cdg::MmReport mmGrouped, mmOne;
    const double dallyGroupedS = bestSecondsOf(
        [&] { dallyGrouped = cdg::checkDeadlockFree(*xy); });
    const double dallyOneS = bestSecondsOf(
        [&] { dallyOne = cdg::checkDeadlockFree(undeclared); });
    const double mmGroupedS = bestSecondsOf(
        [&] { mmGrouped = cdg::checkMendlovicMatias(*xy); });
    const double mmOneS = bestSecondsOf(
        [&] { mmOne = cdg::checkMendlovicMatias(undeclared); });
    const double dallyRatio =
        dallyGroupedS > 0.0 ? dallyOneS / dallyGroupedS : 0.0;
    const double mmRatio = mmGroupedS > 0.0 ? mmOneS / mmGroupedS : 0.0;
    const bool walksAgree =
        dallyGrouped.numDependencies == dallyOne.numDependencies
        && mmGrouped.numStates == mmOne.numStates
        && mmGrouped.releaseOrder == mmOne.releaseOrder;
    const bool walkPass = walksAgree && dallyRatio >= kGroupedDallyGate;
    pass = pass && walkPass;
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
         << ",\"grouped_walk\":{\"network\":\"mesh 24x24\",\"router\":\"xy\""
         << ",\"dally_grouped_ms\":" << dallyGroupedS * 1e3
         << ",\"dally_one_source_ms\":" << dallyOneS * 1e3
         << ",\"dally_ratio\":" << dallyRatio
         << ",\"mm_grouped_ms\":" << mmGroupedS * 1e3
         << ",\"mm_one_source_ms\":" << mmOneS * 1e3
         << ",\"mm_ratio\":" << mmRatio
         << ",\"dally_ratio_gate\":" << kGroupedDallyGate
         << ",\"agree\":" << (walksAgree ? "true" : "false")
         << ",\"pass\":" << (walkPass ? "true" : "false") << "}"
         << ",\"hardware_threads\":"
         << std::thread::hardware_concurrency()
         << ",\"cpu_model\":\"" << cpuModel() << "\""
         << ",\"pass\":" << (pass ? "true" : "false") << "}";

    t.print(std::cout);
    std::cout << "turn-model space, mesh 4x4 vc2: " << turns.combinations
              << " combinations, " << turns.deadlockFree
              << " deadlock-free, " << turns.connected << " connected, "
              << turns.distinctDeadlockFreeSets << " distinct sets in "
              << TextTable::num(enum_s * 1e3, 1) << " ms"
              << (turnsPinned ? "" : "  UNEXPECTED COUNTS") << '\n';
    std::cout << "grouped walk, mesh 24x24 xy: dally "
              << TextTable::num(dallyGroupedS * 1e3, 1) << " ms vs "
              << TextTable::num(dallyOneS * 1e3, 1) << " ms one source ("
              << TextTable::num(dallyRatio, 1) << "x, gate >= "
              << TextTable::num(kGroupedDallyGate, 0) << "x), mm "
              << TextTable::num(mmGroupedS * 1e3, 1) << " ms vs "
              << TextTable::num(mmOneS * 1e3, 1) << " ms ("
              << TextTable::num(mmRatio, 1) << "x)"
              << (walksAgree ? "" : "  WALKS DISAGREE") << '\n';
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
                     "turn-model count or grouped-walk ratio above\n";
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
