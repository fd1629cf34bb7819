/**
 * @file
 * Microbenchmark for the route table (src/routing/route_table): table
 * lookups vs virtual-dispatch route compute on the benches' standard
 * 8x8, 2-VC mesh. Each row reports the source classes its rows are
 * keyed by, the table's rows, its bytes once
 * every reachable row is filled, the distinct candidate lists its node
 * directories then hold (most at one node, and in total), the
 * constructor's sizing time, and the first-touch cost per row (the
 * first query of every reachable state on a fresh table, over the rows
 * it filled) next to the steady-state ns per call. A fixed
 * latency-sweep point is timed with the table on and off, with the rows
 * that run filled. A sizing check constructs, without querying, the
 * tables of three large fabrics: 32x32 fig7b, a 48x48 EbDa scheme
 * with 1,2 VCs and 16x16 Odd-Even with 2 VCs (one class per column).
 *
 * This binary is also a correctness smoke test and exits non-zero when
 *  - any table lookup differs from the virtual relation on a reachable
 *    state (contents or order),
 *  - a sizing-check table does not fit the default budget, or
 *  - the filled-table query loop, or the virtual-fallback query loop
 *    (table disabled, scratch buffer warmed by one pass), performs a
 *    single heap allocation. Both are steady-state route compute: the
 *    fallback is what every over-budget fabric runs. A global operator
 *    new/delete hook below counts every allocation in the process.
 *
 * Machine-readable output: the JSON summary, with the host shape
 * (hardware and host threads, SIMD path, CPU model), is printed to
 * stdout and, when EBDA_ROUTE_BENCH_JSON is set, written to that path
 * (CI uploads it as an artifact; scripts/perf_baseline.sh commits it as
 * BENCH_sim.json).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cdg/routing_relation.hh"
#include "common.hh"
#include "routing/route_table.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sweep/router_factory.hh"
#include "util/host_threads.hh"

namespace {

/** @name Global allocation hook
 *  Counts every operator new in the process; the table-path and
 *  fallback-path timing loops must leave it untouched.
 *  @{ */
std::uint64_t g_allocs = 0;

void *
countedAlloc(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
/** @} */

namespace ebda {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One reachable route-compute query. */
struct State
{
    topo::ChannelId in;
    topo::NodeId at;
    topo::NodeId src;
    topo::NodeId dest;
};

/** Every reachable (in, src, dest) state: the closure of each pair's
 *  injection candidates, the states packets can query. */
std::vector<State>
reachableStates(const cdg::RoutingRelation &rel)
{
    const topo::Network &net = rel.network();
    std::vector<State> out;
    std::vector<std::uint8_t> seen;
    std::vector<topo::ChannelId> frontier;
    for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
        for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
            if (dest == src)
                continue;
            seen.assign(net.numChannels(), 0);
            frontier.clear();
            out.push_back({cdg::kInjectionChannel, src, src, dest});
            for (const topo::ChannelId c :
                 rel.candidates(cdg::kInjectionChannel, src, src, dest)) {
                if (!seen[c]) {
                    seen[c] = 1;
                    frontier.push_back(c);
                }
            }
            for (std::size_t i = 0; i < frontier.size(); ++i) {
                const topo::ChannelId in = frontier[i];
                const topo::NodeId at = net.link(net.linkOf(in)).dst;
                if (at == dest)
                    continue;
                out.push_back({in, at, src, dest});
                for (const topo::ChannelId c :
                     rel.candidates(in, at, src, dest)) {
                    if (!seen[c]) {
                        seen[c] = 1;
                        frontier.push_back(c);
                    }
                }
            }
        }
    }
    return out;
}

struct RelationRow
{
    std::string spec;
    std::size_t states = 0;
    std::size_t sourceClasses = 0;
    std::size_t rows = 0;
    std::size_t rowsFilled = 0;
    std::uint64_t tableBytes = 0;
    std::size_t lists = 0;
    std::size_t maxListsPerNode = 0;
    double compileMs = 0.0;
    double firstTouchNsPerFill = 0.0;
    double virtualNsPerCall = 0.0;
    double tableNsPerCall = 0.0;
    double speedup = 0.0;
    std::uint64_t virtualAllocs = 0;
    std::uint64_t tableAllocs = 0;
    bool match = true;
};

RelationRow
benchRelation(const topo::Network &net, const std::string &spec)
{
    RelationRow row;
    row.spec = spec;
    std::string err;
    const auto rel = sweep::makeRouter(net, spec, &err);
    if (!rel) {
        std::cerr << "makeRouter(" << spec << ") failed: " << err
                  << '\n';
        row.match = false;
        return row;
    }
    const auto states = reachableStates(*rel);
    row.states = states.size();

    const routing::RouteTable table(*rel);
    row.sourceClasses = table.sourceClasses();
    row.rows = table.rowCount();
    row.compileMs = static_cast<double>(table.compileNanos()) / 1e6;

    // `sink` defeats dead-code elimination of the timed loops.
    std::uint64_t sink = 0;

    // First touch: one query of every reachable state on the fresh
    // table fills each row it meets, once.
    std::vector<topo::ChannelId> scratch;
    const auto tf0 = Clock::now();
    for (const State &s : states)
        sink += table.candidatesView(s.in, s.at, s.src, s.dest, scratch)
                    .size();
    const double fillSec = secondsSince(tf0);
    row.rowsFilled = table.rowsFilled();
    row.firstTouchNsPerFill = fillSec * 1e9
        / static_cast<double>(std::max<std::size_t>(1, row.rowsFilled));
    if (!table.compiled()) {
        std::cerr << spec << ": table fell back to the virtual path ("
                  << routing::toString(table.fallback()) << ")\n";
        row.match = false;
        return row;
    }
    row.tableBytes = table.tableBytes();
    row.lists = table.listCount();
    row.maxListsPerNode = table.maxListsPerNode();

    // Correctness: every reachable state, contents and order.
    for (const State &s : states) {
        const auto want = rel->candidates(s.in, s.at, s.src, s.dest);
        const auto got =
            table.candidatesView(s.in, s.at, s.src, s.dest, scratch);
        if (got.size() != want.size()
            || !std::equal(want.begin(), want.end(), got.begin())) {
            std::cerr << spec << ": table/virtual mismatch at in="
                      << s.in << " src=" << s.src << " dest=" << s.dest
                      << '\n';
            row.match = false;
            return row;
        }
    }

    // The virtual fallback as the simulator runs it: a disabled table
    // filling one scratch buffer per query. One untimed pass grows the
    // buffer and the relation's per-destination memo tables.
    const routing::RouteTable fallback(*rel,
                                       routing::RouteTable::Options{false});
    std::vector<topo::ChannelId> fallbackScratch;
    for (const State &s : states)
        sink += fallback
                    .candidatesView(s.in, s.at, s.src, s.dest,
                                    fallbackScratch)
                    .size();
    const std::size_t virtualReps =
        std::max<std::size_t>(1, 400'000 / states.size());
    const std::uint64_t virtualAllocsBefore = g_allocs;
    const auto tv0 = Clock::now();
    for (std::size_t r = 0; r < virtualReps; ++r)
        for (const State &s : states) {
            const auto cand = fallback.candidatesView(
                s.in, s.at, s.src, s.dest, fallbackScratch);
            sink += cand.size();
        }
    row.virtualNsPerCall = secondsSince(tv0) * 1e9
        / static_cast<double>(virtualReps * states.size());
    row.virtualAllocs = g_allocs - virtualAllocsBefore;

    const std::size_t tableReps =
        std::max<std::size_t>(1, 8'000'000 / states.size());
    const std::uint64_t allocsBefore = g_allocs;
    const auto tt0 = Clock::now();
    for (std::size_t r = 0; r < tableReps; ++r)
        for (const State &s : states) {
            const auto cand =
                table.candidatesView(s.in, s.at, s.src, s.dest, scratch);
            sink += cand.size();
        }
    row.tableNsPerCall = secondsSince(tt0) * 1e9
        / static_cast<double>(tableReps * states.size());
    row.tableAllocs = g_allocs - allocsBefore;
    row.speedup = row.virtualNsPerCall / row.tableNsPerCall;

    if (sink == 0)
        std::cerr << "(unexpected empty candidate sets)\n";
    return row;
}

struct SweepRow
{
    std::uint64_t cycles = 0;
    std::uint64_t routeCalls = 0;
    std::size_t rows = 0;
    std::size_t rowsFilled = 0;
    double tableCyclesPerSec = 0.0;
    double virtualCyclesPerSec = 0.0;
    bool callsMatch = true;
};

/** A fixed latency-sweep point (8x8 mesh, fig7b, uniform, 0.10
 *  flits/node/cycle) timed end to end with the table on and off. */
SweepRow
benchSweepPoint(const topo::Network &net)
{
    SweepRow row;
    const auto rel = sweep::makeRouter(net, "fig7b");
    if (!rel) {
        row.callsMatch = false;
        return row;
    }
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.injectionRate = 0.10;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 5000;
    cfg.drainCycles = 50000;
    cfg.watchdogCycles = 5000;
    cfg.seed = 2024;

    cfg.routeTable = true;
    const auto t0 = Clock::now();
    sim::Simulator tableSim(net, *rel, gen, cfg);
    const auto onTable = tableSim.run();
    const double tableSec = secondsSince(t0);
    row.rows = tableSim.routeTable().rowCount();
    row.rowsFilled = tableSim.routeTable().rowsFilled();

    cfg.routeTable = false;
    const auto t1 = Clock::now();
    const auto onVirtual = sim::runSimulation(net, *rel, gen, cfg);
    const double virtualSec = secondsSince(t1);

    row.cycles = onTable.cycles;
    row.routeCalls = onTable.routeComputeCalls;
    row.tableCyclesPerSec =
        static_cast<double>(onTable.cycles) / tableSec;
    row.virtualCyclesPerSec =
        static_cast<double>(onVirtual.cycles) / virtualSec;
    row.callsMatch =
        onTable.routeComputeCalls == onVirtual.routeComputeCalls
        && onTable.cycles == onVirtual.cycles;
    return row;
}

/** A table sized, not queried, on a large fabric. */
struct SizingRow
{
    std::string fabric;
    std::string spec;
    std::size_t rows = 0;
    std::uint64_t tableBytes = 0;
    std::string fallback;
    bool compiled = false;
};

SizingRow
sizeTable(const std::string &fabric, const topo::Network &net,
          const std::string &spec)
{
    SizingRow row;
    row.fabric = fabric;
    row.spec = spec;
    std::string err;
    const auto rel = sweep::makeRouter(net, spec, &err);
    if (!rel) {
        row.fallback = "makeRouter failed: " + err;
        return row;
    }
    const routing::RouteTable table(*rel);
    row.rows = table.rowCount();
    row.tableBytes = table.tableBytes();
    row.fallback = routing::toString(table.fallback());
    row.compiled = table.compiled();
    return row;
}

int
benchMain()
{
    const auto net = topo::Network::mesh({8, 8}, {2, 2});
    const char *specs[] = {"xy", "odd-even", "fig7b"};

    std::vector<RelationRow> rows;
    bool pass = true;
    std::printf("route compute on mesh 8x8, 2 VCs/dim (%zu channels)\n",
                static_cast<std::size_t>(net.numChannels()));
    std::printf("one-byte rows (%zu B each) naming lists in per-node "
                "directories\n",
                routing::RouteTable::kRowBytes);
    std::printf("%-10s %8s %7s %8s %8s %10s %6s %6s %10s %12s %12s %12s "
                "%8s %7s %7s\n",
                "router", "states", "classes", "rows", "filled", "bytes",
                "lists",
                "/node", "compile", "first-touch", "virtual", "table",
                "speedup", "v-alloc", "t-alloc");
    for (const char *spec : specs) {
        rows.push_back(benchRelation(net, spec));
        const RelationRow &r = rows.back();
        pass = pass && r.match && r.tableAllocs == 0
            && r.virtualAllocs == 0;
        std::printf(
            "%-10s %8zu %7zu %8zu %8zu %10llu %6zu %6zu %7.2f ms %9.1f ns "
            "%9.1f ns %9.1f ns %7.1fx %7llu %7llu%s\n",
            r.spec.c_str(), r.states, r.sourceClasses, r.rows,
            r.rowsFilled,
            static_cast<unsigned long long>(r.tableBytes), r.lists,
            r.maxListsPerNode, r.compileMs,
            r.firstTouchNsPerFill, r.virtualNsPerCall, r.tableNsPerCall,
            r.speedup,
            static_cast<unsigned long long>(r.virtualAllocs),
            static_cast<unsigned long long>(r.tableAllocs),
            r.match ? "" : "  MISMATCH");
    }

    const SweepRow sweep = benchSweepPoint(net);
    pass = pass && sweep.callsMatch;
    std::printf("\nlatency point (fig7b, uniform 0.10): "
                "%.0f cycles/s table, %.0f cycles/s virtual "
                "(%llu cycles, %llu route calls, %zu of %zu rows "
                "filled)%s\n",
                sweep.tableCyclesPerSec, sweep.virtualCyclesPerSec,
                static_cast<unsigned long long>(sweep.cycles),
                static_cast<unsigned long long>(sweep.routeCalls),
                sweep.rowsFilled, sweep.rows,
                sweep.callsMatch ? "" : "  RESULT DIVERGED");

    std::vector<SizingRow> sizing;
    sizing.push_back(sizeTable(
        "mesh32x32_vc2", topo::Network::mesh({32, 32}, {2, 2}), "fig7b"));
    sizing.push_back(sizeTable("mesh48x48_vc1,2",
                               topo::Network::mesh({48, 48}, {1, 2}),
                               "ebda:{X1+ Y1+ Y1-} -> {X1- Y2+ Y2-}"));
    sizing.push_back(sizeTable("mesh16x16_vc2",
                               topo::Network::mesh({16, 16}, {2, 2}),
                               "odd-even"));
    std::printf("\nsizing under the default %llu-byte budget "
                "(constructed, not queried):\n",
                static_cast<unsigned long long>(
                    routing::kDefaultRouteTableBudget));
    for (const SizingRow &s : sizing) {
        pass = pass && s.compiled;
        std::printf("  %-16s %-36s %10zu rows %11llu bytes  %s\n",
                    s.fabric.c_str(), s.spec.c_str(), s.rows,
                    static_cast<unsigned long long>(s.tableBytes),
                    s.compiled ? "compiled"
                               : ("NOT COMPILED: " + s.fallback).c_str());
    }

    std::ostringstream json;
    json << "{\"bench\":\"route_compute\","
         << "\"network\":\"mesh8x8_vc2\",\"relations\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RelationRow &r = rows[i];
        json << (i ? "," : "") << "{\"spec\":\"" << r.spec << "\""
             << ",\"states\":" << r.states
             << ",\"source_classes\":" << r.sourceClasses
             << ",\"rows\":" << r.rows
             << ",\"rows_filled\":" << r.rowsFilled
             << ",\"table_bytes\":" << r.tableBytes
             << ",\"lists\":" << r.lists
             << ",\"max_lists_per_node\":" << r.maxListsPerNode
             << ",\"compile_ms\":" << r.compileMs
             << ",\"first_touch_ns_per_fill\":" << r.firstTouchNsPerFill
             << ",\"virtual_ns_per_call\":" << r.virtualNsPerCall
             << ",\"table_ns_per_call\":" << r.tableNsPerCall
             << ",\"speedup\":" << r.speedup
             << ",\"virtual_allocs\":" << r.virtualAllocs
             << ",\"table_allocs\":" << r.tableAllocs
             << ",\"match\":" << (r.match ? "true" : "false") << "}";
    }
    json << "],\"sweep\":{\"router\":\"fig7b\",\"cycles\":"
         << sweep.cycles << ",\"route_calls\":" << sweep.routeCalls
         << ",\"rows\":" << sweep.rows
         << ",\"rows_filled\":" << sweep.rowsFilled
         << ",\"table_cycles_per_sec\":" << sweep.tableCyclesPerSec
         << ",\"virtual_cycles_per_sec\":" << sweep.virtualCyclesPerSec
         << "},\"row_bytes\":" << routing::RouteTable::kRowBytes
         << ",\"sizing\":[";
    for (std::size_t i = 0; i < sizing.size(); ++i) {
        const SizingRow &s = sizing[i];
        json << (i ? "," : "") << "{\"fabric\":\"" << s.fabric
             << "\",\"spec\":\"" << s.spec << "\",\"rows\":" << s.rows
             << ",\"table_bytes\":" << s.tableBytes
             << ",\"compiled\":" << (s.compiled ? "true" : "false") << "}";
    }
    json << "],\"hardware_threads\":" << std::thread::hardware_concurrency()
         << ",\"host_threads\":" << hostThreads()
         << ",\"simd_path\":\"" << sim::injectionEngineSimdPath() << "\""
         << ",\"cpu_model\":\"" << bench::cpuModel() << "\""
         << ",\"pass\":" << (pass ? "true" : "false") << "}";

    std::cout << "\nROUTE_BENCH_JSON: " << json.str() << '\n';
    if (const char *path = std::getenv("EBDA_ROUTE_BENCH_JSON");
        path && *path) {
        std::ofstream out(path);
        out << json.str() << '\n';
    }
    return pass ? 0 : 1;
}

} // namespace
} // namespace ebda

int
main()
{
    return ebda::benchMain();
}
