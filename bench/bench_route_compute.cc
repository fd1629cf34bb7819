/**
 * @file
 * Microbenchmark for the route-table compiler (src/routing/route_table):
 * compiled-table lookups vs virtual-dispatch route compute on the
 * benches' standard 8x8, 2-VC mesh, each row with its table's size and
 * compile time, plus a fixed latency-sweep point timed with the table
 * on and off.
 *
 * This binary is also a correctness smoke test and exits non-zero when
 *  - any table lookup differs from the virtual relation on a reachable
 *    state (contents or order), or
 *  - the compiled-table query loop, or the virtual-fallback query loop
 *    (table disabled, scratch buffer warmed by one pass), performs a
 *    single heap allocation. Both are steady-state route compute: the
 *    fallback is what every over-budget fabric runs. A global operator
 *    new/delete hook below counts every allocation in the process.
 *
 * Machine-readable output: the JSON summary is printed to stdout and,
 * when EBDA_ROUTE_BENCH_JSON is set, written to that path (CI uploads
 * it as an artifact; scripts/perf_baseline.sh commits it as
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
#include <vector>

#include "cdg/routing_relation.hh"
#include "routing/route_table.hh"
#include "sim/simulator.hh"
#include "sweep/router_factory.hh"

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
 *  injection candidates, the states the table compiler fills. */
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
    bool perSource = false;
    std::uint64_t tableBytes = 0;
    double compileMs = 0.0;
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
    const routing::RouteTable table(*rel);
    if (!table.compiled()) {
        std::cerr << spec << ": table fell back to the virtual path\n";
        row.match = false;
        return row;
    }
    row.perSource = table.perSource();
    row.tableBytes = table.tableBytes();
    row.compileMs = static_cast<double>(table.compileNanos()) / 1e6;

    const auto states = reachableStates(*rel);
    row.states = states.size();

    // Correctness first: every reachable state, contents and order.
    std::vector<topo::ChannelId> scratch;
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

    // `sink` defeats dead-code elimination of the timed loops.
    std::uint64_t sink = 0;

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
    const auto onTable = sim::runSimulation(net, *rel, gen, cfg);
    const double tableSec = secondsSince(t0);

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

int
benchMain()
{
    const auto net = topo::Network::mesh({8, 8}, {2, 2});
    const char *specs[] = {"xy", "odd-even", "fig7b"};

    std::vector<RelationRow> rows;
    bool pass = true;
    std::printf("route compute on mesh 8x8, 2 VCs/dim (%zu channels)\n",
                static_cast<std::size_t>(net.numChannels()));
    std::printf("%-10s %8s %10s %10s %12s %12s %8s %7s %7s\n", "router",
                "states", "bytes", "compile", "virtual", "table",
                "speedup", "v-alloc", "t-alloc");
    for (const char *spec : specs) {
        rows.push_back(benchRelation(net, spec));
        const RelationRow &r = rows.back();
        pass = pass && r.match && r.tableAllocs == 0
            && r.virtualAllocs == 0;
        std::printf(
            "%-10s %8zu %10llu %7.2f ms %9.1f ns %9.1f ns %7.1fx %7llu "
            "%7llu%s\n",
            r.spec.c_str(), r.states,
            static_cast<unsigned long long>(r.tableBytes), r.compileMs,
            r.virtualNsPerCall, r.tableNsPerCall, r.speedup,
            static_cast<unsigned long long>(r.virtualAllocs),
            static_cast<unsigned long long>(r.tableAllocs),
            r.match ? "" : "  MISMATCH");
    }

    const SweepRow sweep = benchSweepPoint(net);
    pass = pass && sweep.callsMatch;
    std::printf("\nlatency point (fig7b, uniform 0.10): "
                "%.0f cycles/s table, %.0f cycles/s virtual "
                "(%llu cycles, %llu route calls)%s\n",
                sweep.tableCyclesPerSec, sweep.virtualCyclesPerSec,
                static_cast<unsigned long long>(sweep.cycles),
                static_cast<unsigned long long>(sweep.routeCalls),
                sweep.callsMatch ? "" : "  RESULT DIVERGED");

    std::ostringstream json;
    json << "{\"bench\":\"route_compute\","
         << "\"network\":\"mesh8x8_vc2\",\"relations\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RelationRow &r = rows[i];
        json << (i ? "," : "") << "{\"spec\":\"" << r.spec << "\""
             << ",\"states\":" << r.states
             << ",\"per_source\":" << (r.perSource ? "true" : "false")
             << ",\"table_bytes\":" << r.tableBytes
             << ",\"compile_ms\":" << r.compileMs
             << ",\"virtual_ns_per_call\":" << r.virtualNsPerCall
             << ",\"table_ns_per_call\":" << r.tableNsPerCall
             << ",\"speedup\":" << r.speedup
             << ",\"virtual_allocs\":" << r.virtualAllocs
             << ",\"table_allocs\":" << r.tableAllocs
             << ",\"match\":" << (r.match ? "true" : "false") << "}";
    }
    json << "],\"sweep\":{\"router\":\"fig7b\",\"cycles\":"
         << sweep.cycles << ",\"route_calls\":" << sweep.routeCalls
         << ",\"table_cycles_per_sec\":" << sweep.tableCyclesPerSec
         << ",\"virtual_cycles_per_sec\":" << sweep.virtualCyclesPerSec
         << "},\"pass\":" << (pass ? "true" : "false") << "}";

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
