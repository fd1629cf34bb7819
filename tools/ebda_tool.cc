/**
 * @file
 * ebda_tool — command-line front end for the EbDa library.
 *
 * usage() is the one list of subcommands and their options; the
 * comment on each cmd* function says what that subcommand reports and
 * what its exit codes mean. Every command prints a short report to
 * stdout. Malformed input, and any option the chosen subcommand never
 * reads, exits with code 2 and a message on stderr.
 *
 * The run commands (simulate, forensics, faults, protocol) describe
 * their run as one sweep::SweepJob (topology, router spec, traffic
 * pattern and SimConfig) built from the flags by jobFromArgs, and run
 * it through sweep::JobInstance, the path every ebda_sweep job takes.
 * Each command is then a view of the one Simulator and its result.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "cdg/adaptivity.hh"
#include "cdg/mm_check.hh"
#include "cdg/relation_cdg.hh"
#include "cdg/turn_cdg.hh"
#include "cdg/turn_model_enum.hh"
#include "graph/digraph.hh"
#include "topo/ascii_map.hh"
#include "core/derivation.hh"
#include "core/minimal.hh"
#include "core/parse.hh"
#include "sim/shard_partition.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"
#include "sweep/router_factory.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace {

using namespace ebda;

int
usage()
{
    std::cerr <<
        "usage: ebda_tool "
        "<design|verify|turns|simulate|compare|space|topo|forensics|"
        "faults|protocol> [options]\n"
        "  design   --vcs 3,2,3 [--all] [--max N]\n"
        "  verify   --scheme \"{X+ X- Y-} -> {Y+}\" [--mesh 8x8] "
        "[--vcs 1,1] [--torus]\n"
        "  turns    --scheme \"...\"\n"
        "  simulate --scheme \"...\" [--mesh 8x8] [--vcs 1,1] "
        "[--rate 0.2] [--pattern uniform] [--cycles 4000] [--torus]\n"
        "           [--watchdog C] [--recovery-passes N] "
        "[--sched auto|cycle|event] [--shards N] [--json]\n"
        "  compare  --scheme \"...\" --scheme2 \"...\"\n"
        "  space    --dims 3 [--vcs 1,1,1]\n"
        "  topo     [--dragonfly 4,2,2 | --fullmesh 8 | --mesh 4x4 "
        "[--torus] | --map-file F | --map \"...\"]\n"
        "           [--vcs 1,1] [--router SPEC]\n"
        "  forensics [--router minimal | --scheme \"...\"] "
        "[--mesh 4x4] [--vcs 1,1] [--torus]\n"
        "           [--rate 0.3] [--cycles 2000] [--watchdog 1000] "
        "[--pattern uniform]\n"
        "  faults   [--router SPEC | --scheme \"...\"] [--mesh 4x4] "
        "[--vcs 1,1] [--torus]\n"
        "           [--rate 0.1] [--cycles 4000] [--watchdog 2000] "
        "[--link-faults N]\n"
        "           [--node-faults N] [--fault-seed S] "
        "[--fault-start C] [--fault-spacing C]\n"
        "           [--events \"C:link:SRC->DST;C:node:N\"] [--json]\n"
        "  protocol [--router SPEC | --scheme \"...\"] [--mesh 4x4] "
        "[--vcs 2,2] [--torus]\n"
        "           [--rate 0.3] [--cycles 4000] [--watchdog 1000] "
        "[--depth N] [--service-latency C]\n"
        "           [--service-jitter C] [--classes 1|2] [--reserve] "
        "[--recovery-passes N]\n"
        "           [--pattern uniform] [--json]\n";
    return 2;
}

/** The router-spec prefix that names an EbDa partition scheme. */
const std::string kEbdaSpec = "ebda:";

core::PartitionScheme
schemeFromArgs(const Args &args)
{
    std::string err;
    const auto scheme = core::parseScheme(args.get("scheme"), &err);
    if (!scheme) {
        std::cerr << "bad --scheme: " << err << '\n';
        std::exit(2);
    }
    return *scheme;
}

/**
 * --mesh, --torus and --vcs as a mesh/torus TopologySpec. With a
 * scheme the mesh defaults to 8x8 and the VCs to those the scheme
 * uses; without one, to 4x4 and `default_vcs`. Dimensions the VC list
 * leaves out get one VC. Returns 0, or 2 after reporting bad input.
 */
int
gridFromArgs(const Args &args, const core::PartitionScheme *scheme,
             const char *default_vcs, sweep::TopologySpec &out)
{
    std::string err;
    const auto dims =
        core::parseDims(args.get("mesh", scheme ? "8x8" : "4x4"), &err);
    if (!dims) {
        std::cerr << "bad --mesh: " << err << '\n';
        return 2;
    }
    if (scheme && dims->size() < scheme->dimensionSpan()) {
        std::cerr << "scheme uses " << int{scheme->dimensionSpan()}
                  << " dimensions but --mesh has " << dims->size() << '\n';
        return 2;
    }
    std::optional<std::vector<int>> vcs;
    if (scheme && !args.has("vcs")) {
        vcs = core::vcsRequired(*scheme);
        for (auto &x : *vcs)
            x = std::max(x, 1);
    } else {
        vcs = core::parseVcList(
            args.has("vcs") ? args.get("vcs") : default_vcs, &err);
        if (!vcs) {
            std::cerr << "bad --vcs: " << err << '\n';
            return 2;
        }
    }
    vcs->resize(std::max(vcs->size(), dims->size()), 1);
    out.kind = args.has("torus") ? sweep::TopologySpec::Kind::Torus
                                 : sweep::TopologySpec::Kind::Mesh;
    out.dims = *dims;
    out.vcs = std::move(*vcs);
    return 0;
}

/** A mesh network, built through TopologySpec like every other. */
topo::Network
meshNetwork(std::vector<int> dims, std::vector<int> vcs)
{
    sweep::TopologySpec spec;
    spec.dims = std::move(dims);
    spec.vcs = std::move(vcs);
    return spec.build();
}

/** Rank the schemes Algorithm 1 derives for a VC budget (with --all
 *  also Arrangements 2/3 and Algorithm 2) by adaptiveness. */
int
cmdDesign(const Args &args)
{
    std::string err;
    const auto vcs = core::parseVcList(args.get("vcs", "1,1"), &err);
    if (!vcs) {
        std::cerr << "bad --vcs: " << err << '\n';
        return 2;
    }
    const long max_schemes = args.getInt("max", 16);
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }
    if (max_schemes < 1) {
        std::cerr << "--max must be at least 1, got " << max_schemes
                  << '\n';
        return 2;
    }

    std::vector<core::PartitionScheme> schemes;
    if (args.has("all")) {
        core::DerivationOptions opts;
        opts.permuteTransitionOrders = true;
        opts.maxSchemes = 4096;
        schemes = core::deriveAll(*vcs, opts);
    } else {
        schemes.push_back(core::partitionSets(core::makeSets(*vcs)));
    }

    const auto net = meshNetwork(std::vector<int>(vcs->size(), 4), *vcs);

    // Rank by measured adaptiveness.
    std::vector<std::pair<double, const core::PartitionScheme *>> ranked;
    for (const auto &s : schemes) {
        const auto adapt = cdg::measureAdaptiveness(net, s);
        if (!adapt.disconnectedMinimal)
            ranked.emplace_back(adapt.averageFraction, &s);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    if (ranked.size() > static_cast<std::size_t>(max_schemes))
        ranked.resize(static_cast<std::size_t>(max_schemes));

    TextTable t;
    t.setHeader({"scheme", "partitions", "adaptiveness", "deadlock-free"});
    for (const auto &[adapt, s] : ranked) {
        t.addRow({s->toString(),
                  TextTable::num(static_cast<int>(s->size())),
                  TextTable::num(adapt, 4),
                  cdg::checkDeadlockFree(net, *s).deadlockFree ? "yes"
                                                               : "NO"});
    }
    t.print(std::cout);
    std::cout << ranked.size() << " scheme(s); minimum channels for "
                 "fully adaptive "
              << vcs->size() << "D: "
              << core::minFullyAdaptiveChannels(
                     static_cast<std::uint8_t>(vcs->size()))
              << '\n';
    return 0;
}

/** Theorem 1, the Dally oracle, connectivity and adaptiveness of a
 *  scheme. Exit 0 iff valid, deadlock-free and connected, else 1. */
int
cmdVerify(const Args &args)
{
    const auto scheme = schemeFromArgs(args);
    sweep::TopologySpec spec;
    if (const int rc = gridFromArgs(args, &scheme, nullptr, spec))
        return rc;
    std::cout << "scheme: " << scheme.toString() << '\n';

    const auto validation = scheme.validate();
    std::cout << "Theorem 1 / disjointness: "
              << (validation.ok ? "OK" : "REJECTED — " + validation.reason)
              << '\n';
    if (!validation.ok)
        return 1;

    const auto net = spec.build();
    const auto verdict = cdg::checkDeadlockFree(net, scheme);
    std::cout << "Dally oracle: "
              << (verdict.deadlockFree ? "deadlock-free" : "CYCLIC")
              << " (" << verdict.numDependencies << " dependencies over "
              << verdict.numChannels << " channels)\n";
    if (!verdict.deadlockFree) {
        std::cout << "witness cycle:\n";
        for (const auto &ch : verdict.witness)
            std::cout << "  " << ch << '\n';
        return 1;
    }

    std::string err;
    const auto router =
        sweep::makeRouter(net, kEbdaSpec + scheme.toString(), &err);
    if (!router) {
        std::cerr << err << '\n';
        return 2;
    }
    const auto conn = cdg::checkConnectivity(*router);
    std::cout << "connectivity: "
              << (conn.connected ? "every pair routable" : "INCOMPLETE")
              << '\n';
    if (!net.isTorus()) {
        const auto adapt = cdg::measureAdaptiveness(net, scheme);
        std::cout << "adaptiveness: " << adapt.averageFraction
                  << (adapt.fullyAdaptive ? " (fully adaptive)" : "")
                  << '\n';
    }
    return conn.connected ? 0 : 1;
}

/** Print a scheme's extracted turn set with theorem provenance. */
int
cmdTurns(const Args &args)
{
    const auto scheme = schemeFromArgs(args);
    const auto validation = scheme.validate();
    if (!validation.ok) {
        std::cerr << "invalid scheme: " << validation.reason << '\n';
        return 1;
    }
    const auto set = core::TurnSet::extract(scheme);
    TextTable t;
    t.setHeader({"turn", "kind", "origin", "from", "to"});
    for (const auto &turn : set.turns()) {
        t.addRow({turn.compassName(), core::toString(turn.kind),
                  turn.origin == core::TurnOrigin::Theorem1 ? "T1"
                  : turn.origin == core::TurnOrigin::Theorem2 ? "T2"
                                                              : "T3",
                  "P" + std::to_string(turn.fromPartition + 1),
                  "P" + std::to_string(turn.toPartition + 1)});
    }
    t.print(std::cout);
    std::cout << set.count(core::TurnKind::Turn90) << " x 90-degree, "
              << set.count(core::TurnKind::UTurn) << " x U, "
              << set.count(core::TurnKind::ITurn) << " x I\n";
    return 0;
}

/** What a run command defaults to. */
struct RunDefaults
{
    /** --router when --scheme is absent; null when --scheme is
     *  required. */
    const char *router;
    /** --vcs of a --router run; a --scheme run covers its scheme. */
    const char *vcs;
    double rate;
    std::uint64_t cycles;
    /** --watchdog; unset keeps the SimConfig default. */
    std::optional<std::uint64_t> watchdog;
};

// forensics defaults to the deadlock-prone unrestricted minimal-
// adaptive negative control. faults defaults to the paper's Fig 7(b)
// fully adaptive scheme (VC budget 1,2), whose U-/I-turns are what
// Theorem 2 says make degradation graceful. protocol defaults to XY
// with 2 VCs per link: Dally-verified at the channel level, which is
// what makes the protocol wedge interesting, since the channel CDG
// stays acyclic while the request→endpoint→reply dependency closes a
// cycle above it.
const RunDefaults kSimulateRun{nullptr, nullptr, 0.2, 4000, std::nullopt};
const RunDefaults kForensicsRun{"minimal", "1,1", 0.3, 2000, 1000};
const RunDefaults kFaultsRun{"fig7b", "1,2", 0.1, 4000, 2000};
const RunDefaults kProtocolRun{"xy", "2,2", 0.3, 4000, 1000};

/**
 * Fill a run command's job from the flags every run command shares.
 * The router is --scheme S (the spec "ebda:S"), else --router; the
 * fabric comes from gridFromArgs; the run measures --cycles cycles
 * after a quarter of that in warmup, with up to ten times that to
 * drain. The command reads its own flags into job.cfg first, so every
 * flag has been read before the Theorem 1 verdict and main's
 * unread-option check never fires on a run that stopped early.
 * Returns 0; 1 after reporting a scheme Theorem 1 rejects; 2 after
 * reporting bad input.
 */
int
jobFromArgs(const Args &args, const RunDefaults &d, sweep::SweepJob &job)
{
    std::optional<core::PartitionScheme> scheme;
    if (args.has("scheme") || !d.router) {
        scheme = schemeFromArgs(args);
        job.router = kEbdaSpec + scheme->toString();
    } else {
        job.router = args.get("router", d.router);
    }
    if (const int rc = gridFromArgs(args, scheme ? &*scheme : nullptr,
                                    d.vcs, job.topo))
        return rc;
    const auto pattern =
        sim::patternFromString(args.get("pattern", "uniform"));
    if (!pattern) {
        std::cerr << "unknown --pattern\n";
        return 2;
    }
    job.pattern = *pattern;

    sim::SimConfig &cfg = job.cfg;
    cfg.injectionRate = args.getDouble("rate", d.rate);
    cfg.measureCycles = args.getU64("cycles", d.cycles);
    cfg.warmupCycles = cfg.measureCycles / 4;
    cfg.drainCycles = cfg.measureCycles * 10;
    cfg.watchdogCycles =
        args.getU64("watchdog", d.watchdog.value_or(cfg.watchdogCycles));
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }
    if (scheme) {
        const auto validation = scheme->validate();
        if (!validation.ok) {
            std::cerr << "invalid scheme: " << validation.reason << '\n';
            return 1;
        }
    }
    return 0;
}

/** The run commands' --json document: the router (or scheme), the
 *  traffic pattern, the config and the result. */
void
printRunJson(const char *router_key, const std::string &router,
             const sweep::SweepJob &job, const sim::SimResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.field(router_key, router);
    w.field("pattern", sim::toString(job.pattern));
    w.beginObject("config");
    sim::jsonFields(w, job.cfg);
    w.end();
    w.beginObject("result");
    sim::jsonFields(w, result);
    w.end();
    w.end();
    std::cout << w.str() << '\n';
}

/** Simulate a scheme's routing; the report ends with the backend that
 *  ran (--sched, sim/scheduler.hh) and its wakeups, then the route
 *  table's filled rows and bytes or the reason it fell back. Exit 1 on
 *  a deadlock or a scheme Theorem 1 rejects. */
int
cmdSimulate(const Args &args)
{
    const bool json = args.has("json");
    sweep::SweepJob job;
    if (args.has("sched")) {
        const auto mode = sim::schedModeFromString(args.get("sched"));
        if (!mode) {
            std::cerr << "--sched must be auto, cycle or event\n";
            return 2;
        }
        job.cfg.schedMode = *mode;
    }
    if (args.has("shards")) {
        const long long s = args.getInt("shards", 0);
        if (s < 0 || s > sim::kMaxShards) {
            std::cerr << "--shards must be in [0, "
                      << sim::kMaxShards << "] (0 = auto)\n";
            return 2;
        }
        job.cfg.shards = static_cast<int>(s);
    }
    job.cfg.faults.maxRecoveryAttempts = static_cast<int>(args.getInt(
        "recovery-passes", job.cfg.faults.maxRecoveryAttempts));
    if (const int rc = jobFromArgs(args, kSimulateRun, job))
        return rc;
    sweep::JobInstance run(job);
    const auto result = run.simulator.run();

    if (json) {
        printRunJson("scheme", job.router.substr(kEbdaSpec.size()), job,
                     result);
        return result.deadlocked ? 1 : 0;
    }

    if (result.deadlocked) {
        std::cout << "DEADLOCK detected by the watchdog\n";
        return 1;
    }
    std::cout << "packets measured: " << result.packetsMeasured
              << "\navg latency: " << result.avgLatency << " cycles (p99 "
              << result.p99Latency << ")\navg hops: " << result.avgHops
              << "\naccepted: " << result.acceptedRate
              << " flits/node/cycle (offered " << result.offeredRate
              << ")\nchannel load CV: " << result.channelLoadCv
              << "\nbackend: " << sim::toString(result.schedMode) << ", "
              << result.wakeups << " wakeups over " << result.cycles
              << " cycles\nroute table: ";
    const routing::RouteTable &table = run.simulator.routeTable();
    if (table.compiled())
        std::cout << table.rowsFilled() << " of " << table.rowCount()
                  << " rows filled, " << table.tableBytes() << " of "
                  << table.budgetBytes() << " bytes\n";
    else if (table.fallback() == routing::RouteTable::Fallback::PoolOverBudget)
        std::cout << table.rowsFilled() << " of " << table.rowCount()
                  << " rows filled, then "
                  << routing::toString(table.fallback())
                  << " (empty rows ask the relation)\n";
    else
        std::cout << "virtual relation ("
                  << routing::toString(table.fallback()) << ")\n";
    return 0;
}

/** Topology statistics, the raw-graph routing-existence verdict, and
 *  both checkers plus connectivity for the --router engine. Exit 0 iff
 *  deadlock-free under both checkers and connected. */
int
cmdTopo(const Args &args)
{
    // ---- Declare the network from whichever option was given.
    using Kind = sweep::TopologySpec::Kind;
    sweep::TopologySpec spec;
    std::string kind_label;
    std::string default_router = "updown";
    std::string err;
    if (args.has("dragonfly")) {
        const auto abc = core::parseVcList(args.get("dragonfly"), &err);
        if (!abc || abc->size() != 3) {
            std::cerr << "bad --dragonfly: want a,p,h"
                      << (err.empty() ? "" : " (" + err + ")") << '\n';
            return 2;
        }
        const auto vcs = core::parseVcList(args.get("vcs", "2,1"), &err);
        if (!vcs || vcs->size() != 2) {
            std::cerr << "bad --vcs (want localVcs,globalVcs): " << err
                      << '\n';
            return 2;
        }
        spec.kind = Kind::Dragonfly;
        spec.a = (*abc)[0];
        spec.p = (*abc)[1];
        spec.h = (*abc)[2];
        spec.localVcs = (*vcs)[0];
        spec.globalVcs = (*vcs)[1];
        kind_label = "dragonfly";
        default_router = "dragonfly-min";
    } else if (args.has("fullmesh")) {
        spec.kind = Kind::FullMesh;
        spec.nodes = static_cast<int>(args.getInt("fullmesh", 0));
        spec.nodeVcs = static_cast<int>(args.getInt("vcs", 1));
        kind_label = "fullmesh";
        default_router = "fullmesh-2hop";
    } else if (args.has("map") || args.has("map-file")) {
        spec.kind = Kind::Ascii;
        spec.map = args.get("map");
        spec.defaultVcs = static_cast<int>(args.getInt("default-vcs", 1));
        if (args.has("map-file")) {
            std::ifstream in(args.get("map-file"));
            if (!in) {
                std::cerr << "cannot read --map-file '"
                          << args.get("map-file") << "'\n";
                return 2;
            }
            std::ostringstream ss;
            ss << in.rdbuf();
            spec.map = ss.str();
        }
        kind_label = "ascii map";
    } else {
        if (const int rc = gridFromArgs(args, nullptr, "1", spec))
            return rc;
        kind_label = args.has("torus") ? "torus" : "mesh";
        default_router = args.has("torus") ? "updown" : "xy";
    }
    const std::string router_spec = args.get("router", default_router);
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }
    std::optional<topo::Network> built;
    std::vector<std::pair<topo::NodeId, topo::NodeId>> dead_links;
    try {
        if (spec.kind == Kind::Ascii) {
            // Parse the map here rather than in spec.build(): the
            // report lists the links the map marks dead.
            auto parsed = topo::parseAsciiMap(
                spec.map, topo::AsciiMapOptions{spec.defaultVcs});
            built.emplace(std::move(parsed.network));
            dead_links = std::move(parsed.deadLinks);
        } else {
            built.emplace(spec.build());
        }
    } catch (const std::invalid_argument &e) {
        std::cerr << "bad topology: " << e.what() << '\n';
        return 2;
    }
    const topo::Network &net = *built;

    // ---- Stats.
    std::size_t min_deg = net.numNodes() ? net.numLinks() : 0, max_deg = 0;
    std::vector<std::size_t> out_deg(net.numNodes(), 0);
    for (topo::LinkId l = 0; l < net.numLinks(); ++l)
        ++out_deg[net.link(l).src];
    for (const auto d : out_deg) {
        min_deg = std::min(min_deg, d);
        max_deg = std::max(max_deg, d);
    }
    int diameter = 0;
    bool connected_graph = true;
    for (topo::NodeId u = 0; u < net.numNodes(); ++u)
        for (topo::NodeId v = 0; v < net.numNodes(); ++v) {
            const int d = net.distance(u, v);
            if (d < 0)
                connected_graph = false;
            diameter = std::max(diameter, d);
        }

    std::cout << "topology: " << kind_label << '\n'
              << "nodes: " << net.numNodes() << "  links: "
              << net.numLinks() << "  channels: " << net.numChannels()
              << '\n'
              << "out-degree: " << min_deg << ".." << max_deg << '\n'
              << "diameter: " << diameter
              << (connected_graph ? "" : "  (graph NOT strongly connected)")
              << '\n';
    if (!dead_links.empty()) {
        std::cout << "dead links (" << dead_links.size() << "):";
        for (const auto &[s, d] : dead_links)
            std::cout << ' ' << net.nodeName(s) << "->" << net.nodeName(d);
        std::cout << '\n';
    }

    // ---- Existence: does ANY deadlock-free complete routing exist?
    graph::Digraph g(net.numNodes());
    for (topo::LinkId l = 0; l < net.numLinks(); ++l)
        g.addEdge(net.link(l).src, net.link(l).dst);
    const auto exist = cdg::deadlockFreeRoutingExists(g);
    std::cout << "routing existence (Mendlovic-Matias): "
              << (exist.verdict == cdg::ExistenceReport::Verdict::Exists
                      ? "EXISTS"
                  : exist.verdict
                          == cdg::ExistenceReport::Verdict::NotExists
                      ? "IMPOSSIBLE"
                      : "undetermined")
              << " [" << exist.method << "]\n";

    // A routing relation cannot connect what the graph does not; the
    // structural engines assert strong connectivity, so stop here
    // rather than die inside one of them.
    if (!connected_graph) {
        std::cout << "skipping routing checks: graph is not strongly "
                     "connected\n";
        return 1;
    }

    // ---- Checker verdicts for the chosen routing engine.
    const auto router = sweep::makeRouter(net, router_spec, &err);
    if (!router) {
        std::cerr << "router '" << router_spec << "': " << err << '\n';
        return 2;
    }
    std::cout << "router: " << router->name() << " (spec '" << router_spec
              << "')\n";

    const auto dally = cdg::checkDeadlockFree(*router);
    const auto mm = cdg::checkMendlovicMatias(*router);
    std::cout << "Dally relation-CDG oracle: "
              << (dally.deadlockFree ? "deadlock-free" : "CYCLIC") << " ("
              << dally.numDependencies << " dependencies over "
              << dally.numChannels << " channels)\n";
    std::cout << "Mendlovic-Matias fixpoint: "
              << (mm.deadlockFree ? "deadlock-free" : "DEADLOCK") << " ("
              << mm.numStates << " states, " << mm.releaseOrder.size()
              << '/' << mm.occupiableChannels << " channels released)\n";
    if (!mm.deadlockFree) {
        std::cout << "stuck knot:\n";
        for (const auto &ch : mm.stuckWitness)
            std::cout << "  " << ch << '\n';
    }
    std::cout << "checker agreement: "
              << (dally.deadlockFree == mm.deadlockFree
                      ? "agree"
                      : "DIVERGE (CDG test is conservative for adaptive "
                        "relations with escape paths)")
              << '\n';

    const auto conn = cdg::checkConnectivity(*router);
    std::cout << "connectivity: "
              << (conn.connected ? "every pair routable" : "INCOMPLETE")
              << '\n';

    return (dally.deadlockFree && mm.deadlockFree && conn.connected) ? 0
                                                                     : 1;
}

/** Stall attribution, the busiest channels and, when the watchdog
 *  fired, the deadlock forensic dump. Exit 0 when a deadlock was
 *  caught and dumped, 1 when the run completed without one. */
int
cmdForensics(const Args &args)
{
    sweep::SweepJob job;
    if (jobFromArgs(args, kForensicsRun, job))
        return 2;
    sweep::JobInstance run(job);
    sim::Simulator &simulator = run.simulator;
    const auto result = simulator.run();
    const topo::Network &net = run.net;

    std::cout << run.router->name() << " on " << net.numNodes()
              << " nodes, rate " << job.cfg.injectionRate << ": ran "
              << result.cycles << " cycles, "
              << (result.deadlocked ? "DEADLOCKED" : "no deadlock")
              << "\n\nstall attribution (stall-cycles, whole run):\n";
    TextTable stalls;
    stalls.setHeader({"stage", "stall-cycles"});
    stalls.addRow({"route-compute",
                   std::to_string(result.stallRouteCompute)});
    stalls.addRow({"vc-starved", std::to_string(result.stallVcStarved)});
    stalls.addRow({"credit-starved",
                   std::to_string(result.stallCreditStarved)});
    stalls.addRow({"switch-lost",
                   std::to_string(result.stallSwitchLost)});
    stalls.print(std::cout);
    std::cout << "hottest router: node " << result.hottestRouter << " ("
              << result.hottestRouterStalls << " stall-cycles)\n";

    // Top occupied channels (time-weighted mean).
    const auto occ = simulator.channelOccupancy();
    std::vector<topo::ChannelId> by_occ(occ.size());
    for (topo::ChannelId c = 0; c < occ.size(); ++c)
        by_occ[c] = c;
    std::sort(by_occ.begin(), by_occ.end(),
              [&](topo::ChannelId a, topo::ChannelId b) {
                  return occ[a].mean > occ[b].mean;
              });
    std::cout << "\nbusiest channels (mean occupancy / peak, of depth "
              << job.cfg.vcDepth << "):\n";
    for (std::size_t k = 0; k < std::min<std::size_t>(5, by_occ.size());
         ++k) {
        const topo::ChannelId c = by_occ[k];
        std::cout << "  " << net.channelName(c) << ": "
                  << occ[c].mean << " / " << occ[c].peak << '\n';
    }

    if (!result.deadlocked) {
        std::cout << "\nno deadlock caught; nothing to dissect\n";
        return 1;
    }
    std::cout << '\n' << simulator.forensics().describe(net);
    return 0;
}

/** The materialized fault schedule and the degradation report. Exit 0
 *  when the run degraded gracefully, 1 when it wedged (forensics
 *  printed). */
int
cmdFaults(const Args &args)
{
    const bool json = args.has("json");
    sweep::SweepJob job;
    sim::FaultPlan &plan = job.cfg.faults;
    plan.randomLinkFaults = static_cast<int>(args.getInt("link-faults", 0));
    plan.randomRouterFaults =
        static_cast<int>(args.getInt("node-faults", 0));
    plan.seed = args.getU64("fault-seed", plan.seed);
    plan.firstCycle = args.getU64("fault-start", plan.firstCycle);
    plan.spacing = args.getU64("fault-spacing", plan.spacing);
    std::string err;
    if (args.has("events")
        && !sim::parseFaultEvents(args.get("events"), plan.events, &err)) {
        std::cerr << err << '\n';
        return 2;
    }
    if (jobFromArgs(args, kFaultsRun, job))
        return 2;
    if (plan.empty()) {
        // A faults run without faults is a usage error, not a silent
        // fault-free simulation.
        std::cerr << "no faults scheduled: give --link-faults, "
                     "--node-faults or --events\n";
        return 2;
    }
    sweep::JobInstance run(job);
    const auto result = run.simulator.run();
    const auto &injector = run.simulator.faults();

    if (json) {
        printRunJson("router", run.router->name(), job, result);
        return result.degradedGracefully ? 0 : 1;
    }

    std::cout << run.router->name() << " on " << run.net.numNodes()
              << " nodes, rate " << job.cfg.injectionRate
              << "\n\nfault schedule ("
              << injector.schedule().size() << " event(s), "
              << result.faultEventsApplied << " applied):\n";
    TextTable sched;
    sched.setHeader({"cycle", "fault", "applied"});
    std::size_t idx = 0;
    for (const auto &ev : injector.schedule()) {
        const std::string what =
            ev.router ? "router " + std::to_string(ev.node)
                      : "link " + std::to_string(ev.src) + " -> "
                            + std::to_string(ev.dst);
        sched.addRow({TextTable::num(ev.cycle), what,
                      idx < result.faultEventsApplied ? "yes" : "no"});
        ++idx;
    }
    sched.print(std::cout);

    std::cout << "\ndegradation report:\n  delivered fraction: "
              << result.deliveredFraction << "\n  packets dropped "
              << result.packetsDropped << ", retransmitted "
              << result.packetsRetransmitted << ", lost "
              << result.packetsLost << "\n  recovery passes: "
              << result.recoveryPasses
              << "\n  degraded-CDG oracle: " << result.faultChecksClean
              << "/" << result.faultChecks << " checks clean\n";
    if (result.packetsMeasured > 0)
        std::cout << "  avg latency: " << result.avgLatency
                  << " cycles over " << result.packetsMeasured
                  << " measured packets\n";

    if (result.degradedGracefully) {
        std::cout << "\ngraceful degradation: no watchdog wedge after "
                  << result.faultEventsApplied << " fault event(s)\n";
        return 0;
    }
    std::cout << "\nWEDGED after " << result.recoveryPasses
              << " recovery pass(es)\n\n"
              << run.simulator.forensics().describe(run.net);
    return 1;
}

/** The request–reply layer's endpoint report (docs/PROTOCOL.md) and,
 *  on a wedge, the cross-message wait-for cycle. Exit 0 when the run
 *  completed, 1 on a wedge (forensics printed). */
int
cmdProtocol(const Args &args)
{
    const bool json = args.has("json");
    sweep::SweepJob job;
    sim::ProtocolConfig &proto = job.cfg.protocol;
    proto.requestReply = true;
    proto.replyBufferDepth =
        static_cast<int>(args.getInt("depth", proto.replyBufferDepth));
    proto.serviceLatency =
        args.getU64("service-latency", proto.serviceLatency);
    proto.serviceJitter = args.getU64("service-jitter", proto.serviceJitter);
    proto.messageClasses =
        static_cast<int>(args.getInt("classes", proto.messageClasses));
    proto.reserveReplyBuffer = args.has("reserve");
    job.cfg.faults.maxRecoveryAttempts = static_cast<int>(args.getInt(
        "recovery-passes", job.cfg.faults.maxRecoveryAttempts));
    if (jobFromArgs(args, kProtocolRun, job))
        return 2;
    sweep::JobInstance run(job);
    const auto result = run.simulator.run();

    if (json) {
        printRunJson("router", run.router->name(), job, result);
        return result.deadlocked ? 1 : 0;
    }

    std::cout << run.router->name() << " on " << run.net.numNodes()
              << " nodes, rate " << job.cfg.injectionRate
              << ", reply buffer depth " << proto.replyBufferDepth << ", "
              << proto.messageClasses << " message class(es)"
              << (proto.reserveReplyBuffer ? ", buffer reservation" : "")
              << "\n\nendpoint report:\n  requests delivered: "
              << result.protocolRequestsDelivered
              << "\n  replies injected: " << result.protocolRepliesInjected
              << ", delivered " << result.protocolRepliesDelivered
              << "\n  endpoint stalls (full-buffer refusals): "
              << result.protocolEndpointStalls
              << "\n  requests throttled by reservation: "
              << result.protocolThrottled
              << "\n  peak buffer occupancy: "
              << result.protocolPeakOccupancy << " / "
              << proto.replyBufferDepth
              << "\n  delivered fraction: " << result.deliveredFraction
              << "\n  recovery passes: " << result.recoveryPasses << '\n';
    if (result.packetsMeasured > 0)
        std::cout << "  avg latency: " << result.avgLatency
                  << " cycles over " << result.packetsMeasured
                  << " measured packets\n";

    if (!result.deadlocked) {
        std::cout << "\ncompleted watchdog-clean\n";
        return 0;
    }
    std::cout << "\nWEDGED ("
              << (result.protocolDeadlock ? "protocol / message-dependency"
                                          : "channel")
              << " deadlock) after " << result.recoveryPasses
              << " recovery pass(es)\n\n"
              << run.simulator.forensics().describe(run.net);
    return 1;
}

/** Two schemes side by side on a radix-5 mesh. Exit 1 when Theorem 1
 *  rejects either. */
int
cmdCompare(const Args &args)
{
    std::string err;
    const auto a = core::parseScheme(args.get("scheme"), &err);
    if (!a) {
        std::cerr << "bad --scheme: " << err << '\n';
        return 2;
    }
    const auto b = core::parseScheme(args.get("scheme2"), &err);
    if (!b) {
        std::cerr << "bad --scheme2: " << err << '\n';
        return 2;
    }

    TextTable t;
    t.setHeader({"metric", "scheme A", "scheme B"});
    t.addRow({"scheme", a->toString(), b->toString()});

    const auto va = a->validate();
    const auto vb = b->validate();
    t.addRow({"Theorem 1", va.ok ? "OK" : va.reason,
              vb.ok ? "OK" : vb.reason});
    if (!va.ok || !vb.ok) {
        t.print(std::cout);
        return 1;
    }

    auto dims_needed = std::max(a->dimensionSpan(), b->dimensionSpan());
    std::vector<int> vcs(dims_needed, 1);
    for (const core::PartitionScheme *s : {&*a, &*b}) {
        const auto need = core::vcsRequired(*s);
        for (std::size_t d = 0; d < need.size(); ++d)
            vcs[d] = std::max(vcs[d], need[d]);
    }
    const auto net = meshNetwork(std::vector<int>(dims_needed, 5), vcs);

    auto row = [&](const char *label, auto fn) {
        t.addRow({label, fn(*a), fn(*b)});
    };
    row("channels", [](const core::PartitionScheme &s) {
        return TextTable::num(s.numClasses());
    });
    row("90-degree turns", [](const core::PartitionScheme &s) {
        return TextTable::num(
            core::TurnSet::extract(s).count(core::TurnKind::Turn90));
    });
    row("deadlock-free", [&](const core::PartitionScheme &s) {
        return std::string(
            cdg::checkDeadlockFree(net, s).deadlockFree ? "yes" : "NO");
    });
    row("adaptiveness", [&](const core::PartitionScheme &s) {
        return TextTable::num(
            cdg::measureAdaptiveness(net, s).averageFraction, 4);
    });
    row("fully adaptive", [&](const core::PartitionScheme &s) {
        return std::string(
            cdg::measureAdaptiveness(net, s).fullyAdaptive ? "yes"
                                                           : "no");
    });
    t.print(std::cout);
    return 0;
}

/** Report the size of the turn-model design space EbDa avoids. */
int
cmdSpace(const Args &args)
{
    const long n = args.getInt("dims", 2);
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }
    if (n < 2 || n > 16) {
        std::cerr << "--dims must be in [2, 16], got " << n << '\n';
        return 2;
    }
    std::vector<int> vcs(static_cast<std::size_t>(n), 1);
    if (args.has("vcs")) {
        std::string err;
        const auto v = core::parseVcList(args.get("vcs"), &err);
        if (!v || v->size() != static_cast<std::size_t>(n)) {
            std::cerr << "bad --vcs\n";
            return 2;
        }
        vcs = *v;
    }
    const auto space =
        cdg::turnModelSpace(static_cast<std::uint8_t>(n), vcs);
    std::cout << "abstract cycles: " << space.numCycles
              << "\nturn-model combinations to examine: 4^"
              << space.numCycles << " = " << space.numCombinations
              << "\nEbDa: one direct construction, e.g. mergedScheme("
              << n << ") with "
              << core::minFullyAdaptiveChannels(
                     static_cast<std::uint8_t>(n))
              << " channels\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return usage();
    }

    static const std::map<std::string, int (*)(const Args &)> commands = {
        {"design", cmdDesign},     {"verify", cmdVerify},
        {"turns", cmdTurns},       {"simulate", cmdSimulate},
        {"compare", cmdCompare},   {"space", cmdSpace},
        {"topo", cmdTopo},         {"forensics", cmdForensics},
        {"faults", cmdFaults},     {"protocol", cmdProtocol},
    };
    const auto it = commands.find(cmd);
    if (it == commands.end())
        return usage();
    int rc = 0;
    try {
        rc = it->second(args);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
    // An option the command never read was mistyped or belongs to
    // another command: fail rather than report a run it did not shape.
    if (const std::string key = args.unread(); rc != 2 && !key.empty()) {
        std::cerr << "unknown option --" << key << " for " << cmd << '\n';
        return 2;
    }
    return rc;
}
