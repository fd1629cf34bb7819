/**
 * @file
 * ebda_tool — command-line front end for the EbDa library.
 *
 * Subcommands:
 *   design   --vcs A,B[,C..] [--all] [--max N]
 *            Derive deadlock-free partition schemes for a VC budget
 *            (Algorithm 1; with --all also Arrangements 2/3 and
 *            Algorithm 2 derivations) and rank them by adaptiveness.
 *   verify   --scheme "{X+ X- Y-} -> {Y+}" [--mesh 8x8] [--vcs 1,1]
 *            [--torus]
 *            Validate (Theorem 1), run the Dally oracle, report
 *            connectivity and adaptiveness. Exit code 0 iff valid and
 *            deadlock-free.
 *   turns    --scheme "..."
 *            Print the extracted turn set with theorem provenance.
 *   simulate --scheme "..." [--mesh 8x8] [--vcs 1,1] [--rate 0.2]
 *            [--pattern uniform] [--cycles 4000] [--torus]
 *            [--watchdog C] [--recovery-passes N]
 *            [--sched auto|cycle|event] [--json]
 *            Run the wormhole simulator with the scheme's routing; the
 *            report ends with the backend that ran and its wakeups.
 *            --sched picks the scheduling backend (sim/scheduler.hh);
 *            auto resolves from the injection rate and fabric size.
 *            --watchdog sets the progress-watchdog window,
 *            --recovery-passes the escalation budget before a wedge
 *            is declared.
 *   space    --dims N [--vcs A,B,..]
 *            Report the turn-model design-space size EbDa avoids.
 *   forensics [--router minimal | --scheme "..."] [--mesh 4x4]
 *            [--vcs 1,1] [--torus] [--rate 0.3] [--cycles 2000]
 *            [--watchdog 1000] [--pattern uniform]
 *            Run the simulator until the progress watchdog fires, then
 *            print the stall-attribution breakdown, the hottest
 *            channels, and the deadlock forensic dump: the concrete
 *            wait-for cycle among channels cross-referenced against
 *            the Dally relation-CDG. Exit 0 when a deadlock was caught
 *            and dumped, 1 when the run completed without one.
 *   topo     [--dragonfly a,p,h | --fullmesh N | --mesh 4x4 [--torus]
 *            | --map-file FILE | --map "..."] [--vcs ...]
 *            [--router SPEC]
 *            Print topology statistics (nodes, links, channels, degree,
 *            diameter), the raw-graph routing-existence verdict, and —
 *            for the chosen routing engine — the Dally relation-CDG
 *            oracle, the Mendlovic–Matias fixpoint checker, their
 *            agreement, and routing connectivity. Exit 0 iff the
 *            relation is deadlock-free under both checkers and
 *            connected.
 *   faults   [--router SPEC | --scheme "..."] [--mesh 4x4] [--vcs 1,1]
 *            [--torus] [--rate 0.1] [--cycles 4000] [--watchdog 2000]
 *            [--link-faults N] [--node-faults N] [--fault-seed S]
 *            [--fault-start C] [--fault-spacing C]
 *            [--events "C:link:SRC->DST;C:node:N;..."] [--json]
 *            Run the simulator under a runtime fault schedule: print
 *            the materialized schedule, then the degradation report —
 *            delivery fraction, drops / retransmits / losses, recovery
 *            passes, and the per-event degraded-CDG oracle verdicts.
 *            Exit 0 when the run degraded gracefully, 1 when it
 *            wedged (forensics printed), 2 on usage errors.
 *   protocol [--router SPEC | --scheme "..."] [--mesh 4x4] [--vcs 2,2]
 *            [--torus] [--rate 0.3] [--cycles 4000] [--watchdog 1000]
 *            [--depth N] [--service-latency C] [--service-jitter C]
 *            [--classes 1|2] [--reserve] [--recovery-passes N]
 *            [--pattern uniform] [--json]
 *            Run the request–reply protocol layer on a Dally-verified
 *            fabric: finite per-node reply buffers plus a service
 *            latency make message-dependency deadlock reachable with
 *            --classes 1; --classes 2 carves a reply VC class as the
 *            escape and --reserve throttles requests against local
 *            reply-buffer space instead. Prints the endpoint report;
 *            on a wedge, the cross-message wait-for cycle with the
 *            protocol-vs-channel classification and the channel-level
 *            oracle cross-check. Exit 0 when the run completed, 1 on
 *            a protocol wedge (forensics printed), 2 on usage errors.
 *
 * Every command prints a short report to stdout; malformed input exits
 * with code 2 and a message on stderr.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
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
#include "routing/ebda_routing.hh"
#include "sim/forensics.hh"
#include "sim/shard_partition.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"
#include "sweep/router_factory.hh"
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

/** Infer a VC budget covering the scheme when none is given. */
std::vector<int>
vcsFor(const core::PartitionScheme &scheme, const Args &args,
       std::size_t dims)
{
    if (args.has("vcs")) {
        std::string err;
        if (auto v = core::parseVcList(args.get("vcs"), &err)) {
            v->resize(std::max(v->size(), dims), 1);
            return *v;
        }
        std::cerr << "bad --vcs: " << err << '\n';
        std::exit(2);
    }
    auto v = core::vcsRequired(scheme);
    v.resize(std::max(v.size(), dims), 1);
    for (auto &x : v)
        x = std::max(x, 1);
    return v;
}

topo::Network
networkFor(const core::PartitionScheme &scheme, const Args &args)
{
    std::string err;
    auto dims = core::parseDims(args.get("mesh", "8x8"), &err);
    if (!dims) {
        std::cerr << "bad --mesh: " << err << '\n';
        std::exit(2);
    }
    if (dims->size() < scheme.dimensionSpan()) {
        std::cerr << "scheme uses " << int{scheme.dimensionSpan()}
                  << " dimensions but --mesh has " << dims->size() << '\n';
        std::exit(2);
    }
    const auto vcs = vcsFor(scheme, args, dims->size());
    return args.has("torus") ? topo::Network::torus(*dims, vcs)
                             : topo::Network::mesh(*dims, vcs);
}

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

int
cmdDesign(const Args &args)
{
    std::string err;
    const auto vcs = core::parseVcList(args.get("vcs", "1,1"), &err);
    if (!vcs) {
        std::cerr << "bad --vcs: " << err << '\n';
        return 2;
    }
    const std::size_t max_schemes =
        static_cast<std::size_t>(std::stoul(args.get("max", "16")));

    std::vector<core::PartitionScheme> schemes;
    if (args.has("all")) {
        core::DerivationOptions opts;
        opts.permuteTransitionOrders = true;
        opts.maxSchemes = 4096;
        schemes = core::deriveAll(*vcs, opts);
    } else {
        schemes.push_back(core::partitionSets(core::makeSets(*vcs)));
    }

    std::vector<int> dims(vcs->size(), 4);
    const auto net = topo::Network::mesh(dims, *vcs);

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
    if (ranked.size() > max_schemes)
        ranked.resize(max_schemes);

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

int
cmdVerify(const Args &args)
{
    const auto scheme = schemeFromArgs(args);
    std::cout << "scheme: " << scheme.toString() << '\n';

    const auto validation = scheme.validate();
    std::cout << "Theorem 1 / disjointness: "
              << (validation.ok ? "OK" : "REJECTED — " + validation.reason)
              << '\n';
    if (!validation.ok)
        return 1;

    const auto net = networkFor(scheme, args);
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

    const routing::EbDaRouting router(
        net, scheme, {},
        net.isTorus() ? routing::EbDaRouting::Mode::ShortestState
                      : routing::EbDaRouting::Mode::Minimal);
    const auto conn = cdg::checkConnectivity(router);
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

/** Network + routing relation for the runtime commands: either an
 *  EbDa scheme or a sweep router-factory spec. The members are
 *  constructed in place and must not be moved — the relation holds a
 *  reference into `net`. */
struct RouterSetup
{
    std::optional<topo::Network> net;
    std::unique_ptr<cdg::RoutingRelation> owned;
    std::optional<routing::EbDaRouting> ebda;
    const cdg::RoutingRelation *router = nullptr;
    /** The --scheme text as parsed (empty for a factory router). */
    std::string scheme;
};

/**
 * Build the run's network and router. --scheme takes the EbDa path
 * (required when `default_router` is null); otherwise --router names a
 * sweep factory router, default `default_router`, on a --mesh/--vcs
 * fabric. Returns 0, or the exit code on failure: 1 for a scheme
 * Theorem 1 rejects, 2 for malformed input.
 */
int
setupRouter(const Args &args, const char *default_router,
            const char *default_vcs, RouterSetup &out)
{
    if (args.has("scheme") || !default_router) {
        const auto scheme = schemeFromArgs(args);
        const auto validation = scheme.validate();
        if (!validation.ok) {
            std::cerr << "invalid scheme: " << validation.reason << '\n';
            return 1;
        }
        out.net = networkFor(scheme, args);
        out.ebda.emplace(
            *out.net, scheme, core::TurnExtractionOptions{},
            out.net->isTorus()
                ? routing::EbDaRouting::Mode::ShortestState
                : routing::EbDaRouting::Mode::Minimal);
        out.router = &*out.ebda;
        out.scheme = scheme.toString();
        return 0;
    }
    std::string err;
    const auto dims = core::parseDims(args.get("mesh", "4x4"), &err);
    if (!dims) {
        std::cerr << "bad --mesh: " << err << '\n';
        return 2;
    }
    auto vcs = core::parseVcList(args.get("vcs", default_vcs), &err);
    if (!vcs) {
        std::cerr << "bad --vcs: " << err << '\n';
        return 2;
    }
    vcs->resize(std::max(vcs->size(), dims->size()), 1);
    out.net = args.has("torus") ? topo::Network::torus(*dims, *vcs)
                                : topo::Network::mesh(*dims, *vcs);
    out.owned =
        sweep::makeRouter(*out.net, args.get("router", default_router),
                          &err);
    if (!out.owned) {
        std::cerr << err << '\n';
        return 2;
    }
    out.router = out.owned.get();
    return 0;
}

/** --pattern (default uniform); nullopt after reporting a bad one. */
std::optional<sim::TrafficPattern>
patternFromArgs(const Args &args)
{
    const auto pattern =
        sim::patternFromString(args.get("pattern", "uniform"));
    if (!pattern)
        std::cerr << "unknown --pattern\n";
    return pattern;
}

/** The runtime commands' run phases: --cycles measured cycles
 *  (default `default_cycles`) after a quarter of that in warmup, with
 *  up to ten times that to drain. */
void
setPhases(sim::SimConfig &cfg, const Args &args,
          std::uint64_t default_cycles)
{
    cfg.measureCycles = args.getU64("cycles", default_cycles);
    cfg.warmupCycles = cfg.measureCycles / 4;
    cfg.drainCycles = cfg.measureCycles * 10;
}

/** The runtime commands' --json document: the router (or scheme), the
 *  traffic pattern, the config and the result. */
void
printRunJson(const char *router_key, const std::string &router,
             sim::TrafficPattern pattern, const sim::SimConfig &cfg,
             const sim::SimResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.field(router_key, router);
    w.field("pattern", sim::toString(pattern));
    w.beginObject("config");
    sim::jsonFields(w, cfg);
    w.end();
    w.beginObject("result");
    sim::jsonFields(w, result);
    w.end();
    w.end();
    std::cout << w.str() << '\n';
}

int
cmdSimulate(const Args &args)
{
    RouterSetup setup;
    if (const int rc = setupRouter(args, nullptr, nullptr, setup))
        return rc;
    const auto pattern = patternFromArgs(args);
    if (!pattern)
        return 2;
    const sim::TrafficGenerator gen(*setup.net, *pattern);

    sim::SimConfig cfg;
    cfg.injectionRate = args.getDouble("rate", 0.2);
    setPhases(cfg, args, 4000);
    if (args.has("sched")) {
        const auto mode = sim::schedModeFromString(args.get("sched"));
        if (!mode) {
            std::cerr << "--sched must be auto, cycle or event\n";
            return 2;
        }
        cfg.schedMode = *mode;
    }
    if (args.has("shards")) {
        const long long s = args.getInt("shards", 0);
        if (s < 0 || s > sim::kMaxShards) {
            std::cerr << "--shards must be in [0, "
                      << sim::kMaxShards << "] (0 = auto)\n";
            return 2;
        }
        cfg.shards = static_cast<int>(s);
    }
    cfg.watchdogCycles = args.getU64("watchdog", cfg.watchdogCycles);
    cfg.faults.maxRecoveryAttempts = static_cast<int>(args.getInt(
        "recovery-passes", cfg.faults.maxRecoveryAttempts));
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }

    const auto result =
        sim::runSimulation(*setup.net, *setup.router, gen, cfg);

    if (args.has("json")) {
        printRunJson("scheme", setup.scheme, *pattern, cfg, result);
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
              << " cycles\n";
    return 0;
}

int
cmdTopo(const Args &args)
{
    // ---- Build the network from whichever declaration was given.
    topo::Network net = topo::Network::mesh({2}, {1}); // placeholder
    std::vector<std::pair<topo::NodeId, topo::NodeId>> dead_links;
    std::string kind_label;
    std::string default_router = "updown";
    std::string err;
    try {
        if (args.has("dragonfly")) {
            const auto abc = core::parseVcList(args.get("dragonfly"), &err);
            if (!abc || abc->size() != 3) {
                std::cerr << "bad --dragonfly: want a,p,h"
                          << (err.empty() ? "" : " (" + err + ")") << '\n';
                return 2;
            }
            const auto vcs =
                core::parseVcList(args.get("vcs", "2,1"), &err);
            if (!vcs || vcs->size() != 2) {
                std::cerr << "bad --vcs (want localVcs,globalVcs): " << err
                          << '\n';
                return 2;
            }
            net = topo::Network::dragonfly((*abc)[0], (*abc)[1], (*abc)[2],
                                           (*vcs)[0], (*vcs)[1]);
            kind_label = "dragonfly";
            default_router = "dragonfly-min";
        } else if (args.has("fullmesh")) {
            const int n = static_cast<int>(args.getInt("fullmesh", 0));
            const int vcs = static_cast<int>(args.getInt("vcs", 1));
            net = topo::Network::fullMesh(n, vcs);
            kind_label = "fullmesh";
            default_router = "fullmesh-2hop";
        } else if (args.has("map") || args.has("map-file")) {
            std::string text = args.get("map");
            if (args.has("map-file")) {
                std::ifstream in(args.get("map-file"));
                if (!in) {
                    std::cerr << "cannot read --map-file '"
                              << args.get("map-file") << "'\n";
                    return 2;
                }
                std::ostringstream ss;
                ss << in.rdbuf();
                text = ss.str();
            }
            auto parsed = topo::parseAsciiMap(
                text, topo::AsciiMapOptions{
                          static_cast<int>(args.getInt("default-vcs", 1))});
            net = std::move(parsed.network);
            dead_links = std::move(parsed.deadLinks);
            kind_label = "ascii map";
        } else {
            const auto dims = core::parseDims(args.get("mesh", "4x4"), &err);
            if (!dims) {
                std::cerr << "bad --mesh: " << err << '\n';
                return 2;
            }
            auto vcs = core::parseVcList(args.get("vcs", "1"), &err);
            if (!vcs) {
                std::cerr << "bad --vcs: " << err << '\n';
                return 2;
            }
            vcs->resize(std::max(vcs->size(), dims->size()), 1);
            net = args.has("torus") ? topo::Network::torus(*dims, *vcs)
                                    : topo::Network::mesh(*dims, *vcs);
            kind_label = args.has("torus") ? "torus" : "mesh";
            default_router = args.has("torus") ? "updown" : "xy";
        }
    } catch (const std::invalid_argument &e) {
        std::cerr << "bad topology: " << e.what() << '\n';
        return 2;
    }
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }

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
    const std::string router_spec = args.get("router", default_router);
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

int
cmdForensics(const Args &args)
{
    // Network + router: either an EbDa scheme (like simulate) or a
    // sweep router-factory spec (default: the deadlock-prone
    // unrestricted minimal-adaptive negative control).
    RouterSetup setup;
    if (setupRouter(args, "minimal", "1,1", setup))
        return 2;
    const auto &net = setup.net;
    const auto *router = setup.router;

    const auto pattern = patternFromArgs(args);
    if (!pattern)
        return 2;
    const sim::TrafficGenerator gen(*net, *pattern);

    sim::SimConfig cfg;
    cfg.injectionRate = args.getDouble("rate", 0.3);
    setPhases(cfg, args, 2000);
    cfg.watchdogCycles = args.getU64("watchdog", 1000);
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }

    sim::Simulator simulator(*net, *router, gen, cfg);
    const auto result = simulator.run();

    std::cout << router->name() << " on " << net->numNodes()
              << " nodes, rate " << cfg.injectionRate << ": ran "
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
              << cfg.vcDepth << "):\n";
    for (std::size_t k = 0; k < std::min<std::size_t>(5, by_occ.size());
         ++k) {
        const topo::ChannelId c = by_occ[k];
        std::cout << "  " << net->channelName(c) << ": "
                  << occ[c].mean << " / " << occ[c].peak << '\n';
    }

    if (!result.deadlocked) {
        std::cout << "\nno deadlock caught; nothing to dissect\n";
        return 1;
    }
    std::cout << '\n' << simulator.forensics().describe(*net);
    return 0;
}

/** Parse "--events" fault lists: semicolon-separated entries of the
 *  form "CYCLE:link:SRC->DST" or "CYCLE:node:N". */
bool
parseFaultEvents(const std::string &text,
                 std::vector<sim::FaultEvent> &out, std::string *err)
{
    auto fail = [&](const std::string &what, const std::string &entry) {
        if (err)
            *err = what + " in fault event '" + entry + "'";
        return false;
    };
    auto number = [](const std::string &s, std::uint64_t &v) {
        if (s.empty())
            return false;
        char *end = nullptr;
        v = std::strtoull(s.c_str(), &end, 10);
        return end && *end == '\0';
    };
    std::size_t pos = 0;
    while (pos < text.size()) {
        auto semi = text.find(';', pos);
        if (semi == std::string::npos)
            semi = text.size();
        const std::string entry = text.substr(pos, semi - pos);
        pos = semi + 1;
        if (entry.empty())
            continue;
        const auto c1 = entry.find(':');
        const auto c2 =
            c1 == std::string::npos ? c1 : entry.find(':', c1 + 1);
        if (c2 == std::string::npos)
            return fail("expected CYCLE:kind:WHAT", entry);
        sim::FaultEvent ev;
        if (!number(entry.substr(0, c1), ev.cycle))
            return fail("bad cycle", entry);
        const std::string kind = entry.substr(c1 + 1, c2 - c1 - 1);
        const std::string what = entry.substr(c2 + 1);
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        if (kind == "node") {
            ev.router = true;
            if (!number(what, a))
                return fail("bad node id", entry);
            ev.node = static_cast<std::uint32_t>(a);
        } else if (kind == "link") {
            const auto arrow = what.find("->");
            if (arrow == std::string::npos
                || !number(what.substr(0, arrow), a)
                || !number(what.substr(arrow + 2), b))
                return fail("bad SRC->DST", entry);
            ev.src = static_cast<std::uint32_t>(a);
            ev.dst = static_cast<std::uint32_t>(b);
        } else {
            return fail("kind must be 'link' or 'node'", entry);
        }
        out.push_back(ev);
    }
    return true;
}

int
cmdFaults(const Args &args)
{
    // Default: the paper's Fig 7(b) fully adaptive scheme (needs VC
    // budget 1,2 on a mesh), the configuration whose U-/I-turns are
    // what Theorem 2 says make degradation graceful.
    RouterSetup setup;
    if (setupRouter(args, "fig7b", "1,2", setup))
        return 2;
    const auto &net = setup.net;
    const auto *router = setup.router;

    const auto pattern = patternFromArgs(args);
    if (!pattern)
        return 2;
    const sim::TrafficGenerator gen(*net, *pattern);

    sim::SimConfig cfg;
    cfg.injectionRate = args.getDouble("rate", 0.1);
    setPhases(cfg, args, 4000);
    cfg.watchdogCycles = args.getU64("watchdog", 2000);
    cfg.faults.randomLinkFaults =
        static_cast<int>(args.getInt("link-faults", 0));
    cfg.faults.randomRouterFaults =
        static_cast<int>(args.getInt("node-faults", 0));
    cfg.faults.seed = args.getU64("fault-seed", cfg.faults.seed);
    cfg.faults.firstCycle =
        args.getU64("fault-start", cfg.faults.firstCycle);
    cfg.faults.spacing =
        args.getU64("fault-spacing", cfg.faults.spacing);
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }
    if (args.has("events")) {
        std::string err;
        if (!parseFaultEvents(args.get("events"), cfg.faults.events,
                              &err)) {
            std::cerr << err << '\n';
            return 2;
        }
    }
    if (cfg.faults.empty()) {
        // A faults run without faults is a usage error, not a silent
        // fault-free simulation.
        std::cerr << "no faults scheduled: give --link-faults, "
                     "--node-faults or --events\n";
        return 2;
    }

    sim::Simulator simulator(*net, *router, gen, cfg);
    const auto result = simulator.run();
    const auto &injector = simulator.faults();

    if (args.has("json")) {
        printRunJson("router", router->name(), *pattern, cfg, result);
        return result.degradedGracefully ? 0 : 1;
    }

    std::cout << router->name() << " on " << net->numNodes()
              << " nodes, rate " << cfg.injectionRate
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
              << simulator.forensics().describe(*net);
    return 1;
}

int
cmdProtocol(const Args &args)
{
    // Default: XY on a 4x4 mesh with 2 VCs per link — Dally-verified
    // at the channel level, which is exactly what makes the protocol
    // wedge interesting: the channel CDG stays acyclic while the
    // request→endpoint→reply dependency closes a cycle above it.
    RouterSetup setup;
    if (setupRouter(args, "xy", "2,2", setup))
        return 2;
    const auto &net = setup.net;
    const auto *router = setup.router;

    const auto pattern = patternFromArgs(args);
    if (!pattern)
        return 2;
    const sim::TrafficGenerator gen(*net, *pattern);

    sim::SimConfig cfg;
    cfg.injectionRate = args.getDouble("rate", 0.3);
    setPhases(cfg, args, 4000);
    cfg.watchdogCycles = args.getU64("watchdog", 1000);
    cfg.protocol.requestReply = true;
    cfg.protocol.replyBufferDepth = static_cast<int>(
        args.getInt("depth", cfg.protocol.replyBufferDepth));
    cfg.protocol.serviceLatency =
        args.getU64("service-latency", cfg.protocol.serviceLatency);
    cfg.protocol.serviceJitter =
        args.getU64("service-jitter", cfg.protocol.serviceJitter);
    cfg.protocol.messageClasses = static_cast<int>(
        args.getInt("classes", cfg.protocol.messageClasses));
    if (args.has("reserve"))
        cfg.protocol.reserveReplyBuffer = true;
    cfg.faults.maxRecoveryAttempts = static_cast<int>(args.getInt(
        "recovery-passes", cfg.faults.maxRecoveryAttempts));
    if (!args.error().empty()) {
        std::cerr << args.error() << '\n';
        return 2;
    }

    try {
        sim::Simulator simulator(*net, *router, gen, cfg);
        const auto result = simulator.run();

        if (args.has("json")) {
            printRunJson("router", router->name(), *pattern, cfg,
                         result);
            return result.deadlocked ? 1 : 0;
        }

        std::cout << router->name() << " on " << net->numNodes()
                  << " nodes, rate " << cfg.injectionRate
                  << ", reply buffer depth "
                  << cfg.protocol.replyBufferDepth << ", "
                  << cfg.protocol.messageClasses
                  << " message class(es)"
                  << (cfg.protocol.reserveReplyBuffer
                          ? ", buffer reservation"
                          : "")
                  << "\n\nendpoint report:\n  requests delivered: "
                  << result.protocolRequestsDelivered
                  << "\n  replies injected: "
                  << result.protocolRepliesInjected << ", delivered "
                  << result.protocolRepliesDelivered
                  << "\n  endpoint stalls (full-buffer refusals): "
                  << result.protocolEndpointStalls
                  << "\n  requests throttled by reservation: "
                  << result.protocolThrottled
                  << "\n  peak buffer occupancy: "
                  << result.protocolPeakOccupancy << " / "
                  << cfg.protocol.replyBufferDepth
                  << "\n  delivered fraction: "
                  << result.deliveredFraction
                  << "\n  recovery passes: " << result.recoveryPasses
                  << '\n';
        if (result.packetsMeasured > 0)
            std::cout << "  avg latency: " << result.avgLatency
                      << " cycles over " << result.packetsMeasured
                      << " measured packets\n";

        if (!result.deadlocked) {
            std::cout << "\ncompleted watchdog-clean\n";
            return 0;
        }
        std::cout << "\nWEDGED ("
                  << (result.protocolDeadlock
                          ? "protocol / message-dependency"
                          : "channel")
                  << " deadlock) after " << result.recoveryPasses
                  << " recovery pass(es)\n\n"
                  << simulator.forensics().describe(*net);
        return 1;
    } catch (const std::invalid_argument &e) {
        std::cerr << "bad protocol config: " << e.what() << '\n';
        return 2;
    }
}

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
    std::vector<int> vcs_a = core::vcsRequired(*a);
    std::vector<int> vcs_b = core::vcsRequired(*b);
    std::vector<int> vcs(dims_needed, 1);
    for (std::size_t d = 0; d < vcs.size(); ++d) {
        if (d < vcs_a.size())
            vcs[d] = std::max(vcs[d], vcs_a[d]);
        if (d < vcs_b.size())
            vcs[d] = std::max(vcs[d], vcs_b[d]);
    }
    std::vector<int> dims(dims_needed, 5);
    const auto net = topo::Network::mesh(dims, vcs);

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

int
cmdSpace(const Args &args)
{
    const int n = std::stoi(args.get("dims", "2"));
    if (n < 2 || n > 16) {
        std::cerr << "--dims out of range\n";
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
