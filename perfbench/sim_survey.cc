/**
 * @file
 * The two simulator workloads. Both build the fabric, the routers and
 * one Simulator per router in the setup phase, then time each
 * Simulator::run, split into warmup, measurement and drain by the
 * public phase hooks.
 *
 *  - idle_16x16: a zero-load latency survey, fig7b and odd-even on a
 *    16x16 2-VC mesh at 1e-4 flits/node/cycle under the default Auto
 *    backend, for millions of cycles. Event-mode jumps do most of the
 *    work. Odd-even's per-source table is over the 64 MiB budget here
 *    and takes the virtual fallback.
 *  - sat_32x32: fig7b on a 32x32 mesh at uniform 0.30 with default
 *    parameters except shorter phases. The fabric is full, so route
 *    compute, VC/switch allocation and traversal do all the work; the
 *    fig7b table is over budget, which also keeps Auto sharding off.
 */

#include "perfbench.hh"

#include <optional>
#include <stdexcept>

#include "sim/simulator.hh"
#include "sweep/router_factory.hh"
#include "sweep/sweep_spec.hh"
#include "util/json.hh"

namespace perfbench {
namespace {

using namespace ebda;

struct SurveySpec
{
    const char *name;
    std::vector<int> dims;
    std::vector<int> vcs;
    std::vector<std::string> routers;
    sim::SimConfig cfg;
    /** Setups per round (the last one is simulated). */
    int setups;
};

/** What one setup builds. Members are destroyed in reverse order, so
 *  the simulators go before what they reference. */
struct Built
{
    std::optional<topo::Network> net;
    std::vector<std::unique_ptr<cdg::RoutingRelation>> relations;
    std::optional<sim::TrafficGenerator> traffic;
    std::vector<std::unique_ptr<sim::Simulator>> sims;
};

class SimSurvey final : public Workload
{
  public:
    explicit SimSurvey(SurveySpec s) : spec(std::move(s)) {}

    Round round(Tracer &tr, int index) override;

  private:
    std::unique_ptr<Built> setup(Tracer &tr, Round &out) const;

    SurveySpec spec;
};

std::unique_ptr<Built>
SimSurvey::setup(Tracer &tr, Round &out) const
{
    auto b = std::make_unique<Built>();
    double build = 0.0, make_router = 0.0, construct = 0.0;
    out.setupSamples.push_back(tr.span("setup", [&] {
        build = tr.span("topo.build", [&] {
            b->net.emplace(topo::Network::mesh(spec.dims, spec.vcs));
        });
        for (const std::string &router : spec.routers)
            make_router += tr.span("routing.make_router", [&] {
                std::string err;
                auto rel = sweep::makeRouter(*b->net, router, &err);
                if (!rel)
                    throw std::runtime_error(router + ": " + err);
                b->relations.push_back(std::move(rel));
            });
        b->traffic.emplace(*b->net, sim::TrafficPattern::Uniform);
        for (const auto &rel : b->relations)
            construct += tr.span("sim.construct", [&] {
                b->sims.push_back(std::make_unique<sim::Simulator>(
                    *b->net, *rel, *b->traffic, spec.cfg));
            });
    }));
    out.layer["topo.build_s"] = build;
    out.layer["routing.make_router_s"] = make_router;
    out.layer["sim.construct_s"] = construct;
    return b;
}

Round
SimSurvey::round(Tracer &tr, int)
{
    Round out;
    std::unique_ptr<Built> b;
    for (int k = 0; k < spec.setups; ++k) {
        b.reset();
        b = setup(tr, out);
    }
    const topo::Network &net = *b->net;
    auto &sims = b->sims;

    SimTotals totals;
    double warmup = 0.0, measure = 0.0, drain = 0.0;
    std::string digest_text;
    tr.span("work", [&] {
        for (std::size_t i = 0; i < sims.size(); ++i) {
            Clock::time_point run_start, measure_start, measure_end,
                run_end;
            sims[i]->setMeasurePhaseHooks(
                [&] { measure_start = Clock::now(); },
                [&] { measure_end = Clock::now(); });
            std::optional<sim::SimResult> result;
            std::string error;
            out.simSeconds += tr.span("sim.run", [&] {
                run_start = Clock::now();
                try {
                    result = sims[i]->run();
                } catch (const std::exception &e) {
                    error = e.what();
                }
                run_end = Clock::now();
                // Phases the run never reached read as zero.
                if (measure_start < run_start)
                    measure_start = run_end;
                if (measure_end < measure_start)
                    measure_end = run_end;
                tr.interval("sim.warmup", run_start, measure_start);
                tr.interval("sim.measure", measure_start, measure_end);
                tr.interval("sim.drain", measure_end, run_end);
            });
            sims[i]->setMeasurePhaseHooks({}, {});
            warmup += seconds(measure_start - run_start);
            measure += seconds(measure_end - measure_start);
            drain += seconds(run_end - measure_end);

            ++out.ops;
            JsonWriter w;
            w.beginObject();
            w.field("workload", spec.name);
            w.field("router", spec.routers[i]);
            if (!result) {
                ++out.failed;
                w.field("error", error);
                w.end();
                out.provenance.push_back(w.str());
                continue;
            }
            if (simulationFailed(*result))
                ++out.failed;
            totals.add(*result, net.numNodes(), spec.cfg.shards);
            out.flitMoves +=
                static_cast<double>(sims[i]->fabric().flitMoves);
            digest_text += spec.routers[i] + ' ' + simulatedJson(*result)
                + '\n';

            const auto [shards, threads] =
                resolvedShards(*result, net.numNodes(), spec.cfg.shards);
            w.field("sched", sim::toString(result->schedMode));
            w.field("wakeups", result->wakeups);
            w.field("cycles", result->cycles);
            w.field("drained", result->drained);
            w.field("route_table_compiled", result->routeTableCompiled);
            w.field("route_table_per_source", result->routeTablePerSource);
            w.field("route_table_bytes", result->routeTableBytes);
            w.field("shards", shards);
            w.field("shard_threads", static_cast<std::uint64_t>(threads));
            w.end();
            out.provenance.push_back(w.str());
        }
    });

    out.workSeconds = out.simSeconds;
    out.simCycles = static_cast<double>(totals.cycles);
    out.digest = sweep::fnv1a64(digest_text);
    totals.report(out);
    auto &m = out.layer;
    m["sim.warmup_s"] = warmup;
    m["sim.measure_s"] = measure;
    m["sim.drain_s"] = drain;
    m["sim.flit_moves"] = out.flitMoves;
    m["sim.ns_per_flit_move"] =
        out.flitMoves > 0.0 ? out.simSeconds * 1e9 / out.flitMoves : 0.0;
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeIdleSurvey(std::uint64_t seed)
{
    SurveySpec s{"idle_16x16", {16, 16}, {2, 2}, {"fig7b", "odd-even"}, {}, 1};
    s.cfg.seed = seed;
    s.cfg.injectionRate = 1e-4;
    s.cfg.warmupCycles = 100000;
    s.cfg.measureCycles = 2000000;
    return std::make_unique<SimSurvey>(std::move(s));
}

std::unique_ptr<Workload>
makeSaturatedSurvey(std::uint64_t seed)
{
    SurveySpec s{"sat_32x32", {32, 32}, {2, 2}, {"fig7b"}, {}, 5};
    s.cfg.seed = seed;
    s.cfg.injectionRate = 0.30;
    // Default phases would run ~26k cycles at ~1.5k cycles/s; these keep
    // one round to a few seconds. Not draining is the expected outcome.
    s.cfg.warmupCycles = 1000;
    s.cfg.measureCycles = 2000;
    s.cfg.drainCycles = 1000;
    return std::make_unique<SimSurvey>(std::move(s));
}

} // namespace perfbench
