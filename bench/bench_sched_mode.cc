/**
 * @file
 * Scheduling-backend benchmark and regression gate: the event-driven
 * scheduler's reason to exist is sparse traffic, where the cycle loop
 * burns a full iteration per empty cycle while the event backend jumps
 * straight to the next deadline. This binary measures both backends on
 * a 16x16, 2-VC mesh (fig7b, route table compiled, uniform traffic)
 * over exactly the measurement window via the measurement-phase hooks
 * — both schedulers wake at the MeasureStart/MeasureEnd cycles, so the
 * window brackets identical simulated spans and excludes the one-time
 * RouteTable fill.
 *
 * Exit is non-zero when
 *  - at the near-idle load (1e-5 flits/node/cycle) event mode is not
 *    at least 5x faster than cycle mode over the window, or
 *  - at the saturation load cycle mode regresses more than 10% below
 *    the committed baseline (BENCH_sim.json's
 *    sched_mode.cycle_sat_cycles_per_sec, via EBDA_SIM_BASELINE_JSON;
 *    gate skipped when the baseline predates this bench), or
 *  - the two backends disagree on any result field other than the
 *    trailing schedMode/wakeups pair (trace equivalence, re-checked
 *    here on the actual bench configs), or
 *  - a run deadlocks, aborts, or the hooks never fire, or
 *  - at 1e-4 with a link and a router fault, or with request-reply
 *    traffic, the backends disagree or event mode wakes for a quarter
 *    of the cycles or more, or
 *  - the injection engine alone (256 streams drawn for 1M cycles at
 *    a per-cycle packet rate of 1e-4) reports a different hit stream
 *    with its default helper threads than with none, or, on hosts
 *    with at least 4 threads (hostThreads()), draws less than 1.5x as
 *    fast with them; on smaller hosts that speed gate is skipped with
 *    a visible NOTICE.
 *
 * Machine-readable output: the JSON summary goes to stdout and, when
 * EBDA_SCHED_BENCH_JSON is set, to that path;
 * scripts/perf_baseline.sh merges it into BENCH_sim.json as the
 * `sched_mode` member.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"
#include "sweep/router_factory.hh"
#include "util/host_threads.hh"
#include "util/json.hh"

namespace ebda {
namespace {

using Clock = std::chrono::steady_clock;

/** Result JSON minus the trailing schedMode/wakeups pair — the only
 *  fields the two backends may legitimately disagree on. */
std::string
stripSchedTail(const sim::SimResult &r)
{
    std::string json = sim::toJson(r);
    const auto pos = json.find(",\"schedMode\":");
    if (pos != std::string::npos)
        json.erase(pos, json.size() - 1 - pos); // keep the final '}'
    return json;
}

struct RepResult
{
    bool clean = false;
    double windowSeconds = 0.0;
    double cyclesPerSec = 0.0;
    std::uint64_t wakeups = 0;
    std::uint64_t cycles = 0;
    std::string strippedJson;
};

RepResult
runOnce(const topo::Network &net, const cdg::RoutingRelation &rel,
        const sim::TrafficGenerator &gen, sim::SimConfig cfg,
        sim::SchedMode mode)
{
    cfg.schedMode = mode;
    sim::Simulator simulator(net, rel, gen, cfg);

    struct Window
    {
        bool started = false;
        bool ended = false;
        Clock::time_point t0, t1;
    } w;
    simulator.setMeasurePhaseHooks(
        [&] {
            w.started = true;
            w.t0 = Clock::now();
        },
        [&] {
            w.t1 = Clock::now();
            w.ended = true;
        });

    const auto result = simulator.run();

    RepResult rep;
    rep.clean = w.started && w.ended && !result.deadlocked
        && !result.aborted;
    if (!rep.clean)
        std::cerr << "run did not cover the measurement window cleanly"
                  << " (started=" << w.started << " ended=" << w.ended
                  << " deadlocked=" << result.deadlocked << ")\n";
    rep.windowSeconds =
        std::chrono::duration<double>(w.t1 - w.t0).count();
    rep.cyclesPerSec = rep.windowSeconds > 0
        ? static_cast<double>(cfg.measureCycles) / rep.windowSeconds
        : 0.0;
    rep.wakeups = result.wakeups;
    rep.cycles = result.cycles;
    rep.strippedJson = stripSchedTail(result);
    return rep;
}

/** A sparse run whose timers are not injection draws (fault events
 *  and retransmit backoff, or reply service delays): both modes must
 *  agree, and event mode must wake for under a quarter of the cycles. */
struct TimerRow
{
    bool pass = false;
    std::uint64_t wakeups = 0;
    std::uint64_t cycles = 0;
};

TimerRow
timerRow(const topo::Network &net, const cdg::RoutingRelation &rel,
         const sim::TrafficGenerator &gen, const sim::SimConfig &cfg,
         const char *label)
{
    const RepResult cyc =
        runOnce(net, rel, gen, cfg, sim::SchedMode::Cycle);
    const RepResult evt =
        runOnce(net, rel, gen, cfg, sim::SchedMode::Event);
    const bool same = cyc.strippedJson == evt.strippedJson;
    TimerRow row;
    row.wakeups = evt.wakeups;
    row.cycles = evt.cycles;
    row.pass = cyc.clean && evt.clean && same
        && evt.wakeups * 4 < evt.cycles;
    std::printf("  %-10s event %llu wakeups / %llu cycles = %.3f "
                "(gate < 0.25), results %s: %s\n",
                label, static_cast<unsigned long long>(evt.wakeups),
                static_cast<unsigned long long>(evt.cycles),
                static_cast<double>(evt.wakeups)
                    / static_cast<double>(evt.cycles),
                same ? "identical" : "DIFFER", row.pass ? "ok" : "FAIL");
    return row;
}

/** Best-of-kReps window time for one (config, mode) point; the
 *  stripped result JSON is identical across reps (determinism). */
struct ModePoint
{
    bool clean = true;
    double bestCyclesPerSec = 0.0;
    std::uint64_t wakeups = 0;
    std::string strippedJson;
};

constexpr int kReps = 3;

ModePoint
measure(const topo::Network &net, const cdg::RoutingRelation &rel,
        const sim::TrafficGenerator &gen, const sim::SimConfig &cfg,
        sim::SchedMode mode, const char *tag)
{
    ModePoint p;
    for (int r = 0; r < kReps; ++r) {
        const RepResult rep = runOnce(net, rel, gen, cfg, mode);
        p.clean = p.clean && rep.clean;
        if (rep.cyclesPerSec > p.bestCyclesPerSec)
            p.bestCyclesPerSec = rep.cyclesPerSec;
        p.wakeups = rep.wakeups;
        p.strippedJson = rep.strippedJson;
        std::fprintf(stderr, "  %s rep %d: %.3f ms window\n", tag, r,
                     rep.windowSeconds * 1e3);
    }
    return p;
}

double
baselineSatCyclesPerSec(const char *path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "baseline " << path << " unreadable; sat gate "
                  << "skipped\n";
        return 0.0;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto doc = parseJson(buf.str(), &err);
    if (!doc || !doc->isObject()) {
        std::cerr << "baseline " << path << " unparseable (" << err
                  << "); sat gate skipped\n";
        return 0.0;
    }
    if (const JsonValue *sm = doc->find("sched_mode"))
        if (const JsonValue *cps = sm->find("cycle_sat_cycles_per_sec"))
            return cps->asDouble();
    std::cerr << "baseline has no sched_mode member (predates this "
              << "bench); sat gate skipped\n";
    return 0.0;
}

/** One engine-only pass: every hit of `streams` drawn to `horizon`
 *  with the given helper count, folded into an order-sensitive
 *  digest, plus the wall time of construction and draining. */
struct EnginePass
{
    double seconds = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t digest = 0;
    unsigned helpers = 0;
    sim::InjectionEngine::DrawCounts windows;
};

EnginePass
drawEngine(const std::vector<sim::Router> &streams,
           const sim::TrafficGenerator &gen, double packet_rate,
           std::uint64_t horizon, unsigned helpers)
{
    EnginePass p;
    const auto t0 = Clock::now();
    sim::InjectionEngine engine(streams, gen, packet_rate, horizon,
                                helpers);
    while (const auto c = engine.nextHitCycle())
        engine.consumeHits(*c, [&](std::uint32_t node, std::uint32_t d) {
            ++p.hits;
            p.digest = (p.digest ^ (*c << 20 ^ node << 10 ^ d))
                * 0x100000001b3ULL;
        });
    p.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    p.helpers = engine.helpers();
    p.windows = engine.drawCounts();
    return p;
}

/** Best-of-kReps draw rate (streams x cycles per second). */
EnginePass
measureEngine(const std::vector<sim::Router> &streams,
              const sim::TrafficGenerator &gen, double packet_rate,
              std::uint64_t horizon, unsigned helpers, const char *tag)
{
    EnginePass best;
    for (int r = 0; r < kReps; ++r) {
        const EnginePass p =
            drawEngine(streams, gen, packet_rate, horizon, helpers);
        std::fprintf(stderr, "  engine %s rep %d: %.3f ms\n", tag, r,
                     p.seconds * 1e3);
        if (r == 0 || p.seconds < best.seconds)
            best = p;
    }
    return best;
}

int
benchMain()
{
    const auto net = topo::Network::mesh({16, 16}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    if (!rel) {
        std::cerr << "makeRouter(fig7b) failed\n";
        return 1;
    }
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 20000;
    cfg.drainCycles = 50000;
    cfg.watchdogCycles = 5000;
    cfg.seed = 2024;
    cfg.routeTable = true;

    bool pass = true;

    // Near-idle point: the event backend's home turf. A packet every
    // ~25k cycles per node, so almost every cycle is empty and the
    // idle jump should skip straight between injection deadlines.
    auto idle_cfg = cfg;
    idle_cfg.injectionRate = 1e-5;
    std::fprintf(stderr, "idle point (uniform %.0e):\n",
                 idle_cfg.injectionRate);
    const auto idle_cycle = measure(net, *rel, gen, idle_cfg,
                                    sim::SchedMode::Cycle, "cycle");
    const auto idle_event = measure(net, *rel, gen, idle_cfg,
                                    sim::SchedMode::Event, "event");
    if (!idle_cycle.clean || !idle_event.clean)
        pass = false;
    if (idle_cycle.strippedJson != idle_event.strippedJson) {
        std::cerr << "idle point: backends disagree beyond the "
                  << "schedMode/wakeups tail\n";
        pass = false;
    }
    const double speedup = idle_cycle.bestCyclesPerSec > 0
        ? idle_event.bestCyclesPerSec / idle_cycle.bestCyclesPerSec
        : 0.0;

    // Saturation point: every cycle moves flits, so the event backend
    // degenerates into the cycle loop plus queue overhead. The cycle
    // backend is gated against the committed baseline here — the
    // scheduler seam must not tax the dense path.
    auto sat_cfg = cfg;
    sat_cfg.injectionRate = 0.30;
    // A token drain phase so the MeasureEnd hook's cycle is executed
    // (the loop stops at warmup+measure+drain); the backlog of a
    // beyond-saturation run need not actually drain.
    sat_cfg.drainCycles = 2000;
    std::fprintf(stderr, "saturation point (uniform %.2f):\n",
                 sat_cfg.injectionRate);
    const auto sat_cycle = measure(net, *rel, gen, sat_cfg,
                                   sim::SchedMode::Cycle, "cycle");
    const auto sat_event = measure(net, *rel, gen, sat_cfg,
                                   sim::SchedMode::Event, "event");
    if (!sat_cycle.clean || !sat_event.clean)
        pass = false;
    if (sat_cycle.strippedJson != sat_event.strippedJson) {
        std::cerr << "saturation point: backends disagree beyond the "
                  << "schedMode/wakeups tail\n";
        pass = false;
    }

    std::printf(
        "sched mode (fig7b, mesh 16x16, 2 VCs/dim, uniform, %llu "
        "measured cycles, best of %d; injection SIMD path: %s):\n"
        "  idle 1e-5:  cycle %.0f cycles/s, event %.0f cycles/s "
        "(%llu wakeups) -> %.1fx (gate >= 5x): %s\n"
        "  sat  0.30:  cycle %.0f cycles/s, event %.0f cycles/s\n",
        static_cast<unsigned long long>(cfg.measureCycles), kReps,
        sim::injectionEngineSimdPath(), idle_cycle.bestCyclesPerSec,
        idle_event.bestCyclesPerSec,
        static_cast<unsigned long long>(idle_event.wakeups), speedup,
        speedup >= 5.0 ? "ok" : "TOO SLOW",
        sat_cycle.bestCyclesPerSec, sat_event.bestCyclesPerSec);
    if (speedup < 5.0)
        pass = false;

    // Idle runs with timers of their own: one link and one router
    // fault, and request-reply traffic with its service delays.
    auto faulted_cfg = cfg;
    faulted_cfg.injectionRate = 1e-4;
    faulted_cfg.faults.randomLinkFaults = 1;
    faulted_cfg.faults.randomRouterFaults = 1;
    faulted_cfg.faults.firstCycle = 5000;
    faulted_cfg.faults.spacing = 5000;
    const TimerRow faulted =
        timerRow(net, *rel, gen, faulted_cfg, "faulted 1e-4:");
    auto protocol_cfg = cfg;
    protocol_cfg.injectionRate = 1e-4;
    protocol_cfg.protocol.requestReply = true;
    const TimerRow protocol =
        timerRow(net, *rel, gen, protocol_cfg, "protocol 1e-4:");
    if (!faulted.pass || !protocol.pass)
        pass = false;

    // Engine-only row: the idle-skipping draw engine on the bench's
    // 256 streams, inline (0 helpers) against the default helpers.
    // The hit streams must agree exactly; the speed gate needs a host
    // with cores to spare for the helpers.
    std::vector<sim::Router> streams;
    for (topo::NodeId n = 0; n < net.numNodes(); ++n)
        streams.emplace_back(n, cfg.seed);
    constexpr double kEngineRate = 1e-4;
    constexpr std::uint64_t kEngineCycles = 1000000;
    std::fprintf(stderr, "engine-only (%zu streams, %llu cycles):\n",
                 streams.size(),
                 static_cast<unsigned long long>(kEngineCycles));
    const EnginePass inline_pass = measureEngine(
        streams, gen, kEngineRate, kEngineCycles, 0, "inline");
    const EnginePass helper_pass =
        measureEngine(streams, gen, kEngineRate, kEngineCycles,
                      sim::InjectionEngine::defaultHelpers(), "helpers");
    const unsigned host_threads = hostThreads();
    const double draws = static_cast<double>(streams.size())
        * static_cast<double>(kEngineCycles);
    const double inline_rate = draws / inline_pass.seconds;
    const double helper_rate = draws / helper_pass.seconds;
    const double engine_speedup = helper_rate / inline_rate;
    const bool streams_agree = inline_pass.hits == helper_pass.hits
        && inline_pass.digest == helper_pass.digest;
    std::printf("  engine:     %u draw helper%s (host threads %u): "
                "inline %.3g draws/s, helpers %.3g draws/s -> %.2fx; "
                "slice-windows drawn by helpers %llu, by the serial loop "
                "%llu; %llu hits, streams %s\n",
                helper_pass.helpers, helper_pass.helpers == 1 ? "" : "s",
                host_threads, inline_rate, helper_rate, engine_speedup,
                static_cast<unsigned long long>(helper_pass.windows.helper),
                static_cast<unsigned long long>(helper_pass.windows.serial),
                static_cast<unsigned long long>(helper_pass.hits),
                streams_agree ? "identical" : "DIFFER");
    if (!streams_agree)
        pass = false;
    const bool engine_gate = host_threads >= 4;
    if (engine_gate) {
        std::printf("  engine helper gate: %.2fx >= 1.5x: %s\n",
                    engine_speedup,
                    engine_speedup >= 1.5 ? "ok" : "TOO SLOW");
        if (engine_speedup < 1.5)
            pass = false;
    } else {
        std::printf("  NOTICE: engine helper gate SKIPPED — host has "
                    "%u thread%s (< 4)\n",
                    host_threads, host_threads == 1 ? "" : "s");
    }

    double baseline_sat = 0.0;
    if (const char *path = std::getenv("EBDA_SIM_BASELINE_JSON");
        path && *path) {
        baseline_sat = baselineSatCyclesPerSec(path);
        if (baseline_sat > 0) {
            const double floor = 0.90 * baseline_sat;
            std::printf("  baseline sat cycle %.0f cycles/s -> floor "
                        "%.0f (10%% regression gate): %s\n",
                        baseline_sat, floor,
                        sat_cycle.bestCyclesPerSec >= floor
                            ? "ok"
                            : "REGRESSED");
            if (sat_cycle.bestCyclesPerSec < floor)
                pass = false;
        }
    }

    std::ostringstream json;
    json << "{\"bench\":\"sched_mode\",\"network\":\"mesh16x16_vc2\""
         << ",\"router\":\"fig7b\""
         << ",\"measure_cycles\":" << cfg.measureCycles
         << ",\"reps\":" << kReps
         << ",\"simd_path\":\"" << sim::injectionEngineSimdPath()
         << "\""
         << ",\"idle_rate\":1e-05"
         << ",\"cycle_idle_cycles_per_sec\":"
         << idle_cycle.bestCyclesPerSec
         << ",\"event_idle_cycles_per_sec\":"
         << idle_event.bestCyclesPerSec
         << ",\"event_idle_wakeups\":" << idle_event.wakeups
         << ",\"idle_speedup\":" << speedup
         << ",\"sat_rate\":0.3"
         << ",\"cycle_sat_cycles_per_sec\":"
         << sat_cycle.bestCyclesPerSec
         << ",\"event_sat_cycles_per_sec\":"
         << sat_event.bestCyclesPerSec
         << ",\"timer_idle_rate\":1e-04"
         << ",\"faulted_idle_wakeups\":" << faulted.wakeups
         << ",\"faulted_idle_cycles\":" << faulted.cycles
         << ",\"protocol_idle_wakeups\":" << protocol.wakeups
         << ",\"protocol_idle_cycles\":" << protocol.cycles
         << ",\"baseline_sat_cycles_per_sec\":" << baseline_sat
         << ",\"host_threads\":" << host_threads
         << ",\"draw_helpers\":" << helper_pass.helpers
         << ",\"engine_inline_draws_per_sec\":" << inline_rate
         << ",\"engine_helper_draws_per_sec\":" << helper_rate
         << ",\"engine_helper_speedup\":" << engine_speedup
         << ",\"engine_helper_windows\":" << helper_pass.windows.helper
         << ",\"engine_serial_windows\":" << helper_pass.windows.serial
         << ",\"engine_helper_gate\":\""
         << (engine_gate ? "enforced" : "skipped") << "\""
         << ",\"pass\":" << (pass ? "true" : "false") << "}";

    std::cout << "\nSCHED_BENCH_JSON: " << json.str() << '\n';
    if (const char *path = std::getenv("EBDA_SCHED_BENCH_JSON");
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
