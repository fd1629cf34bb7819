/**
 * @file
 * Trace-equivalence tests for the scheduling backends
 * (sim/scheduler.hh): for every configuration, a run under the
 * EventScheduler must produce a SimResult identical to the
 * CycleScheduler's in every field except the trailing
 * schedMode/wakeups pair — the event loop executes exactly the
 * non-empty cycles, reproducing the skipped ones' side effects
 * (injection draws, arbiter rotations, the genCycles counter) in
 * closed form.
 *
 * Coverage: all 24 golden-sim rows (both topologies, all four
 * selection policies, all three switching modes — Random selection
 * exercises the cycle-granular fallback), a genuinely sparse run where
 * the event loop skips most cycles, a dragonfly run, a faulted run
 * (fallback path), a forced deadlock, and an aborted (cycle-limited)
 * run. Comparison is on the full result JSON with the tail stripped,
 * so any new field is automatically covered.
 */

#include <cstdlib>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/catalog.hh"
#include "core/torus.hh"
#include "routing/baselines.hh"
#include "routing/dragonfly.hh"
#include "routing/ebda_routing.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"

namespace {

using namespace ebda;

/** Result JSON minus the trailing schedMode/wakeups pair — the only
 *  fields the backends may legitimately disagree on. */
std::string
stripSchedTail(const sim::SimResult &r)
{
    std::string json = sim::toJson(r);
    const auto pos = json.find(",\"schedMode\":");
    EXPECT_NE(pos, std::string::npos)
        << "result JSON no longer carries the schedMode tail";
    if (pos != std::string::npos)
        json.erase(pos, json.size() - 1 - pos); // keep the final '}'
    return json;
}

/** Clears EBDA_SCHED_MODE for one test and restores the caller's
 *  value afterwards, so the Auto cases see the heuristic and not a
 *  CI-wide override (nor a value an earlier test left behind). */
class SchedModeEnvGuard
{
  public:
    SchedModeEnvGuard()
    {
#if !defined(_WIN32)
        if (const char *v = std::getenv("EBDA_SCHED_MODE"))
            saved = v;
        ::unsetenv("EBDA_SCHED_MODE");
#endif
    }
    ~SchedModeEnvGuard()
    {
#if !defined(_WIN32)
        if (saved)
            ::setenv("EBDA_SCHED_MODE", saved->c_str(), 1);
        else
            ::unsetenv("EBDA_SCHED_MODE");
#endif
    }
    SchedModeEnvGuard(const SchedModeEnvGuard &) = delete;
    SchedModeEnvGuard &operator=(const SchedModeEnvGuard &) = delete;

  private:
    std::optional<std::string> saved;
};

struct ModeRun
{
    sim::SimResult result;
};

/** Run the same configuration under both backends and require
 *  trace equivalence. Returns the two results for extra checks. */
std::pair<sim::SimResult, sim::SimResult>
expectEquivalent(const topo::Network &net,
                 const cdg::RoutingRelation &routing,
                 const sim::TrafficGenerator &gen, sim::SimConfig cfg,
                 std::uint64_t cycle_limit = 0)
{
    cfg.schedMode = sim::SchedMode::Cycle;
    sim::Simulator cyc(net, routing, gen, cfg);
    if (cycle_limit)
        cyc.setCycleLimit(cycle_limit);
    const auto rc = cyc.run();

    cfg.schedMode = sim::SchedMode::Event;
    sim::Simulator evt(net, routing, gen, cfg);
    if (cycle_limit)
        evt.setCycleLimit(cycle_limit);
    const auto re = evt.run();

    EXPECT_EQ(rc.schedMode, sim::SchedMode::Cycle);
    EXPECT_EQ(re.schedMode, sim::SchedMode::Event);
    // The cycle loop wakes once per cycle (plus the final bottom-break
    // iteration); the event loop can only do fewer.
    EXPECT_EQ(rc.wakeups, rc.cycles + 1);
    EXPECT_LE(re.wakeups, rc.wakeups);
    EXPECT_EQ(stripSchedTail(rc), stripSchedTail(re));
    return {rc, re};
}

// ---------------------------------------------------------------------
// The 24 golden-sim configurations: topology 0/1 x 4 selection
// policies x 3 switching modes, exactly as tests/test_golden_sim.cc
// pins them. Equivalence here plus bit-identity there extends the
// golden guarantee to the event backend.

struct EquivRow
{
    int topo;
    sim::SelectionPolicy selection;
    sim::SwitchingMode switching;
};

class GoldenEquiv : public ::testing::TestWithParam<EquivRow>
{
};

TEST_P(GoldenEquiv, EventMatchesCycle)
{
    const EquivRow &row = GetParam();
    const auto net = row.topo == 0
        ? topo::Network::mesh({4, 4}, {1, 2})
        : topo::Network::torus({4, 4}, {2, 2});
    const auto scheme = row.topo == 0 ? core::schemeFig7b()
                                      : core::torusAdaptiveScheme2d();
    const routing::EbDaRouting router(
        net, scheme, {},
        row.topo == 0 ? routing::EbDaRouting::Mode::Minimal
                      : routing::EbDaRouting::Mode::ShortestState);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.15;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 2000;
    cfg.selection = row.selection;
    cfg.switching = row.switching;
    expectEquivalent(net, router, gen, cfg);
}

std::string
equivRowName(const ::testing::TestParamInfo<EquivRow> &info)
{
    const EquivRow &row = info.param;
    std::string n = row.topo == 0 ? "Mesh4x4" : "Torus4x4";
    n += row.selection == sim::SelectionPolicy::MaxCredits ? "MaxCredits"
        : row.selection == sim::SelectionPolicy::RoundRobin ? "RoundRobin"
        : row.selection == sim::SelectionPolicy::Random     ? "Random"
                                                        : "FirstCandidate";
    n += row.switching == sim::SwitchingMode::Wormhole ? "Wormhole"
        : row.switching == sim::SwitchingMode::VirtualCutThrough ? "Vct"
                                                                 : "Saf";
    return n;
}

std::vector<EquivRow>
allGoldenRows()
{
    std::vector<EquivRow> rows;
    for (int topo = 0; topo < 2; ++topo)
        for (const auto sel :
             {sim::SelectionPolicy::MaxCredits,
              sim::SelectionPolicy::RoundRobin,
              sim::SelectionPolicy::Random,
              sim::SelectionPolicy::FirstCandidate})
            for (const auto sw :
                 {sim::SwitchingMode::Wormhole,
                  sim::SwitchingMode::VirtualCutThrough,
                  sim::SwitchingMode::StoreAndForward})
                rows.push_back({topo, sel, sw});
    return rows;
}

INSTANTIATE_TEST_SUITE_P(AllGoldenRows, GoldenEquiv,
                         ::testing::ValuesIn(allGoldenRows()),
                         equivRowName);

// ---------------------------------------------------------------------
// Targeted paths beyond the golden grid.

/** Sparse traffic is where the event loop actually skips: the run must
 *  stay equivalent AND execute far fewer cycles than it simulates. */
TEST(SchedEquiv, SparseRunSkipsMostCycles)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 7;
    cfg.injectionRate = 0.002;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 6000;
    cfg.drainCycles = 30000;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
    EXPECT_LT(re.wakeups, rc.wakeups / 2)
        << "event mode executed almost every cycle of a sparse run";
}

/** Permutation traffic draws no destination bits — the other draw
 *  profile the injection engine's replay has to reproduce. */
TEST(SchedEquiv, TransposeTraffic)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net,
                                    sim::TrafficPattern::Transpose);

    sim::SimConfig cfg;
    cfg.seed = 11;
    cfg.injectionRate = 0.004;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 4000;
    cfg.drainCycles = 30000;
    expectEquivalent(net, router, gen, cfg);
}

/** Hotspot consumes one or two extra draws per generated packet. */
TEST(SchedEquiv, HotspotTraffic)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Hotspot,
                                    27, 20);

    sim::SimConfig cfg;
    cfg.seed = 13;
    cfg.injectionRate = 0.006;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 4000;
    cfg.drainCycles = 30000;
    expectEquivalent(net, router, gen, cfg);
}

TEST(SchedEquiv, DragonflyRun)
{
    const auto net = topo::Network::dragonfly(4, 2, 2);
    const routing::DragonflyMinRouting router(net, 4);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 23;
    cfg.injectionRate = 0.01;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 2000;
    expectEquivalent(net, router, gen, cfg);
}

/** Fault plans take the cycle-granular fallback inside the event
 *  backend; results must still match, wakeups == cycles. */
TEST(SchedEquiv, FaultedRunFallsBackEquivalently)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.1;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 2000;
    cfg.faults.randomLinkFaults = 2;
    cfg.faults.firstCycle = 600;
    cfg.faults.spacing = 400;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
    EXPECT_GT(re.faultEventsApplied, 0u);
    EXPECT_EQ(re.wakeups, rc.wakeups)
        << "faulted runs must take the cycle-granular fallback";
}

/** The deadlock path: watchdog trip, forensic walk, identical witness
 *  in both modes. */
TEST(SchedEquiv, DeadlockedRun)
{
    const auto net = topo::Network::torus({4, 4}, {1, 1});
    const routing::MinimalAdaptiveRouting router(net);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.6;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 500;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
    EXPECT_TRUE(rc.deadlocked);
    EXPECT_TRUE(re.deadlocked);
    EXPECT_EQ(rc.deadlockCycle, re.deadlockCycle);
}

/** Cooperative cycle limit: both backends must abort at the same
 *  cycle with the same partial statistics. */
TEST(SchedEquiv, CycleLimitedRunAborts)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 5;
    cfg.injectionRate = 0.003;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 8000;
    cfg.drainCycles = 30000;
    const auto [rc, re] =
        expectEquivalent(net, router, gen, cfg, 4500);
    EXPECT_TRUE(rc.aborted);
    EXPECT_TRUE(re.aborted);
    EXPECT_EQ(rc.cycles, 4500u);
}

/** Auto resolution: the rate heuristic picks event mode below the
 *  threshold and cycle mode above, and an explicit setting wins over
 *  the environment. The guard clears any CI-wide EBDA_SCHED_MODE
 *  override for the Auto cases and restores it afterwards. */
TEST(SchedEquiv, AutoResolvesByInjectionRate)
{
    const SchedModeEnvGuard env;
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Cycle, 0.001),
              sim::SchedMode::Cycle);
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Event, 0.9),
              sim::SchedMode::Event);
#if !defined(_WIN32)
    // Pin the environment for the Auto cases.
    ::setenv("EBDA_SCHED_MODE", "event", 1);
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Auto, 0.9),
              sim::SchedMode::Event);
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Cycle, 0.001),
              sim::SchedMode::Cycle);
    ::unsetenv("EBDA_SCHED_MODE");
#endif
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Auto,
                                    sim::kEventModeRateThreshold / 2),
              sim::SchedMode::Event);
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Auto,
                                    sim::kEventModeRateThreshold),
              sim::SchedMode::Cycle);
}

/** The Auto cutoff also tracks fabric size: what matters for the
 *  event queue is the fabric-wide arrival rate, so above the
 *  reference node count the per-node cutoff shrinks proportionally.
 *  At or below the reference size every resolution must match the
 *  2-arg overload — pre-existing Auto picks are unchanged. */
TEST(SchedEquiv, AutoCutoffScalesWithFabricSize)
{
    const SchedModeEnvGuard env;
    const double rate = sim::kEventModeRateThreshold / 2;
    // Small fabrics (and the 0 = unknown default): same as 2-arg.
    for (const std::size_t n : {std::size_t{0}, std::size_t{16},
                                sim::kEventModeRefNodes}) {
        EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Auto, rate, n),
                  sim::resolveSchedMode(sim::SchedMode::Auto, rate));
    }
    // 4x the reference size quarters the cutoff: a rate halfway to
    // the nominal threshold is now firmly in cycle-mode territory.
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Auto, rate,
                                    4 * sim::kEventModeRefNodes),
              sim::SchedMode::Cycle);
    // But a rate below the scaled cutoff still resolves to Event.
    EXPECT_EQ(sim::resolveSchedMode(
                  sim::SchedMode::Auto,
                  sim::kEventModeRateThreshold / 16,
                  4 * sim::kEventModeRefNodes),
              sim::SchedMode::Event);
    // Explicit requests are never overridden by fabric size.
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Event, 0.9,
                                    4 * sim::kEventModeRefNodes),
              sim::SchedMode::Event);
}

} // namespace
