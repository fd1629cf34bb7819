/**
 * @file
 * Trace-equivalence tests for the scheduling modes (sim/scheduler.hh):
 * for every configuration, an Event-mode run must produce a SimResult
 * identical to the Cycle-mode run's in every field except the trailing
 * schedMode/wakeups pair — the serial loop skips exactly the empty
 * cycles, reproducing their side effects (injection draws, arbiter
 * rotations, the genCycles counter) in closed form.
 *
 * Coverage: all 24 golden-sim rows (both topologies, all four
 * selection policies, all three switching modes — Random selection
 * exercises a run that cannot skip), a genuinely sparse run where the
 * event mode skips most cycles, transpose and hotspot traffic, a
 * dragonfly run, faulted and protocol runs (busy ones, and sparse ones
 * that skip), degenerate-rate runs (which execute every cycle in both
 * modes), a forced deadlock, and runs
 * stopped by the cycle limit and by the abort callback (one of them
 * with the stop landing mid-window, the draw helpers busy ahead), and
 * a 16x16 run spanning many injection-engine windows. Comparison is
 * on the full result JSON with the tail stripped, so any new field is
 * automatically covered. The injection engine is also checked on its
 * own: for 0, 1 and 3 helper threads its hit stream and final stream
 * states must equal per-cycle draws of every node's Rng, and so must
 * the hit masks and states of each block-pass width the CPU executes
 * (8, 4 and 1 streams per vector), not only the one it runs. The last
 * cases check that malformed EBDA_SCHED_MODE and EBDA_SHARD_THREADS
 * values are rejected.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/catalog.hh"
#include "core/torus.hh"
#include "routing/baselines.hh"
#include "routing/dragonfly.hh"
#include "routing/ebda_routing.hh"
#include "sim/event_queue.hh"
#include "sim/shard_partition.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"

namespace {

using namespace ebda;

/** Result JSON minus the trailing schedMode/wakeups pair — the only
 *  fields the two modes may legitimately disagree on. */
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

/** Clears one environment variable for one test and restores the
 *  caller's value afterwards, so the Auto cases see the heuristic and
 *  not a CI-wide override (nor a value an earlier test left behind). */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name(name)
    {
#if !defined(_WIN32)
        if (const char *v = std::getenv(name))
            saved = v;
        ::unsetenv(name);
#endif
    }
    ~EnvGuard()
    {
#if !defined(_WIN32)
        if (saved)
            ::setenv(name, saved->c_str(), 1);
        else
            ::unsetenv(name);
#endif
    }
    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name;
    std::optional<std::string> saved;
};

struct ModeRun
{
    sim::SimResult result;
};

/** Run the same configuration in both modes and require
 *  trace equivalence. Returns the two results for extra checks. */
std::pair<sim::SimResult, sim::SimResult>
expectEquivalent(const topo::Network &net,
                 const cdg::RoutingRelation &routing,
                 const sim::TrafficGenerator &gen, sim::SimConfig cfg,
                 std::uint64_t cycle_limit = 0, int abort_after_polls = 0)
{
    // Each simulator gets its own poll counter: the abort callback
    // turns true on poll abort_after_polls + 1.
    const auto limit = [&](sim::Simulator &s) {
        if (cycle_limit)
            s.setCycleLimit(cycle_limit);
        if (abort_after_polls > 0)
            s.setAbortCheck([polls = 0, abort_after_polls]() mutable {
                return ++polls > abort_after_polls;
            });
    };
    cfg.schedMode = sim::SchedMode::Cycle;
    sim::Simulator cyc(net, routing, gen, cfg);
    limit(cyc);
    const auto rc = cyc.run();

    cfg.schedMode = sim::SchedMode::Event;
    sim::Simulator evt(net, routing, gen, cfg);
    limit(evt);
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
// golden guarantee to event mode.

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
    // The jump targets are pinned: this is the count the loop woke for
    // when its deadlines sat in a heap.
    EXPECT_EQ(re.wakeups, 2021u);
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

/** A faulted run at a load that leaves few empty cycles: fault
 *  events, retransmits and stranded scans must fire on the same cycles
 *  in both modes. */
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
    EXPECT_LE(re.wakeups, rc.wakeups);
}

/** A sparse faulted run skips like a plain one. The link fault (cycle
 *  1500) and the router fault (cycle 2400) both land in empty spans,
 *  and most retransmit backoffs expire while the fabric is empty (the
 *  first at cycle 3230): each of those cycles is a jump target. */
TEST(SchedEquiv, SparseFaultedRunSkips)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 1;
    cfg.injectionRate = 0.001;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 6000;
    cfg.drainCycles = 30000;
    cfg.faults.randomLinkFaults = 1;
    cfg.faults.randomRouterFaults = 1;
    cfg.faults.firstCycle = 1500;
    cfg.faults.spacing = 900;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
    // Both directions of the link, then the router.
    EXPECT_EQ(re.faultEventsApplied, 3u);
    EXPECT_GT(re.packetsRetransmitted, 0u);
    EXPECT_GT(re.packetsLost, 0u);
    EXPECT_LT(re.wakeups, re.cycles / 4)
        << "event mode executed most cycles of a sparse faulted run";
    // A fault event in an empty span changes nothing until the next
    // executed cycle, so only the count shows that both fault cycles
    // are woken for: one wakeup each.
    EXPECT_EQ(re.wakeups, 1317u);
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

/** Cooperative cycle limit: both modes must abort at the same
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

/** Cooperative abort callback: event mode must wake at every
 *  1024-cycle poll boundary it would otherwise jump over (re-arming
 *  the poll deadline), so both modes see the same poll sequence and
 *  abort at the same cycle. */
TEST(SchedEquiv, AbortCheckStopsAtTheSamePoll)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 5;
    cfg.injectionRate = 0.002;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 8000;
    cfg.drainCycles = 30000;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg, 0, 3);
    EXPECT_TRUE(rc.aborted);
    EXPECT_TRUE(re.aborted);
    // Polls at cycles 0, 1024 and 2048 pass; the one at 3072 aborts.
    EXPECT_EQ(rc.cycles, 3072u);
    EXPECT_LT(re.wakeups, rc.wakeups / 2)
        << "the abort poll kept the event loop from skipping";
    EXPECT_EQ(re.wakeups, 771u) << "the poll deadlines moved";
}

/** The abort poll that stops this run (cycle 5120) falls inside an
 *  injection-engine window, while the helpers are already drawing the
 *  next one: the run must stop at the same poll as the cycle loop, and
 *  tearing down the engine must join the busy helpers. */
TEST(SchedEquiv, AbortMidWindowJoinsDrawHelpers)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 9;
    cfg.injectionRate = 0.001;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 20000;
    cfg.drainCycles = 30000;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg, 0, 5);
    EXPECT_TRUE(re.aborted);
    EXPECT_EQ(re.cycles, 5120u);
    EXPECT_NE(re.cycles % 4096, 0u) << "the stop must land mid-window";
}

/** A zero-load 16x16 run long enough to cross ~15 engine windows:
 *  every window boundary is a hand-off between the serial loop and
 *  the draw helpers. */
TEST(SchedEquiv, IdleRunSpansManyDrawWindows)
{
    const auto net = topo::Network::mesh({16, 16}, {2, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 31;
    cfg.injectionRate = 1e-4;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 55000;
    cfg.drainCycles = 20000;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
    EXPECT_GE(rc.cycles, 60000u);
    EXPECT_GT(re.packetsEjected, 0u);
    EXPECT_LT(re.wakeups, rc.wakeups / 4);
}

// ---------------------------------------------------------------------
// The injection engine on its own, against per-cycle draws.

struct DrawnHit
{
    std::uint64_t cycle;
    std::uint32_t node;
    std::uint32_t dest;
    bool operator==(const DrawnHit &) const = default;
};

/** 30 nodes: 4 lane groups of 8 (two of the lanes padding), so 3
 *  helpers get uneven slices (1, 1 and 2 groups). */
const topo::Network &
engineNet()
{
    static const auto net = topo::Network::mesh({6, 5}, {1, 1});
    return net;
}

std::vector<sim::Router>
seededRouters(std::uint64_t seed)
{
    std::vector<sim::Router> routers;
    for (topo::NodeId n = 0; n < engineNet().numNodes(); ++n)
        routers.emplace_back(n, seed);
    return routers;
}

/** Everything the engine reports up to its horizon, then its streams:
 *  after the last hit no window is in flight. */
std::pair<std::vector<DrawnHit>, std::vector<std::array<std::uint64_t, 4>>>
drainEngine(sim::InjectionEngine &engine)
{
    std::vector<DrawnHit> hits;
    while (const auto c = engine.nextHitCycle())
        engine.consumeHits(*c, [&](std::uint32_t node, std::uint32_t d) {
            hits.push_back({*c, node, d});
        });
    std::vector<std::array<std::uint64_t, 4>> states;
    for (std::uint32_t n = 0; n < engineNet().numNodes(); ++n)
        states.push_back(engine.streamState(n));
    return {hits, states};
}

TEST(InjectionEngine, MatchesPerCycleDrawsForAnyHelperCount)
{
    const sim::TrafficGenerator gen(engineNet(),
                                    sim::TrafficPattern::Uniform);
    const auto routers = seededRouters(77);
    for (const double rate : {2e-3, 0.2}) {
        for (const std::uint64_t horizon :
             {1ull, 63ull, 64ull, 4095ull, 4096ull, 4097ull,
              100000ull}) {
            // The engine draws whole 64-cycle blocks.
            const std::uint64_t drawn = (horizon + 63) / 64 * 64;
            std::vector<Rng> rngs;
            for (const auto &r : routers)
                rngs.push_back(r.rng);
            std::vector<DrawnHit> want;
            for (std::uint64_t c = 0; c < drawn; ++c) {
                for (std::uint32_t n = 0; n < rngs.size(); ++n) {
                    if (!rngs[n].nextBool(rate))
                        continue;
                    const auto d = gen.dest(n, rngs[n]);
                    if (d && c < horizon)
                        want.push_back({c, n, *d});
                }
            }
            for (const unsigned helpers : {0u, 1u, 3u}) {
                SCOPED_TRACE(::testing::Message()
                             << "rate " << rate << " horizon " << horizon
                             << " helpers " << helpers);
                sim::InjectionEngine engine(routers, gen, rate, horizon,
                                            helpers);
                EXPECT_EQ(engine.helpers(), helpers);
                const auto [hits, states] = drainEngine(engine);
                EXPECT_EQ(engine.drawnCycles(), drawn);
                // The padding lanes past the last node draw (and at
                // 0.2 flag nearly every block) but never hit.
                for (const DrawnHit &h : hits)
                    EXPECT_LT(h.node, engineNet().numNodes());
                EXPECT_TRUE(hits == want)
                    << hits.size() << " hits, want " << want.size();
                for (std::uint32_t n = 0; n < rngs.size(); ++n)
                    EXPECT_EQ(states[n], rngs[n].state()) << "node " << n;
                // Every 4096-cycle window is drawn once per slice, by a
                // helper or by the serial loop; with no helpers, always
                // by the serial loop.
                const auto counts = engine.drawCounts();
                EXPECT_EQ(counts.helper + counts.serial,
                          (drawn + 4095) / 4096 * std::max(helpers, 1u));
                if (helpers == 0) {
                    EXPECT_EQ(counts.helper, 0u);
                }
            }
        }
    }
}

/** The block-pass widths this CPU executes; the engine runs the
 *  widest. */
std::vector<unsigned>
executableWidths()
{
    std::vector<unsigned> widths{1};
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        widths.push_back(4);
    if (__builtin_cpu_supports("avx512f"))
        widths.push_back(8);
#endif
    return widths;
}

/** Every width of the block pass against the scalar Rng: hit masks
 *  and stream states over 2,000 blocks of engineNet's 30 streams and
 *  its two padding lanes, at thresholds where a lane hits almost
 *  never, about once in 600 blocks, and in nearly every block. */
TEST(InjectionEngine, EveryBlockPassWidthMatchesTheScalarRng)
{
    constexpr std::size_t kGroups = 4;
    const auto routers = seededRouters(13);
    std::vector<Rng> seeds;
    for (const auto &r : routers)
        seeds.push_back(r.rng);
    SplitMix64 filler(99);
    while (seeds.size() < 8 * kGroups) {
        Rng pad(0);
        pad.setState({filler.next(), filler.next(), filler.next(),
                      filler.next()});
        seeds.push_back(pad);
    }
    const double two53 = 9007199254740992.0;
    for (const std::uint64_t thr :
         {std::uint64_t{1},
          static_cast<std::uint64_t>(std::ceil(2.5e-5 * two53)),
          static_cast<std::uint64_t>(std::ceil(0.2 * two53))}) {
        for (const unsigned width : executableWidths()) {
            SCOPED_TRACE(::testing::Message()
                         << "thr " << thr << " width " << width);
            std::vector<Rng> want = seeds;
            std::vector<sim::Lanes8> groups(kGroups);
            for (std::size_t n = 0; n < want.size(); ++n)
                for (int w = 0; w < 4; ++w)
                    groups[n / 8].s[w][n % 8] = want[n].state()[w];
            std::size_t flagged = 0;
            std::size_t pad_flagged = 0;
            for (int block = 0; block < 2000; ++block) {
                for (std::size_t g = 0; g < kGroups; ++g) {
                    unsigned mask = 0;
                    for (unsigned i = 0; i < 8; ++i)
                        for (int b = 0; b < 64; ++b)
                            if ((want[8 * g + i].next() >> 11) < thr)
                                mask |= 1u << i;
                    const unsigned got =
                        sim::detail::injectionBlockPass(width, groups[g],
                                                        thr);
                    ASSERT_EQ(got, mask) << "block " << block << " group "
                                         << g;
                    flagged += static_cast<std::size_t>(
                        __builtin_popcount(mask));
                    if (g + 1 == kGroups)
                        pad_flagged += (mask >> 6) != 0;
                }
            }
            for (std::size_t n = 0; n < want.size(); ++n)
                for (int w = 0; w < 4; ++w)
                    EXPECT_EQ(groups[n / 8].s[w][n % 8], want[n].state()[w])
                        << "lane " << n;
            EXPECT_EQ(flagged > 0, thr > 1);
            // The padding lanes draw like any other: in nearly every
            // block at 0.2, where the engine must still drop them.
            if (thr > two53 / 8) {
                EXPECT_GT(pad_flagged, 1000u);
            }
        }
    }
}

/** Helpers beyond one per lane group would own no streams. */
TEST(InjectionEngine, HelpersClampToLaneGroups)
{
    const sim::TrafficGenerator gen(engineNet(),
                                    sim::TrafficPattern::Uniform);
    const auto routers = seededRouters(5);
    const sim::InjectionEngine engine(routers, gen, 0.01, 10000, 64);
    EXPECT_EQ(engine.helpers(), 4u);
}

/** Runs end with a window in flight (abort, deadlock, drain): the
 *  destructor must join helpers that are drawing or waiting. */
TEST(InjectionEngine, DestroyWithWindowInFlight)
{
    const sim::TrafficGenerator gen(engineNet(),
                                    sim::TrafficPattern::Uniform);
    const auto routers = seededRouters(5);
    for (const unsigned helpers : {0u, 1u, 3u}) {
        // Window 0 dispatched by the constructor, never taken.
        {
            sim::InjectionEngine engine(routers, gen, 0.05, 1000000,
                                        helpers);
        }
        // Window 0 taken, window 1 in flight.
        {
            sim::InjectionEngine engine(routers, gen, 0.05, 1000000,
                                        helpers);
            ASSERT_TRUE(engine.nextHitCycle().has_value());
        }
    }
}

/** The XY request-reply workload of tests/test_protocol.cc: hot enough
 *  that a depth-1 or depth-2 endpoint buffer wedges one shared message
 *  class. */
sim::SimConfig
protocolConfig(int message_classes)
{
    sim::SimConfig cfg;
    cfg.injectionRate = 0.35;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 800;
    cfg.protocol.requestReply = true;
    cfg.protocol.replyBufferDepth = 1;
    cfg.protocol.messageClasses = message_classes;
    return cfg;
}

/** One shared message class that wedges and recovers through the
 *  watchdog's abort-and-retransmit escalation. At this load no cycle
 *  is empty, so event mode executes every one. */
TEST(SchedEquiv, ProtocolWedgeRecoversEquivalently)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto router = routing::DimensionOrderRouting::xy(net);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    auto cfg = protocolConfig(1);
    cfg.protocol.reserveReplyBuffer = true;
    cfg.protocol.replyBufferDepth = 2;
    cfg.faults.maxRecoveryAttempts = 3;
    const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
    EXPECT_TRUE(re.protocolEnabled);
    EXPECT_GE(re.recoveryPasses, 1u);
    EXPECT_FALSE(re.deadlocked);
    EXPECT_LE(re.wakeups, rc.wakeups);
}

/** A reply-class escape (two message classes) finishes clean. */
TEST(SchedEquiv, ProtocolTwoClassesEquivalent)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto router = routing::DimensionOrderRouting::xy(net);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    const auto [rc, re] =
        expectEquivalent(net, router, gen, protocolConfig(2));
    EXPECT_TRUE(re.protocolEnabled);
    EXPECT_FALSE(re.deadlocked);
    EXPECT_GT(re.protocolRepliesDelivered, 0u);
    EXPECT_LE(re.wakeups, rc.wakeups);
}

/** Sparse request–reply traffic skips too. A reply's service delay
 *  often runs while the fabric is empty, and the loop jumps to the
 *  cycle the reply injects. The second run reserves reply slots at the
 *  requester, through the admission rule the injection engine's hits
 *  share with per-node generation. */
TEST(SchedEquiv, SparseProtocolRunSkips)
{
    const auto net = topo::Network::mesh({8, 8}, {2, 2});
    const auto router = routing::DimensionOrderRouting::xy(net);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 1;
    cfg.injectionRate = 2e-4;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 20000;
    cfg.drainCycles = 20000;
    cfg.protocol.requestReply = true;
    cfg.protocol.serviceJitter = 8;
    for (const bool reserve : {false, true}) {
        cfg.protocol.reserveReplyBuffer = reserve;
        cfg.protocol.replyBufferDepth = reserve ? 1 : 4;
        const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
        EXPECT_GT(re.protocolRepliesDelivered, 0u);
        EXPECT_EQ(re.protocolThrottled, rc.protocolThrottled);
        if (reserve) {
            EXPECT_GT(re.protocolThrottled, 0u);
        }
        EXPECT_LT(re.wakeups, re.cycles / 4)
            << "event mode executed most cycles of a sparse protocol run"
            << (reserve ? " (reserved)" : "");
    }
}

/** Degenerate packet rates (p <= 0 and p >= 1) leave no injection
 *  timers to precompute: every cycle executes in event mode too. */
TEST(SchedEquiv, DegenerateRatesEquivalent)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);

    sim::SimConfig cfg;
    cfg.seed = 3;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 600;
    cfg.drainCycles = 2000;
    cfg.watchdogCycles = 1000;

    cfg.injectionRate = 0.0;
    {
        const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
        EXPECT_EQ(re.packetsEjected, 0u);
        EXPECT_EQ(re.wakeups, rc.wakeups)
            << "zero-rate runs must execute every cycle";
    }

    // packetRate = injectionRate / packetLength = 1: a coin per node
    // that always lands.
    cfg.packetLength = 1;
    cfg.injectionRate = 1.0;
    {
        const auto [rc, re] = expectEquivalent(net, router, gen, cfg);
        EXPECT_GT(re.packetsEjected, 0u);
        EXPECT_EQ(re.wakeups, rc.wakeups)
            << "rate >= 1 runs must execute every cycle";
    }
}

/** Auto resolution: the rate heuristic picks event mode below the
 *  threshold and cycle mode above, and an explicit setting wins over
 *  the environment. The guard clears any CI-wide EBDA_SCHED_MODE
 *  override for the Auto cases and restores it afterwards. */
TEST(SchedEquiv, AutoResolvesByInjectionRate)
{
    const EnvGuard env("EBDA_SCHED_MODE");
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
    const EnvGuard env("EBDA_SCHED_MODE");
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

#if !defined(_WIN32)
/** Expect `fn` to throw std::invalid_argument whose message names both
 *  the variable and its value. */
template <typename Fn>
void
expectEnvRejected(Fn &&fn, const std::string &var,
                  const std::string &value)
{
    try {
        fn();
        ADD_FAILURE() << var << "='" << value << "' was accepted";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(var), std::string::npos) << what;
        EXPECT_NE(what.find("'" + value + "'"), std::string::npos)
            << what;
    }
}

/** A misspelt EBDA_SCHED_MODE is an error, not a silent fall-through
 *  to the rate heuristic; "auto" explicitly asks for the heuristic. */
TEST(SchedEquiv, MalformedSchedModeEnvIsRejected)
{
    const EnvGuard env("EBDA_SCHED_MODE");
    for (const char *bad : {"evnt", "Event", "", "cycle "}) {
        ::setenv("EBDA_SCHED_MODE", bad, 1);
        expectEnvRejected(
            [] {
                sim::resolveSchedMode(sim::SchedMode::Auto, 0.001);
            },
            "EBDA_SCHED_MODE", bad);
        // An explicit mode never consults the environment.
        EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Cycle, 0.001),
                  sim::SchedMode::Cycle);
    }
    ::setenv("EBDA_SCHED_MODE", "auto", 1);
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Auto, 0.001),
              sim::SchedMode::Event);
    EXPECT_EQ(sim::resolveSchedMode(sim::SchedMode::Auto, 0.5),
              sim::SchedMode::Cycle);

    // A run resolving Auto reports the error instead of running.
    ::setenv("EBDA_SCHED_MODE", "evnt", 1);
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.warmupCycles = 10;
    cfg.measureCycles = 10;
    sim::Simulator simr(net, router, gen, cfg);
    expectEnvRejected([&] { simr.run(); }, "EBDA_SCHED_MODE", "evnt");
}

/** EBDA_SHARD_THREADS must be a whole number >= 1: "4x" no longer
 *  reads as 4, and "abc" is no longer ignored. */
TEST(SchedEquiv, MalformedShardThreadsEnvIsRejected)
{
    const EnvGuard env("EBDA_SHARD_THREADS");
    for (const char *bad : {"abc", "4x", "0", "-2", "", " 3", "+3",
                            "99999999999999999999"}) {
        ::setenv("EBDA_SHARD_THREADS", bad, 1);
        expectEnvRejected([] { sim::shardWorkerThreads(4); },
                          "EBDA_SHARD_THREADS", bad);
    }
    ::setenv("EBDA_SHARD_THREADS", "3", 1);
    EXPECT_EQ(sim::shardWorkerThreads(4), 3u);

    // A sharded run reports the error instead of running.
    ::setenv("EBDA_SHARD_THREADS", "4x", 1);
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const routing::EbDaRouting router(net, core::schemeFig7b());
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.schedMode = sim::SchedMode::Cycle;
    cfg.shards = 2;
    cfg.warmupCycles = 10;
    cfg.measureCycles = 10;
    sim::Simulator simr(net, router, gen, cfg);
    expectEnvRejected([&] { simr.run(); }, "EBDA_SHARD_THREADS", "4x");
}
#endif

} // namespace
