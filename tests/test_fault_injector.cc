/**
 * @file
 * Runtime fault-injection tests: deterministic schedule
 * materialization, liveness masks and the degraded relation view,
 * graceful degradation with drop-and-retransmit recovery, bit-identical
 * replay from (seed, FaultPlan), per-router RNG substream isolation,
 * the per-event degraded-CDG oracle, and the negative control — a
 * relation without Theorem-2 U-turns wedging under the same schedule
 * the full EbDa turn set absorbs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cdg/relation_cdg.hh"
#include "core/catalog.hh"
#include "routing/baselines.hh"
#include "routing/ebda_routing.hh"
#include "sim/fault_injector.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"

namespace ebda::sim {
namespace {

SimConfig
faultyConfig()
{
    SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.06;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 2000;
    cfg.drainCycles = 30000;
    cfg.watchdogCycles = 1500;
    cfg.faults.seed = 99;
    cfg.faults.firstCycle = 600;
    cfg.faults.spacing = 400;
    return cfg;
}

/** Fig 7(b) fully adaptive EbDa scheme on a mesh (VC budget 1,2). */
routing::EbDaRouting
fig7bRouter(const topo::Network &net)
{
    return routing::EbDaRouting(net, core::schemeFig7b(), {},
                                routing::EbDaRouting::Mode::ShortestState);
}

TEST(FaultInjector, EmptyPlanIsDisabled)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const FaultInjector inj(net, FaultPlan{});
    EXPECT_FALSE(inj.enabled());
    EXPECT_TRUE(inj.schedule().empty());
    EXPECT_EQ(inj.nextEventCycle(), ~std::uint64_t{0});
    EXPECT_FALSE(inj.anyDead());
}

TEST(FaultInjector, RandomScheduleIsDeterministic)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    FaultPlan plan;
    plan.randomLinkFaults = 2;
    plan.randomRouterFaults = 1;
    plan.seed = 7;
    plan.firstCycle = 100;
    plan.spacing = 50;

    const FaultInjector a(net, plan);
    const FaultInjector b(net, plan);
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    for (std::size_t i = 0; i < a.schedule().size(); ++i) {
        EXPECT_EQ(a.schedule()[i].cycle, b.schedule()[i].cycle);
        EXPECT_EQ(a.schedule()[i].router, b.schedule()[i].router);
        EXPECT_EQ(a.schedule()[i].node, b.schedule()[i].node);
        EXPECT_EQ(a.schedule()[i].src, b.schedule()[i].src);
        EXPECT_EQ(a.schedule()[i].dst, b.schedule()[i].dst);
    }
    // A physical link fault kills both directions at the same cycle:
    // 2 link faults -> 4 events, plus 1 router event.
    EXPECT_EQ(a.schedule().size(), 5u);
    // Sorted by cycle, spaced per the plan.
    for (std::size_t i = 1; i < a.schedule().size(); ++i)
        EXPECT_LE(a.schedule()[i - 1].cycle, a.schedule()[i].cycle);

    FaultPlan other = plan;
    other.seed = 8;
    const FaultInjector c(net, other);
    const bool same_first =
        !c.schedule().empty() && !a.schedule().empty()
        && c.schedule().front().src == a.schedule().front().src
        && c.schedule().front().dst == a.schedule().front().dst
        && c.schedule().front().node == a.schedule().front().node;
    const bool same_last =
        !c.schedule().empty() && !a.schedule().empty()
        && c.schedule().back().src == a.schedule().back().src
        && c.schedule().back().dst == a.schedule().back().dst;
    EXPECT_FALSE(same_first && same_last) << "seed must matter";
}

TEST(FaultInjector, InvalidExplicitEventsAreDropped)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    FaultPlan plan;
    FaultEvent bad_link; // nodes 0 and 5 are not adjacent in a 4x4 mesh
    bad_link.cycle = 10;
    bad_link.src = 0;
    bad_link.dst = 5;
    FaultEvent bad_node;
    bad_node.cycle = 10;
    bad_node.router = true;
    bad_node.node = 999;
    FaultEvent good;
    good.cycle = 20;
    good.src = 0;
    good.dst = 1;
    plan.events = {bad_link, bad_node, good};

    const FaultInjector inj(net, plan);
    ASSERT_EQ(inj.schedule().size(), 1u);
    EXPECT_EQ(inj.schedule().front().src, 0u);
    EXPECT_EQ(inj.schedule().front().dst, 1u);
}

TEST(FaultInjector, ParsesCommandLineEventList)
{
    std::vector<FaultEvent> events;
    std::string err;
    ASSERT_TRUE(parseFaultEvents("100:link:0->1;;200:node:5", events, &err))
        << err;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].cycle, 100u);
    EXPECT_FALSE(events[0].router);
    EXPECT_EQ(events[0].src, 0u);
    EXPECT_EQ(events[0].dst, 1u);
    EXPECT_EQ(events[1].cycle, 200u);
    EXPECT_TRUE(events[1].router);
    EXPECT_EQ(events[1].node, 5u);

    // Each malformed entry is rejected with a message quoting it.
    for (const std::string bad : {"100", "x:node:1", "100:node:",
                                  "100:link:0-1", "100:wire:1"}) {
        std::vector<FaultEvent> out;
        std::string why;
        EXPECT_FALSE(parseFaultEvents(bad, out, &why)) << bad;
        EXPECT_NE(why.find("'" + bad + "'"), std::string::npos) << why;
    }
}

TEST(FaultInjector, MasksAndDegradedViewAfterApply)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const auto router = fig7bRouter(net);

    FaultPlan plan;
    FaultEvent ev;
    ev.cycle = 5;
    ev.src = 0;
    ev.dst = 1;
    plan.events = {ev};

    SimConfig cfg;
    FaultInjector inj(net, plan);
    FaultedRelationView view(router, inj);
    Fabric fab(net, cfg);
    ActiveSet active(fab.ivcs.size());

    // Before the event fires the view is transparent.
    const auto before =
        view.candidates(cdg::kInjectionChannel, 0, 0, 3);
    EXPECT_EQ(before,
              router.candidates(cdg::kInjectionChannel, 0, 0, 3));

    EXPECT_TRUE(inj.apply(5, fab, active).empty()); // empty fabric
    EXPECT_EQ(inj.eventsApplied(), 1u);
    EXPECT_TRUE(inj.anyDead());
    EXPECT_EQ(inj.deadLinkCount(), 1u);

    // Every channel of the dead 0->1 link is dead; the degraded view
    // must not offer any of them anywhere.
    bool found_dead_channel = false;
    for (topo::ChannelId c = 0; c < net.numChannels(); ++c) {
        const auto &l = net.link(net.linkOf(c));
        if (l.src == 0 && l.dst == 1) {
            EXPECT_TRUE(inj.channelDead(c));
            found_dead_channel = true;
        }
    }
    ASSERT_TRUE(found_dead_channel);
    for (topo::NodeId d = 1; d < net.numNodes(); ++d) {
        for (const topo::ChannelId c :
             view.candidates(cdg::kInjectionChannel, 0, 0, d))
            EXPECT_FALSE(inj.channelDead(c));
    }
    EXPECT_NE(view.name().find("degraded"), std::string::npos);
}

TEST(FaultInjector, GracefulDegradationUnderLinkFaults)
{
    const auto net = topo::Network::mesh({6, 6}, {1, 2});
    const auto router = fig7bRouter(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    auto cfg = faultyConfig();
    cfg.faults.randomLinkFaults = 2;
    const auto result = runSimulation(net, router, gen, cfg);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.degradedGracefully);
    EXPECT_TRUE(result.drained);
    EXPECT_EQ(result.faultEventsApplied, 4u); // 2 links x 2 directions
    EXPECT_GT(result.deliveredFraction, 0.5);
    EXPECT_LE(result.deliveredFraction, 1.0);
    // The degraded-CDG oracle ran after every fault tick and found the
    // relation still deadlock-free (the Theorem-2 machine check).
    EXPECT_GT(result.faultChecks, 0u);
    EXPECT_EQ(result.faultChecks, result.faultChecksClean);
    // Faults at a live injection rate must actually disturb traffic.
    EXPECT_GT(result.packetsDropped, 0u);
}

TEST(FaultInjector, RouterDeathDropsItsTraffic)
{
    const auto net = topo::Network::mesh({6, 6}, {1, 2});
    const auto router = fig7bRouter(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    auto cfg = faultyConfig();
    cfg.faults.randomRouterFaults = 1;
    const auto result = runSimulation(net, router, gen, cfg);

    EXPECT_FALSE(result.deadlocked);
    EXPECT_TRUE(result.drained);
    EXPECT_EQ(result.faultEventsApplied, 1u);
    // Packets at / destined to the dead router are unrecoverable.
    EXPECT_GT(result.packetsLost, 0u);
    EXPECT_LT(result.deliveredFraction, 1.0);
    EXPECT_GT(result.deliveredFraction, 0.5);
}

TEST(FaultInjector, ReplayIsBitIdentical)
{
    const auto net = topo::Network::mesh({6, 6}, {1, 2});
    const auto router = fig7bRouter(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    auto cfg = faultyConfig();
    cfg.faults.randomLinkFaults = 2;
    cfg.faults.randomRouterFaults = 1;
    const auto a = runSimulation(net, router, gen, cfg);
    const auto b = runSimulation(net, router, gen, cfg);
    // The JSON dump covers every result field with exact doubles, so
    // equality here pins bit-identical replay of the faulty run.
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_GT(a.faultEventsApplied, 0u);
}

TEST(FaultInjector, LiveRouterSubstreamsUnaffectedByFaultsElsewhere)
{
    // Fault events must not shift any live router's RNG substream:
    // with drain disabled every run executes exactly the same number
    // of cycles, so a live node's stream position depends only on the
    // cycle count — not on which other routers or links died.
    const auto net = topo::Network::mesh({6, 6}, {1, 2});
    const auto router = fig7bRouter(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    auto cfg = faultyConfig();
    cfg.drainCycles = 0;
    cfg.faults.firstCycle = 200;

    auto stream_after = [&](std::uint32_t dead_node) {
        auto c = cfg;
        FaultEvent ev;
        ev.cycle = 200;
        ev.router = true;
        ev.node = dead_node;
        c.faults.events = {ev};
        Simulator s(net, router, gen, c);
        (void)s.run();
        Rng probe = s.routers()[30].rng; // node 30 stays alive
        return probe.next();
    };

    const auto with_node5_dead = stream_after(5);
    const auto with_node12_dead = stream_after(12);
    EXPECT_EQ(with_node5_dead, with_node12_dead);
}

TEST(FaultInjector, RetransmitBudgetZeroLosesEveryDrop)
{
    const auto net = topo::Network::mesh({6, 6}, {1, 2});
    const auto router = fig7bRouter(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    auto cfg = faultyConfig();
    cfg.faults.randomLinkFaults = 2;
    cfg.faults.maxRetransmits = 0;
    const auto result = runSimulation(net, router, gen, cfg);

    EXPECT_GT(result.packetsDropped, 0u);
    EXPECT_EQ(result.packetsRetransmitted, 0u);
    EXPECT_EQ(result.packetsLost, result.packetsDropped);
    EXPECT_FALSE(result.deadlocked);
}

TEST(FaultInjector, WedgeNegativeControlVersusGracefulEbda)
{
    // The same fault schedule on the same 1-VC torus: unrestricted
    // minimal-adaptive routing wedges (watchdog escalation runs out of
    // recovery passes and declares deadlock, with a concrete forensic
    // witness), while a run without the fault completes. This is the
    // sweep engine's quarantine trigger exercised at the source.
    const auto net = topo::Network::torus({4, 4}, {1, 1});
    const routing::MinimalAdaptiveRouting router(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.5;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 500;
    cfg.faults.randomLinkFaults = 1;
    cfg.faults.seed = 3;
    cfg.faults.firstCycle = 200;

    Simulator simulator(net, router, gen, cfg);
    const auto result = simulator.run();

    ASSERT_TRUE(result.deadlocked);
    EXPECT_FALSE(result.degradedGracefully);
    // Escalation was attempted before giving up.
    EXPECT_EQ(result.recoveryPasses,
              static_cast<std::uint64_t>(cfg.faults.maxRecoveryAttempts));
    EXPECT_FALSE(result.deadlockCycle.empty());
    EXPECT_FALSE(simulator.forensics().blocked.empty());

    // Control: the full EbDa turn set survives an identical plan on a
    // mesh workload at the same offered load (U-turns reroute).
    const auto mesh = topo::Network::mesh({4, 4}, {1, 2});
    const auto ebda = fig7bRouter(mesh);
    const TrafficGenerator mesh_gen(mesh, TrafficPattern::Uniform);
    auto ebda_cfg = cfg;
    ebda_cfg.injectionRate = 0.1;
    ebda_cfg.watchdogCycles = 2000;
    const auto graceful =
        runSimulation(mesh, ebda, mesh_gen, ebda_cfg);
    EXPECT_FALSE(graceful.deadlocked);
    EXPECT_TRUE(graceful.degradedGracefully);
    EXPECT_EQ(graceful.recoveryPasses, 0u);
    EXPECT_GT(graceful.deliveredFraction, 0.5);
}

TEST(FaultInjector, TorusWrapWaitCycleForensics)
{
    // Deadlock forensics on a k-ary n-cube: the frozen wait-for cycle
    // of a wedged 1-VC torus must traverse at least one wrap-around
    // channel (the dependency the mesh cannot express), and every edge
    // must be present in the static relation CDG.
    const auto net = topo::Network::torus({4, 4}, {1, 1});
    const routing::MinimalAdaptiveRouting router(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.6;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 500;

    Simulator simulator(net, router, gen, cfg);
    const auto result = simulator.run();
    ASSERT_TRUE(result.deadlocked);
    ASSERT_FALSE(result.deadlockCycle.empty());
    EXPECT_TRUE(result.deadlockCycleInCdg);

    const bool crosses_wrap = std::any_of(
        result.deadlockCycle.begin(), result.deadlockCycle.end(),
        [&](std::uint32_t c) {
            return net.link(net.linkOf(static_cast<topo::ChannelId>(c)))
                .wrap;
        });
    EXPECT_TRUE(crosses_wrap)
        << "a torus wait cycle closes through the wrap links";
}

TEST(FaultInjector, CycleLimitAbortsCooperatively)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const auto router = fig7bRouter(net);
    const TrafficGenerator gen(net, TrafficPattern::Uniform);

    auto cfg = faultyConfig();
    cfg.faults.randomLinkFaults = 1;
    Simulator simulator(net, router, gen, cfg);
    simulator.setCycleLimit(100);
    const auto result = simulator.run();
    EXPECT_TRUE(result.aborted);
    EXPECT_LE(result.cycles, 100u);

    Simulator interrupted(net, router, gen, cfg);
    interrupted.setAbortCheck([]() { return true; });
    const auto r2 = interrupted.run();
    EXPECT_TRUE(r2.aborted);
    EXPECT_EQ(r2.cycles, 0u);
}

TEST(FaultPlanJson, RoundTripsThroughConfigJson)
{
    SimConfig cfg;
    cfg.faults.randomLinkFaults = 3;
    cfg.faults.seed = 42;
    cfg.faults.firstCycle = 111;
    cfg.faults.spacing = 222;
    cfg.faults.maxRetransmits = 5;
    cfg.faults.retransmitBackoff = 8;
    cfg.faults.checkDegradedCdg = false;
    FaultEvent ev;
    ev.cycle = 77;
    ev.router = true;
    ev.node = 9;
    cfg.faults.events.push_back(ev);

    const auto doc = parseJson(toJson(cfg));
    ASSERT_TRUE(doc.has_value());
    std::string err;
    const auto back = configFromJson(*doc, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->faults.randomLinkFaults, 3);
    EXPECT_EQ(back->faults.seed, 42u);
    EXPECT_EQ(back->faults.firstCycle, 111u);
    EXPECT_EQ(back->faults.spacing, 222u);
    EXPECT_EQ(back->faults.maxRetransmits, 5);
    EXPECT_EQ(back->faults.retransmitBackoff, 8u);
    EXPECT_FALSE(back->faults.checkDegradedCdg);
    ASSERT_EQ(back->faults.events.size(), 1u);
    EXPECT_TRUE(back->faults.events[0].router);
    EXPECT_EQ(back->faults.events[0].cycle, 77u);
    EXPECT_EQ(back->faults.events[0].node, 9u);
    // Canonical config JSON is stable: same config, same bytes.
    EXPECT_EQ(toJson(cfg), toJson(*back));
}

TEST(FaultPlanJson, ErrorsNameTheFullKeyPath)
{
    auto expectError = [](const std::string &json,
                          const std::string &needle) {
        const auto doc = parseJson(json);
        ASSERT_TRUE(doc.has_value());
        std::string err;
        EXPECT_FALSE(configFromJson(*doc, &err).has_value());
        EXPECT_NE(err.find(needle), std::string::npos)
            << "got: " << err;
    };
    expectError(R"({"faults":{"sed":1}})", "faults.sed");
    expectError(R"({"faults":{"seed":"x"}})", "'faults.seed'");
    expectError(R"({"faults":{"events":[{"cycle":1,"kind":"blimp"}]}})",
                "faults.events[0]");
    // Integer fields take only integral values in their type's range.
    expectError(R"({"faults":{"seed":-1}})",
                "'faults.seed' must be an integer");
    expectError(R"({"faults":{"spacing":2.5}})",
                "'faults.spacing' must be an integer");
    expectError(R"({"faults":{"events":[{"cycle":1,"kind":"router",
                "node":"x"}]}})",
                "'faults.events[0].node' must be a number");
    expectError(R"({"faults":{"events":[{"cycle":1,"kind":"router",
                "node":4294967296}]}})",
                "'faults.events[0].node' must be an integer");
    expectError(R"({"faults":{"events":[{"cycle":1,"kind":"link",
                "src":-1,"dst":2}]}})",
                "'faults.events[0].src' must be an integer");
    expectError(R"({"faults":{"events":[{"cycle":1,"kind":"link",
                "src":1}]}})",
                "faults.events[0].dst");
    expectError(R"({"faults":{"events":[{"kind":"link","src":1,
                "dst":2}]}})",
                "'faults.events[0].cycle' must be a number");
}

} // namespace
} // namespace ebda::sim
