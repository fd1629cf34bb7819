#include "simulator.hh"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "cdg/relation_cdg.hh"
#include "sim/downstream.hh"
#include "sim/event_queue.hh"
#include "sim/shard_partition.hh"
#include "sim/shard_sched.hh"

namespace ebda::sim {

Simulator::Simulator(const topo::Network &network,
                     const cdg::RoutingRelation &routing_relation,
                     const TrafficGenerator &traffic_gen,
                     const SimConfig &config)
    : net(network), routing(routing_relation), traffic(traffic_gen),
      cfg(config), injector(network, cfg.faults),
      faultedView(routing_relation, injector),
      effective(injector.enabled()
                    ? static_cast<const cdg::RoutingRelation &>(
                          faultedView)
                    : routing_relation),
      // Rows filled before a fault event hold the base answer and are
      // filtered per event; rows filled later ask the degraded view.
      table(effective, routing::RouteTable::Options{
                           cfg.routeTable, cfg.routeTableBudget}),
      fab(network, cfg), dom(fab, table),
      packetRate(cfg.injectionRate
                 / static_cast<double>(cfg.packetLength)),
      measureStart(cfg.warmupCycles),
      measureEnd(measureStart + cfg.measureCycles),
      hardStop(measureEnd + cfg.drainCycles)
{
    sourceQueues.resize(net.numNodes());
    // Pre-size every queue so a node's first-ever enqueue during the
    // measurement window cannot be the one push that allocates.
    for (auto &q : sourceQueues)
        q.reserve(16);
    routerTable.reserve(net.numNodes());
    for (topo::NodeId n = 0; n < net.numNodes(); ++n)
        routerTable.emplace_back(n, cfg.seed);
    // The input VCs local to each node (ejection arbitration domain).
    for (std::size_t i = 0; i < fab.ivcs.size(); ++i)
        routerTable[fab.ivcs[i].atNode].localIvcs.push_back(i);
    strandedPeriod = std::max<std::uint64_t>(1, cfg.watchdogCycles / 4);
    if (cfg.protocol.enabled()) {
        proto = std::make_unique<ProtocolState>(net, cfg);
        dom.vcAlloc.proto = proto.get();
        dom.swAlloc.proto = proto.get();
    }
}

template <class Down>
void
Simulator::generateAt(Down &down, PipelineDomain &d, topo::NodeId n,
                      std::uint64_t cycle, bool measuring)
{
    const bool faults_on = injector.enabled();
    // A dead router neither injects nor draws from its substream;
    // every other node's stream is untouched by the fault.
    if (faults_on && injector.nodeDead(n))
        return;
    Rng &rng = routerTable[n].rng;
    if (!rng.nextBool(packetRate))
        return;
    const auto dest = traffic.dest(n, rng);
    if (!dest)
        return;
    // The draw is consumed either way; a dead destination just
    // discards the packet (nobody to deliver to).
    if (faults_on && injector.nodeDead(*dest))
        return;
    // End-to-end credit: no local slot for the eventual reply means
    // no request this cycle (the draw is still consumed, keeping
    // the stream aligned with unreserved runs).
    if (proto && proto->reservationMode()
        && !proto->tryReserveRequest(n))
        return;
    enqueuePacket(down, d, n, *dest, cycle, measuring);
}

template <class Down>
void
Simulator::enqueuePacket(Down &down, PipelineDomain &d, topo::NodeId n,
                         topo::NodeId dest, std::uint64_t cycle,
                         bool measuring)
{
    PacketRec rec;
    rec.src = n;
    rec.dest = dest;
    rec.genCycle = cycle;
    rec.measured = measuring;
    sourceQueues[n].push_back(down.allocPacket(rec));
    d.injectActive.schedule(n);
    d.stats.generatedFlits += static_cast<std::uint64_t>(cfg.packetLength);
    if (measuring) {
        ++d.stats.measuredInFlight;
        ++d.stats.measuredGenerated;
    }
}

void
Simulator::generate(std::uint64_t cycle, bool measuring)
{
    LiveDownstream live(fab);
    const topo::NodeId nodes = net.numNodes();
    for (topo::NodeId n = 0; n < nodes; ++n)
        generateAt(live, dom, n, cycle, measuring);
}

void
Simulator::losePacket(std::uint32_t id)
{
    ++packetsLostCount;
    if (proto)
        proto->onPacketLost(fab.packets[id]);
    if (fab.packets[id].measured)
        --dom.stats.measuredInFlight;
    // A lost packet has no flit, source-queue entry or retry entry
    // left anywhere — its slot can host the next generated packet.
    fab.freePacket(id);
}

void
Simulator::handleDropped(const std::vector<std::uint32_t> &purged,
                         std::uint64_t cycle)
{
    for (const std::uint32_t id : purged) {
        ++packetsDroppedCount;
        PacketRec &pkt = fab.packets[id];
        // Replies are never retransmitted: the server-side slot is
        // already free and the requester's recovery path is a request
        // retransmit, not a duplicate reply.
        if (proto && pkt.msgClass != 0) {
            losePacket(id);
            continue;
        }
        const bool endpoint_dead = injector.nodeDead(pkt.src)
            || injector.nodeDead(pkt.dest);
        const bool budget_spent = pkt.retries == 0xff
            || static_cast<int>(pkt.retries)
                >= cfg.faults.maxRetransmits;
        if (endpoint_dead || budget_spent
            || table
                   .candidatesView(cdg::kInjectionChannel, pkt.src,
                                   pkt.src, pkt.dest, routeScratch)
                   .empty()) {
            losePacket(id);
            continue;
        }
        ++pkt.retries;
        ++retransmitCount;
        // Capped exponential backoff on the injection queue.
        const unsigned shift = static_cast<unsigned>(pkt.retries - 1);
        std::uint64_t backoff = shift > 40
            ? cfg.faults.retransmitBackoffCap
            : cfg.faults.retransmitBackoff << shift;
        backoff = std::max<std::uint64_t>(
            1, std::min(backoff, cfg.faults.retransmitBackoffCap));
        retryQueue.push_back(
            RetryEntry{id, cycle + backoff, injector.eventsApplied()});
    }
}

void
Simulator::releaseRetries(std::uint64_t cycle)
{
    if (retryQueue.empty())
        return;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < retryQueue.size(); ++i) {
        const RetryEntry entry = retryQueue[i];
        if (entry.ready > cycle) {
            retryQueue[keep++] = entry;
            continue;
        }
        PacketRec &pkt = fab.packets[entry.pkt];
        // The masks only grow at fault events. If none fired since the
        // retry was scheduled, handleDropped's routability check still
        // stands — don't recompute the same injection route.
        if (injector.eventsApplied() != entry.epoch
            && (injector.nodeDead(pkt.src) || injector.nodeDead(pkt.dest)
                || table
                       .candidatesView(cdg::kInjectionChannel, pkt.src,
                                       pkt.src, pkt.dest, routeScratch)
                       .empty())) {
            losePacket(entry.pkt);
            continue;
        }
        pkt.hops = 0; // fresh attempt; latency keeps the original birth
        sourceQueues[pkt.src].push_back(entry.pkt);
        dom.injectActive.schedule(pkt.src);
    }
    retryQueue.resize(keep);
}

void
Simulator::dropDeadQueuedPackets()
{
    if (injector.deadNodeCount() == 0)
        return;
    for (topo::NodeId n = 0; n < net.numNodes(); ++n) {
        auto &queue = sourceQueues[n];
        if (queue.empty())
            continue;
        if (injector.nodeDead(n)) {
            for (std::size_t k = 0; k < queue.size(); ++k) {
                ++packetsDroppedCount;
                losePacket(queue[k]);
            }
            queue.clear();
            continue;
        }
        // In-place compaction: no survivors copy, no allocation.
        queue.eraseIf([&](std::uint32_t id) {
            if (!injector.nodeDead(fab.packets[id].dest))
                return false;
            ++packetsDroppedCount;
            losePacket(id);
            return true;
        });
    }
}

void
Simulator::strandedScan(std::uint64_t cycle)
{
    std::vector<std::uint8_t> kill;
    for (std::size_t i = 0; i < fab.ivcs.size(); ++i) {
        const InputVc &vc = fab.ivcs[i];
        if (vc.routed || vc.buf.empty() || !vc.buf.front().head)
            continue;
        const std::uint32_t id = vc.buf.front().pkt;
        const PacketRec &pkt = fab.packets[id];
        if (vc.atNode == pkt.dest)
            continue;
        if (!table
                 .candidatesView(vc.self, vc.atNode, pkt.src, pkt.dest,
                                 routeScratch)
                 .empty())
            continue;
        if (kill.empty())
            kill.assign(fab.packets.size(), 0);
        kill[id] = 1;
    }
    if (!kill.empty())
        handleDropped(purgePackets(kill, cycle), cycle);
}

void
Simulator::recoverWedged(std::uint64_t cycle)
{
    // Drain-and-reroute: purge every packet frozen in the fabric and
    // hand the routable ones back to their sources. Queued packets are
    // untouched — they will inject into the emptied fabric.
    std::vector<std::uint8_t> kill(fab.packets.size(), 0);
    for (const InputVc &vc : fab.ivcs) {
        for (const Flit &f : vc.buf)
            kill[f.pkt] = 1;
        if (vc.routed && vc.curPkt != topo::kInvalidId)
            kill[vc.curPkt] = 1;
    }
    handleDropped(purgePackets(kill, cycle), cycle);
}

std::vector<std::uint32_t>
Simulator::purgePackets(const std::vector<std::uint8_t> &kill,
                        std::uint64_t cycle)
{
    // Release endpoint-slot reservations from the pre-purge view: the
    // purge clears the eject-routed VC state that records them.
    if (proto)
        proto->releaseEjectReservations(fab, kill);
    return injector.purge(fab, dom.allocActive, kill, cycle);
}

std::vector<std::uint32_t>
Simulator::applyFaultEvents(std::uint64_t cycle)
{
    if (!proto)
        return injector.apply(cycle, fab, dom.allocActive);
    // The injector picks its own victims, so snapshot the eject-routed
    // reservations first and release the ones whose packet it purged.
    std::vector<std::pair<topo::NodeId, std::uint32_t>> reserved;
    for (const InputVc &vc : fab.ivcs) {
        if (vc.routed && vc.eject && vc.curPkt != topo::kInvalidId
            && fab.packets[vc.curPkt].msgClass == 0)
            reserved.emplace_back(vc.atNode, vc.curPkt);
    }
    const auto purged = injector.apply(cycle, fab, dom.allocActive);
    for (const auto &[node, pkt] : reserved) {
        // purge() reports victims in ascending id order.
        if (std::binary_search(purged.begin(), purged.end(), pkt))
            proto->releaseDeliverySlot(node);
    }
    return purged;
}

void
Simulator::injectReplies(std::uint64_t cycle, bool measuring)
{
    ProtocolState &ps = *proto;
    const bool faults_on = injector.enabled();
    ps.replyActive.sweep(0, [&](std::size_t ni) -> bool {
        const auto n = static_cast<topo::NodeId>(ni);
        ProtocolState::Endpoint &ep = ps.endpoint(n);
        while (!ep.pending.empty()
               && ep.pending.front().ready <= cycle) {
            const topo::NodeId requester = ep.pending.front().dest;
            // A reply to a requester that died since the request was
            // serviced has nowhere to go; drop it and free the slot.
            if (faults_on && injector.nodeDead(requester)) {
                ep.pending.pop_front();
                ps.releaseDeliverySlot(n);
                continue;
            }
            // Claim a free injection VC in the reply band. None free
            // means the endpoint stays blocked this cycle — exactly
            // the wait the protocol wait-for graph edges model.
            bool placed = false;
            for (int k = ps.replyInjVcBegin(); k < cfg.injectionVcs;
                 ++k) {
                const std::size_t idx = fab.injIndex(n, k);
                InputVc &vc = fab.ivcs[idx];
                if (!vc.buf.empty() || vc.routed)
                    continue;
                PacketRec rec;
                rec.src = n;
                rec.dest = requester;
                rec.genCycle = cycle;
                rec.measured = measuring;
                rec.msgClass = 1;
                const std::uint32_t id = fab.allocPacket(rec);
                for (int f = 0; f < cfg.packetLength; ++f) {
                    fab.pushFlit(idx,
                                 Flit{id, f == 0,
                                      f == cfg.packetLength - 1,
                                      cycle},
                                 cycle);
                }
                fab.flitsInFlight +=
                    static_cast<std::uint64_t>(cfg.packetLength);
                dom.allocActive.schedule(idx);
                // The slot is held until here: reply fully in a VC.
                ep.pending.pop_front();
                ps.releaseDeliverySlot(n);
                ++ps.repliesInjected;
                if (measuring) {
                    ++dom.stats.measuredInFlight;
                    ++dom.stats.measuredGenerated;
                }
                placed = true;
                break;
            }
            if (!placed)
                break;
        }
        return !ep.pending.empty();
    });
}

void
Simulator::recoverProtocolWedge(std::uint64_t cycle)
{
    // Abort-and-retransmit the oldest in-fabric request: the eldest
    // holder anchors the wait cycle, killing it frees its channel
    // chain, and the retransmit backoff keeps the retry out of the
    // congestion that wedged. Replies keep draining on their own.
    std::uint32_t victim = topo::kInvalidId;
    std::uint64_t best_seq = ~std::uint64_t{0};
    auto consider = [&](std::uint32_t id) {
        const PacketRec &pkt = fab.packets[id];
        if (pkt.msgClass != 0)
            return;
        if (pkt.seq < best_seq) {
            best_seq = pkt.seq;
            victim = id;
        }
    };
    for (const InputVc &vc : fab.ivcs) {
        for (const Flit &f : vc.buf)
            consider(f.pkt);
        if (vc.routed && vc.curPkt != topo::kInvalidId)
            consider(vc.curPkt);
    }
    if (victim == topo::kInvalidId) {
        // No request in flight (pure reply gridlock, or faults): fall
        // back to the kill-all drain.
        recoverWedged(cycle);
        return;
    }
    std::vector<std::uint8_t> kill(fab.packets.size(), 0);
    kill[victim] = 1;
    handleDropped(purgePackets(kill, cycle), cycle);
}

template <class Down>
void
Simulator::fillInjectionVcs(Down &down, PipelineDomain &d,
                            std::uint64_t cycle)
{
    // Visit only nodes with queued packets (ascending, matching the
    // original full scan: a node with an empty queue is a provable
    // no-op). A node stays scheduled while its queue is non-empty;
    // fault-path queue purges leave stale entries that drop here.
    d.injectActive.sweep(0, [&](std::size_t ni) -> bool {
        const auto n = static_cast<topo::NodeId>(ni);
        if (sourceQueues[n].empty())
            return false;
        for (int k = 0; k < cfg.injectionVcs && !sourceQueues[n].empty();
             ++k) {
            // Generated packets are requests: keep them out of the
            // reply injection band when the classes are partitioned.
            if (proto && !proto->requestInjVcAllowed(k))
                continue;
            const std::size_t idx = fab.injIndex(n, k);
            InputVc &vc = fab.ivcs[idx];
            if (!vc.buf.empty() || vc.routed)
                continue;
            const std::uint32_t pkt = sourceQueues[n].front();
            sourceQueues[n].pop_front();
            for (int f = 0; f < cfg.packetLength; ++f) {
                fab.pushFlit(idx, vc,
                             Flit{pkt, f == 0,
                                  f == cfg.packetLength - 1, cycle},
                             cycle, down.flitMoves());
            }
            down.flitsInFlight() +=
                static_cast<std::uint64_t>(cfg.packetLength);
            d.allocActive.schedule(idx);
        }
        return !sourceQueues[n].empty();
    });
}

template <class Down>
bool
Simulator::pipelineStep(Down &down, PipelineDomain &d,
                        std::uint64_t cycle, bool measuring)
{
    fillInjectionVcs(down, d, cycle);
    d.vcAlloc.allocate(down, d.allocActive, routerTable, d.linkActive,
                       d.ejectActive);
    if (!d.vcAlloc.stranded.empty())
        purgeStranded(d, cycle);
    const bool moved = d.swAlloc.traverse(down, cycle, d.linkActive,
                                          d.allocActive, routerTable);
    const bool ejected =
        d.swAlloc.eject(down, cycle, d.ejectActive, d.allocActive,
                        routerTable, d.stats, measuring);
    return moved || ejected;
}

// The sharded loop's instances (shard_sched.cc).
template void Simulator::generateAt(CutDownstream &, PipelineDomain &,
                                    topo::NodeId, std::uint64_t, bool);
template bool Simulator::pipelineStep(CutDownstream &, PipelineDomain &,
                                      std::uint64_t, bool);

void
Simulator::purgeStranded(PipelineDomain &d, std::uint64_t cycle)
{
    std::vector<std::uint8_t> kill(fab.packets.size(), 0);
    bool any = false;
    for (const std::size_t idx : d.vcAlloc.stranded) {
        const InputVc &vc = fab.ivcs[idx];
        if (vc.routed || vc.buf.empty() || !vc.buf.front().head)
            continue;
        kill[vc.buf.front().pkt] = 1;
        any = true;
    }
    d.vcAlloc.stranded.clear();
    if (any)
        handleDropped(injector.purge(fab, d.allocActive, kill, cycle),
                      cycle);
}

bool
Simulator::abortBefore(std::uint64_t cycle)
{
    if (cycle == measureStart && measureStartHook)
        measureStartHook();
    if (cycle == measureEnd && measureEndHook)
        measureEndHook();
    if ((cycleLimit && cycle >= cycleLimit)
        || (abortCheck && (cycle & 1023u) == 0 && abortCheck())) {
        abortedFlag = true;
        return true;
    }
    return false;
}

void
Simulator::declareDeadlock(SimResult &result, std::uint64_t cycle)
{
    result.deadlocked = true;
    forensicsDump = buildForensics(fab, table, cycle, proto.get());
    result.deadlockCycle.assign(forensicsDump.waitCycle.begin(),
                                forensicsDump.waitCycle.end());
    result.deadlockCycleInCdg = forensicsDump.cycleInRelationCdg;
}

SchedMode
resolveSchedMode(SchedMode requested, double injectionRate,
                 std::size_t numNodes)
{
    if (requested != SchedMode::Auto)
        return requested;
    if (const char *env = std::getenv("EBDA_SCHED_MODE")) {
        const auto m = schedModeFromString(env);
        if (!m)
            throw std::invalid_argument(
                std::string("EBDA_SCHED_MODE='") + env
                + "': expected cycle, event or auto");
        if (*m != SchedMode::Auto)
            return *m;
    }
    // Scale the per-node cutoff so it tracks the fabric-wide arrival
    // rate: above the reference size the cutoff shrinks by
    // refNodes/numNodes (at or below it, the calibrated value holds —
    // every pre-existing Auto resolution is unchanged).
    double cutoff = kEventModeRateThreshold;
    if (numNodes > kEventModeRefNodes)
        cutoff *= static_cast<double>(kEventModeRefNodes)
            / static_cast<double>(numNodes);
    return injectionRate < cutoff ? SchedMode::Event
                                  : SchedMode::Cycle;
}

Schedule
Simulator::resolveSchedule() const
{
    Schedule s;
    s.mode = resolveSchedMode(cfg.schedMode, cfg.injectionRate,
                              net.numNodes());
    const bool faults_on = injector.enabled();
    if (s.mode != SchedMode::Event) {
        s.shards = resolveShardCount(cfg.shards, net.numNodes(),
                                     table.compiled(), faults_on,
                                     proto != nullptr);
        return s;
    }
    // Event mode never shards. It skips idle spans unless a cycle the
    // injection engine cannot foresee may matter (see event_queue.hh):
    // fault plans and protocol endpoints raise events off the
    // injection-draw schedule, Random selection draws during
    // allocation, and degenerate rates leave nothing to skip.
    s.skipIdle = !faults_on && !proto
        && cfg.selection != SelectionPolicy::Random && packetRate > 0.0
        && packetRate < 1.0;
    return s;
}

std::uint64_t
Simulator::runSerial(SimResult &result, bool skip_idle)
{
    const bool faults_on = injector.enabled();
    const bool proto_on = proto != nullptr;
    LiveDownstream live(fab);
    std::optional<InjectionEngine> engine;
    EventQueue deadlines;
    if (skip_idle) {
        // The engine starts its draw helpers here; leaving this scope
        // on any exit (drain, abort, deadlock) joins them.
        engine.emplace(routerTable, traffic, packetRate, hardStop);
        deadlines.push(measureStart, EventKind::MeasureStart);
        deadlines.push(measureEnd, EventKind::MeasureEnd);
        if (cycleLimit && cycleLimit < hardStop)
            deadlines.push(cycleLimit, EventKind::CycleLimit);
        if (abortCheck)
            deadlines.push(0, EventKind::AbortPoll);
    }
    std::uint64_t cycle = 0;
    while (cycle < hardStop) {
        if (engine && fab.flitsInFlight == 0
            && dom.injectActive.size() == 0) {
            // The fabric is empty and no packet awaits injection (the
            // injection set tracks exactly the nodes with non-empty
            // source queues after each executed cycle), so every cycle
            // until the next deadline is a provable no-op.
            deadlines.retireBefore(cycle);
            if (const auto hit = engine->nextHitCycle())
                deadlines.push(*hit, EventKind::Injection);
            const std::uint64_t target = deadlines.empty()
                ? hardStop
                : std::min(hardStop, deadlines.top().cycle);
            if (target > cycle) {
                // Each skipped cycle has exactly three side effects,
                // reproduced in closed form: the genCycles tick, and
                // the two unconditional arbiter-rotation advances
                // (resyncOffset re-derives both from the cycle count).
                // The watchdog saw progress throughout (an empty
                // fabric resets it every cycle).
                genCycles += target - cycle;
                dom.vcAlloc.resyncOffset(target);
                dom.swAlloc.resyncOffset(target);
                lastProgress = target - 1;
                cycle = target;
                if (cycle >= hardStop)
                    break;
            }
        }

        ++result.wakeups;
        if (abortBefore(cycle))
            break;
        if (faults_on) {
            if (injector.nextEventCycle() <= cycle) {
                const auto purged = applyFaultEvents(cycle);
                // Sync the compiled table with the grown masks before
                // any route query (handleDropped checks injection
                // routability): only rows touching the newly dead
                // channels are rewritten.
                for (const topo::ChannelId c :
                     injector.takeNewlyDeadChannels())
                    table.filterDeadChannel(c);
                handleDropped(purged, cycle);
                dropDeadQueuedPackets();
                // From here on route compute reports dead ends for
                // same-cycle purging (a stranded head would otherwise
                // block its VC until the periodic scan).
                dom.vcAlloc.collectStranded = true;
                // Machine check of the Theorem-2 claim: the degraded
                // relation must still pass the Dally oracle. One
                // thread: a run may itself be one of a sweep's workers.
                if (cfg.faults.checkDegradedCdg) {
                    ++faultCheckCount;
                    if (cdg::checkDeadlockFree(effective, 1).deadlockFree)
                        ++faultCheckCleanCount;
                }
                // Fresh progress window after the fabric surgery.
                lastProgress = cycle;
            }
            releaseRetries(cycle);
            if (injector.eventsApplied() > 0
                && cycle % strandedPeriod == 0)
                strandedScan(cycle);
        } else if (proto_on) {
            // Protocol recovery reuses the retransmit backoff queue.
            releaseRetries(cycle);
        }
        const bool measuring = inMeasurement(cycle);
        if (engine) {
            // The engine stands in for per-node generation: identical
            // draws, identical packet-allocation order (ascending node
            // within the cycle).
            engine->consumeHits(
                cycle, [&](std::uint32_t node, std::uint32_t dst) {
                    enqueuePacket(live, dom, node, dst, cycle,
                                  measuring);
                });
        } else {
            generate(cycle, measuring);
        }
        ++genCycles;
        if (proto_on)
            injectReplies(cycle, measuring);
        const bool moved = pipelineStep(live, dom, cycle, measuring);

        if (watchdogExpired(cycle, moved, fab.flitsInFlight)) {
            if ((faults_on || proto_on)
                && recoveryPassCount
                    < static_cast<std::uint64_t>(std::max(
                        0, cfg.faults.maxRecoveryAttempts))) {
                // Escalation instead of giving up: protocol wedges
                // abort the oldest request (targeted), fault wedges
                // drain-and-reroute everything.
                ++recoveryPassCount;
                if (proto_on && !faults_on)
                    recoverProtocolWedge(cycle);
                else
                    recoverWedged(cycle);
                lastProgress = cycle;
            } else {
                declareDeadlock(result, cycle);
                break;
            }
        }
        if (drainComplete(cycle, dom.stats.measuredInFlight))
            break;
        ++cycle;
    }
    return cycle;
}

SimResult
Simulator::run()
{
    SimResult result;
    const Schedule sched = resolveSchedule();
    result.schedMode = sched.mode;
    result.shards = sched.shards;
    finalCycle = sched.shards > 1 ? runSharded(*this, result, sched.shards)
                                  : runSerial(result, sched.skipIdle);
    result.cycles = finalCycle;
    result.drained =
        !result.deadlocked && dom.stats.measuredInFlight == 0;
    result.aborted = abortedFlag;
    result.faultEventsApplied = injector.eventsApplied();
    result.packetsDropped = packetsDroppedCount;
    result.packetsRetransmitted = retransmitCount;
    result.packetsLost = packetsLostCount;
    result.recoveryPasses = recoveryPassCount;
    result.faultChecks = faultCheckCount;
    result.faultChecksClean = faultCheckCleanCount;
    const PipelineStats &st = dom.stats;
    result.deliveredFraction = st.measuredGenerated
        ? static_cast<double>(st.latencyStat.count())
            / static_cast<double>(st.measuredGenerated)
        : 1.0;
    result.degradedGracefully = !result.deadlocked;
    if (proto) {
        result.protocolEnabled = true;
        result.protocolRequestsDelivered = proto->requestsDelivered;
        result.protocolRepliesInjected = proto->repliesInjected;
        result.protocolRepliesDelivered = proto->repliesDelivered;
        result.protocolEndpointStalls = proto->endpointStalls;
        result.protocolThrottled = proto->throttled;
        result.protocolPeakOccupancy = proto->peakOccupancy;
        result.protocolDeadlock = forensicsDump.protocolDeadlock;
    }
    table.addCalls(dom.vcAlloc.routeCalls());
    result.routeComputeCalls = table.calls();
    result.routeTableCompiled = table.compiled();
    result.routeTablePerSource = table.perSource();
    result.routeTableBytes = table.tableBytes();
    result.routeTableCompileNanos = table.compileNanos();
    result.packetsMeasured = st.latencyStat.count();
    result.packetsEjected = st.packetsEjected;
    result.avgLatency = st.latencyStat.mean();
    result.p50Latency = st.latencyHist.percentile(0.50);
    result.p99Latency = st.latencyHist.percentile(0.99);
    result.maxLatency = st.latencyHist.max();
    result.avgHops = st.hopsStat.mean();
    result.offeredRate = genCycles
        ? static_cast<double>(st.generatedFlits)
            / (static_cast<double>(net.numNodes())
               * static_cast<double>(genCycles))
        : 0.0;
    result.acceptedRate = cfg.measureCycles
        ? static_cast<double>(st.measuredEjectedFlits)
            / (static_cast<double>(net.numNodes())
               * static_cast<double>(cfg.measureCycles))
        : 0.0;

    // Channel-load distribution over network channels.
    if (!fab.chan.empty()) {
        StatAccumulator load;
        std::size_t unused = 0;
        for (const ChannelState &cs : fab.chan) {
            load.add(static_cast<double>(cs.load));
            if (cs.load == 0)
                ++unused;
        }
        result.channelLoadMean = load.mean();
        if (load.mean() > 0) {
            result.channelLoadCv = load.stddev() / load.mean();
            result.channelLoadMaxRatio = load.max() / load.mean();
        }
        result.channelsUnused = static_cast<double>(unused)
            / static_cast<double>(fab.chan.size());
    }

    // Stall attribution over routers.
    std::uint64_t hottest = 0;
    for (const Router &r : routerTable) {
        result.stallRouteCompute += r.stalls.routeCompute;
        result.stallVcStarved += r.stalls.vcStarved;
        result.stallCreditStarved += r.stalls.creditStarved;
        result.stallSwitchLost += r.stalls.switchLost;
        const std::uint64_t total = r.stalls.total();
        if (total > hottest) {
            hottest = total;
            result.hottestRouter = r.node;
        }
    }
    result.hottestRouterStalls = hottest;

    // Time-weighted channel occupancy over network channels.
    const auto occ = fab.channelOccupancy(finalCycle);
    if (!occ.empty()) {
        double mean_sum = 0.0;
        std::uint64_t peak = 0;
        for (const ChannelOccupancy &c : occ) {
            mean_sum += c.mean;
            if (c.peak > peak)
                peak = c.peak;
        }
        result.channelOccupancyMean =
            mean_sum / static_cast<double>(occ.size());
        result.channelOccupancyPeak = peak;
    }
    return result;
}

SimResult
runSimulation(const topo::Network &net,
              const cdg::RoutingRelation &routing,
              const TrafficGenerator &traffic, const SimConfig &config)
{
    Simulator sim(net, routing, traffic, config);
    return sim.run();
}

} // namespace ebda::sim
