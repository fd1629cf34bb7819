#include "sim/fault_injector.hh"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "util/random.hh"

namespace ebda::sim {

namespace {

/** Substream tag of the random fault schedule — never collides with
 *  the per-node traffic substreams (those use the node id). */
constexpr std::uint64_t kFaultSubstream = 0xebdaf417dead1117ULL;

/** The link src -> dst, if present. */
std::optional<topo::LinkId>
findLink(const topo::Network &net, topo::NodeId src, topo::NodeId dst)
{
    if (src >= net.numNodes() || dst >= net.numNodes())
        return std::nullopt;
    for (const topo::LinkId l : net.outLinks(src))
        if (net.link(l).dst == dst)
            return l;
    return std::nullopt;
}

} // namespace

FaultInjector::FaultInjector(const topo::Network &net,
                             const FaultPlan &plan)
    : net(net), thePlan(plan), enabledFlag(!plan.empty()),
      nodeDeadMask(net.numNodes(), 0), linkDeadMask(net.numLinks(), 0),
      chanDeadMask(net.numChannels(), 0)
{
    if (!enabledFlag)
        return;

    // Explicit events, validated against the network.
    for (const FaultEvent &ev : plan.events) {
        if (ev.router) {
            if (ev.node < net.numNodes())
                events.push_back(ev);
        } else if (findLink(net, ev.src, ev.dst)) {
            events.push_back(ev);
        }
    }

    // Random events from the plan's own substream. A random link fault
    // kills the physical link — both directions — matching the static
    // fault model of bench_fault_tolerance.
    Rng rng(plan.seed, kFaultSubstream);
    std::vector<std::uint8_t> linkPicked(net.numLinks(), 0);
    std::vector<std::uint8_t> nodePicked(net.numNodes(), 0);
    std::uint64_t when = plan.firstCycle;
    int placed = 0;
    for (int attempts = 0;
         placed < plan.randomLinkFaults
         && attempts < 64 * plan.randomLinkFaults && net.numLinks() > 0;
         ++attempts) {
        const auto l = static_cast<topo::LinkId>(
            rng.nextBounded(net.numLinks()));
        if (linkPicked[l])
            continue;
        const topo::Link &lk = net.link(l);
        FaultEvent ev;
        ev.cycle = when;
        ev.src = lk.src;
        ev.dst = lk.dst;
        events.push_back(ev);
        linkPicked[l] = 1;
        if (const auto rev = findLink(net, lk.dst, lk.src)) {
            ev.src = lk.dst;
            ev.dst = lk.src;
            events.push_back(ev);
            linkPicked[*rev] = 1;
        }
        when += plan.spacing;
        ++placed;
    }
    placed = 0;
    for (int attempts = 0;
         placed < plan.randomRouterFaults
         && attempts < 64 * plan.randomRouterFaults
         && net.numNodes() > 0;
         ++attempts) {
        const auto n = static_cast<topo::NodeId>(
            rng.nextBounded(net.numNodes()));
        if (nodePicked[n])
            continue;
        FaultEvent ev;
        ev.cycle = when;
        ev.router = true;
        ev.node = n;
        events.push_back(ev);
        nodePicked[n] = 1;
        when += plan.spacing;
        ++placed;
    }

    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.cycle < b.cycle;
                     });
}

void
FaultInjector::markLinkDead(topo::LinkId l)
{
    if (linkDeadMask[l])
        return;
    linkDeadMask[l] = 1;
    ++deadLinks;
    for (int v = 0; v < net.vcsOnLink(l); ++v)
        chanDeadMask[net.channel(l, v)] = 1;
}

void
FaultInjector::killLink(topo::NodeId src, topo::NodeId dst)
{
    if (const auto l = findLink(net, src, dst))
        markLinkDead(*l);
}

void
FaultInjector::killNode(topo::NodeId n)
{
    if (nodeDeadMask[n])
        return;
    nodeDeadMask[n] = 1;
    ++deadNodes;
    for (const topo::LinkId l : net.outLinks(n))
        markLinkDead(l);
    for (const topo::LinkId l : net.inLinks(n))
        markLinkDead(l);
}

bool
FaultInjector::deadIvc(const Fabric &fab, std::size_t idx) const
{
    if (fab.isChannelVc(idx))
        return chanDeadMask[idx] != 0;
    return nodeDeadMask[fab.ivcs[idx].atNode] != 0;
}

std::vector<std::uint32_t>
FaultInjector::apply(std::uint64_t cycle, Fabric &fab,
                     ActiveSet &allocActive)
{
    bool any = false;
    while (nextIdx < events.size() && events[nextIdx].cycle <= cycle) {
        const FaultEvent &ev = events[nextIdx++];
        if (ev.router)
            killNode(ev.node);
        else
            killLink(ev.src, ev.dst);
        any = true;
    }
    if (!any)
        return {};

    // A packet dies when any flit of it sits in a dead buffer, when its
    // destination died, or when its held allocation crosses a dead
    // channel (a wormhole body cannot be spliced). The masks are
    // cumulative but the scan is idempotent: survivors of earlier
    // events never touch dead elements again.
    std::vector<std::uint8_t> kill(fab.packets.size(), 0);
    for (std::size_t i = 0; i < fab.ivcs.size(); ++i) {
        const InputVc &vc = fab.ivcs[i];
        const bool dead_here = deadIvc(fab, i);
        for (const Flit &f : vc.buf) {
            if (dead_here || nodeDeadMask[fab.packets[f.pkt].dest]
                || nodeDeadMask[vc.atNode])
                kill[f.pkt] = 1;
        }
        if (vc.routed && vc.curPkt != topo::kInvalidId
            && (dead_here || nodeDeadMask[vc.atNode]
                || nodeDeadMask[fab.packets[vc.curPkt].dest]
                || (!vc.eject && chanDeadMask[vc.out]))) {
            kill[vc.curPkt] = 1;
        }
    }
    return purge(fab, allocActive, kill, cycle);
}

std::vector<std::uint32_t>
FaultInjector::purge(Fabric &fab, ActiveSet &allocActive,
                     const std::vector<std::uint8_t> &kill,
                     std::uint64_t cycle)
{
    std::vector<std::uint32_t> purged;
    for (std::size_t p = 0; p < kill.size(); ++p)
        if (kill[p])
            purged.push_back(static_cast<std::uint32_t>(p));
    if (purged.empty())
        return purged;
    // Packet slots are freelist-recycled, so ascending slot id no
    // longer equals generation order — but the retransmit path does
    // depend on it (same-cycle retries re-queue in purge order).
    // Sorting by the generation sequence number reproduces the exact
    // order the pre-freelist fabric produced.
    std::sort(purged.begin(), purged.end(),
              [&fab](std::uint32_t a, std::uint32_t b) {
                  return fab.packets[a].seq < fab.packets[b].seq;
              });

    for (std::size_t i = 0; i < fab.ivcs.size(); ++i) {
        InputVc &vc = fab.ivcs[i];
        bool touched = false;
        if (!vc.buf.empty()) {
            const std::size_t removed =
                fab.eraseFlits(i, cycle, [&](const Flit &f) {
                    return kill[f.pkt] != 0;
                });
            if (removed) {
                fab.flitsInFlight -= removed;
                touched = true;
            }
        }
        if (vc.routed) {
            const bool owner_killed = vc.curPkt != topo::kInvalidId
                && kill[vc.curPkt];
            const bool out_dead =
                !vc.eject && chanDeadMask[vc.out] != 0;
            if (owner_killed || out_dead) {
                if (vc.eject) {
                    --fab.ejectPending[vc.atNode];
                    fab.ejectMask[vc.atNode] &=
                        ~(std::uint64_t{1} << vc.localPos);
                } else {
                    fab.chan[vc.out].owner = topo::kInvalidId;
                    --fab.ownedOnLink[fab.net.linkOf(vc.out)];
                }
                vc.routed = false;
                vc.eject = false;
                vc.out = topo::kInvalidId;
                vc.curPkt = topo::kInvalidId;
                touched = true;
            }
        }
        // Anything still buffered here needs (re-)allocation against
        // the degraded view. Scheduling is idempotent; stale entries
        // are tolerated by the sweep.
        if (touched && !vc.buf.empty() && !vc.routed
            && !deadIvc(fab, i)) {
            allocActive.schedule(i);
        }
    }
    return purged;
}

bool
parseFaultEvents(const std::string &text,
                 std::vector<FaultEvent> &out, std::string *err)
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
        FaultEvent ev;
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

} // namespace ebda::sim
