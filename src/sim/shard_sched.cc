#include "sim/shard_sched.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/downstream.hh"
#include "sim/shard_partition.hh"
#include "sim/simulator.hh"

namespace ebda::sim {

namespace {

#if defined(__x86_64__) || defined(__i386__)
inline void
cpuRelax()
{
    __builtin_ia32_pause();
}
#elif defined(__aarch64__)
inline void
cpuRelax()
{
    asm volatile("yield" ::: "memory");
}
#else
inline void
cpuRelax()
{
    std::this_thread::yield();
}
#endif

/**
 * Sense-reversing spin barrier. The last arriver runs the completion
 * hook single-threaded while everyone else spins, then releases the
 * generation counter: the release/acquire pair on `gen` (and the
 * acq_rel chain on `arrived`) is what publishes every shard's
 * pre-barrier writes to every other shard — the only synchronisation
 * in the whole scheduler. Spinners yield periodically so
 * oversubscribed runs (more threads than cores, e.g. the determinism
 * tests on one-core CI) make progress.
 */
class SpinBarrier
{
  public:
    void init(unsigned participants) { total = participants; }

    template <typename Hook>
    void
    arrive(Hook &&hook)
    {
        const std::uint64_t my = gen.load(std::memory_order_acquire);
        if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1
            == total) {
            hook();
            arrived.store(0, std::memory_order_relaxed);
            gen.store(my + 1, std::memory_order_release);
            return;
        }
        unsigned spins = 0;
        while (gen.load(std::memory_order_acquire) == my) {
            if (++spins >= 64) {
                std::this_thread::yield();
                spins = 0;
            } else {
                cpuRelax();
            }
        }
    }

  private:
    std::atomic<std::uint64_t> gen{0};
    std::atomic<unsigned> arrived{0};
    unsigned total = 1;
};

/**
 * Everything one shard owns: its nodes, its inbound mailboxes, the
 * pipeline domain the shared stage kernels sweep for it (active sets,
 * allocators with their arbitration offsets, statistics) and its
 * downstream policy (cut-link view, move and in-flight counters,
 * packet-slot pool). The offsets start where the serial loop's do and
 * advance identically, so each is the same pure function of the cycle
 * count. alignas keeps neighbouring shards' hot counters off each
 * other's cache lines.
 */
struct alignas(64) Shard
{
    Shard(Fabric &fab, const routing::RouteTable &table, CutLinks &links)
        : dom(fab, table), down(fab, links)
    {
    }

    /** Nodes this shard owns, ascending. */
    std::vector<topo::NodeId> nodes;
    /** Inbound mailbox indices, ascending by producer shard. */
    std::vector<std::uint32_t> inbox;
    /** The domain's active sets span the full universes; membership
     *  only ever covers shard-owned indices (the bitmap cost of the
     *  unused range is negligible and keeps indexing global). */
    PipelineDomain dom;
    CutDownstream down;
    bool moved = false;
};

} // namespace

/**
 * The whole run: the simulator whose kernels every shard calls, the
 * shard array, the cut-link tables and mailboxes, and the barrier-hook
 * control state. A Simulator friend, built by runSharded.
 */
struct ShardRun
{
    explicit ShardRun(Simulator &s) : sim(s) {}

    Simulator &sim;
    CutLinks links;
    std::vector<std::unique_ptr<Shard>> shards;
    /** Static shard -> worker-thread assignment (results never depend
     *  on it; it only divides the work). */
    std::vector<std::vector<std::uint16_t>> threadShards;
    SpinBarrier barrier;

    /** Written only by the barrier hook, read by workers after the
     *  barrier releases them — the barrier's release/acquire pair is
     *  the publication. */
    struct
    {
        bool stop = false;
        bool measuring = false;
    } ctrl;

    std::uint64_t executedCycles = 0;
    std::uint64_t finalCycle = 0;
    std::uint64_t wakeups = 0;
    bool deadlocked = false;

    // --- setup -----------------------------------------------------

    void
    build(int shard_count)
    {
        const topo::Network &net = sim.net;
        const std::vector<std::uint16_t> shardOf =
            partitionNodes(net, shard_count);

        shards.reserve(static_cast<std::size_t>(shard_count));
        for (int s = 0; s < shard_count; ++s)
            shards.push_back(
                std::make_unique<Shard>(sim.fab, sim.table, links));
        for (topo::NodeId v = 0; v < net.numNodes(); ++v)
            shards[shardOf[v]]->nodes.push_back(v);

        // Mailboxes: one per ordered shard pair joined by a cut link,
        // preallocated to the per-cycle message bound — at most one
        // flit per cut link (the traverse stage moves one flit per
        // output link per cycle) and one credit per cut link (every VC
        // of a link shares its input port, so at most one pop/cycle).
        auto &mailboxes = links.mailboxes;
        links.sendBoxOf.assign(net.numChannels(), -1);
        links.creditBoxOf.assign(net.numChannels(), -1);
        links.credits.assign(net.numChannels(), sim.cfg.vcDepth);
        std::map<std::pair<int, int>, std::uint32_t> boxIndex;
        auto box = [&](int from, int to) -> std::uint32_t {
            const auto key = std::make_pair(from, to);
            const auto it = boxIndex.find(key);
            if (it != boxIndex.end())
                return it->second;
            const auto idx =
                static_cast<std::uint32_t>(mailboxes.size());
            boxIndex.emplace(key, idx);
            mailboxes.push_back(Mailbox{
                static_cast<std::uint16_t>(from),
                static_cast<std::uint16_t>(to),
                {},
                {}});
            return idx;
        };
        std::vector<std::size_t> flitCap, creditCap;
        for (topo::LinkId l = 0; l < net.numLinks(); ++l) {
            const int a = shardOf[net.link(l).src];
            const int b = shardOf[net.link(l).dst];
            if (a == b)
                continue;
            const std::uint32_t fwd = box(a, b);
            const std::uint32_t rev = box(b, a);
            flitCap.resize(mailboxes.size(), 0);
            creditCap.resize(mailboxes.size(), 0);
            ++flitCap[fwd];
            ++creditCap[rev];
            const int nvc = net.vcsOnLink(l);
            const topo::ChannelId base = net.linkChannelBase(l);
            for (int v = 0; v < nvc; ++v) {
                const topo::ChannelId c =
                    base + static_cast<topo::ChannelId>(v);
                links.sendBoxOf[c] = static_cast<std::int32_t>(fwd);
                links.creditBoxOf[c] = static_cast<std::int32_t>(rev);
            }
        }
        flitCap.resize(mailboxes.size(), 0);
        creditCap.resize(mailboxes.size(), 0);
        for (std::size_t m = 0; m < mailboxes.size(); ++m) {
            for (int p = 0; p < 2; ++p) {
                mailboxes[m].flits[p].reserve(flitCap[m]);
                mailboxes[m].credits[p].reserve(creditCap[m]);
            }
            shards[mailboxes[m].consumer]->inbox.push_back(
                static_cast<std::uint32_t>(m));
        }
        // Drain order must be deterministic: ascending producer.
        for (auto &sp : shards) {
            std::sort(sp->inbox.begin(), sp->inbox.end(),
                      [&](std::uint32_t x, std::uint32_t y) {
                          return mailboxes[x].producer
                              < mailboxes[y].producer;
                      });
        }
    }

    /** Keep every shard's packet pool at one slot per owned node (the
     *  per-cycle generation bound) and return hoarded excess — slots
     *  migrate from ejector shards back to injector shards here, while
     *  the workers are parked, so fab.packets may safely grow. */
    void
    refillPools()
    {
        Fabric &fab = sim.fab;
        for (auto &sp : shards) {
            const std::size_t target = sp->nodes.size();
            auto &pool = sp->down.pool;
            while (pool.size() > 2 * target) {
                fab.pktFreelist.push_back(pool.back());
                pool.pop_back();
            }
            while (pool.size() < target) {
                if (!fab.pktFreelist.empty()) {
                    pool.push_back(fab.pktFreelist.back());
                    fab.pktFreelist.pop_back();
                } else {
                    pool.push_back(static_cast<std::uint32_t>(
                        fab.packets.size()));
                    fab.packets.emplace_back();
                }
            }
        }
    }

    // --- one shard's cycle -------------------------------------------

    /** Land last cycle's cut-link flits and credits addressed to this
     *  shard, in ascending producer order. */
    void
    drainInbound(Shard &sh, std::uint64_t cycle)
    {
        Fabric &fab = sim.fab;
        const std::size_t parity = (cycle + 1) & 1;
        for (const std::uint32_t m : sh.inbox) {
            Mailbox &mb = links.mailboxes[m];
            for (const FlitMsg &msg : mb.flits[parity]) {
                InputVc &down = fab.ivcs[msg.chan];
                fab.pushFlit(msg.chan, down, msg.flit, cycle,
                             sh.down.moves);
                if (!down.routed)
                    sh.dom.allocActive.schedule(msg.chan);
            }
            mb.flits[parity].clear();
            for (const topo::ChannelId c : mb.credits[parity])
                ++links.credits[c];
            mb.credits[parity].clear();
        }
    }

    void
    step(Shard &sh, std::uint64_t cycle, bool measuring)
    {
        drainInbound(sh, cycle);
        for (const topo::NodeId n : sh.nodes)
            sim.generateAt(sh.down, sh.dom, n, cycle, measuring);
        sh.moved |= sim.pipelineStep(sh.down, sh.dom, cycle, measuring);
    }

    // --- barrier completion hook (single-threaded) -------------------

    void
    stop(std::uint64_t final_cycle, std::uint64_t executed)
    {
        finalCycle = final_cycle;
        wakeups = executed;
        ctrl.stop = true;
    }

    /** Runs once per cycle, by the last barrier arriver, while every
     *  worker is parked: global reductions, packet-pool upkeep, and the
     *  serial loop's watchdog and drain test over the reduced counts —
     *  then the serial loop's top-of-cycle bookkeeping for cycle c+1,
     *  so counters stay comparable. */
    void
    hook(std::uint64_t c)
    {
        ++executedCycles;
        bool moved = false;
        // Modular sums of the shards' deltas: exact global counts.
        std::uint64_t in_flight = 0;
        std::uint64_t measured = 0;
        for (auto &sp : shards) {
            moved |= sp->moved;
            sp->moved = false;
            in_flight += sp->down.inFlight;
            measured += sp->dom.stats.measuredInFlight;
        }
        refillPools();
        if (sim.watchdogExpired(c, moved, in_flight)) {
            // Nothing moved for the whole window, so no mailbox has
            // held a message for that long either: the frozen fabric
            // the forensics walk after the join is complete.
            deadlocked = true;
            stop(c, executedCycles);
            return;
        }
        if (sim.drainComplete(c, measured)) {
            stop(c, executedCycles);
            return;
        }
        const std::uint64_t next = c + 1;
        if (next >= sim.hardStop) {
            stop(sim.hardStop, executedCycles);
            return;
        }
        if (sim.abortBefore(next)) {
            stop(next, executedCycles + 1);
            return;
        }
        ctrl.measuring = sim.inMeasurement(next);
    }

    void
    workerLoop(unsigned tid)
    {
        const auto &mine = threadShards[tid];
        for (std::uint64_t cycle = 0;; ++cycle) {
            const bool measuring = ctrl.measuring;
            for (const std::uint16_t s : mine)
                step(*shards[s], cycle, measuring);
            barrier.arrive([this, cycle] { hook(cycle); });
            if (ctrl.stop)
                break;
        }
    }
};

std::uint64_t
runSharded(Simulator &sim, SimResult &result, int shard_count)
{
    if (sim.hardStop == 0)
        return 0;
    // Top-of-cycle-0 bookkeeping the barrier hook handles for every
    // later cycle (the serial loop does this inside the iteration).
    if (sim.abortBefore(0)) {
        result.wakeups = 1;
        return 0;
    }
    ShardRun R(sim);
    R.ctrl.measuring = sim.inMeasurement(0);

    R.build(shard_count);
    R.refillPools();

    const unsigned threads = shardWorkerThreads(shard_count);
    R.barrier.init(threads);
    R.threadShards.resize(threads);
    for (int s = 0; s < shard_count; ++s) {
        // Contiguous static assignment: thread t runs shards
        // [t*S/T, (t+1)*S/T) — neighbouring shards, which exchange the
        // most mailbox traffic, share a thread when oversubscribed.
        const auto t = static_cast<std::size_t>(s)
            * static_cast<std::size_t>(threads)
            / static_cast<std::size_t>(shard_count);
        R.threadShards[t].push_back(static_cast<std::uint16_t>(s));
    }

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back([&R, t] { R.workerLoop(t); });
    R.workerLoop(0);
    for (std::thread &t : pool)
        t.join();

    // Fold the per-shard state back into the simulator, in ascending
    // shard order so the merged results are deterministic. From here
    // Simulator::run assembles the SimResult exactly as it does after
    // the serial loop.
    for (auto &sp : R.shards) {
        sim.dom.stats.merge(sp->dom.stats);
        sim.fab.flitMoves += sp->down.moves;
        sim.fab.flitsInFlight += sp->down.inFlight;
        result.routeComputeCalls += sp->dom.vcAlloc.routeCalls();
        for (const std::uint32_t id : sp->down.pool)
            sim.fab.pktFreelist.push_back(id);
        sp->down.pool.clear();
    }
    sim.genCycles = R.executedCycles;
    sim.fab.nextPacketSeq = std::max(
        sim.fab.nextPacketSeq,
        (R.finalCycle + 1)
            * static_cast<std::uint64_t>(sim.net.numNodes()));

    if (R.deadlocked)
        sim.declareDeadlock(result, R.finalCycle);
    result.wakeups = R.wakeups;
    return R.finalCycle;
}

} // namespace ebda::sim
