#include "state_walk.hh"

#include <condition_variable>
#include <exception>
#include <mutex>

#include "util/host_threads.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ebda::cdg {

namespace {

using topo::ChannelId;
using topo::NodeId;

/** Builds state graphs into one reused StateGraph. */
class GraphBuilder
{
  public:
    explicit GraphBuilder(const RoutingRelation &relation)
        : rel(relation), net(relation.network()), nc(net.numChannels()),
          classOf(net.numNodes()), first(net.numNodes()),
          last(net.numNodes()), slotOf(net.numNodes())
    {
        for (NodeId s = 0; s < net.numNodes(); ++s) {
            classOf[s] = rel.srcClass(s);
            EBDA_ASSERT(classOf[s] < net.numNodes(), "srcClass out of range");
        }
    }

    /** Give every source its own class from now on. */
    void
    splitClasses()
    {
        for (NodeId s = 0; s < net.numNodes(); ++s)
            classOf[s] = s;
    }

    /**
     * Build dest's graph, one source at a time in ascending order.
     * Returns false, leaving g half built, when a spot check finds two
     * sources of one class with different candidates.
     */
    bool
    build(StateGraph &g, NodeId dest)
    {
        g.dest = dest;
        g.sources.clear();
        g.channel.clear();
        g.ejects.clear();
        g.nextBegin.clear();
        g.next.clear();
        g.injBegin.assign(1, 0);
        g.inj.clear();
        spotTick = 0;
        freeSlots.clear();
        for (std::uint32_t slot = 0; slot < slotGen.size(); ++slot)
            freeSlots.push_back(slot);
        for (NodeId s = 0; s < net.numNodes(); ++s)
            if (s != dest)
                g.sources.push_back(s);
        // Each class's first and last source bound for dest.
        for (const NodeId s : g.sources)
            first[classOf[s]] = kNoNode;
        for (const NodeId s : g.sources) {
            const NodeId k = classOf[s];
            if (first[k] == kNoNode)
                first[k] = s;
            last[k] = s;
        }

        std::size_t expanded = 0;
        for (const NodeId s : g.sources) {
            const NodeId k = classOf[s];
            if (s == first[k])
                open(k);
            const std::uint32_t slot = slotOf[k];
            rel.candidatesInto(kInjectionChannel, s, s, dest, cand);
            for (const ChannelId c : cand)
                g.inj.push_back(indexOf(g, c, slot));
            g.injBegin.push_back(static_cast<std::uint32_t>(g.inj.size()));

            // Expand the states s discovered, breadth first (g.channel
            // grows while it is scanned). They are all of class k, and
            // every state of k met before was expanded with an earlier
            // source, so the new ones come out in the order s's own
            // walk meets them.
            const NodeId other = first[k] != s ? first[k] : last[k];
            for (; expanded < g.channel.size(); ++expanded) {
                g.nextBegin.push_back(
                    static_cast<std::uint32_t>(g.next.size()));
                const ChannelId c = g.channel[expanded];
                const NodeId at = net.link(net.linkOf(c)).dst;
                g.ejects.push_back(at == dest);
                if (at == dest)
                    continue;
                rel.candidatesInto(c, at, s, dest, cand);
                if (other != s && (spotTick++ & 15u) == 0) {
                    // Probe another member: the current node when it is
                    // one, else the class's first or last source.
                    const NodeId p = classOf[at] == k ? at : other;
                    if (p != s) {
                        rel.candidatesInto(c, at, p, dest, probe);
                        if (probe != cand)
                            return false;
                    }
                }
                for (const ChannelId d : cand)
                    g.next.push_back(indexOf(g, d, slot));
            }
            if (s == last[k])
                freeSlots.push_back(slot);
        }
        g.nextBegin.push_back(static_cast<std::uint32_t>(g.next.size()));
        return true;
    }

  private:
    static constexpr NodeId kNoNode = topo::kInvalidId;

    /** A (channel, class) entry of `local`: the state's index in the
     *  graph, valid while `gen` is its slot's current generation. */
    struct Entry
    {
        std::uint32_t gen = 0;
        std::uint32_t index = 0;
    };

    /** Give class k a slot of `local` with a fresh generation. */
    void
    open(NodeId k)
    {
        if (freeSlots.empty()) {
            freeSlots.push_back(static_cast<std::uint32_t>(slotGen.size()));
            slotGen.push_back(0);
            local.resize(local.size() + nc);
        }
        slotOf[k] = freeSlots.back();
        freeSlots.pop_back();
        slotGen[slotOf[k]] = ++gen;
    }

    /** The index of state (c, slot's class) in g, appending it on first
     *  discovery. */
    std::uint32_t
    indexOf(StateGraph &g, ChannelId c, std::uint32_t slot)
    {
        Entry &e = local[static_cast<std::size_t>(slot) * nc + c];
        if (e.gen != slotGen[slot]) {
            e.gen = slotGen[slot];
            e.index = static_cast<std::uint32_t>(g.channel.size());
            g.channel.push_back(c);
        }
        return e.index;
    }

    const RoutingRelation &rel;
    const topo::Network &net;
    const std::size_t nc;
    /** Per source: its class (see file doc). */
    std::vector<NodeId> classOf;
    /** Per class: its first and last source bound for the destination
     *  being built, and its slot of `local` while it is being walked. */
    std::vector<NodeId> first;
    std::vector<NodeId> last;
    std::vector<std::uint32_t> slotOf;
    /** (slot, channel) -> state, slot major. A class holds a slot from
     *  its first source to its last, so only classes whose sources
     *  interleave hold slots at once. */
    std::vector<Entry> local;
    std::vector<std::uint32_t> slotGen;
    std::vector<std::uint32_t> freeSlots;
    std::uint32_t gen = 0;
    std::vector<ChannelId> cand;
    std::vector<ChannelId> probe;
    std::size_t spotTick = 0;
};

/** One pass of the walk: destinations `from` onward, with the declared
 *  classes or one per source. Returns the first destination whose spot
 *  check failed (those before it are merged, none after it), or the
 *  node count. */
NodeId
walkFrom(const RoutingRelation &relation, unsigned threads, NodeId from,
         bool split,
         const std::function<void(std::size_t, const StateGraph &)> &fold,
         const std::function<void(std::size_t)> &merge)
{
    const NodeId n = relation.network().numNodes();
    const std::size_t slots = walkSlots(threads);

    // Guarded by mtx. Destination d uses partial d % slots, free once
    // d - slots is merged; `ready` marks folded partials. One thread at
    // a time merges, while the next destination's partial is ready.
    std::mutex mtx;
    std::condition_variable freed;
    NodeId nextClaim = from;
    NodeId nextMerge = from;
    NodeId failedAt = n;
    bool merging = false;
    bool abandoned = false;
    std::vector<std::uint8_t> ready(slots, 0);

    const auto work = [&](std::size_t) {
        GraphBuilder builder(relation);
        if (split)
            builder.splitClasses();
        StateGraph g;
        std::unique_lock<std::mutex> lock(mtx);
        try {
            while (!abandoned && nextClaim < failedAt) {
                const NodeId dest = nextClaim++;
                const std::size_t slot = dest % slots;
                freed.wait(lock, [&] {
                    return abandoned || dest > failedAt
                        || dest < nextMerge + slots;
                });
                if (abandoned || dest > failedAt)
                    return;
                lock.unlock();
                const bool held = builder.build(g, dest);
                if (held)
                    fold(slot, g);
                lock.lock();
                if (!held) {
                    failedAt = std::min(failedAt, dest);
                    freed.notify_all();
                    return;
                }
                ready[slot] = 1;
                if (merging)
                    continue;
                merging = true;
                while (!abandoned && nextMerge < failedAt
                       && ready[nextMerge % slots]) {
                    const std::size_t s = nextMerge % slots;
                    lock.unlock();
                    merge(s);
                    lock.lock();
                    ready[s] = 0;
                    ++nextMerge;
                    freed.notify_all();
                }
                merging = false;
            }
        } catch (...) {
            // Release every waiter; the pool rethrows the exception.
            if (!lock.owns_lock())
                lock.lock();
            abandoned = true;
            freed.notify_all();
            throw;
        }
    };
    ThreadPool pool(static_cast<int>(std::min<std::size_t>(
        threads, std::max<std::size_t>(n - from, 1))));
    pool.parallelFor(static_cast<std::size_t>(pool.threadCount()), work);
    return failedAt;
}

unsigned
resolveThreads(unsigned threads)
{
    return threads == 0 ? hostThreads() : threads;
}

} // namespace

std::size_t
walkSlots(unsigned threads)
{
    return 2 * static_cast<std::size_t>(resolveThreads(threads));
}

bool
walkStateGraphs(
    const RoutingRelation &relation, unsigned threads,
    const std::function<void(std::size_t, const StateGraph &)> &fold,
    const std::function<void(std::size_t)> &merge)
{
    threads = resolveThreads(threads);
    const NodeId n = relation.network().numNodes();
    const NodeId failed = walkFrom(relation, threads, 0, false, fold, merge);
    if (failed == n)
        return true;
    // A class failed its spot check: the declaration is false.
    walkFrom(relation, threads, failed, true, fold, merge);
    return false;
}

} // namespace ebda::cdg
