#include "routing/route_table.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <new>

namespace ebda::routing {

RouteTable::RouteTable(const cdg::RoutingRelation &relation,
                       Options options)
    : rel(relation), opts(options),
      numNodes(relation.network().numNodes()),
      numChannels(relation.network().numChannels())
{
    if (!opts.enable) {
        state = Fallback::Disabled;
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    // One source class collapses the source axis; more key the rows
    // per source.
    for (topo::NodeId src = 1; src < numNodes && !wide; ++src)
        wide = rel.srcClass(src) != rel.srcClass(0);
    const std::size_t chanRows = wide
        ? numChannels * numNodes * numNodes
        : numChannels * numNodes;
    injBase = chanRows;
    const std::size_t rowTotal = chanRows + numNodes * numNodes;
    const std::uint64_t rowBytes =
        static_cast<std::uint64_t>(rowTotal) * sizeof(std::uint64_t);
    // Before any query: an over-budget table asks the relation nothing.
    if (rowBytes > opts.memoryBudgetBytes) {
        state = Fallback::RowsOverBudget;
    } else {
        // A row holds at most one node's output channels, so the pool
        // never needs more than rows x the widest node's fan-out.
        const topo::Network &net = rel.network();
        std::uint64_t fanOut = 0;
        for (topo::NodeId n = 0; n < numNodes; ++n) {
            std::uint64_t out = 0;
            for (const topo::LinkId l : net.outLinks(n))
                out += static_cast<std::uint64_t>(net.vcsOnLink(l));
            fanOut = std::max(fanOut, out);
        }
        poolEnd = 1 + static_cast<std::size_t>(std::min<std::uint64_t>(
            {(opts.memoryBudgetBytes - rowBytes) / sizeof(topo::ChannelId),
             rowTotal * fanOut,
             std::numeric_limits<std::uint32_t>::max() - 1u}));
        rows.reset(static_cast<std::uint64_t *>(
            std::calloc(rowTotal, sizeof(std::uint64_t))));
        if (!rows)
            throw std::bad_alloc();
        pool = std::make_unique_for_overwrite<topo::ChannelId[]>(poolEnd);
        stripes = std::make_unique<Stripe[]>(kStripes);
        numRows = rowTotal;
    }
    compileNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

std::uint64_t
RouteTable::tableBytes() const
{
    if (!compiled())
        return 0;
    return static_cast<std::uint64_t>(numRows) * sizeof(std::uint64_t)
        + static_cast<std::uint64_t>(poolUsed.load(std::memory_order_relaxed)
                                     - 1)
        * sizeof(topo::ChannelId);
}

std::size_t
RouteTable::rowsFilled() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; stripes && i < kStripes; ++i)
        n += stripes[i].filled.load(std::memory_order_relaxed);
    return n;
}

topo::NodeId
RouteTable::probeSource(topo::NodeId at, topo::NodeId src,
                        topo::NodeId dest) const
{
    // The walk's rule for a class holding every source: the current
    // node, else the first source bound for dest, else the last.
    if (at != src)
        return at;
    const topo::NodeId first = dest == 0 ? 1 : 0;
    if (first != src)
        return first;
    return static_cast<topo::NodeId>(dest == numNodes - 1 ? numNodes - 2
                                                          : numNodes - 1);
}

CandidateSpan
RouteTable::fillRow(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                    topo::NodeId dest,
                    std::vector<topo::ChannelId> &scratch) const
{
    CandidateSpan answer;
    {
        Stripe &stripe = stripeOf(dest);
        const std::lock_guard<std::mutex> lock(stripe.mutex);
        const std::size_t idx = rowIndex(in, src, dest);
        const std::atomic_ref<std::uint64_t> row = rowRef(idx);
        // Another thread of this stripe may have filled it since the
        // caller looked.
        if (const std::uint64_t r = row.load(std::memory_order_relaxed);
            r != kEmptyRow)
            return view(r);
        rel.candidatesInto(in, at, src, dest, scratch);
        const std::size_t n = scratch.size();
        if (!compiled())
            return CandidateSpan{scratch.data(), n};
        const std::size_t begin =
            poolUsed.fetch_add(n, std::memory_order_relaxed);
        // Over the budget: stop filling, keep serving the rows already
        // filled.
        if (begin + n > poolEnd) {
            state.store(Fallback::PoolOverBudget, std::memory_order_relaxed);
            return CandidateSpan{scratch.data(), n};
        }
        std::copy(scratch.begin(), scratch.end(), pool.get() + begin);
        answer = CandidateSpan{pool.get() + begin, n};
        // A narrow row serves every source: check a second one before
        // publishing. Its answer lands in scratch; this query's is in
        // the pool.
        bool sourcesAgree = true;
        if (!wide && in != cdg::kInjectionChannel) {
            const topo::NodeId p = probeSource(at, src, dest);
            if (p != src) {
                rel.candidatesInto(in, at, p, dest, scratch);
                sourcesAgree = std::equal(scratch.begin(), scratch.end(),
                                          answer.begin(), answer.end());
            }
        }
        if (sourcesAgree) {
            std::atomic<std::size_t> &filled = stripe.filled;
            filled.store(filled.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
            if (revBuilt) {
                const std::lock_guard<std::mutex> revLock(revMutex);
                for (const topo::ChannelId c : answer)
                    revIndex[c].push_back(static_cast<std::uint32_t>(idx));
            }
            row.store(static_cast<std::uint64_t>(begin)
                          | static_cast<std::uint64_t>(n) << 32,
                      std::memory_order_release);
            return answer;
        }
    }
    // The declaration is proven false. This query's answer stays in its
    // unpublished pool slice, which is never freed.
    dropRows();
    return answer;
}

void
RouteTable::dropRows() const
{
    for (std::size_t i = 0; i < kStripes; ++i)
        stripes[i].mutex.lock();
    // Also over a pool fallback, whose rows are still served.
    if (fallback() != Fallback::SourceClassesFailed) {
        state.store(Fallback::SourceClassesFailed,
                    std::memory_order_relaxed);
        // Reads keep the untouched (never faulted-in) rows unmapped.
        for (std::size_t r = 0; r < numRows; ++r)
            if (rowRef(r).load(std::memory_order_relaxed) != kEmptyRow)
                rowRef(r).store(kEmptyRow, std::memory_order_relaxed);
        for (std::size_t i = 0; i < kStripes; ++i)
            stripes[i].filled.store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = kStripes; i-- > 0;)
        stripes[i].mutex.unlock();
}

void
RouteTable::candidatesInto(topo::ChannelId in, topo::NodeId at,
                           topo::NodeId src, topo::NodeId dest,
                           std::vector<topo::ChannelId> &out) const
{
    const CandidateSpan s = candidatesView(in, at, src, dest, out);
    // The fallback answers in `out` itself.
    if (s.begin() != out.data())
        out.assign(s.begin(), s.end());
}

void
RouteTable::filterDeadChannel(topo::ChannelId dead)
{
    // Filled rows are served after a pool fallback too.
    if (numRows == 0)
        return;
    const std::lock_guard<std::mutex> lock(revMutex);
    if (!revBuilt) {
        revIndex.assign(numChannels, {});
        for (std::size_t r = 0; r < numRows; ++r) {
            const CandidateSpan s =
                view(rowRef(r).load(std::memory_order_relaxed));
            for (const topo::ChannelId c : s)
                revIndex[c].push_back(static_cast<std::uint32_t>(r));
        }
        revBuilt = true;
    }
    if (dead >= revIndex.size())
        return;
    // In-row compaction: entries keep their relative order, matching
    // the order-preserving remove_if of FaultedRelationView exactly.
    for (const std::uint32_t r : revIndex[dead]) {
        const std::uint64_t v = rowRef(r).load(std::memory_order_relaxed);
        const auto begin = static_cast<std::uint32_t>(v);
        const auto len = static_cast<std::uint32_t>(v >> 32);
        std::uint32_t keep = 0;
        for (std::uint32_t k = 0; k < len; ++k) {
            const topo::ChannelId c = pool[begin + k];
            if (c != dead)
                pool[begin + keep++] = c;
        }
        rowRef(r).store(begin | static_cast<std::uint64_t>(keep) << 32,
                        std::memory_order_relaxed);
    }
}

const char *
toString(RouteTable::Fallback fallback)
{
    switch (fallback) {
    case RouteTable::Fallback::None:
        return "none";
    case RouteTable::Fallback::Disabled:
        return "disabled";
    case RouteTable::Fallback::RowsOverBudget:
        return "rows over budget";
    case RouteTable::Fallback::PoolOverBudget:
        return "pool over budget";
    case RouteTable::Fallback::SourceClassesFailed:
        return "source classes failed";
    }
    return "unknown";
}

} // namespace ebda::routing
