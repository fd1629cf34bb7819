#include "routing/route_table.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <new>

#include <sys/mman.h>

#include "util/logging.hh"

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
    // Number the classes in order of their first source.
    constexpr topo::NodeId kNone = topo::kInvalidId;
    std::vector<topo::NodeId> indexOf(numNodes, kNone);
    srcRow = std::make_unique_for_overwrite<std::size_t[]>(numNodes);
    classEnds = std::make_unique_for_overwrite<ClassEnds[]>(numNodes);
    for (topo::NodeId src = 0; src < numNodes; ++src) {
        const topo::NodeId c = rel.srcClass(src);
        EBDA_ASSERT(c < numNodes, "srcClass out of range");
        if (indexOf[c] == kNone) {
            indexOf[c] = static_cast<topo::NodeId>(numClasses++);
            classEnds[indexOf[c]] = {{src, kNone}, {src, kNone}};
        } else {
            ClassEnds &e = classEnds[indexOf[c]];
            if (e.first[1] == kNone)
                e.first[1] = src;
            e.last[1] = e.last[0];
            e.last[0] = src;
        }
        srcRow[src] = static_cast<std::size_t>(indexOf[c]) * numNodes;
    }
    classStride = numClasses * numNodes;
    injBase = numChannels * classStride;
    const std::size_t rowTotal = injBase + numNodes * numNodes;
    // Rows and directory slots are reserved whole; the pool takes what
    // the budget leaves.
    const std::uint64_t fixedBytes =
        static_cast<std::uint64_t>(rowTotal) * kRowBytes
        + static_cast<std::uint64_t>(numNodes) * kDirectoryBytes;
    // Before any query: an over-budget table asks the relation nothing.
    if (fixedBytes > opts.memoryBudgetBytes) {
        state = Fallback::RowsOverBudget;
    } else {
        // A list holds at most its node's output channels, so the pool
        // never needs more than every directory full of the widest
        // lists.
        const topo::Network &net = rel.network();
        std::uint64_t poolCap = 0;
        for (topo::NodeId n = 0; n < numNodes; ++n) {
            std::uint64_t out = 0;
            for (const topo::LinkId l : net.outLinks(n))
                out += static_cast<std::uint64_t>(net.vcsOnLink(l));
            poolCap += kMaxListsPerNode * out;
        }
        poolEnd = static_cast<std::size_t>(std::min<std::uint64_t>(
            {(opts.memoryBudgetBytes - fixedBytes) / sizeof(topo::ChannelId),
             poolCap, std::numeric_limits<std::uint32_t>::max()}));
        const std::size_t rowBytes = rowTotal * kRowBytes;
        void *mapped = mmap(nullptr, rowBytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mapped == MAP_FAILED)
            throw std::bad_alloc();
        rows = std::unique_ptr<std::uint8_t[], Unmap>(
            static_cast<std::uint8_t *>(mapped), Unmap{rowBytes});
        slots = std::make_unique_for_overwrite<std::uint64_t[]>(
            numNodes * (kMaxListsPerNode + 1));
        listsAt = std::make_unique<std::uint8_t[]>(numNodes);
        pool = std::make_unique_for_overwrite<topo::ChannelId[]>(poolEnd);
        stripes = std::make_unique<Stripe[]>(kStripes);
        numRows = rowTotal;
    }
    compileNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

void
RouteTable::Unmap::operator()(std::uint8_t *p) const
{
    munmap(p, bytes);
}

std::uint64_t
RouteTable::tableBytes() const
{
    if (!compiled())
        return 0;
    return static_cast<std::uint64_t>(numRows) * kRowBytes
        + static_cast<std::uint64_t>(numNodes) * kDirectoryBytes
        + static_cast<std::uint64_t>(
              poolUsed.load(std::memory_order_relaxed))
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

std::size_t
RouteTable::listCount() const
{
    std::size_t total = 0;
    for (std::size_t n = 0; listsAt && n < numNodes; ++n)
        total += std::atomic_ref<std::uint8_t>(listsAt[n])
                     .load(std::memory_order_relaxed);
    return total;
}

std::size_t
RouteTable::maxListsPerNode() const
{
    std::size_t most = 0;
    for (std::size_t n = 0; listsAt && n < numNodes; ++n)
        most = std::max<std::size_t>(
            most, std::atomic_ref<std::uint8_t>(listsAt[n])
                      .load(std::memory_order_relaxed));
    return most;
}

topo::NodeId
RouteTable::probeSource(topo::NodeId at, topo::NodeId src,
                        topo::NodeId dest) const
{
    // The walk's rule: the current node when it is another source of
    // the class, else the class's first source bound for dest, else its
    // last.
    if (at != src && srcRow[at] == srcRow[src])
        return at;
    const ClassEnds &e = classEnds[srcRow[src] / numNodes];
    const topo::NodeId first = e.first[0] != dest ? e.first[0] : e.first[1];
    if (first != src)
        return first;
    return e.last[0] != dest ? e.last[0] : e.last[1];
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
        const std::atomic_ref<std::uint8_t> row =
            rowRef(rowIndex(in, src, dest));
        // Another thread of this stripe may have filled it since the
        // caller looked.
        if (const std::uint8_t k = row.load(std::memory_order_relaxed);
            k != kEmptyRow)
            return listAt(at, k);
        rel.candidatesInto(in, at, src, dest, scratch);
        if (!compiled())
            return CandidateSpan{scratch.data(), scratch.size()};
        // A full directory or pool stops filling; the rows already
        // filled stay served.
        const std::uint8_t k = findOrAddList(at, scratch);
        if (k == kEmptyRow)
            return CandidateSpan{scratch.data(), scratch.size()};
        answer = listAt(at, k);
        // A row serves every source of its class: check a second one
        // before publishing. Its answer lands in scratch; this query's
        // is in the directory.
        bool sourcesAgree = true;
        if (in != cdg::kInjectionChannel) {
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
            row.store(k, std::memory_order_release);
            return answer;
        }
    }
    // The declaration is proven false. This query's answer stays in the
    // directory, which is never freed. Also over a pool fallback, whose
    // rows are still served.
    state.store(Fallback::SourceClassesFailed, std::memory_order_relaxed);
    forgetRows();
    return answer;
}

std::uint8_t
RouteTable::findOrAddList(topo::NodeId at,
                          const std::vector<topo::ChannelId> &list) const
{
    const std::lock_guard<std::mutex> lock(stripes[at % kStripes].dirMutex);
    const std::atomic_ref<std::uint8_t> held(listsAt[at]);
    const std::size_t n = held.load(std::memory_order_relaxed);
    for (std::size_t k = 1; k <= n; ++k) {
        const CandidateSpan s = listAt(at, k);
        if (std::equal(list.begin(), list.end(), s.begin(), s.end()))
            return static_cast<std::uint8_t>(k);
    }
    if (n == kMaxListsPerNode) {
        state.store(Fallback::DirectoryFull, std::memory_order_relaxed);
        return kEmptyRow;
    }
    const std::size_t begin =
        poolUsed.fetch_add(list.size(), std::memory_order_relaxed);
    if (begin + list.size() > poolEnd) {
        state.store(Fallback::PoolOverBudget, std::memory_order_relaxed);
        return kEmptyRow;
    }
    std::copy(list.begin(), list.end(), pool.get() + begin);
    slot(at, n + 1) = static_cast<std::uint64_t>(begin)
        | static_cast<std::uint64_t>(list.size()) << 32;
    held.store(static_cast<std::uint8_t>(n + 1), std::memory_order_relaxed);
    return static_cast<std::uint8_t>(n + 1);
}

void
RouteTable::forgetRows() const
{
    if (numRows == 0)
        return;
    for (std::size_t i = 0; i < kStripes; ++i)
        stripes[i].mutex.lock();
    // Reads keep the untouched (never faulted-in) rows unmapped.
    for (std::size_t r = 0; r < numRows; ++r)
        if (rowRef(r).load(std::memory_order_relaxed) != kEmptyRow)
            rowRef(r).store(kEmptyRow, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kStripes; ++i) {
        stripes[i].filled.store(0, std::memory_order_relaxed);
        stripes[i].mutex.unlock();
    }
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
    case RouteTable::Fallback::DirectoryFull:
        return "directory full";
    }
    return "unknown";
}

} // namespace ebda::routing
