/**
 * @file
 * Route table: serves a RoutingRelation over its fixed Network from
 * flat rows, so steady-state route compute is array indexing instead
 * of a virtual call that recomputes the candidates.
 *
 * Every EbDa-style relation is a pure function of (input channel,
 * current node, source, destination); the current node is itself
 * determined by the input channel (the head of `in`, or the source for
 * injection queries), so the whole relation fits in a table keyed by
 * (in, dest) — widened to (in, src, dest) when the relation's sources
 * fall into more than one class (RoutingRelation::srcClass(), e.g.
 * Odd-Even's source columns).
 *
 * Layout: a row is one byte. 0 means empty; k means the k-th list in
 * the directory of the querying node (`at`, which the hot path already
 * has). A node's directory holds each distinct candidate list its rows
 * have been filled with, once: an EbDa relation depends on the
 * occupied channel's class and the destination, and few class
 * transitions are allowed, so a node sees few distinct lists (xy 4,
 * Odd-Even 8, fig7b 12, region:2 16, updown on an 8x8 torus 15 and
 * `minimal` on a 4x4x4 mesh 26 at most, measured over the reachable
 * states). The two-hop full mesh needs about two per destination (29
 * on 16 nodes). This is the shape InfiniBand subnet managers program:
 * per-switch forwarding tables plus SL-to-VL tables.
 *  - narrow: row(in, dest)       = in * N + dest, then an injection
 *    block at C * N keyed (src, dest) — injection candidates depend on
 *    the source because the source IS the current node there;
 *  - wide:   row(in, src, dest)  = (in * N + src) * N + dest, injection
 *    block at C * N * N.
 * A directory has 255 slots, one per nonzero row byte, each the
 * {begin, len} of one list in the shared candidate pool.
 *
 * Filling: the constructor only sizes the rows. The first query of a
 * row asks the relation with the querying packet's real source, finds
 * or adds that answer in the node's directory and stores its index, so
 * every row holds exactly what the virtual relation returns for it and
 * table runs are bit-identical to virtual-path runs by construction. A
 * packet only ever asks about a state it occupies, so the relation is
 * only asked about states a real packet can occupy; relations may
 * assert on the others (EbDaRouting on unclassified channels,
 * Elevator-First on phases its own packets never enter). Rows nobody
 * queries stay empty and cost no relation call.
 *
 * Source classes: a narrow row serves every source, which the
 * relation's one-class declaration promises is sound. Before a narrow
 * row is stored it is checked against a second source, chosen as the
 * checkers' state walk chooses its spot-check probe (cdg/state_walk.hh):
 * the current node, or the first or last other source when the current
 * node is the packet's own. A mismatch proves the declaration false and
 * sends the rest of the run to the relation. Injection rows and wide
 * rows are keyed by the real source and need no check.
 *
 * Threads: a fill holds the lock of its destination's stripe (one of
 * kStripes, by dest) with the relation call inside it, since the
 * relation contract allows concurrent queries only for distinct
 * destinations; fills for destinations in different stripes run in
 * parallel. Finding or adding the list takes the directory lock of the
 * node's stripe too (by node; always taken inside a fill lock, never
 * around one). The candidate pool and the directory slots are reserved
 * up front and never reallocate; a new list claims its pool slice with
 * one fetch_add, and a slot is written before any row names it. A row
 * is published with one release store after its list is in place. So
 * the sharded loop's workers read filled rows with one acquire load and
 * no lock, and two workers asking for one empty row fill it once.
 * Nothing in the pool is ever freed: a worker still reading a list
 * reads valid memory whatever happens after it loaded the row.
 *
 * Fallbacks (fallback() names the reason; compiled() and tableBytes()
 * then read false and 0): a disabled table and rows alone over the
 * memory budget (checked before the relation is asked anything) send
 * every query to the virtual relation. Mid-run, a fill that would take
 * the pool over the budget, or give a node a 256th list, stops
 * filling: rows already filled stay served lock-free, and queries of
 * empty rows ask the relation under their stripe's lock. A narrow fill
 * whose second source disagrees proves the rows' keying wrong: it
 * empties all rows (forgetRows()), so every later query asks the
 * relation.
 *
 * Forgetting: the table knows nothing of faults; it serves whatever
 * its relation answers. When those answers change (a fault event grows
 * the simulator's degraded view), forgetRows() empties every row, and
 * each refills on its next query from the relation as it now answers.
 * Directories keep their lists, which are matched by content and never
 * freed, so a refill that gives a node a new list adds it.
 */

#ifndef EBDA_ROUTING_ROUTE_TABLE_HH
#define EBDA_ROUTING_ROUTE_TABLE_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/** Default cap on a route table's rows, directory slots and candidate
 *  pool, in bytes. */
constexpr std::uint64_t kDefaultRouteTableBudget = 64ull << 20;

/**
 * Borrowed, immutable view of one candidate list. A view into the
 * table stays valid as long as the table (lists are never edited or
 * freed); a view of the fallback path's scratch vector, until that
 * vector is reused.
 */
struct CandidateSpan
{
    const topo::ChannelId *ptr = nullptr;
    std::size_t count = 0;

    const topo::ChannelId *begin() const { return ptr; }
    const topo::ChannelId *end() const { return ptr + count; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    topo::ChannelId operator[](std::size_t i) const { return ptr[i]; }
};

/**
 * A routing relation served from rows filled on first query. Construct
 * once per (Network, relation); query via candidatesView
 * (zero-allocation once a row is filled) or candidatesInto.
 */
class RouteTable
{
  public:
    struct Options
    {
        /** Serve from rows at all; false forces the virtual fallback. */
        bool enable = true;
        /** Table size cap (rows, directory slots and pool); beyond it
         *  the table falls back to the virtual relation. */
        std::uint64_t memoryBudgetBytes = kDefaultRouteTableBudget;
    };

    /** Why queries go to the virtual relation (None: served from
     *  rows). */
    enum class Fallback : std::uint8_t
    {
        None,
        Disabled,
        RowsOverBudget,
        PoolOverBudget,
        SourceClassesFailed,
        DirectoryFull,
    };

    /** Bytes per row. */
    static constexpr std::size_t kRowBytes = sizeof(std::uint8_t);

    /** Lists one node's directory holds at most: one per nonzero row
     *  byte. */
    static constexpr std::size_t kMaxListsPerNode = 255;

    RouteTable(const cdg::RoutingRelation &relation, Options options);

    explicit RouteTable(const cdg::RoutingRelation &relation)
        : RouteTable(relation, Options())
    {
    }

    /** True while every query is served from rows or fills one; false
     *  once the table has fallen back (see fallback()), which can
     *  happen mid-run. */
    bool compiled() const { return fallback() == Fallback::None; }

    /** Why the table is on the virtual fallback, or None. */
    Fallback fallback() const
    {
        return state.load(std::memory_order_relaxed);
    }

    /** True when rows are keyed per source. */
    bool perSource() const { return wide; }

    /** Bytes held: the rows (one each) and the directories' slots,
     *  both reserved whole, plus the pool's lists. 0 on any fallback:
     *  which rows a sharded run filled before it stopped filling
     *  depends on thread timing. */
    std::uint64_t tableBytes() const;

    /** Distinct candidate lists held, over every node's directory. */
    std::size_t listCount() const;

    /** The most lists one node's directory holds. */
    std::size_t maxListsPerNode() const;

    /** Rows sized (0 when never sized: disabled or over budget). */
    std::size_t rowCount() const { return numRows; }

    /** Rows filled so far (0 again after forgetRows()). */
    std::size_t rowsFilled() const;

    /** The memory budget the table was sized against. */
    std::uint64_t budgetBytes() const { return opts.memoryBudgetBytes; }

    /** Wall-clock nanoseconds the constructor spent sizing the rows
     *  (fills happen during the run, on first query). */
    std::uint64_t compileNanos() const { return compileNs; }

    /** The relation served (the simulator's effective relation). */
    const cdg::RoutingRelation &relation() const { return rel; }

    /**
     * The hot path. Filled row: a view into the table, no allocation.
     * Empty row: fills it (see file doc) and returns the view.
     * Fallback: fills `scratch` via the virtual relation and returns a
     * view of it — allocation-free too once `scratch` has grown to the
     * largest candidate set. A fill also asks the relation into
     * `scratch`. `dest` must differ from the current node (callers
     * eject on arrival). Safe to call from several threads at once
     * (filled rows are read with one acquire load; fills and
     * post-fallback relation calls take their destination's stripe
     * lock), each passing its own scratch. The table keeps no count of
     * its queries: callers count their own.
     */
    CandidateSpan
    candidatesView(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &scratch) const
    {
        if (rows) [[likely]] {
            const std::uint8_t k = rowRef(rowIndex(in, src, dest))
                                       .load(std::memory_order_acquire);
            if (k != kEmptyRow) [[likely]]
                return listAt(at, k);
            return fillRow(in, at, src, dest, scratch);
        }
        rel.candidatesInto(in, at, src, dest, scratch);
        return CandidateSpan{scratch.data(), scratch.size()};
    }

    /** Copy the candidate list into `out` (cold paths that keep it). */
    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const;

    /**
     * Empty every row under every stripe lock, so each refills from the
     * relation on its next query; directories keep their lists. Call it
     * when the relation's answers change (the simulator does after each
     * fault event); a failed source-class check calls it too. Const
     * like a fill. No-op on an unsized table.
     */
    void forgetRows() const;

  private:
    /** Row byte of an unfilled row; k > 0 names slot k of the querying
     *  node's directory. */
    static constexpr std::uint8_t kEmptyRow = 0;

    /** Rows are read and published atomically: workers of the
     *  sharded loop read them while another fills. */
    std::atomic_ref<std::uint8_t>
    rowRef(std::size_t i) const
    {
        return std::atomic_ref<std::uint8_t>(rows[i]);
    }

    /** A node's directory: 256 slots (slot 0 unused) and its list
     *  count. */
    static constexpr std::uint64_t kDirectoryBytes =
        (kMaxListsPerNode + 1) * sizeof(std::uint64_t) + 1;

    /** Slot k of node n's directory: one list's {begin, len} in the
     *  pool, packed as begin | len << 32. Slot 0 is never used. */
    std::uint64_t &
    slot(topo::NodeId n, std::size_t k) const
    {
        return slots[k * numNodes + n];
    }

    /** List k of `at`'s directory. */
    CandidateSpan
    listAt(topo::NodeId at, std::size_t k) const
    {
        const std::uint64_t s = slot(at, k);
        return CandidateSpan{pool.get() + static_cast<std::uint32_t>(s),
                             static_cast<std::size_t>(s >> 32)};
    }

    std::size_t
    rowIndex(topo::ChannelId in, topo::NodeId src, topo::NodeId dest) const
    {
        if (in == cdg::kInjectionChannel)
            return injBase + static_cast<std::size_t>(src) * numNodes
                + dest;
        if (!wide)
            return static_cast<std::size_t>(in) * numNodes + dest;
        return (static_cast<std::size_t>(in) * numNodes + src) * numNodes
            + dest;
    }

    /** The slow path of candidatesView, under the stripe
     *  lock of `dest`: fill the row, or ask the relation once the table
     *  has fallen back. */
    CandidateSpan fillRow(topo::ChannelId in, topo::NodeId at,
                          topo::NodeId src, topo::NodeId dest,
                          std::vector<topo::ChannelId> &scratch) const;

    /** The slot of `list` in `at`'s directory, adding it when new; 0
     *  once adding it would overflow the directory or the pool, which
     *  stops filling. */
    std::uint8_t findOrAddList(topo::NodeId at,
                               const std::vector<topo::ChannelId> &list)
        const;

    /** The second source a narrow fill at (at, dest) by `src` is
     *  checked against, or src when there is none. */
    topo::NodeId probeSource(topo::NodeId at, topo::NodeId src,
                             topo::NodeId dest) const;

    const cdg::RoutingRelation &rel;
    Options opts;
    std::size_t numNodes;
    std::size_t numChannels;

    bool wide = false;
    std::size_t injBase = 0;
    std::size_t numRows = 0;
    std::uint64_t compileNs = 0;

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };
    /** calloc'd. A fresh mmap'd block's pages are faulted in only when
     *  a query touches them, but once glibc's dynamic mmap threshold
     *  has risen past the rows' size (a long-lived process that freed
     *  such a block), calloc serves them from the heap and zeroes every
     *  row at every setup: 16x16 Odd-Even keyed by source class (7.9
     *  MB of rows) set up in 7.1–8.6 ms so, against 1.3 ms with mmap'd
     *  rows (ROADMAP item 2). forgetRows() stores only into rows that
     *  hold a list, so it touches no page a query never touched. */
    std::unique_ptr<std::uint8_t[], FreeDeleter> rows;
    /** 256 slots per node (slot 0 unused), slot-major: slot k of every
     *  node, then slot k + 1, so a run that gives each node a few lists
     *  touches a few pages. Reserved uninitialised: a slot is written
     *  before any row names it. */
    std::unique_ptr<std::uint64_t[]> slots;
    /** Lists in each node's directory; written under its directory
     *  lock. */
    std::unique_ptr<std::uint8_t[]> listsAt;
    /** The directories' lists. Reserved at construction, never
     *  reallocated or zeroed; entries below poolUsed (or poolEnd, after
     *  an overrun) are handed out. */
    std::unique_ptr<topo::ChannelId[]> pool;
    std::size_t poolEnd = 0;

    /** Locks, one pair per stripe. `mutex` serialises the relation
     *  calls of one destination stripe, as the relation contract asks;
     *  different stripes fill in parallel. `dirMutex` guards the
     *  directories of one node stripe. */
    static constexpr std::size_t kStripes = 64;
    struct alignas(64) Stripe
    {
        std::mutex mutex;
        std::mutex dirMutex;
        /** Rows this stripe filled. Written under the lock by load and
         *  store, so a fill spends no locked instruction on it. */
        std::atomic<std::size_t> filled{0};
    };
    std::unique_ptr<Stripe[]> stripes;

    Stripe &stripeOf(topo::NodeId dest) const
    {
        return stripes[dest % kStripes];
    }

    /** What every fill reads and bumps, kept together. */
    mutable std::atomic<Fallback> state{Fallback::None};
    /** Next free pool entry; a new list reserves its slice by
     *  fetch_add. Past poolEnd once the pool has run over. */
    mutable std::atomic<std::size_t> poolUsed{0};
};

/** The fallback's name for reports ("none", "disabled", "rows over
 *  budget", "pool over budget", "source classes failed", "directory
 *  full"). */
const char *toString(RouteTable::Fallback fallback);

} // namespace ebda::routing

#endif // EBDA_ROUTING_ROUTE_TABLE_HH
