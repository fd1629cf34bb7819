/**
 * @file
 * Route table: serves a RoutingRelation over its fixed Network from
 * flat rows, so steady-state route compute is array indexing instead
 * of a virtual call that recomputes the candidates.
 *
 * Every EbDa-style relation is a pure function of (input channel,
 * current node, source, destination); the current node is itself
 * determined by the input channel (the head of `in`, or the source for
 * injection queries), and the relation reads the source only through
 * its class (RoutingRelation::srcClass()), so the whole relation fits
 * in a table keyed by (in, class, dest).
 *
 * Class index: the constructor numbers the distinct srcClass() values
 * 0..K-1 in order of their first source. A source-independent relation
 * has K = 1, Odd-Even one class per source column, and a relation that
 * declares nothing one per source (K = N).
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
 *  - row(in, src, dest) = (in * K + class(src)) * N + dest, computed as
 *    in * K * N plus a per-source row offset class(src) * N, so the
 *    class costs one load that does not wait on the row;
 *  - then an injection block at C * K * N keyed (src, dest): an
 *    injection row's byte names a list in the source's own directory.
 * A directory has 255 slots, one per nonzero row byte, each the
 * {begin, len} of one list in the shared candidate pool.
 *
 * Rows come from an anonymous mmap, released with munmap: a page of
 * rows is faulted in, zeroed, only when a query first touches it. From
 * the heap, a long-lived process that has freed such a block (glibc's
 * dynamic mmap threshold then sits past the rows' size) would zero
 * every row at every setup: 7.9 MB for 16x16 Odd-Even, 7.1-8.6 ms of a
 * setup that takes 1.3 ms with mapped rows.
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
 * Source classes: a row serves every source of its class, which the
 * relation's declaration promises is sound. Before a row of a class
 * with two or more sources is stored, it is checked against another
 * source of the class, chosen by the state walk's probe rule
 * (cdg/state_walk.cc): the current node when it is another source of
 * the class, else the class's first other source bound for dest, else
 * its last. A mismatch proves the declaration false and sends the rest
 * of the run to the relation. Injection rows are keyed by the real
 * source and need no check, nor do the rows of a one-source class.
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
 * empty rows ask the relation under their stripe's lock. A fill whose
 * second source disagrees proves the rows' keying wrong: it empties
 * all rows (forgetRows()), so every later query asks the relation.
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

    /** Source classes K the rows are keyed by: 1 for a
     *  source-independent relation, N when the relation declares none
     *  (0 on a disabled table). */
    std::size_t sourceClasses() const { return numClasses; }

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
        return static_cast<std::size_t>(in) * classStride + srcRow[src]
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

    /** The second source a fill at (at, dest) by `src` is checked
     *  against: another source of src's class, or src when the class
     *  has no other source bound for dest. */
    topo::NodeId probeSource(topo::NodeId at, topo::NodeId src,
                             topo::NodeId dest) const;

    const cdg::RoutingRelation &rel;
    Options opts;
    std::size_t numNodes;
    std::size_t numChannels;

    /** K, and the rows one input channel spans: K * N. */
    std::size_t numClasses = 0;
    std::size_t classStride = 0;
    /** Per source: its class's row offset, class * N. */
    std::unique_ptr<std::size_t[]> srcRow;
    /** Per class: its first two and last two sources (kInvalidId where
     *  it has fewer), which the probe rule picks from. */
    struct ClassEnds
    {
        topo::NodeId first[2];
        topo::NodeId last[2];
    };
    std::unique_ptr<ClassEnds[]> classEnds;
    std::size_t injBase = 0;
    std::size_t numRows = 0;
    std::uint64_t compileNs = 0;

    struct Unmap
    {
        std::size_t bytes;
        void operator()(std::uint8_t *p) const;
    };
    /** An anonymous mapping (see file doc); forgetRows() stores only
     *  into rows that hold a list, so it touches no page a query never
     *  touched. */
    std::unique_ptr<std::uint8_t[], Unmap> rows;
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
