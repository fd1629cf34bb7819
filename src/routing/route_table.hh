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
 * Layout (rows hold {begin, len} into one shared candidate pool, one
 * copy of the candidate list per row):
 *  - narrow: row(in, dest)       = in * N + dest, then an injection
 *    block at C * N keyed (src, dest) — injection candidates depend on
 *    the source because the source IS the current node there;
 *  - wide:   row(in, src, dest)  = (in * N + src) * N + dest, injection
 *    block at C * N * N.
 *
 * Filling: the constructor only sizes the rows. The first query of a
 * row asks the relation with the querying packet's real source and
 * stores that answer, so every row holds exactly what the virtual
 * relation returns for it and table runs are bit-identical to
 * virtual-path runs by construction. A packet only ever asks about a
 * state it occupies, so the relation is only asked about states a real
 * packet can occupy; relations may assert on the others (EbDaRouting
 * on unclassified channels, Elevator-First on phases its own packets
 * never enter). Rows nobody queries stay empty and cost no relation
 * call.
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
 * parallel. The candidate pool is reserved up front (the budget's
 * remainder, capped by what the rows could ever hold) and never
 * reallocates; a fill claims its slice with one fetch_add and publishes
 * its row with one release store, after its candidates are in the
 * pool. So the sharded loop's workers read filled rows with one acquire
 * load and no lock, and two workers asking for one empty row fill it
 * once. Nothing in the pool is ever freed: a worker still reading a
 * row reads valid memory whatever happens after it loaded the row.
 *
 * Fallbacks (fallback() names the reason; compiled() and tableBytes()
 * then read false and 0): a disabled table and rows alone over the
 * memory budget (checked before the relation is asked anything) send
 * every query to the virtual relation. Mid-run, a fill that would take
 * the pool over the budget stops filling: rows already filled stay
 * served lock-free, and queries of empty rows ask the relation under
 * their stripe's lock. A narrow fill whose second source disagrees
 * proves the rows' keying wrong: under every stripe lock it empties all
 * rows, so every later query asks the relation.
 *
 * Fault integration: the table serves the simulator's effective
 * (possibly fault-degraded) relation, so rows filled after a fault
 * event hold the degraded answer. When an event kills channels,
 * `filterDeadChannel` edits only the filled rows containing the dead
 * channel in place — via a channel -> rows reverse index built on the
 * first event and extended by every later fill — keeping the table
 * exactly equal to the degraded virtual view with no refill.
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

/** Default cap on a route table's rows + candidate pool, in bytes. */
constexpr std::uint64_t kDefaultRouteTableBudget = 64ull << 20;

/**
 * Borrowed, immutable view of one candidate list. Valid until the
 * owning table is filtered (fault event) or the scratch vector it
 * aliases on the fallback path is reused.
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
        /** Table size cap (rows + filled pool); beyond it the table
         *  falls back to the virtual relation. */
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
    };

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

    /** Bytes held by rows + filled candidate pool (0 on any fallback:
     *  which rows a sharded run filled before its pool ran over
     *  depends on thread timing). */
    std::uint64_t tableBytes() const;

    /** Rows sized (0 when never sized: disabled or over budget). */
    std::size_t rowCount() const { return numRows; }

    /** Rows filled so far (0 again after SourceClassesFailed empties
     *  them). */
    std::size_t rowsFilled() const;

    /** The memory budget the table was sized against. */
    std::uint64_t budgetBytes() const { return opts.memoryBudgetBytes; }

    /** Wall-clock nanoseconds the constructor spent sizing the rows
     *  (fills happen during the run, on first query). */
    std::uint64_t compileNanos() const { return compileNs; }

    /** Route-compute queries served so far (table or fallback). */
    std::uint64_t calls() const { return callCount; }

    /** Fold externally counted queries into calls(). The simulator's
     *  VC allocators query via candidatesViewUncounted (the mutable
     *  counter here is not thread-safe, and sharded runs have one
     *  allocator per worker shard) and tally per allocator; the
     *  simulator adds the totals back after the run so
     *  result.routeComputeCalls stays exact and deterministic. */
    void addCalls(std::uint64_t n) const { callCount += n; }

    /** The relation served (the simulator's effective relation). */
    const cdg::RoutingRelation &relation() const { return rel; }

    /**
     * The hot path. Filled row: a view into the table, no allocation.
     * Empty row: fills it (see file doc) and returns the view.
     * Fallback: fills `scratch` via the virtual relation and returns a
     * view of it — allocation-free too once `scratch` has grown to the
     * largest candidate set. A fill also asks the relation into
     * `scratch`. `dest` must differ from the current node (callers
     * eject on arrival).
     */
    CandidateSpan
    candidatesView(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &scratch) const
    {
        ++callCount;
        return candidatesViewUncounted(in, at, src, dest, scratch);
    }

    /**
     * candidatesView without the call tally — safe to invoke from
     * several threads at once (filled rows are read with one acquire
     * load, fills and post-fallback relation calls take their
     * destination's stripe lock). The caller counts queries itself and
     * folds them in via addCalls(). The fallback fills the
     * caller-provided scratch, so each thread must pass its own.
     */
    CandidateSpan
    candidatesViewUncounted(topo::ChannelId in, topo::NodeId at,
                            topo::NodeId src, topo::NodeId dest,
                            std::vector<topo::ChannelId> &scratch) const
    {
        if (rows) [[likely]] {
            const std::uint64_t r = rowRef(rowIndex(in, src, dest))
                                        .load(std::memory_order_acquire);
            if (r != kEmptyRow) [[likely]]
                return view(r);
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
     * Remove `dead` from every filled row containing it (fault event).
     * Only the affected rows are touched; the channel -> rows reverse
     * index backing this is built on the first call and extended by
     * later fills, so fault-free runs never pay for it. Rows still
     * served after a pool fallback are filtered too; unfilled rows ask
     * the degraded relation, which filters dynamically. No-op on an
     * unsized table. Not concurrent with queries: faulted runs are
     * never sharded.
     */
    void filterDeadChannel(topo::ChannelId dead);

  private:
    /** A row is {begin, len} packed as begin | len << 32. Pool entry 0
     *  is never handed out, so a filled row is never 0. */
    static constexpr std::uint64_t kEmptyRow = 0;

    /** Rows are read and published atomically: workers of the
     *  sharded loop read them while another fills. */
    std::atomic_ref<std::uint64_t>
    rowRef(std::size_t i) const
    {
        return std::atomic_ref<std::uint64_t>(rows[i]);
    }

    CandidateSpan
    view(std::uint64_t r) const
    {
        return CandidateSpan{pool.get() + static_cast<std::uint32_t>(r),
                             static_cast<std::size_t>(r >> 32)};
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

    /** The slow path of candidatesViewUncounted, under the stripe
     *  lock of `dest`: fill the row, or ask the relation once the table
     *  has fallen back. */
    CandidateSpan fillRow(topo::ChannelId in, topo::NodeId at,
                          topo::NodeId src, topo::NodeId dest,
                          std::vector<topo::ChannelId> &scratch) const;

    /** The second source a narrow fill at (at, dest) by `src` is
     *  checked against, or src when there is none. */
    topo::NodeId probeSource(topo::NodeId at, topo::NodeId src,
                             topo::NodeId dest) const;

    /** Fall back for a failed source-class check: under every stripe
     *  lock, empty every row so later queries reach fillRow, which asks
     *  the relation. */
    void dropRows() const;

    const cdg::RoutingRelation &rel;
    Options opts;
    std::size_t numNodes;
    std::size_t numChannels;

    bool wide = false;
    std::size_t injBase = 0;
    std::size_t numRows = 0;
    std::uint64_t compileNs = 0;
    mutable std::uint64_t callCount = 0;

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };
    /** calloc'd, so pages no query touches are never faulted in. */
    std::unique_ptr<std::uint64_t[], FreeDeleter> rows;
    /** Reserved at construction, never reallocated or zeroed; entries
     *  from 1 up to poolUsed (or poolEnd, after an overrun) are handed
     *  out. */
    std::unique_ptr<topo::ChannelId[]> pool;
    std::size_t poolEnd = 0;

    /** Fill locks, one per stripe of destinations. Serialises the
     *  relation calls of one destination, as the relation contract
     *  asks; different stripes fill in parallel. */
    static constexpr std::size_t kStripes = 64;
    struct alignas(64) Stripe
    {
        std::mutex mutex;
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
    /** Next free pool entry; a fill reserves its slice by fetch_add.
     *  Past poolEnd once the pool has run over. */
    mutable std::atomic<std::size_t> poolUsed{1};

    /** Guards the reverse index. */
    mutable std::mutex revMutex;
    /** channel -> ids of filled rows whose candidate list contains
     *  it; built on the first filterDeadChannel. */
    mutable std::vector<std::vector<std::uint32_t>> revIndex;
    mutable bool revBuilt = false;
};

/** The fallback's name for reports ("none", "disabled", "rows over
 *  budget", "pool over budget", "source classes failed"). */
const char *toString(RouteTable::Fallback fallback);

} // namespace ebda::routing

#endif // EBDA_ROUTING_ROUTE_TABLE_HH
