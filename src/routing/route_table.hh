/**
 * @file
 * Route-table compiler: flattens a RoutingRelation over its fixed
 * Network into a CSR table so steady-state route compute is array
 * indexing instead of a virtual call that recomputes the candidates.
 *
 * Every EbDa-style relation is a pure function of (input channel,
 * current node, source, destination); the current node is itself
 * determined by the input channel (the head of `in`, or the source for
 * injection queries), so the whole relation fits in a table keyed by
 * (in, dest) — widened to (in, src, dest) when the relation's sources
 * fall into more than one class (RoutingRelation::srcClass(), e.g.
 * Odd-Even's source columns). Candidate *contents and order* are
 * exactly what the virtual relation returns, which is what keeps
 * compiled runs bit-identical to virtual-path runs.
 *
 * Layout (rows hold {begin, len} into one shared candidate pool, one
 * copy of the candidate list per row):
 *  - narrow: row(in, dest)       = in * N + dest, then an injection
 *    block at C * N keyed (src, dest) — injection candidates depend on
 *    the source because the source IS the current node there;
 *  - wide:   row(in, src, dest)  = (in * N + src) * N + dest, injection
 *    block at C * N * N.
 *
 * Filling: the rows come from the state graphs of the checkers' walk
 * (cdg/state_walk.hh), so the relation is asked only about states a
 * real packet can occupy, with a real source of the state's class.
 * That matters — relations guard their reachable-state invariants with
 * asserts (EbDaRouting panics on unclassified channels, Elevator-First
 * on phases its own packets never enter). Unreachable rows stay empty
 * and are never queried at runtime (a packet can only occupy a channel
 * some filled row offered, by induction from injection). A narrow table
 * stores each graph state's candidates once per (in, dest); a wide one
 * replays each source's closure over the graph and stores a row per
 * (in, src, dest) it meets.
 *
 * Fallbacks, all to the virtual relation, with tableBytes() == 0: a
 * disabled table; rows alone over the memory budget (checked before the
 * relation is asked anything); rows plus pool over the budget; and
 * declared source classes that failed the walk's spot check (the table
 * is not compiled from a declaration found false).
 *
 * Fault integration: the table is compiled over the simulator's
 * effective (possibly fault-degraded) relation. When a fault event
 * kills channels, `filterDeadChannel` edits only the rows containing
 * the dead channel in place — via a lazily built channel -> rows
 * reverse index — keeping the table exactly equal to the degraded
 * virtual view with no recompile.
 */

#ifndef EBDA_ROUTING_ROUTE_TABLE_HH
#define EBDA_ROUTING_ROUTE_TABLE_HH

#include <cstdint>
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
 * A compiled routing relation. Construct once per (Network, relation);
 * query via candidatesView (zero-allocation when compiled) or
 * candidatesInto.
 */
class RouteTable
{
  public:
    struct Options
    {
        /** Compile at all; false forces the virtual fallback. */
        bool enable = true;
        /** Table size cap (rows + pool); beyond it the table falls
         *  back to the virtual relation. */
        std::uint64_t memoryBudgetBytes = kDefaultRouteTableBudget;
    };

    RouteTable(const cdg::RoutingRelation &relation, Options options);

    explicit RouteTable(const cdg::RoutingRelation &relation)
        : RouteTable(relation, Options())
    {
    }

    /** True when queries are served from the table; false on the
     *  virtual fallback (disabled, over budget, or source classes that
     *  failed their spot check). */
    bool compiled() const { return compiledFlag; }

    /** True when the table was widened to per-source rows. */
    bool perSource() const { return wide; }

    /** Bytes held by rows + candidate pool (0 when not compiled). */
    std::uint64_t tableBytes() const { return bytes; }

    /** Wall-clock nanoseconds spent walking + filling the table. */
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

    /** The relation compiled (the simulator's effective relation). */
    const cdg::RoutingRelation &relation() const { return rel; }

    /**
     * The hot path. Compiled: returns a view into the table, no
     * allocation. Fallback: fills `scratch` via the virtual relation
     * and returns a view of it — allocation-free too once `scratch`
     * has grown to the largest candidate set. `at` is only consulted on the
     * fallback; `dest` must differ from the current node (callers
     * eject on arrival).
     */
    CandidateSpan
    candidatesView(topo::ChannelId in, topo::NodeId at, topo::NodeId src,
                   topo::NodeId dest,
                   std::vector<topo::ChannelId> &scratch) const
    {
        ++callCount;
        if (compiledFlag) {
            const Row r = rows[rowIndex(in, src, dest)];
            return CandidateSpan{pool.data() + r.begin, r.len};
        }
        rel.candidatesInto(in, at, src, dest, scratch);
        return CandidateSpan{scratch.data(), scratch.size()};
    }

    /**
     * candidatesView without the call tally — safe to invoke from
     * several threads at once on a compiled table (pure reads). The
     * caller counts queries itself and folds them in via addCalls().
     * The virtual fallback fills the caller-provided scratch, so each
     * thread must pass its own.
     */
    CandidateSpan
    candidatesViewUncounted(topo::ChannelId in, topo::NodeId at,
                            topo::NodeId src, topo::NodeId dest,
                            std::vector<topo::ChannelId> &scratch) const
    {
        if (compiledFlag) {
            const Row r = rows[rowIndex(in, src, dest)];
            return CandidateSpan{pool.data() + r.begin, r.len};
        }
        rel.candidatesInto(in, at, src, dest, scratch);
        return CandidateSpan{scratch.data(), scratch.size()};
    }

    /** Copy the candidate list into `out` (cold paths that keep it). */
    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const;

    /**
     * Remove `dead` from every row containing it (fault event). Only
     * the affected rows are touched; the channel -> rows reverse index
     * backing this is built lazily on the first call, so fault-free
     * runs never pay for it. No-op on the fallback path (the degraded
     * virtual relation filters dynamically).
     */
    void filterDeadChannel(topo::ChannelId dead);

  private:
    struct Row
    {
        std::uint32_t begin = 0;
        std::uint32_t len = 0;
    };

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

    /** Fill every reachable row from the state walk. False when the
     *  table is over budget or the source classes failed their spot
     *  check. */
    bool fill();

    void buildReverseIndex();

    const cdg::RoutingRelation &rel;
    Options opts;
    std::size_t numNodes;
    std::size_t numChannels;

    bool wide = false;
    bool compiledFlag = false;
    std::size_t injBase = 0;
    std::uint64_t bytes = 0;
    std::uint64_t compileNs = 0;
    mutable std::uint64_t callCount = 0;

    std::vector<Row> rows;
    std::vector<topo::ChannelId> pool;

    /** channel -> ids of rows whose candidate list contains it. */
    std::vector<std::vector<std::uint32_t>> revIndex;
    bool revBuilt = false;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_ROUTE_TABLE_HH
