#include "routing/route_table.hh"

#include <chrono>

#include "cdg/state_walk.hh"

namespace ebda::routing {

RouteTable::RouteTable(const cdg::RoutingRelation &relation,
                       Options options)
    : rel(relation), opts(options),
      numNodes(relation.network().numNodes()),
      numChannels(relation.network().numChannels())
{
    if (!opts.enable)
        return;
    const auto t0 = std::chrono::steady_clock::now();
    compiledFlag = fill();
    if (!compiledFlag) {
        rows.clear();
        rows.shrink_to_fit();
        pool.clear();
        pool.shrink_to_fit();
        bytes = 0;
    }
    compileNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

bool
RouteTable::fill()
{
    // One source class collapses the source axis; more compile
    // per-source rows.
    for (topo::NodeId src = 1; src < numNodes && !wide; ++src)
        wide = rel.srcClass(src) != rel.srcClass(0);
    const std::size_t chanRows = wide
        ? numChannels * numNodes * numNodes
        : numChannels * numNodes;
    injBase = chanRows;
    const std::size_t rowCount = chanRows + numNodes * numNodes;
    const std::uint64_t rowBytes =
        static_cast<std::uint64_t>(rowCount) * sizeof(Row);
    // Before the walk: an over-budget table asks the relation nothing.
    if (rowBytes > opts.memoryBudgetBytes)
        return false;
    rows.assign(rowCount, Row{});

    // Row r holds the channels of `states`, state indices of g.
    const auto store = [&](const cdg::StateGraph &g, std::size_t r,
                           std::span<const std::uint32_t> states) {
        rows[r].begin = static_cast<std::uint32_t>(pool.size());
        rows[r].len = static_cast<std::uint32_t>(states.size());
        for (const std::uint32_t i : states)
            pool.push_back(g.channel[i]);
    };
    bool fits = true;
    cdg::ReplayScratch replay;
    // The one-thread walk: sweep workers compile their tables at once.
    const bool held = cdg::walkStateGraphs(rel, [&](const cdg::StateGraph &g) {
        // Once the pool is over budget the rest of the walk stores
        // nothing.
        if (!fits)
            return;
        for (std::size_t k = 0; k < g.sources.size(); ++k) {
            const topo::NodeId src = g.sources[k];
            store(g, rowIndex(cdg::kInjectionChannel, src, g.dest),
                  g.injection(k));
            if (!wide)
                continue;
            // Packets eject on arrival; their rows are never queried.
            g.replay(k, replay, [&](std::uint32_t i) {
                if (!g.ejects[i])
                    store(g, rowIndex(g.channel[i], src, g.dest),
                          g.candidates(i));
            });
        }
        if (!wide)
            for (std::size_t i = 0; i < g.size(); ++i)
                if (!g.ejects[i])
                    store(g, rowIndex(g.channel[i], 0, g.dest),
                          g.candidates(i));
        bytes = rowBytes
            + static_cast<std::uint64_t>(pool.size())
                * sizeof(topo::ChannelId);
        fits = bytes <= opts.memoryBudgetBytes;
    });
    return held && fits;
}

void
RouteTable::candidatesInto(topo::ChannelId in, topo::NodeId at,
                           topo::NodeId src, topo::NodeId dest,
                           std::vector<topo::ChannelId> &out) const
{
    ++callCount;
    if (compiledFlag) {
        const Row r = rows[rowIndex(in, src, dest)];
        out.assign(pool.begin() + r.begin,
                   pool.begin() + r.begin + r.len);
    } else {
        rel.candidatesInto(in, at, src, dest, out);
    }
}

void
RouteTable::buildReverseIndex()
{
    revIndex.assign(numChannels, {});
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (std::uint32_t k = 0; k < rows[r].len; ++k)
            revIndex[pool[rows[r].begin + k]].push_back(
                static_cast<std::uint32_t>(r));
    revBuilt = true;
}

void
RouteTable::filterDeadChannel(topo::ChannelId dead)
{
    if (!compiledFlag)
        return;
    if (!revBuilt)
        buildReverseIndex();
    if (dead >= revIndex.size())
        return;
    // In-row compaction: entries keep their relative order, matching
    // the order-preserving remove_if of FaultedRelationView exactly.
    for (const std::uint32_t r : revIndex[dead]) {
        Row &row = rows[r];
        std::uint32_t keep = 0;
        for (std::uint32_t k = 0; k < row.len; ++k) {
            const topo::ChannelId c = pool[row.begin + k];
            if (c != dead)
                pool[row.begin + keep++] = c;
        }
        row.len = keep;
    }
}

} // namespace ebda::routing
