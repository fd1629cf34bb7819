#include "routing/route_table.hh"

#include <chrono>

namespace ebda::routing {

namespace {

/** The node the head flits of channel c arrive at. */
topo::NodeId
headOf(const topo::Network &net, topo::ChannelId c)
{
    return net.link(net.linkOf(c)).dst;
}

} // namespace

RouteTable::RouteTable(const cdg::RoutingRelation &relation,
                       Options options)
    : rel(relation), opts(options),
      numNodes(relation.network().numNodes()),
      numChannels(relation.network().numChannels())
{
    if (!opts.enable || !rel.probeSafe())
        return;
    const auto t0 = std::chrono::steady_clock::now();
    // Independent relations collapse the source axis; Dependent and
    // Unknown compile per-source rows, which assume nothing about the
    // relation and so need no detection pass.
    wide = rel.srcSensitivity() != cdg::SrcSensitivity::Independent;
    FillOutcome outcome = fill();
    if (outcome == FillOutcome::SrcMismatch) {
        // The Independent declaration failed its sample check: widen
        // instead of compiling a corrupt table.
        wide = true;
        rows.clear();
        pool.clear();
        outcome = fill();
    }
    compiledFlag = outcome == FillOutcome::Ok;
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

RouteTable::FillOutcome
RouteTable::fill()
{
    const topo::Network &net = rel.network();
    const std::size_t chanRows = wide
        ? numChannels * numNodes * numNodes
        : numChannels * numNodes;
    injBase = chanRows;
    const std::size_t rowCount = chanRows + numNodes * numNodes;
    const std::uint64_t rowBytes =
        static_cast<std::uint64_t>(rowCount) * sizeof(Row);
    if (rowBytes > opts.memoryBudgetBytes)
        return FillOutcome::OverBudget;
    rows.assign(rowCount, Row{});
    bytes = rowBytes;

    // Candidate buffers reused by every probe: `cand` holds the row
    // being stored, `probe` a cross-source spot check.
    std::vector<topo::ChannelId> cand;
    std::vector<topo::ChannelId> probe;
    const auto store = [&](std::size_t r) {
        rows[r].begin = static_cast<std::uint32_t>(pool.size());
        rows[r].len = static_cast<std::uint32_t>(cand.size());
        pool.insert(pool.end(), cand.begin(), cand.end());
        bytes = rowBytes
            + static_cast<std::uint64_t>(pool.size())
                * sizeof(topo::ChannelId);
        return bytes <= opts.memoryBudgetBytes;
    };

    // Reachability frontier, restarted per BFS pass without clearing:
    // seen[c] == stamp marks c visited in the current pass.
    std::vector<std::uint32_t> seen(numChannels, 0);
    std::uint32_t stamp = 0;
    std::vector<topo::ChannelId> frontier;
    const auto push = [&] {
        for (const topo::ChannelId c : cand) {
            if (seen[c] != stamp) {
                seen[c] = stamp;
                frontier.push_back(c);
            }
        }
    };

    if (!wide) {
        // One pass per destination, seeded by every source's injection
        // candidates (the relation ignores the source, so the channels
        // a dest-bound packet can occupy are this union).
        std::size_t spotTick = 0;
        const topo::NodeId probes[] = {
            0, static_cast<topo::NodeId>(numNodes / 2),
            static_cast<topo::NodeId>(numNodes - 1)};
        for (topo::NodeId dest = 0; dest < numNodes; ++dest) {
            ++stamp;
            frontier.clear();
            for (topo::NodeId src = 0; src < numNodes; ++src) {
                if (src == dest)
                    continue; // traffic never self-addresses
                rel.candidatesInto(cdg::kInjectionChannel, src, src, dest,
                                   cand);
                if (!store(rowIndex(cdg::kInjectionChannel, src, dest)))
                    return FillOutcome::OverBudget;
                push();
            }
            for (std::size_t i = 0; i < frontier.size(); ++i) {
                const topo::ChannelId in = frontier[i];
                const topo::NodeId at = headOf(net, in);
                // Packets eject on arrival; the row is never queried.
                if (at == dest)
                    continue;
                rel.candidatesInto(in, at, at, dest, cand);
                if (!store(rowIndex(in, at, dest)))
                    return FillOutcome::OverBudget;
                // Trust but verify: sample the Independent declaration
                // on reachable states only (unreachable probes may
                // trip relation invariant asserts).
                if ((spotTick++ & 15u) == 0) {
                    for (const topo::NodeId s : probes) {
                        if (s == at)
                            continue;
                        rel.candidatesInto(in, at, s, dest, probe);
                        if (probe != cand)
                            return FillOutcome::SrcMismatch;
                    }
                }
                push();
            }
        }
        return FillOutcome::Ok;
    }

    // Wide: one pass per (src, dest) — every probed (in, src, dest) is
    // a state some real packet can occupy, by induction from injection.
    for (topo::NodeId src = 0; src < numNodes; ++src) {
        for (topo::NodeId dest = 0; dest < numNodes; ++dest) {
            if (dest == src)
                continue; // traffic never self-addresses
            ++stamp;
            frontier.clear();
            rel.candidatesInto(cdg::kInjectionChannel, src, src, dest,
                               cand);
            if (!store(rowIndex(cdg::kInjectionChannel, src, dest)))
                return FillOutcome::OverBudget;
            push();
            for (std::size_t i = 0; i < frontier.size(); ++i) {
                const topo::ChannelId in = frontier[i];
                const topo::NodeId at = headOf(net, in);
                if (at == dest)
                    continue;
                rel.candidatesInto(in, at, src, dest, cand);
                if (!store(rowIndex(in, src, dest)))
                    return FillOutcome::OverBudget;
                push();
            }
        }
    }
    return FillOutcome::Ok;
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
