#include "turn_model_enum.hh"

#include <algorithm>
#include <cmath>

#include "cdg/adaptivity.hh"
#include "cdg/class_map.hh"
#include "core/turns.hh"
#include "util/host_threads.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ebda::cdg {

using core::ChannelClass;
using core::makeClass;
using core::Sign;

std::vector<AbstractCycle>
abstractCycles(std::uint8_t n, const std::vector<int> &vcs)
{
    EBDA_ASSERT(vcs.size() >= n, "vcs shorter than dimensionality");
    std::vector<AbstractCycle> cycles;
    for (std::uint8_t a = 0; a < n; ++a) {
        for (std::uint8_t b = a + 1; b < n; ++b) {
            for (int va = 0; va < vcs[a]; ++va) {
                for (int vb = 0; vb < vcs[b]; ++vb) {
                    const ChannelClass ap =
                        makeClass(a, Sign::Pos,
                                  static_cast<std::uint8_t>(va));
                    const ChannelClass am =
                        makeClass(a, Sign::Neg,
                                  static_cast<std::uint8_t>(va));
                    const ChannelClass bp =
                        makeClass(b, Sign::Pos,
                                  static_cast<std::uint8_t>(vb));
                    const ChannelClass bm =
                        makeClass(b, Sign::Neg,
                                  static_cast<std::uint8_t>(vb));

                    AbstractCycle cw;
                    cw.dimA = a;
                    cw.dimB = b;
                    cw.vcA = static_cast<std::uint8_t>(va);
                    cw.vcB = static_cast<std::uint8_t>(vb);
                    cw.clockwise = true;
                    cw.turns = {{{ap, bm}, {bm, am}, {am, bp}, {bp, ap}}};
                    cycles.push_back(cw);

                    AbstractCycle ccw = cw;
                    ccw.clockwise = false;
                    ccw.turns = {{{ap, bp}, {bp, am}, {am, bm}, {bm, ap}}};
                    cycles.push_back(ccw);
                }
            }
        }
    }
    return cycles;
}

TurnModelSpace
turnModelSpace(std::uint8_t n, const std::vector<int> &vcs)
{
    TurnModelSpace space;
    space.numCycles = abstractCycles(n, vcs).size();
    space.numCombinations =
        std::pow(4.0, static_cast<double>(space.numCycles));
    return space;
}

namespace {

/**
 * The turn CDG of the whole 90-degree turn universe, compiled once in
 * CSR form over channel ids. Every edge carries the universe bit of the
 * turn it needs, or 0 when it needs none (both channels in one class:
 * straight continuation, which every turn set allows). Same-dimension
 * class changes never become edges: the explicit turn sets enumerated
 * here hold 90-degree turns only, so TurnSet::allows rejects them.
 */
struct LabelledCdg
{
    std::vector<std::uint32_t> offset;
    std::vector<topo::ChannelId> target;
    std::vector<std::uint64_t> need;

    /** True when `allowed` keeps the edge (unconditional or in mask). */
    bool
    kept(std::size_t e, std::uint64_t allowed) const
    {
        return (need[e] & allowed) == need[e];
    }
};

LabelledCdg
compileLabelledCdg(const topo::Network &net, const ClassMap &map,
                   const std::vector<std::int32_t> &turn_bit)
{
    const std::size_t nc = map.numClasses();
    LabelledCdg cdg;
    cdg.offset.reserve(net.numChannels() + 1);
    cdg.offset.push_back(0);
    for (topo::ChannelId c1 = 0; c1 < net.numChannels(); ++c1) {
        const ClassIndex k1 = map.classOf(c1);
        if (k1 != kUnclassified) {
            const topo::NodeId via = net.link(net.linkOf(c1)).dst;
            for (topo::ChannelId c2 : net.outChannels(via)) {
                const ClassIndex k2 = map.classOf(c2);
                if (k2 == kUnclassified)
                    continue;
                std::uint64_t need = 0;
                if (k1 != k2) {
                    const std::int32_t bit =
                        turn_bit[static_cast<std::size_t>(k1) * nc
                                 + static_cast<std::size_t>(k2)];
                    if (bit < 0)
                        continue; // same-dimension class change
                    need = 1ULL << bit;
                }
                cdg.target.push_back(c2);
                cdg.need.push_back(need);
            }
        }
        cdg.offset.push_back(static_cast<std::uint32_t>(cdg.target.size()));
    }
    return cdg;
}

/**
 * Kahn's algorithm over the edges `allowed` keeps. `indeg` and `order`
 * are caller-owned scratch of one entry per channel.
 */
bool
acyclicUnder(const LabelledCdg &cdg, std::uint64_t allowed,
             std::vector<std::uint32_t> &indeg,
             std::vector<topo::ChannelId> &order)
{
    const std::size_t n = cdg.offset.size() - 1;
    std::fill(indeg.begin(), indeg.end(), 0);
    for (std::size_t e = 0; e < cdg.target.size(); ++e)
        if (cdg.kept(e, allowed))
            ++indeg[cdg.target[e]];
    std::size_t tail = 0;
    for (topo::ChannelId c = 0; c < n; ++c)
        if (indeg[c] == 0)
            order[tail++] = c;
    for (std::size_t head = 0; head < tail; ++head) {
        const topo::ChannelId c = order[head];
        for (std::uint32_t e = cdg.offset[c]; e < cdg.offset[c + 1]; ++e)
            if (cdg.kept(e, allowed) && --indeg[cdg.target[e]] == 0)
                order[tail++] = cdg.target[e];
    }
    return tail == n;
}

} // namespace

TurnModelEnumResult
enumerateTurnModels(const topo::Network &net, std::size_t max_combinations,
                    unsigned threads)
{
    const std::uint8_t n = net.numDims();
    const std::vector<int> &vcs = net.vcs();
    const auto cycles = abstractCycles(n, vcs);

    // Universe of 90-degree turns and the class list; turn_bit maps a
    // class pair (k1, k2) to its universe index, -1 within a dimension.
    core::ClassList classes;
    for (std::uint8_t d = 0; d < n; ++d) {
        for (int v = 0; v < vcs[d]; ++v) {
            classes.push_back(makeClass(d, Sign::Pos,
                                        static_cast<std::uint8_t>(v)));
            classes.push_back(makeClass(d, Sign::Neg,
                                        static_cast<std::uint8_t>(v)));
        }
    }
    const std::size_t nc = classes.size();
    std::vector<std::pair<ChannelClass, ChannelClass>> universe;
    std::vector<std::int32_t> turn_bit(nc * nc, -1);
    for (std::size_t k1 = 0; k1 < nc; ++k1) {
        for (std::size_t k2 = 0; k2 < nc; ++k2) {
            if (classes[k1].dim == classes[k2].dim)
                continue;
            turn_bit[k1 * nc + k2] = static_cast<std::int32_t>(universe.size());
            universe.emplace_back(classes[k1], classes[k2]);
        }
    }
    EBDA_ASSERT(universe.size() <= 64,
                "turn universe exceeds 64 turns; enumeration unsupported");
    const auto classIndex = [&](const ChannelClass &c) {
        return static_cast<std::size_t>(
            std::find(classes.begin(), classes.end(), c) - classes.begin());
    };

    // Each cycle's turns as universe bits.
    std::vector<std::array<std::uint64_t, 4>> cycle_bits(cycles.size());
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        for (std::size_t t = 0; t < 4; ++t) {
            const auto &[from, to] = cycles[i].turns[t];
            cycle_bits[i][t] = 1ULL
                << turn_bit[classIndex(from) * nc + classIndex(to)];
        }
    }

    const std::uint64_t full_mask =
        universe.size() == 64 ? ~0ULL : (1ULL << universe.size()) - 1;
    const ClassMap map(net, classes);
    const LabelledCdg cdg = compileLabelledCdg(net, map, turn_bit);

    // 4^cycles combinations, capped at max_combinations. Combination i
    // takes choice (i / 4^c) % 4 for cycle c, so cycle 0 varies fastest
    // and a cap keeps the first combinations of that odometer order.
    std::size_t total = 1;
    for (std::size_t c = 0; c < cycles.size() && total < max_combinations;
         ++c)
        total = total > max_combinations / 4 ? max_combinations : total * 4;
    total = std::min(total, max_combinations);

    // Index ranges across the pool. Each range counts its deadlock-free
    // combinations per allowed-turn mask; the masks are few.
    ThreadPool pool(static_cast<int>(threads ? threads : hostThreads()));
    const std::size_t ranges = std::min<std::size_t>(
        total, 8 * static_cast<std::size_t>(pool.threadCount()));
    std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> found(
        ranges);
    pool.parallelFor(ranges, [&](std::size_t r) {
        const std::size_t begin = total * r / ranges;
        const std::size_t end = total * (r + 1) / ranges;
        std::vector<std::size_t> choice(cycles.size(), 0);
        for (std::size_t c = 0, rest = begin; c < cycles.size(); ++c) {
            choice[c] = rest % 4;
            rest /= 4;
        }
        std::vector<std::uint32_t> indeg(net.numChannels());
        std::vector<topo::ChannelId> order(net.numChannels());
        auto &masks = found[r];
        for (std::size_t i = begin; i < end; ++i) {
            std::uint64_t removed = 0;
            for (std::size_t c = 0; c < cycles.size(); ++c)
                removed |= cycle_bits[c][choice[c]];
            const std::uint64_t allowed_mask = full_mask & ~removed;
            if (acyclicUnder(cdg, allowed_mask, indeg, order)) {
                auto it = std::find_if(
                    masks.begin(), masks.end(),
                    [&](const auto &m) { return m.first == allowed_mask; });
                if (it == masks.end())
                    masks.emplace_back(allowed_mask, 1);
                else
                    ++it->second;
            }
            // Advance the odometer.
            for (std::size_t c = 0; c < choice.size() && ++choice[c] == 4;
                 ++c)
                choice[c] = 0;
        }
    });

    // Union the ranges' masks, then measure each distinct deadlock-free
    // set's minimal connectivity once.
    std::vector<std::pair<std::uint64_t, std::size_t>> free_sets;
    for (const auto &masks : found)
        for (const auto &[mask, count] : masks) {
            auto it = std::find_if(
                free_sets.begin(), free_sets.end(),
                [&](const auto &f) { return f.first == mask; });
            if (it == free_sets.end())
                free_sets.emplace_back(mask, count);
            else
                it->second += count;
        }
    std::vector<std::uint8_t> connected(free_sets.size(), 0);
    pool.parallelFor(free_sets.size(), [&](std::size_t k) {
        std::vector<std::pair<ChannelClass, ChannelClass>> allowed;
        for (std::size_t t = 0; t < universe.size(); ++t)
            if (free_sets[k].first & (1ULL << t))
                allowed.push_back(universe[t]);
        const core::TurnSet set = core::TurnSet::fromExplicit(classes, allowed);
        connected[k] = !measureAdaptiveness(net, map, set).disconnectedMinimal;
    });

    TurnModelEnumResult result;
    result.combinations = total;
    for (std::size_t k = 0; k < free_sets.size(); ++k) {
        result.deadlockFree += free_sets[k].second;
        if (connected[k])
            result.connected += free_sets[k].second;
    }
    result.distinctDeadlockFreeSets = free_sets.size();
    return result;
}

} // namespace ebda::cdg
