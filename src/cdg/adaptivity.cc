#include "adaptivity.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "core/channel_class.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace ebda::cdg {

using core::Sign;

namespace {

/** State key: node id in the high bits, class-set mask hashed below. */
struct StateKey
{
    topo::NodeId node;
    std::uint64_t mask;

    bool
    operator==(const StateKey &o) const
    {
        return node == o.node && mask == o.mask;
    }
};

struct StateKeyHash
{
    std::size_t
    operator()(const StateKey &k) const
    {
        std::uint64_t h = k.mask * 0x9e3779b97f4a7c15ULL;
        h ^= (h >> 29);
        h += static_cast<std::uint64_t>(k.node) * 0xbf58476d1ce4e5b9ULL;
        h ^= (h >> 32);
        return static_cast<std::size_t>(h);
    }
};

/**
 * Per-destination DP context. Counts, for a (node, possible-class-set)
 * state, how many minimal physical suffix paths to the destination are
 * realisable.
 */
class PathCounter
{
  public:
    PathCounter(const topo::Network &net, const ClassMap &map,
                const core::TurnSet &turns, topo::NodeId dest)
        : net(net), map(map), turns(turns), dest(dest)
    {
    }

    double
    count(topo::NodeId at, std::uint64_t mask)
    {
        // The mask is the set of classes the packet may occupy after
        // arriving at `at`; empty means the walk was not realisable,
        // even if it geometrically reached the destination.
        if (mask == 0)
            return 0.0;
        if (at == dest)
            return 1.0;
        const StateKey key{at, mask};
        auto it = memo.find(key);
        if (it != memo.end())
            return it->second;

        double total = 0.0;
        for (std::uint8_t d = 0; d < net.numDims(); ++d) {
            const int off = net.minimalOffset(at, dest, d);
            if (off == 0)
                continue;
            const Sign travel = off > 0 ? Sign::Pos : Sign::Neg;
            const auto link = net.linkFrom(at, d, travel);
            if (!link)
                continue;
            total += count(net.link(*link).dst,
                           nextMask(mask, *link));
        }
        memo.emplace(key, total);
        return total;
    }

    /** Possible classes after crossing the link from possible set mask. */
    std::uint64_t
    nextMask(std::uint64_t mask, topo::LinkId link)
    {
        std::uint64_t next = 0;
        for (int v = 0; v < net.vcsOnLink(link); ++v) {
            const ClassIndex k2 = map.classOf(net.channel(link, v));
            if (k2 == kUnclassified)
                continue;
            const auto bit2 = 1ULL << k2;
            if (next & bit2)
                continue;
            // Any source class in the mask that may transition to k2?
            std::uint64_t m = mask;
            while (m) {
                const int k1 = std::countr_zero(m);
                m &= m - 1;
                if (turns.allows(map.classAt(k1), map.classAt(k2))) {
                    next |= bit2;
                    break;
                }
            }
        }
        return next;
    }

  private:
    const topo::Network &net;
    const ClassMap &map;
    const core::TurnSet &turns;
    const topo::NodeId dest;
    std::unordered_map<StateKey, double, StateKeyHash> memo;
};

} // namespace

double
countMinimalPaths(const topo::Network &net, topo::NodeId src,
                  topo::NodeId dest)
{
    // Multinomial (sum |off_d|)! / prod |off_d|! computed via lgamma to
    // stay finite for large meshes. lgamma_r: std::lgamma writes the
    // global signgam, and turn enumerations measure on several threads.
    const auto log_factorial = [](int n) {
        int sign = 0;
        return ::lgamma_r(n + 1.0, &sign);
    };
    double log_paths = 0.0;
    int total = 0;
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        const int off = std::abs(net.minimalOffset(src, dest, d));
        total += off;
        log_paths -= log_factorial(off);
    }
    log_paths += log_factorial(total);
    return std::exp(log_paths);
}

AdaptivenessReport
measureAdaptiveness(const topo::Network &net,
                    const core::PartitionScheme &scheme,
                    const core::TurnExtractionOptions &opts)
{
    const ClassMap map(net, scheme);
    const core::TurnSet turns = core::TurnSet::extract(scheme, opts);
    return measureAdaptiveness(net, map, turns);
}

AdaptivenessReport
measureAdaptiveness(const topo::Network &net, const ClassMap &map,
                    const core::TurnSet &turns)
{
    EBDA_ASSERT(!net.isTorus(),
                "adaptiveness measurement requires a mesh network");
    EBDA_ASSERT(map.numClasses() <= 64,
                "class-set DP limited to 64 classes, scheme has ",
                map.numClasses());

    const std::uint64_t all_classes =
        map.numClasses() == 64 ? ~0ULL
                               : (1ULL << map.numClasses()) - 1;

    AdaptivenessReport report;
    std::size_t pairs = 0;
    double fraction_sum = 0.0;
    StatAccumulator fraction_stats;

    for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
        PathCounter counter(net, map, turns, dest);
        for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
            if (src == dest)
                continue;
            // On injection the packet may start in any class the first
            // link supports; model this as the full class set feeding
            // nextMask through the first hop inside count().
            const double allowed = counter.count(src, all_classes);
            const double total = countMinimalPaths(net, src, dest);
            const double fraction = total > 0 ? allowed / total : 0.0;

            ++pairs;
            fraction_sum += fraction;
            fraction_stats.add(fraction);
            report.minFraction = std::min(report.minFraction, fraction);
            report.totalPaths += total;
            report.allowedPaths += allowed;
            if (allowed + 0.5 < total)
                report.fullyAdaptive = false;
            if (allowed < 0.5)
                report.disconnectedMinimal = true;
        }
    }
    report.averageFraction = pairs ? fraction_sum / pairs : 1.0;
    report.fractionStddev = fraction_stats.stddev();
    return report;
}

} // namespace ebda::cdg
