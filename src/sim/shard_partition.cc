#include "sim/shard_partition.hh"

#include "util/host_threads.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ebda::sim {

int
resolveShardCount(int requested, std::size_t num_nodes,
                  bool route_table_compiled, bool faults_enabled,
                  bool protocol_enabled)
{
    if (faults_enabled || protocol_enabled || !route_table_compiled)
        return 1;
    const int cap = static_cast<int>(std::min<std::size_t>(
        num_nodes, static_cast<std::size_t>(kMaxShards)));
    if (requested >= 1)
        return std::clamp(requested, 1, cap);
    // Auto: shard only fabrics large enough to amortise the barrier,
    // with a count derived from the fabric size alone. One shard per
    // 256 nodes, up to 8: past 8 slabs the cut surface grows faster
    // than the per-shard work shrinks on the fabrics this targets.
    if (num_nodes < kAutoShardNodeCutoff)
        return 1;
    const auto s = static_cast<int>(
        std::min<std::size_t>(8, num_nodes / 256));
    return std::clamp(s, 1, cap);
}

unsigned
shardWorkerThreads(int shards)
{
    unsigned t = 0;
    if (const char *env = std::getenv("EBDA_SHARD_THREADS")) {
        const char *end = env + std::strlen(env);
        const auto [ptr, ec] = std::from_chars(env, end, t);
        if (ec != std::errc{} || ptr != end || t == 0)
            throw std::invalid_argument(
                std::string("EBDA_SHARD_THREADS='") + env
                + "': expected a whole number >= 1");
    }
    if (t == 0)
        t = hostThreads();
    return std::min(t, static_cast<unsigned>(std::max(1, shards)));
}

namespace {

/** Balanced contiguous chunks over an explicit node order. */
std::vector<std::uint16_t>
chunkByOrder(const std::vector<topo::NodeId> &order,
             std::size_t num_nodes, int shards)
{
    std::vector<std::uint16_t> shard_of(num_nodes, 0);
    const auto s = static_cast<std::size_t>(shards);
    for (std::size_t i = 0; i < order.size(); ++i)
        shard_of[order[i]] = static_cast<std::uint16_t>(
            i * s / order.size());
    return shard_of;
}

} // namespace

std::vector<std::uint16_t>
partitionNodes(const topo::Network &net, int shards)
{
    const std::size_t n = net.numNodes();
    if (shards <= 1)
        return std::vector<std::uint16_t>(n, 0);
    const auto s = static_cast<std::size_t>(shards);

    if (net.hasGrid()) {
        // Slab along the largest dimension (ties toward the lowest
        // index) when its radix covers the shard count.
        const std::vector<int> &dims = net.dims();
        std::uint8_t best = 0;
        for (std::uint8_t d = 1; d < dims.size(); ++d) {
            if (dims[d] > dims[best])
                best = d;
        }
        const auto radix = static_cast<std::size_t>(dims[best]);
        if (radix >= s) {
            std::vector<std::uint16_t> shard_of(n);
            for (topo::NodeId v = 0; v < n; ++v)
                shard_of[v] = static_cast<std::uint16_t>(
                    static_cast<std::size_t>(net.coordAlong(v, best))
                    * s / radix);
            return shard_of;
        }
    } else if (const auto shape = net.dragonflyShape()) {
        // Group-aligned slabs: node id = group * a + router, so the
        // contiguous id chunks below are whole groups when the group
        // count covers the shard count.
        const auto groups = static_cast<std::size_t>(shape->groups);
        if (groups >= s) {
            std::vector<std::uint16_t> shard_of(n);
            for (topo::NodeId v = 0; v < n; ++v) {
                const auto g = static_cast<std::size_t>(v)
                    / static_cast<std::size_t>(shape->a);
                shard_of[v] = static_cast<std::uint16_t>(
                    g * s / groups);
            }
            return shard_of;
        }
    } else {
        // BFS order from node 0 keeps graph neighbourhoods together;
        // unreachable nodes (disconnected test graphs) go last.
        std::vector<topo::NodeId> order;
        order.reserve(n);
        std::vector<std::uint8_t> seen(n, 0);
        order.push_back(0);
        seen[0] = 1;
        for (std::size_t head = 0; head < order.size(); ++head) {
            for (const topo::LinkId l : net.outLinks(order[head])) {
                const topo::NodeId to = net.link(l).dst;
                if (!seen[to]) {
                    seen[to] = 1;
                    order.push_back(to);
                }
            }
        }
        for (topo::NodeId v = 0; v < n; ++v) {
            if (!seen[v])
                order.push_back(v);
        }
        return chunkByOrder(order, n, shards);
    }

    // Fallback for grids thinner than the shard count along every
    // dimension (and undersized dragonflies): node ids are laid out
    // row-major, so contiguous id chunks stay spatially coherent.
    std::vector<std::uint16_t> shard_of(n);
    for (topo::NodeId v = 0; v < n; ++v)
        shard_of[v] =
            static_cast<std::uint16_t>(static_cast<std::size_t>(v) * s / n);
    return shard_of;
}

} // namespace ebda::sim
