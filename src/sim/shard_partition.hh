/**
 * @file
 * Spatial domain decomposition for the sharded loop
 * (sim/shard_sched.hh): split a network's nodes into contiguous
 * shards, and resolve a SimConfig::shards request to a concrete shard
 * count for one run.
 *
 * Partitions are pure functions of the topology and the shard count —
 * never of the machine — so a sharded run's results are reproducible
 * for a given (config, shard count) pair regardless of how many worker
 * threads execute the shards (sim/shard_sched.cc pins this, and
 * tests/test_shard_equiv.cc verifies it under oversubscription).
 *
 * Partition shapes, chosen to minimise cut links (every cut link costs
 * one mailbox message per boundary flit per cycle):
 *  - grid topologies (mesh / torus / partial 3D mesh): slabs along the
 *    largest dimension when its radix covers the shard count — the
 *    classic 1-D domain decomposition, cutting only the (D-1)-dimensional
 *    boundary links;
 *  - dragonfly: group-aligned slabs (node id = group * a + router, so
 *    contiguous id ranges are whole groups) — intra-group full-mesh
 *    links, the dense majority, never cross a cut;
 *  - anything else (full mesh, custom graphs): balanced contiguous
 *    chunks over a BFS order from node 0, which keeps graph
 *    neighbourhoods together without topology knowledge.
 */

#ifndef EBDA_SIM_SHARD_PARTITION_HH
#define EBDA_SIM_SHARD_PARTITION_HH

#include <cstdint>
#include <vector>

#include "topo/network.hh"

namespace ebda::sim {

/** Fabrics below this node count never shard under Auto (shards = 0):
 *  the per-cycle barrier costs more than the parallel work saves. */
inline constexpr std::size_t kAutoShardNodeCutoff = 1024;

/** Hard cap on the shard count (mailbox tables are O(shards^2) in the
 *  worst case; past this, more shards only add barrier latency). */
inline constexpr int kMaxShards = 256;

/**
 * Resolve a SimConfig::shards request to the shard count one run will
 * actually use. Returns 1 (the single-threaded serial loop) whenever
 * the sharded loop cannot run the configuration in v1:
 * fault plans and the request-reply protocol layer mutate global state
 * the shard workers do not partition, and an uncompiled route table
 * falls back to the virtual relation, which memoises internally and is
 * not safe to share across threads.
 *
 * Otherwise: an explicit request (>= 1) is clamped to
 * [1, min(numNodes, kMaxShards)]; Auto (0) engages sharding only on
 * fabrics of at least kAutoShardNodeCutoff nodes, with a count derived
 * from the fabric size alone — never from the machine — so Auto runs
 * stay pure functions of the config.
 */
int resolveShardCount(int requested, std::size_t num_nodes,
                      bool route_table_compiled, bool faults_enabled,
                      bool protocol_enabled);

/**
 * Worker threads for a run with the given shard count: the
 * EBDA_SHARD_THREADS environment variable when set, else the CPUs
 * this process may run on (hostThreads()), clamped to [1, shards]. The
 * thread count never affects results — only how the fixed shard list
 * is divided among executors.
 *
 * @throws std::invalid_argument when EBDA_SHARD_THREADS is set to
 *         anything but a whole number >= 1.
 */
unsigned shardWorkerThreads(int shards);

/**
 * Assign every node to a shard in [0, shards). Deterministic, every
 * shard non-empty (callers guarantee shards <= numNodes), and shard
 * node sets are contiguous in the partition order described above.
 */
std::vector<std::uint16_t> partitionNodes(const topo::Network &net,
                                          int shards);

} // namespace ebda::sim

#endif // EBDA_SIM_SHARD_PARTITION_HH
