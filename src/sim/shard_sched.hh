/**
 * @file
 * The sharded loop: one big simulation split across cores by spatial
 * domain decomposition. Simulator::run calls runSharded when its
 * schedule resolves to more than one shard.
 *
 * Nodes are partitioned into contiguous spatial shards
 * (sim/shard_partition.hh). Each shard owns a pipeline domain (its own
 * active sets, VcAllocator, SwitchAllocator and statistics) and runs
 * the same stage kernels as the serial loop over it: generation and
 * injection at its nodes, VC allocation for the input buffers
 * terminating there, traversal of the links leaving there, and
 * ejection. The kernels run through CutDownstream (sim/downstream.hh)
 * instead of LiveDownstream, which changes exactly three things for a
 * channel whose link crosses a shard boundary: its downstream space is
 * the sender-side credit counter, a flit sent into it is appended to a
 * mailbox, and a flit leaving its buffer returns a credit. Because each
 * concrete channel (u -> v) splits cleanly — ownership and load on the
 * u side, buffer occupancy on the v side — those flits and credits are
 * the only state that crosses a boundary. Mailboxes are preallocated
 * and double-buffered: a producer appends to the buffer of parity
 * (cycle & 1) during its cycle, the consumer drains the opposite-parity
 * buffer at the top of the next cycle, and one sense-reversing spin
 * barrier per cycle is the entire synchronisation protocol.
 *
 * What this file keeps is the decomposition itself: partitioning and
 * mailbox setup, the inbound drain, the barrier and its hook
 * (reductions and packet-pool upkeep; the watchdog and drain test are
 * the serial loop's), and the fold of per-shard state back into the
 * simulator.
 *
 * Determinism, the non-negotiable property: no shard ever reads
 * another shard's mutable state except through a drained mailbox, and
 * mailboxes are drained in ascending producer order, so the execution
 * is a pure function of (config, shard count). The worker-thread count
 * (EBDA_SHARD_THREADS, default hardware concurrency) only divides the
 * fixed shard list among executors — oversubscribed, single-threaded
 * and fully parallel runs produce identical results, which is what
 * lets tests/test_shard_equiv.cc pin sharded outputs to result digests
 * without a reference machine. Cross-shard credit visibility lags one
 * cycle (the mailbox hop), so a sharded run is a slightly different —
 * but equally valid — simulation than the serial loop; shards = 1
 * always takes the serial loop, bit for bit.
 *
 * v1 scope: fault plans, the protocol layer and route tables that
 * never sized their rows run on the serial loop (sim/shard_partition.hh documents
 * why), and so does every run whose mode resolves to Event.
 */

#ifndef EBDA_SIM_SHARD_SCHED_HH
#define EBDA_SIM_SHARD_SCHED_HH

#include <cstdint>

namespace ebda::sim {

class Simulator;
struct SimResult;

/**
 * Run `sim` over `shards` (>= 2, already resolved via
 * resolveShardCount) spatial shards: every cycle, in order, across all
 * shards, with a barrier between cycles. Sets result.wakeups and the
 * deadlock verdict and adds the shards' route queries to
 * result.routeComputeCalls; returns the final cycle.
 *
 * @throws std::invalid_argument on a malformed EBDA_SHARD_THREADS.
 */
std::uint64_t runSharded(Simulator &sim, SimResult &result, int shards);

} // namespace ebda::sim

#endif // EBDA_SIM_SHARD_SCHED_HH
