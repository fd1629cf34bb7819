/**
 * @file
 * Turn-model combinatorics (Section 2 and Section 6.1 of the paper).
 *
 * The classical turn-model design flow removes one 90-degree turn from
 * each *abstract cycle* and then verifies the remaining turn set for
 * deadlock freedom. An abstract cycle lives in a plane (d1, d2), has an
 * orientation (clockwise / counterclockwise), and — generalising to
 * virtual channels the way the paper counts — uses one VC per dimension.
 * The number of candidate combinations is 4^(#cycles):
 *   2D, 1 VC:  2 cycles ->      16 combinations;
 *   2D, 2 VC:  8 cycles ->  65,536 combinations;
 *   3D, 1 VC:  6 cycles ->   4,096 combinations
 * (the paper's prose quotes "29,696 (4^6)" for the last case; 4^6 is
 * 4,096 — the discrepancy is recorded in EXPERIMENTS.md).
 *
 * enumerateTurnModels() walks every combination and checks it against
 * the concrete Dally oracle, measuring what fraction of the design space
 * is deadlock-free and/or minimally connected — the cost EbDa's direct
 * construction avoids. The network's turn CDG over the whole 90-degree
 * universe is compiled once, each edge labelled with the turn it needs
 * (or none, for same-class continuation); a combination's verdict is
 * Kahn's algorithm over the edges its allowed-turn mask keeps, which is
 * exactly buildTurnCdg() of the explicit turn set followed by
 * isAcyclic(). Only distinct deadlock-free turn sets materialise a
 * TurnSet, to measure minimal connectivity.
 */

#ifndef EBDA_CDG_TURN_MODEL_ENUM_HH
#define EBDA_CDG_TURN_MODEL_ENUM_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/channel_class.hh"
#include "topo/network.hh"

namespace ebda::cdg {

/** One abstract cycle: the four 90-degree turns that close it. */
struct AbstractCycle
{
    /** The plane's dimensions and the VC used along each. */
    std::uint8_t dimA = 0;
    std::uint8_t dimB = 1;
    std::uint8_t vcA = 0;
    std::uint8_t vcB = 0;
    bool clockwise = true;
    /** The four turns, in traversal order. */
    std::array<std::pair<core::ChannelClass, core::ChannelClass>, 4> turns;
};

/** All abstract cycles of an n-dimensional network with the given per-
 *  dimension VC counts. */
std::vector<AbstractCycle> abstractCycles(std::uint8_t n,
                                          const std::vector<int> &vcs);

/** Size of the one-turn-per-cycle design space: cycles and 4^cycles. */
struct TurnModelSpace
{
    std::size_t numCycles = 0;
    /** 4^numCycles, as a double (overflows std::size_t quickly). */
    double numCombinations = 0.0;
};

TurnModelSpace turnModelSpace(std::uint8_t n, const std::vector<int> &vcs);

/** Outcome of exhaustively checking the design space. */
struct TurnModelEnumResult
{
    std::size_t combinations = 0;
    /** Combinations whose concrete CDG is acyclic. */
    std::size_t deadlockFree = 0;
    /** Deadlock-free combinations that also route every pair minimally. */
    std::size_t connected = 0;
    /** Distinct deadlock-free *turn sets* (several removal combinations
     *  can denote the same set when cycles share turns). */
    std::size_t distinctDeadlockFreeSets = 0;
};

/**
 * Exhaustively enumerate the design space on a verification network
 * (typically a small mesh of the matching dimensionality) and classify
 * every combination. The caller bounds the work via max_combinations;
 * enumeration stops (and `combinations` reports how many were covered)
 * when the bound is hit. The combinations are split into index ranges
 * across `threads` threads (0: hostThreads()); the ranges' distinct
 * deadlock-free sets are united and each is measured once, so the
 * result is the same for any thread count.
 */
TurnModelEnumResult enumerateTurnModels(
    const topo::Network &net, std::size_t max_combinations = 1 << 20,
    unsigned threads = 0);

} // namespace ebda::cdg

#endif // EBDA_CDG_TURN_MODEL_ENUM_HH
