/**
 * @file
 * Routing relations derived from an EbDa partition scheme — the
 * "roadmap" of the paper turned into executable routing.
 *
 * A packet's routing state is the channel (and hence channel class) it
 * currently occupies; legal next hops are the channels whose class
 * transition is in the scheme's extracted turn set. Two modes:
 *
 *  - Mode::Minimal — candidates are restricted to productive
 *    (distance-reducing) links. Greedy legality alone can steer a packet
 *    into a dead end (e.g. an Odd-Even packet one eastward hop from an
 *    even destination column with Y offset left: the EN-at-even-column
 *    turn it would then need is prohibited). Classical algorithms encode
 *    the avoidance in closed form (Chiu's ROUTE); here it is generic:
 *    candidates are pruned to *survivors*, channels from which the
 *    destination remains reachable by minimal legal moves, via a
 *    per-destination memoised reachability pass.
 *
 *  - Mode::ShortestState — candidates are the successors lying on a
 *    shortest path to the destination in the turn-restricted channel
 *    state graph, with no minimality assumption on node distance. This
 *    handles topologies where legal paths are necessarily non-minimal:
 *    vertically partially connected 3D meshes (packets detour via
 *    elevator columns) and tori (wrap traversals are U-turns). Monotone
 *    decreasing state distance gives livelock freedom; the turn set
 *    gives deadlock freedom.
 *
 * Pruning only removes dependencies, so the Dally guarantee of the turn
 * set is preserved in both modes.
 */

#ifndef EBDA_ROUTING_EBDA_ROUTING_HH
#define EBDA_ROUTING_EBDA_ROUTING_HH

#include <cstdint>
#include <vector>

#include "cdg/class_map.hh"
#include "cdg/routing_relation.hh"
#include "core/turns.hh"

namespace ebda::routing {

/**
 * Routing relation derived from a partition scheme.
 */
class EbDaRouting : public cdg::RoutingRelation
{
  public:
    enum class Mode : std::uint8_t
    {
        /** Productive-link candidates with survivor pruning (meshes). */
        Minimal,
        /** Shortest path in the channel state graph (any topology). */
        ShortestState,
    };

    /**
     * @param net    the network routed on (must outlive the relation)
     * @param scheme a valid partition scheme for the network
     * @param opts   turn-extraction options (all theorems by default)
     * @param mode   candidate-selection mode
     */
    EbDaRouting(const topo::Network &net,
                const core::PartitionScheme &scheme,
                const core::TurnExtractionOptions &opts = {},
                Mode mode = Mode::Minimal);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override;

    const topo::Network &network() const override { return net; }

    /** Candidates depend on the occupied channel and destination only
     *  (class transitions + per-dest reachability), never the source:
     *  every source is one class. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

    /** The extracted turn set driving the relation. */
    const core::TurnSet &turnSet() const { return turns; }

    /** The channel-to-class lowering. */
    const cdg::ClassMap &classMap() const { return map; }

    /** Channel state-graph distance from channel c to dest (hops until
     *  ejection), or UINT32_MAX when unreachable. ShortestState mode. */
    std::uint32_t stateDistance(topo::ChannelId c, topo::NodeId dest) const;

  private:
    /** True when the class transition in -> ch is legal (straight moves
     *  included); injection may enter any classified channel. */
    bool legal(topo::ChannelId in, topo::ChannelId ch) const;

    /** Minimal-mode raw legality (productive link + legal transition):
     *  calls fn(ch) per raw candidate in dimension, then VC, order until
     *  fn returns true. Returns whether some call did. */
    template <typename Fn>
    bool anyRawMinimal(topo::ChannelId in, topo::NodeId at,
                       topo::NodeId dest, Fn &&fn) const;

    void minimalCandidates(topo::ChannelId in, topo::NodeId at,
                           topo::NodeId dest,
                           std::vector<topo::ChannelId> &out) const;

    void shortestStateCandidates(topo::ChannelId in, topo::NodeId at,
                                 topo::NodeId dest,
                                 std::vector<topo::ChannelId> &out) const;

    /** Minimal mode: dest reachable from channel c by minimal legal
     *  moves; memoised per destination. */
    bool survives(topo::ChannelId c, topo::NodeId dest) const;

    /** ShortestState mode: per-dest BFS distance table (lazy). */
    const std::vector<std::uint32_t> &distTable(topo::NodeId dest) const;

    const topo::Network &net;
    core::PartitionScheme scheme;
    core::TurnSet turns;
    cdg::ClassMap map;
    Mode mode;

    /** Per class k1, a bitmask over class indices k2 of the allowed
     *  transitions k1 -> k2 (the turn set, flattened): row k1 is
     *  words [k1 * maskWords, (k1 + 1) * maskWords). */
    std::vector<std::uint64_t> allowedNext;
    std::size_t maskWords = 0;

    /** Indexed by dest: per-channel survivor flags (0 unknown, 1 yes,
     *  2 no); empty until the destination is first queried. */
    mutable std::vector<std::vector<std::uint8_t>> survivors;
    /** Indexed by dest: per-channel state distance; empty until built. */
    mutable std::vector<std::vector<std::uint32_t>> distances;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_EBDA_ROUTING_HH
