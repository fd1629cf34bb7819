/**
 * @file
 * Handcrafted classical routing relations used as baselines and as
 * independent cross-checks of the EbDa-derived algorithms:
 *  - DimensionOrderRouting: XY/YX and general n-dim dimension order;
 *  - WestFirstRouting, NorthLastRouting, NegativeFirstRouting: the three
 *    unique 2D turn-model algorithms (Glass-Ni);
 *  - OddEvenRouting: Chiu's ROUTE function, exactly as published;
 *  - MinimalAdaptiveRouting: fully unrestricted minimal adaptive — the
 *    deliberately deadlock-PRONE negative control (its CDG is cyclic on
 *    any ring of turns), used to exercise the simulator's watchdog and
 *    deadlock forensics.
 *
 * All relations route minimally and may use every VC of a chosen link
 * (VC transitions along the same direction cannot close a cycle under
 * the restricted algorithms' orderings).
 */

#ifndef EBDA_ROUTING_BASELINES_HH
#define EBDA_ROUTING_BASELINES_HH

#include <vector>

#include "cdg/routing_relation.hh"

namespace ebda::routing {

/** Shared implementation scaffolding for mesh relations. */
class MeshRouting : public cdg::RoutingRelation
{
  public:
    explicit MeshRouting(const topo::Network &net);

    const topo::Network &network() const override { return net; }

    /** Every mesh baseline here ignores `src`, so every source is one
     *  class — except Odd-Even, which overrides this with its source
     *  columns. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

  protected:
    /** All VCs of the link leaving `at` along (dim, sign), appended to
     *  out. No-op when the link does not exist. */
    void appendLink(std::vector<topo::ChannelId> &out, topo::NodeId at,
                    std::uint8_t dim, core::Sign sign) const;

    /** Offset of dest from at along dim (torus-aware minimal). */
    int offset(topo::NodeId at, topo::NodeId dest, std::uint8_t d) const;

    const topo::Network &net;
};

/**
 * Deterministic dimension-order routing: resolve dimensions in the given
 * priority order ({0,1} = XY, {1,0} = YX).
 */
class DimensionOrderRouting : public MeshRouting
{
  public:
    DimensionOrderRouting(const topo::Network &net,
                          std::vector<std::uint8_t> dim_order);

    /** Convenience XY order (0, 1, ..., n-1). */
    static DimensionOrderRouting xy(const topo::Network &net);

    /** Convenience YX order (n-1, ..., 1, 0). */
    static DimensionOrderRouting yx(const topo::Network &net);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override;

  private:
    std::vector<std::uint8_t> order;
};

/** Glass-Ni West-First: route west first; no turn into the west. */
class WestFirstRouting : public MeshRouting
{
  public:
    explicit WestFirstRouting(const topo::Network &net);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "West-First"; }
};

/** Glass-Ni North-Last: go north only when nothing else is productive. */
class NorthLastRouting : public MeshRouting
{
  public:
    explicit NorthLastRouting(const topo::Network &net);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "North-Last"; }
};

/** Glass-Ni Negative-First: all negative hops before any positive hop. */
class NegativeFirstRouting : public MeshRouting
{
  public:
    explicit NegativeFirstRouting(const topo::Network &net);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "Negative-First"; }
};

/**
 * Chiu's Odd-Even minimal adaptive routing (the ROUTE function of the
 * original paper): EN/ES turns are forbidden at even columns, NW/SW
 * turns at odd columns; the availability rules below encode the dead-end
 * avoidance in closed form.
 */
class OddEvenRouting : public MeshRouting
{
  public:
    explicit OddEvenRouting(const topo::Network &net);

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "Odd-Even"; }

    /** Chiu's ROUTE reads the source only as `cur_col == src_col`, so
     *  the sources of one column share every candidate set. */
    topo::NodeId
    srcClass(topo::NodeId src) const override
    {
        return static_cast<topo::NodeId>(net.coordAlong(src, 0));
    }
};

/**
 * Fully unrestricted minimal adaptive routing: every profitable
 * dimension, every VC of the chosen link, no turn or VC restriction at
 * all. NOT deadlock-free on anything with a turn cycle (any 2D+ mesh)
 * and certainly not on a torus — this is the negative control for the
 * Dally verifier and the runtime witness generator for the simulator's
 * deadlock forensics. Works on meshes and tori.
 */
class MinimalAdaptiveRouting : public cdg::RoutingRelation
{
  public:
    explicit MinimalAdaptiveRouting(const topo::Network &net) : net(net) {}

    void candidatesInto(topo::ChannelId in, topo::NodeId at,
                        topo::NodeId src, topo::NodeId dest,
                        std::vector<topo::ChannelId> &out) const override;

    std::string name() const override { return "Minimal-Adaptive"; }

    const topo::Network &network() const override { return net; }

    /** Source-independent: every source is one class. */
    topo::NodeId srcClass(topo::NodeId) const override { return 0; }

  private:
    const topo::Network &net;
};

} // namespace ebda::routing

#endif // EBDA_ROUTING_BASELINES_HH
