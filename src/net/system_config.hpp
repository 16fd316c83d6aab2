/**
 * @file
 * Distributed-system description (paper Sec. IV, first paragraph):
 * multiple nodes, each holding several homogeneous accelerators;
 * accelerators within a node communicate over intra-node links,
 * across nodes over inter-node links whose aggregate bandwidth
 * scales with the number of network cards per node (Case Study II).
 */

#ifndef AMPED_NET_SYSTEM_CONFIG_HPP
#define AMPED_NET_SYSTEM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "net/link.hpp"

namespace amped {
namespace net {

/**
 * A cluster of nodes with homogeneous accelerators.
 */
struct SystemConfig
{
    /** Display name ("128x8 A100 / HDR", ...). */
    std::string name = "unnamed";

    /** Number of multi-accelerator nodes, N_nodes. */
    std::int64_t numNodes = 0;

    /** Accelerators per node. */
    std::int64_t acceleratorsPerNode = 0;

    /** Intra-node link (per accelerator pair; NVLink class). */
    LinkConfig intraLink;

    /**
     * Inter-node link of a single network card (InfiniBand class or
     * one optical-fiber attachment).
     */
    LinkConfig interLink;

    /** Network cards (or fiber attachments) per node. */
    std::int64_t nicsPerNode = 1;

    /**
     * True when the inter-node links form a pooled switched fabric
     * (the photonic communication substrate of Case Study III): any
     * accelerator's traffic can use every attachment, so scattered
     * exchanges like the MoE all-to-all see the node-aggregate
     * bandwidth.  False models conventional NICs bound to specific
     * accelerators by PCIe locality, where one accelerator's
     * exchange stream rides one NIC (per-stream bandwidth).
     */
    bool interIsPooledFabric = false;

    /**
     * Validates the system description.
     * @throws UserError on the first violated constraint.
     */
    void validate() const;

    /** Total accelerator count numNodes * acceleratorsPerNode. */
    std::int64_t totalAccelerators() const;

    /** Effective intra-node bandwidth BW_intra. */
    BitsPerSecond intraBandwidth() const;

    /**
     * Aggregate per-node inter-node bandwidth: one NIC's bandwidth
     * times the NIC count.
     */
    BitsPerSecond interBandwidth() const;

    /**
     * Per-communication-stream inter-node bandwidth BW_inter: the
     * node aggregate divided by the accelerators sharing it.  This is
     * the bandwidth one accelerator's ring / all-to-all stream sees,
     * and the BW_inter every AMPeD equation uses: with one NIC per
     * accelerator (Case Studies I and II) it equals one NIC's
     * bandwidth; with one optical fiber per accelerator (Case Study
     * III, Opt. 1) it equals the accelerator's off-chip bandwidth; in
     * the larger substrate configurations (Opt. 2) it shrinks because
     * not every accelerator sits on the substrate edge.
     */
    BitsPerSecond perStreamInterBandwidth() const;

    /** Inter-node link latency C_inter. */
    Seconds interLatency() const { return interLink.latency; }

    /** Intra-node link latency C_intra. */
    Seconds intraLatency() const { return intraLink.latency; }

    /** Captures the derived link parameters (see SystemSnapshot). */
    struct SystemSnapshot snapshot() const;
};

/**
 * Immutable snapshot of every system-derived link parameter the
 * communication equations read per evaluation.  core::AmpedModel
 * captures one at construction, so its TP, PP, MoE and gradient
 * terms build no LinkConfig (a heap-allocated name string each) per
 * call; evaluate(), the sweep kernel and the optimizer's screen all
 * read it through those terms.  Every field is the bit-exact result
 * of the corresponding SystemConfig accessor.
 */
struct SystemSnapshot
{
    std::int64_t numNodes = 0;          ///< SystemConfig::numNodes.
    bool interIsPooledFabric = false;   ///< Pooled-fabric flag.
    LinkConfig intraLink;               ///< The intra-node link.
    /** {"inter-effective", interLatency(), perStreamInterBandwidth()}. */
    LinkConfig interEffective;
    /** {"inter-hop", interLatency(), interBandwidth()}. */
    LinkConfig interHop;
    Seconds interLatency;               ///< SystemConfig::interLatency().
    BitsPerSecond interBandwidth;       ///< Node-aggregate inter BW.
    BitsPerSecond perStreamInterBandwidth; ///< One stream's share.
};

namespace presets {

/** Tiny 2x2 system for unit tests (not from the paper). */
SystemConfig tinyTest();

/** NVLink2 + NVSwitch intra-node link (HGX-2 / V100 class). */
LinkConfig nvlinkV100();

/** NVLink3 intra-node link, 2.4 Tbit/s (Table IV, A100). */
LinkConfig nvlinkA100();

/** NVLink4 intra-node link, 3.6 Tbit/s (Table IV, H100). */
LinkConfig nvlinkH100();

/** PCIe 3.0 x16 link (GPipe validation, Table III). */
LinkConfig pcie3();

/** EDR InfiniBand network card: 100 Gbit/s (Case Study II). */
LinkConfig edrInfiniband();

/** HDR InfiniBand network card: 200 Gbit/s (Case Study I). */
LinkConfig hdrInfiniband();

/** NDR InfiniBand network card: 400 Gbit/s (Case Study III ref). */
LinkConfig ndrInfiniband();

/**
 * One optical-fiber attachment on a photonic communication
 * substrate (Case Study III): carries the accelerator's full
 * off-chip bandwidth with sub-microsecond latency.
 *
 * @param off_chip Per-accelerator off-chip bandwidth.
 */
LinkConfig opticalFiber(BitsPerSecond off_chip);

/**
 * HGX-2 validation node (Table I): single node, up to 16 V100s on
 * NVLink+NVSwitch.
 *
 * @param accelerators Accelerators populated in the node (1..16).
 */
SystemConfig hgx2(std::int64_t accelerators);

/**
 * Case Study I system: 128 nodes x 8 A100, NVLink3 intra, HDR
 * InfiniBand inter with 8 NICs per node.
 */
SystemConfig a100Cluster1024();

/**
 * Case Study II low-end system: @p accelerators_per_node accelerators
 * and the same number of EDR NICs per node, node count chosen to keep
 * 1024 total accelerators.
 */
SystemConfig lowEndCluster(std::int64_t accelerators_per_node);

/**
 * Case Study III reference system: 384 nodes x 8 H100, NVLink4
 * intra, 8 NDR NICs per node (3072 accelerators).
 */
SystemConfig h100Cluster3072();

} // namespace presets
} // namespace net
} // namespace amped

#endif // AMPED_NET_SYSTEM_CONFIG_HPP
