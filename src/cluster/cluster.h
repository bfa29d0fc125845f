#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/net.h"
#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/crc32c.h"
#include "storage/fault_injector.h"
#include "storage/retry.h"
#include "tensor/buffer.h"

/// A deterministic simulated multi-node erasure-coded cluster — the
/// repository's object store: the "real storage system" integration
/// target the paper's future work calls for (§8). Objects are striped
/// over k data + r parity units, encoded through the GEMM-backed Codec,
/// and placed across nodes with rotation. A short stripe stores only the
/// data units that carry bytes and its r parities: its other data units
/// are padding, known zeros with no stored copy, which every reader
/// treats as present (Cluster::stored() is the one rule). Each node owns
/// a local unit store; every unit that moves between endpoints moves
/// over the modeled Network (so traffic, latency, and link faults are
/// accounted), and every local disk op consults the shared FaultInjector
/// (so disk and wire chaos replay from one seed). Each unit's CRC-32C
/// checksum lives in the object metadata only, computed once from the
/// intended bytes when the unit is written; a node stores bare bytes.
/// Every read, scrub and reconstruction is checked against that
/// metadata checksum, so corruption is caught before bytes are returned
/// or stored. The defaults (one failure domain) give a single-rack
/// store; the network model only adds virtual time.
///
/// Robustness features:
///  - stripe placement across failure domains (a stripe's n units spread
///    over min(n, num_domains) domains, so one domain outage costs at
///    most ceil(n/domains) units per stripe)
///  - degraded reads: dead/slow/corrupt units detected per-RPC (timeout
///    == retry exhaustion under storage::RetryPolicy) are decoded on
///    the client from the helpers plan_helpers() picks
///  - hedged reads: a per-node EWMA latency tracker arms a hedge budget;
///    a straggling read past multiplier x EWMA requests the helper the
///    same rule adds for losing it, and the modeled completion takes the
///    faster path (the recovered bytes are identical either way —
///    asserted against metadata CRCs)
///
/// Besides whole-object put/get, read_unit() and write_unit() address
/// one unit of a stored stripe: the block operations of
/// cluster/raid_array.h, whose small writes patch parity in place.
///
/// Repair (DAG-based, partial aggregation at helpers) lives in
/// cluster/repair.h; Cluster::scrub_stripe() and Cluster::repair() drive
/// it, and cluster/scrubber.h walks scrub_stripe() incrementally.
///
/// Single-threaded: one call at a time. The cluster owns one n-unit
/// stripe buffer that put(), get() and read_unit() stage through, so no
/// call allocates or zero-fills a stripe of its own.
namespace tvmec::cluster {

class RepairCoordinator;
struct RepairConfig;
struct RepairStats;
class Membership;

/// Where a damage event came from — every path that discovers lost
/// redundancy names itself, so the healer's queue statistics decompose
/// by discovery channel.
enum class DamageKind {
  MissedHeartbeats,  ///< membership marked the stripe's node Dead
  ReadCorruption,    ///< CRC-corrupt or missing unit hit by a client read
  WriteFailure,      ///< a put() or write_unit() could not store a unit
  ScrubFinding,      ///< the integrity pass found a bad unit
  Revive,            ///< a revived node lost units; re-replicate them
  Rejoin,            ///< membership saw a Dead node ack again
  Requeue,           ///< a repair attempt aborted; re-assessed and retried
};

const char* to_string(DamageKind k) noexcept;

/// Consumer of damage events (the Healer). Non-owning observer: the
/// cluster reports (object, stripe) pairs that lost redundancy the
/// moment the loss is *discovered* — a CRC failure inside a degraded
/// read, a failed unit store, a scrub finding, a revive — instead of
/// leaving them for the next full-scan repair_all() walk. Only stored
/// units can be lost: a node that holds nothing of a stripe but its
/// padding costs that stripe no redundancy and raises no event.
///
/// report_damage runs inside the cluster call that found the damage,
/// while that call's stripe buffer is live: it must not re-enter the
/// cluster's put(), get(), read_unit() or write_unit(). The one
/// implementer, the Healer, only enqueues (re-assessing a parked
/// stripe's node-local health at most).
class DamageSink {
 public:
  virtual ~DamageSink() = default;
  virtual void report_damage(DamageKind kind, const std::string& name,
                             std::size_t stripe) = 0;
};

/// Hedged-read policy. The per-node EWMA (weight 0.2) is over delivered
/// read latencies; hedging stays off for a node until it has min_samples.
struct HedgeConfig {
  double multiplier = 3.0;     ///< budget = multiplier * EWMA
  std::uint32_t min_samples = 8;
};

/// Members all have defaults, so `{.num_nodes = N}` is a complete
/// one-domain config.
struct ClusterConfig {
  std::size_t num_nodes = 0;
  std::size_t num_domains = 1;
  NetConfig net = {};
  storage::RetryPolicy retry = {};
  HedgeConfig hedge = {};
  std::uint64_t seed = 0xC1457;  ///< network jitter stream
};

struct ClusterStats {
  std::size_t objects = 0;
  std::size_t stripes_written = 0;
  std::size_t small_write_patches = 0;  ///< write_unit()s served by a
                                        ///< parity patch
  std::size_t full_stripe_writes = 0;   ///< write_unit()s that re-encoded
                                        ///< the stripe
  std::size_t degraded_reads = 0;   ///< stripes that needed reconstruction
  std::size_t hedged_reads = 0;     ///< hedge requests issued
  std::size_t hedge_wins = 0;       ///< hedged path beat the straggler
  std::size_t corruptions_detected = 0;
  std::size_t units_repaired = 0;   ///< units rebuilt by repair()/scrub()
  std::size_t failed_nodes = 0;
  std::size_t units_lost_on_revive = 0;  ///< units a revived node came back
                                         ///< without (re-replication debt)
  std::size_t damage_events = 0;    ///< events emitted to the DamageSink
  std::uint64_t read_virtual_us = 0;  ///< summed modeled stripe-read latency
  std::uint64_t write_virtual_us = 0;
};

/// Outcome of scrubbing one stripe (Cluster::scrub_stripe), aggregated
/// by cluster::Scrubber.
struct StripeScrubResult {
  std::size_t units_verified = 0;  ///< units whose copy passed its CRC
  std::size_t crc_errors = 0;      ///< units whose checksum disagreed
  std::size_t units_lost = 0;      ///< stored units missing or corrupt
  std::size_t units_repaired = 0;  ///< units rewritten with good bytes
  bool unrecoverable = false;      ///< > r units lost/corrupt: left as-is
};

class Cluster {
 public:
  /// num_nodes must be >= k + r (distinct nodes per stripe). unit_size
  /// follows the codec contract (positive multiple of w bytes).
  Cluster(const ec::CodeParams& params, std::size_t unit_size,
          const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ec::CodeParams& params() const noexcept { return params_; }
  std::size_t unit_size() const noexcept { return unit_size_; }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_domains() const noexcept { return net_.num_domains(); }
  std::size_t domain_of(std::size_t node) const noexcept {
    return net_.domain_of(node);
  }

  Network& net() noexcept { return net_; }
  const Network& net() const noexcept { return net_; }
  core::Codec& codec() noexcept { return codec_; }

  /// Attaches the one fault injector to both the disk ops and the
  /// network links. Non-owning; null detaches.
  void attach_fault_injector(storage::FaultInjector* injector) noexcept {
    injector_ = injector;
    net_.attach_fault_injector(injector);
  }
  storage::FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  void set_retry_policy(const storage::RetryPolicy& policy) noexcept {
    retry_ = policy;
  }
  const storage::RetryPolicy& retry_policy() const noexcept { return retry_; }
  const storage::RetryStats& retry_stats() const noexcept {
    return retry_stats_;
  }

  /// Shares a decode-plan cache across degraded reads, the repair
  /// coordinator (whose plans are also keyed by their survivor
  /// preference), and any other consumers. Null detaches.
  void set_plan_cache(std::shared_ptr<core::PlanCache> cache);
  const std::shared_ptr<core::PlanCache>& plan_cache() const noexcept {
    return codec_.plan_cache();
  }

  /// Stores an object: stripes of k*unit_size bytes, encoded, units
  /// shipped over the network to their placed nodes. A short last stripe
  /// encodes only the c data units that carry bytes (the last one
  /// zero-filled past the object's end), and ships, checksums and stores
  /// only those c units and the r parities: its k - c padding units have
  /// no stored copy. Its metadata records c as the stripe's carried
  /// units and keeps a node for every one of the n units, so the
  /// placement rotation is the same whatever the stripe carries.
  void put(const std::string& name, std::span<const std::uint8_t> bytes);

  /// Retrieves an object; reads degrade through survivors and hedge
  /// around stragglers. Each stripe read fetches only its carried data
  /// units; a short stripe's padding has no stored copy, so its holder
  /// going down neither degrades the get nor is reported, and a lost
  /// carried unit is swapped for one parity. Returns nullopt for unknown
  /// names; throws std::runtime_error when a stripe is past recovery.
  std::optional<std::vector<std::uint8_t>> get(const std::string& name);

  bool exists(const std::string& name) const;
  void remove(const std::string& name);

  /// Reads unit `unit` of stripe `stripe` through get()'s stripe read
  /// (retries, faults, CRC against metadata, hedging). A missing or
  /// corrupt unit is rebuilt from its helpers alone. A padding unit
  /// returns unit_size() zeros with no fetch and no damage report.
  /// Throws std::invalid_argument on an unknown object, stripe or unit,
  /// and std::runtime_error when the stripe is past recovery.
  std::vector<std::uint8_t> read_unit(const std::string& name,
                                      std::size_t stripe, std::size_t unit);

  /// Replaces data unit `unit` of a stored stripe in place. When the old
  /// unit and all r parities read clean this is the RAID small write:
  /// the parities are patched with the delta (1 + r reads, 1 + r
  /// writes; a padding unit's old bytes are known zeros, so only the r
  /// parities are read). Otherwise the stripe is read degraded and
  /// re-encoded, and every stored unit is stored on the node that
  /// already holds it. The metadata CRCs of every unit written are set
  /// before the first store, so a failed or torn store is caught like
  /// any other corruption. A write into padding raises the stripe's
  /// carried units to unit + 1 and stores a zero unit for each padding
  /// unit below it, so data units [0, carried) stay stored, later reads
  /// fetch the unit and decodes use its bytes. Padding whose node went
  /// down cost nothing, so no repair moved it: each unit the write
  /// starts storing goes where repair would rebuild it (place_units:
  /// its own node when usable, else a spare). Throws
  /// std::invalid_argument on an unknown object or stripe, a parity
  /// unit id or a size other than unit_size(), and std::runtime_error
  /// when the stripe is past recovery, or when a unit the write starts
  /// storing finds no live node and more than r stored units would be
  /// unreachable; that refusal reads and changes nothing.
  void write_unit(const std::string& name, std::size_t stripe,
                  std::size_t unit, std::span<const std::uint8_t> bytes);

  /// Marks a node failed and drops its units (a dead machine).
  void fail_node(std::size_t node);
  /// Replacement hardware: the node rejoins empty; injector crash state
  /// for it is cleared, and a crash no operation observed yet still
  /// takes the node's contents with it. The units it held are its
  /// re-replication debt: each affected stripe is reported to the
  /// DamageSink (kind Revive) and counted in units_lost_on_revive, so a
  /// rejoin triggers rebuilding what was lost instead of silently
  /// rejoining empty.
  void revive_node(std::size_t node);
  /// Ground truth: the machine is physically down (explicitly failed, or
  /// the injector crashed it); false for an out-of-range id. The
  /// simulation uses this to decide how I/O *behaves*; routing decisions
  /// should use node_usable() instead, which consults the failure
  /// detector when one is attached.
  bool node_failed(std::size_t node) const;
  /// The routing view: should reads/repair treat this node as holding
  /// usable units right now? Without a Membership attached this is the
  /// omniscient !node_failed(). With one attached, the injector peek is
  /// replaced by the detector's verdict — a node is unusable when the
  /// cluster itself observed it fail, or when membership says Dead.
  bool node_usable(std::size_t node) const;

  /// Failure detector consumed by node_usable(). Non-owning; null
  /// detaches (back to the omniscient view).
  void set_membership(Membership* membership) noexcept {
    membership_ = membership;
  }
  Membership* membership() const noexcept { return membership_; }

  /// Damage-event consumer (the Healer). Non-owning; null detaches.
  /// With a sink attached, scrub() routes findings through the sink
  /// instead of repairing inline.
  void set_damage_sink(DamageSink* sink) noexcept { damage_sink_ = sink; }
  DamageSink* damage_sink() const noexcept { return damage_sink_; }

  /// Every (object, stripe) with a stored unit on `node` — the stripes a
  /// Dead verdict for that node puts at risk. A stripe whose unit on
  /// `node` is padding is not listed.
  std::vector<std::pair<std::string, std::size_t>> stripes_on_node(
      std::size_t node) const;

  /// Foreground (client get/put) payload bytes moved since the last
  /// call; the healer's load-aware deferral reads and resets this.
  std::uint64_t take_foreground_bytes() noexcept {
    const std::uint64_t b = foreground_bytes_;
    foreground_bytes_ = 0;
    return b;
  }

  /// Nodes holding each unit of object `name`'s stripe `s` (n entries).
  /// Throws std::invalid_argument on unknown object/stripe.
  const std::vector<std::size_t>& placement(const std::string& name,
                                            std::size_t s) const;
  std::size_t object_stripe_count(const std::string& name) const;
  std::vector<std::string> object_names() const;
  /// Cursor helpers for resumable scrub passes (objects iterate in name
  /// order): the first object named >= / > `name`, if any.
  std::optional<std::string> object_at_or_after(const std::string& name) const;
  std::optional<std::string> object_after(const std::string& name) const;

  /// Test/chaos hook: flips one byte of a stored unit, checksum left
  /// stale. Returns false when the unit has no copy on a live node
  /// (padding has none).
  bool corrupt_unit(const std::string& name, std::size_t stripe,
                    std::size_t unit);

  /// DAG-based repair of everything lost or corrupt (see repair.h).
  /// Returns units rebuilt. Unrecoverable stripes are skipped.
  std::size_t repair();
  /// Integrity check of one stripe: each stored unit is CRC-checked on
  /// its own node against the metadata checksum (no payload crosses the
  /// network); padding has no copy and is not checked or counted. A
  /// stripe with missing or corrupt stored units is reported to the
  /// damage sink (kind ScrubFinding) when one is attached, and repaired
  /// inline through the DAG otherwise. There is no parity re-encode:
  /// every rebuilt unit is verified against its metadata CRC, so a wrong
  /// parity can only refuse a read, never return wrong bytes. Throws
  /// std::invalid_argument on an unknown object or stripe index.
  StripeScrubResult scrub_stripe(const std::string& name, std::size_t s);
  /// scrub_stripe over every stripe. Returns the stored units found
  /// missing or corrupt (units_lost, summed over stripes).
  std::size_t scrub();

  RepairCoordinator& repairer() noexcept { return *repairer_; }
  void set_repair_config(const RepairConfig& config);
  const RepairStats& repair_stats() const;

  const ClusterStats& stats() const noexcept { return stats_; }
  /// Current EWMA read latency for a node (0 until sampled).
  double node_ewma_us(std::size_t node) const;

 private:
  friend class RepairCoordinator;

  struct Node {
    bool failed = false;
    /// Stored bytes per (object, stripe, unit); their checksum is the
    /// metadata's unit_crcs entry.
    std::map<std::tuple<std::string, std::size_t, std::size_t>,
             std::vector<std::uint8_t>>
        units;
    /// Unit keys held when the node was marked failed — the
    /// re-replication debt a later revive owes (see revive_node).
    std::vector<std::tuple<std::string, std::size_t, std::size_t>> lost_units;
  };
  struct StripeLocation {
    /// Node per unit, n entries; a padding unit's node is reserved for
    /// it (no other unit of the stripe is placed there) but holds nothing.
    std::vector<std::size_t> nodes;
    /// Checksum of each stored unit's intended contents, n entries; a
    /// padding unit's entry is set when write_unit() stores it.
    std::vector<std::uint32_t> unit_crcs;
    /// Leading data units that may hold non-zero bytes: put() sets
    /// ceil(bytes / unit_size) (k for a full stripe), and write_unit()
    /// raises it past a unit it writes into padding. Data units
    /// [carried, k) are padding: known zeros with no stored copy.
    std::size_t carried = 0;
  };
  struct ObjectMeta {
    std::size_t size = 0;
    std::vector<StripeLocation> stripes;
  };

  /// The one padding rule: true when unit u of the stripe has a stored
  /// copy (a carried data unit, u < carried, or a parity, u >= k). Every
  /// reader asks it; a unit without one is padding, which is never
  /// fetched, shipped, checksummed, erased or rebuilt.
  bool stored(const StripeLocation& loc, std::size_t u) const noexcept {
    return u < loc.carried || u >= params_.k;
  }

  /// Where each of `units` (unit ids of the stripe, in order) is hosted
  /// when written: its own node when usable, else a spare — the first
  /// usable node of the holder's failure domain, else the first usable
  /// node, never one holding a unit of the stripe or picked for an
  /// earlier entry. nullopt for a unit with neither. The one placement
  /// rule of repair and of write_unit() into padding.
  std::vector<std::optional<std::size_t>> place_units(
      const StripeLocation& loc, const std::vector<std::size_t>& units) const;

  enum class UnitRead { Ok, Missing, Corrupt };

  /// One unit read with retries: disk faults, then CRC verification
  /// against metadata (one re-read on mismatch). With `latency_us` it is
  /// a client RPC: the payload crosses the network node -> client, a
  /// dropped response is retried, and *latency_us receives the modeled
  /// response latency. Null is a repair helper's node-local read. Each
  /// attempt copies the stored bytes straight into dest and applies read
  /// faults there, so on Ok dest holds the verified unit_size_ bytes; on
  /// any other result its contents are unspecified.
  UnitRead fetch_unit(const std::string& name, const StripeLocation& loc,
                      std::size_t s, std::size_t u, std::uint8_t* dest,
                      std::uint64_t* latency_us);

  /// Ships `src` over the network and persists it as unit u on its
  /// node (write faults apply). False when the unit could not be stored.
  bool store_unit(const std::string& name, const StripeLocation& loc,
                  std::size_t s, std::size_t u, const std::uint8_t* src);

  /// Reads the carried data units of stripe s, or only unit `only`,
  /// into `stripe` (n units) with degradation + hedging, and accumulates
  /// modeled latency. A unit that cannot be read is decoded from the
  /// helpers plan_helpers adds (rooted at the client), re-planned around
  /// each fetch that fails. On return the units read hold their bytes;
  /// padding holds zeros and a parity its bytes only when a plan read
  /// it. Every other unit keeps whatever the buffer held.
  void read_stripe(const std::string& name, const ObjectMeta& meta,
                   std::size_t s, std::span<std::uint8_t> stripe,
                   std::optional<std::size_t> only = std::nullopt);

  /// Codec::plan's plan and the stored survivors it reads (helpers).
  struct HelperPlan {
    std::shared_ptr<const ec::DecodePlan> decode;
    std::vector<std::size_t> helpers;
  };

  /// The one helper rule, which reads, the hedge and repair all ask:
  /// the plan that rebuilds units `lost`. A unit not lost is a candidate
  /// when it is padding, in `in_hand` (n flags), or stored on a usable
  /// node not in `avoid` (a flag per node; empty flags none), ranked
  /// padding (never fetched), in hand, the root endpoint's domain, then
  /// by domain. The ranking is Codec::plan's preference. nullopt when
  /// the candidates cannot recover the loss. A read's root is the
  /// client, a repair's the node receiving the rebuild.
  std::optional<HelperPlan> plan_helpers(const StripeLocation& loc,
                                         const std::vector<std::size_t>& lost,
                                         const std::vector<bool>& in_hand,
                                         const std::vector<bool>& avoid,
                                         std::size_t root) const;

  void update_ewma(std::size_t node, std::uint64_t latency_us);
  void mark_node_failed(std::size_t node);
  /// Emits a damage event when a sink is attached (no-op otherwise).
  void report_damage(DamageKind kind, const std::string& name,
                     std::size_t stripe);

  ec::CodeParams params_;
  std::size_t unit_size_;
  ClusterConfig config_;
  core::Codec codec_;
  Network net_;
  std::vector<Node> nodes_;
  std::map<std::string, ObjectMeta> objects_;
  ClusterStats stats_;
  std::size_t next_rotation_ = 0;
  storage::FaultInjector* injector_ = nullptr;
  storage::RetryPolicy retry_;
  storage::RetryStats retry_stats_;
  struct Ewma {
    double value = 0.0;
    std::uint32_t samples = 0;
  };
  std::vector<Ewma> ewma_;
  std::unique_ptr<RepairCoordinator> repairer_;
  Membership* membership_ = nullptr;
  DamageSink* damage_sink_ = nullptr;
  std::uint64_t foreground_bytes_ = 0;
  /// The one n-unit stripe buffer put(), get() and read_unit() stage
  /// through; 64-byte aligned, so the encode reads it in place.
  tensor::AlignedBuffer<std::uint8_t> stripe_buf_;
};

}  // namespace tvmec::cluster
