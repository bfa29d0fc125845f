#include "cluster/repair.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/gemm_coder.h"

namespace tvmec::cluster {

namespace {

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

/// Pipelining granularity on the wire: a transfer moves in chunks of at
/// most this many bytes, each retried on its own.
constexpr std::size_t kChunkBytes = 64 * 1024;

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

}  // namespace

std::size_t RepairPlan::hops() const noexcept {
  // Every non-aggregator helper sends one hop to its domain aggregator;
  // every aggregator sends one hop to the root. Final distribution to
  // replacement nodes other than the root is accounted at execution.
  return helpers.size();
}

RepairCoordinator::RepairCoordinator(Cluster& cluster,
                                     const RepairConfig& config)
    : cluster_(cluster), config_(config) {}

std::vector<std::size_t> RepairCoordinator::pick_replacements(
    const Cluster::StripeLocation& loc, std::vector<std::size_t>& erased) {
  const auto hosts = cluster_.place_units(loc, erased);
  std::vector<std::size_t> picks;
  std::vector<std::size_t> placed;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (!hosts[i]) continue;  // stays erased until a revive
    picks.push_back(*hosts[i]);
    placed.push_back(erased[i]);
  }
  erased = std::move(placed);
  return picks;
}

std::optional<RepairPlan> RepairCoordinator::build_plan(
    const Cluster::StripeLocation& loc, const std::vector<std::size_t>& erased,
    const std::vector<bool>& excluded, std::size_t root_node) {
  const auto picked =
      cluster_.plan_helpers(loc, erased, {}, excluded, root_node);
  if (!picked) return std::nullopt;

  RepairPlan out;
  out.erased = erased;
  out.decode = picked->decode;
  out.root_node = root_node;
  const std::vector<std::size_t>& survivors = picked->decode->survivors;
  for (const std::size_t uid : picked->helpers) {
    const std::size_t node = loc.nodes[uid];
    const auto column = static_cast<std::size_t>(
        std::find(survivors.begin(), survivors.end(), uid) -
        survivors.begin());
    out.helpers.push_back({uid, node, cluster_.domain_of(node), column});
  }
  for (const auto& h : out.helpers) {
    const auto it =
        std::find(out.domains.begin(), out.domains.end(), h.domain);
    if (it == out.domains.end()) {
      out.domains.push_back(h.domain);
      out.aggregators.push_back(h.node);
    }
  }
  return out;
}

bool RepairCoordinator::transfer(std::size_t src, std::size_t dst,
                                 std::size_t bytes, std::uint64_t salt,
                                 std::uint64_t* serialized_us) {
  std::size_t off = 0;
  std::size_t index = 0;
  while (off < bytes) {
    const std::size_t take = std::min(kChunkBytes, bytes - off);
    const bool ok = storage::with_retries(
        cluster_.retry_, cluster_.retry_stats_,
        fnv_mix(salt, index), [&]() {
          const SendResult r = cluster_.net_.send(src, dst, take);
          *serialized_us += r.latency_us;
          return r.delivered ? storage::Attempt::Success
                             : storage::Attempt::Retry;
        });
    if (!ok) return false;
    off += take;
    ++index;
  }
  return true;
}

bool RepairCoordinator::execute_attempt(
    const std::string& name, const Cluster::StripeLocation& loc,
    std::size_t s, const RepairPlan& plan,
    std::vector<std::vector<std::uint8_t>>& recovered, RepairReport& report,
    std::size_t* failed_node) {
  *failed_node = kNoNode;
  const std::size_t e = plan.erased.size();
  const std::size_t unit = cluster_.unit_size_;
  const gf::Matrix& recovery = plan.decode->recovery;
  const std::uint64_t root_in_before =
      cluster_.net_.ingress_bytes(plan.root_node);

  // One e-unit aggregate buffer per helper domain, XOR-accumulated.
  std::vector<std::vector<std::uint8_t>> agg(
      plan.domains.size(), std::vector<std::uint8_t>(e * unit, 0));
  std::vector<std::uint64_t> agg_ingress_us(plan.domains.size(), 0);

  std::vector<std::uint8_t> unit_buf(unit);
  std::vector<std::uint8_t> partial(e * unit);
  for (const auto& helper : plan.helpers) {
    // Local read at the helper (disk faults + CRC, retried).
    if (cluster_.fetch_unit(name, loc, s, helper.unit, unit_buf.data(),
                            nullptr) != Cluster::UnitRead::Ok) {
      *failed_node = helper.node;
      return false;
    }
    // The helper's slice of the recovery matrix: an e x 1 coefficient
    // column, lowered through the same bitmatrix->GEMM path as every
    // other coding op and applied zero-copy to its local unit.
    gf::Matrix column(recovery.field(), e, 1);
    for (std::size_t i = 0; i < e; ++i)
      column.set(i, 0, recovery.at(i, helper.column));
    core::GemmCoder coder(column);
    const std::uint8_t* in_ptr = unit_buf.data();
    std::vector<std::uint8_t*> out_ptrs(e);
    for (std::size_t i = 0; i < e; ++i) out_ptrs[i] = partial.data() + i * unit;
    const core::ScatteredCoderItem item{{&in_ptr, 1}, out_ptrs, unit};
    coder.apply_scattered({&item, 1});

    const std::size_t d = static_cast<std::size_t>(
        std::find(plan.domains.begin(), plan.domains.end(), helper.domain) -
        plan.domains.begin());
    if (helper.node != plan.aggregators[d]) {
      // Ship the partial one (intra-domain) hop. Duplicate deliveries
      // are idempotent: the aggregator folds each helper's partial in
      // exactly once, however many copies arrive.
      std::uint64_t ser = 0;
      if (!transfer(helper.node, plan.aggregators[d], e * unit,
                    storage::FaultInjector::key(name, s, helper.unit),
                    &ser)) {
        *failed_node = helper.node;
        return false;
      }
      agg_ingress_us[d] += ser;
      ++report.hops;
    }
    xor_into(agg[d].data(), partial.data(), e * unit);
  }

  // Cross-domain stage: each domain aggregate crosses to the root, whose
  // ingress link serializes the arrivals.
  std::vector<std::uint8_t> total(e * unit, 0);
  std::uint64_t root_ingress_us = 0;
  for (std::size_t d = 0; d < plan.domains.size(); ++d) {
    std::uint64_t ser = 0;
    if (!transfer(plan.aggregators[d], plan.root_node, e * unit,
                  storage::FaultInjector::key(name, s, 500 + d), &ser)) {
      *failed_node = plan.aggregators[d];
      return false;
    }
    root_ingress_us += ser;
    ++report.hops;
    xor_into(total.data(), agg[d].data(), e * unit);
  }

  // Pipelined makespan: intra-domain aggregation overlaps the root's
  // ingress chunk by chunk, so the modeled wall-clock follows the
  // bottleneck stage plus a pipeline fill (see DESIGN.md).
  const std::uint64_t stage1 =
      agg_ingress_us.empty()
          ? 0
          : *std::max_element(agg_ingress_us.begin(), agg_ingress_us.end());
  std::uint64_t makespan = std::max(stage1, root_ingress_us) +
                           2 * cluster_.net_.config().base_latency_us;

  // GF-linearity delivered the decode: total == recovery * survivors,
  // byte-identical to decoding at the root. Verify against the metadata
  // checksums before anything is persisted.
  recovered.assign(e, std::vector<std::uint8_t>(unit));
  for (std::size_t i = 0; i < e; ++i) {
    std::memcpy(recovered[i].data(), total.data() + i * unit, unit);
    if (storage::crc32c(recovered[i]) != loc.unit_crcs[plan.erased[i]]) {
      *failed_node = kNoNode;  // nothing to exclude; re-plan retries clean
      return false;
    }
  }
  report.makespan_us += makespan;
  report.root_ingress_bytes +=
      cluster_.net_.ingress_bytes(plan.root_node) - root_in_before;
  return true;
}

bool RepairCoordinator::execute_naive(
    const std::string& name, const Cluster::StripeLocation& loc,
    std::size_t s, const std::vector<std::size_t>& erased,
    std::optional<Cluster::HelperPlan> plan, std::size_t root_node,
    std::vector<std::vector<std::uint8_t>>& recovered,
    RepairReport& report) {
  const std::size_t n = cluster_.params_.n();
  const std::size_t unit = cluster_.unit_size_;
  const std::uint64_t root_in_before = cluster_.net_.ingress_bytes(root_node);

  // Haul each helper, a whole stored unit, to the root; a helper that
  // fails is avoided and the plan re-made. Padding survivors are the
  // zeros `stripe` starts with, never fetched or shipped. The root's
  // ingress link serializes every transfer — the star-topology cost the
  // DAG exists to avoid.
  tensor::AlignedBuffer<std::uint8_t> stripe(n * unit);
  std::vector<bool> in_hand(n, false);
  std::vector<bool> avoid(cluster_.nodes_.size(), false);
  std::uint64_t root_ingress_us = 0;
  const auto fetch = [&](std::size_t uid) {
    if (in_hand[uid]) return true;
    std::uint64_t ser = 0;
    in_hand[uid] =
        cluster_.fetch_unit(name, loc, s, uid, stripe.data() + uid * unit,
                            nullptr) == Cluster::UnitRead::Ok &&
        transfer(loc.nodes[uid], root_node, unit,
                 storage::FaultInjector::key(name, s, 2000 + uid), &ser);
    if (!in_hand[uid]) {
      avoid[loc.nodes[uid]] = true;
      return false;
    }
    root_ingress_us += ser;
    ++report.hops;
    return true;
  };
  while (plan && !std::ranges::all_of(plan->helpers, fetch))
    plan = cluster_.plan_helpers(loc, erased, in_hand, avoid, root_node);
  if (!plan) return false;

  cluster_.codec_.decode(stripe.span(), *plan->decode, unit);
  recovered.clear();
  for (const std::size_t uid : erased) {
    const std::uint8_t* const bytes = stripe.data() + uid * unit;
    recovered.emplace_back(bytes, bytes + unit);
    if (storage::crc32c(recovered.back()) != loc.unit_crcs[uid]) return false;
  }
  report.makespan_us += root_ingress_us +
                        2 * cluster_.net_.config().base_latency_us;
  report.root_ingress_bytes +=
      cluster_.net_.ingress_bytes(root_node) - root_in_before;
  return true;
}

RepairReport RepairCoordinator::repair_stripe(const std::string& name,
                                              std::size_t s) {
  const auto oit = cluster_.objects_.find(name);
  if (oit == cluster_.objects_.end() || s >= oit->second.stripes.size())
    throw std::invalid_argument(
        "RepairCoordinator::repair_stripe: unknown object/stripe");
  Cluster::StripeLocation& loc = oit->second.stripes[s];

  RepairReport report;
  std::vector<std::size_t> erased = assess_stripe(name, s, loc);
  if (erased.empty()) {
    report.completed = true;
    return report;
  }

  const NetStats net_before = cluster_.net_.stats();
  const auto links_before = cluster_.net_.link_bytes_map();

  // Persists `recovered` (CRC-verified) onto the replacement nodes,
  // shipping each unit root -> replacement when they differ; updates
  // placement metadata. Returns false when a replacement dies receiving
  // its unit (the outer loop then re-plans — re-assessment drops any
  // units already persisted).
  const auto store_recovered =
      [&](const std::vector<std::size_t>& erased,
          const std::vector<std::size_t>& replacements, std::size_t root,
          std::vector<std::vector<std::uint8_t>>& recovered) {
        for (std::size_t i = 0; i < erased.size(); ++i) {
          const std::size_t uid = erased[i];
          const std::size_t target = replacements[i];
          if (target != root) {
            std::uint64_t ser = 0;
            if (!transfer(root, target, cluster_.unit_size_,
                          storage::FaultInjector::key(name, s, 3000 + uid),
                          &ser))
              return false;
            ++report.hops;
            report.makespan_us += ser;
          }
          // Verified against loc.unit_crcs already; nothing to re-CRC.
          std::vector<std::uint8_t> bytes = std::move(recovered[i]);
          if (cluster_.injector_ != nullptr &&
              !cluster_.injector_->on_write(
                  target, storage::FaultInjector::key(name, s, uid),
                  bytes)) {
            cluster_.mark_node_failed(target);
            return false;
          }
          cluster_.nodes_[target].units[{name, s, uid}] = std::move(bytes);
          loc.nodes[uid] = target;
          ++report.units_repaired;
          ++stats_.units_repaired;
          ++cluster_.stats_.units_repaired;
        }
        return true;
      };

  std::vector<bool> excluded(cluster_.nodes_.size(), false);
  std::size_t replans = 0;
  bool completed = false;
  bool any_attempt = false;

  while (config_.dag_enabled) {
    erased = assess_stripe(name, s, loc);
    const auto replacements = pick_replacements(loc, erased);
    if (erased.empty()) {
      // Nothing left that a live node can host: after an attempt, a
      // re-planned pass found earlier partial stores finished the job;
      // before any, nothing was placeable (abandoned below).
      completed = any_attempt;
      break;
    }
    const auto plan =
        build_plan(loc, erased, excluded, replacements[0]);
    if (!plan) break;  // unrecoverable, or too few helpers not excluded

    ++stats_.attempts_started;
    any_attempt = true;
    std::size_t failed_node = kNoNode;
    std::vector<std::vector<std::uint8_t>> recovered;
    if (execute_attempt(name, loc, s, *plan, recovered, report,
                        &failed_node) &&
        store_recovered(erased, replacements, plan->root_node,
                        recovered)) {
      ++stats_.attempts_completed;
      completed = true;
      break;
    }
    // Mid-DAG failure: discard partials (nothing half-aggregated
    // survives), exclude the dead helper, re-plan.
    if (failed_node != kNoNode) excluded[failed_node] = true;
    ++report.replans;
    if (replans < config_.max_replans) {
      ++stats_.attempts_replanned;
      ++replans;
      continue;
    }
    // Out of re-plan budget: this attempt is superseded by the naive
    // plan (still a re-plan for the identity).
    ++stats_.attempts_replanned;
    break;
  }

  if (!completed) {
    erased = assess_stripe(name, s, loc);
    const auto replacements = pick_replacements(loc, erased);
    if (erased.empty()) {
      completed = any_attempt;
    } else if (auto plan = cluster_.plan_helpers(loc, erased, {}, {},
                                                 replacements[0])) {
      ++stats_.attempts_started;
      any_attempt = true;
      std::vector<std::vector<std::uint8_t>> recovered;
      if (execute_naive(name, loc, s, erased, std::move(plan),
                        replacements[0], recovered, report) &&
          store_recovered(erased, replacements, replacements[0],
                          recovered)) {
        ++stats_.attempts_completed;
        ++stats_.naive_fallbacks;
        report.used_naive = true;
        completed = true;
      } else {
        ++stats_.attempts_abandoned;
      }
    }
  }
  if (!completed && !any_attempt) {
    // A damaged stripe we could not even plan for: account it so every
    // repair request shows up in the identity.
    ++stats_.attempts_started;
    ++stats_.attempts_abandoned;
  }

  const NetStats net_after = cluster_.net_.stats();
  report.bytes_on_wire = net_after.bytes_sent - net_before.bytes_sent;
  report.cross_domain_bytes =
      net_after.cross_domain_bytes - net_before.cross_domain_bytes;
  std::uint64_t max_link = 0;
  for (const auto& [link, bytes] : cluster_.net_.link_bytes_map()) {
    const auto it = links_before.find(link);
    const std::uint64_t before = it == links_before.end() ? 0 : it->second;
    max_link = std::max(max_link, bytes - before);
  }
  report.max_link_bytes = max_link;
  stats_.bytes_on_wire += report.bytes_on_wire;
  stats_.cross_domain_bytes += report.cross_domain_bytes;
  stats_.hops += report.hops;
  stats_.makespan_us_total += report.makespan_us;

  report.completed = completed;
  if (completed && report.units_repaired > 0) ++stats_.stripes_repaired;
  return report;
}

std::size_t RepairCoordinator::repair_all() {
  std::size_t units = 0;
  for (const auto& name : cluster_.object_names()) {
    const std::size_t stripes = cluster_.object_stripe_count(name);
    for (std::size_t s = 0; s < stripes; ++s)
      units += repair_stripe(name, s).units_repaired;
  }
  return units;
}

StripeHealth RepairCoordinator::stripe_health(const std::string& name,
                                              std::size_t s) {
  StripeHealth h;
  const auto oit = cluster_.objects_.find(name);
  if (oit == cluster_.objects_.end() || s >= oit->second.stripes.size())
    return h;
  h.exists = true;
  h.erased = assess_stripe(name, s, oit->second.stripes[s]).size();
  h.survivors = cluster_.params_.n() - h.erased;
  return h;
}

std::optional<RepairPlan> RepairCoordinator::plan_stripe(
    const std::string& name, std::size_t s) {
  const auto oit = cluster_.objects_.find(name);
  if (oit == cluster_.objects_.end() || s >= oit->second.stripes.size())
    return std::nullopt;
  const Cluster::StripeLocation& loc = oit->second.stripes[s];
  std::vector<std::size_t> erased = assess_stripe(name, s, loc);
  const auto replacements = pick_replacements(loc, erased);
  if (erased.empty()) return std::nullopt;
  return build_plan(loc, erased, {}, replacements[0]);
}

std::vector<std::size_t> RepairCoordinator::assess_stripe(
    const std::string& name, std::size_t s,
    const Cluster::StripeLocation& loc) {
  std::vector<std::size_t> erased;
  for (std::size_t u = 0; u < loc.nodes.size(); ++u) {
    if (!cluster_.stored(loc, u)) continue;  // padding: never lost
    const std::size_t node = loc.nodes[u];
    bool bad = !cluster_.node_usable(node);
    if (!bad) {
      const auto it = cluster_.nodes_[node].units.find({name, s, u});
      bad = it == cluster_.nodes_[node].units.end() ||
            storage::crc32c(it->second) != loc.unit_crcs[u];
    }
    if (bad) erased.push_back(u);
  }
  return erased;
}

}  // namespace tvmec::cluster
