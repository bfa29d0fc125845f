#include "cluster/cluster.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "cluster/membership.h"
#include "cluster/repair.h"

namespace tvmec::cluster {

const char* to_string(DamageKind k) noexcept {
  switch (k) {
    case DamageKind::MissedHeartbeats:
      return "missed-heartbeats";
    case DamageKind::ReadCorruption:
      return "read-corruption";
    case DamageKind::WriteFailure:
      return "write-failure";
    case DamageKind::ScrubFinding:
      return "scrub-finding";
    case DamageKind::Revive:
      return "revive";
    case DamageKind::Rejoin:
      return "rejoin";
    case DamageKind::Requeue:
      return "requeue";
  }
  return "?";
}

Cluster::Cluster(const ec::CodeParams& params, std::size_t unit_size,
                 const ClusterConfig& config)
    : params_(params),
      unit_size_(unit_size),
      config_(config),
      codec_(params),
      net_(config.num_nodes, config.num_domains, config.net, config.seed),
      nodes_(config.num_nodes),
      retry_(config.retry),
      ewma_(config.num_nodes),
      stripe_buf_(params.n() * unit_size) {
  ec::packet_bytes(params, unit_size);  // validates unit_size
  if (config.num_nodes < params.n())
    throw std::invalid_argument(
        "Cluster: need at least k + r nodes for distinct placement");
  repairer_ = std::make_unique<RepairCoordinator>(*this);
}

Cluster::~Cluster() = default;

void Cluster::set_plan_cache(std::shared_ptr<core::PlanCache> cache) {
  codec_.set_plan_cache(std::move(cache));
}

void Cluster::set_repair_config(const RepairConfig& config) {
  repairer_->set_config(config);
}

const RepairStats& Cluster::repair_stats() const {
  return repairer_->stats();
}

void Cluster::put(const std::string& name,
                  std::span<const std::uint8_t> bytes) {
  remove(name);
  const std::size_t k = params_.k;
  const std::size_t n = params_.n();
  const std::size_t stripe_data = k * unit_size_;
  const std::size_t num_stripes =
      bytes.empty() ? 0 : (bytes.size() + stripe_data - 1) / stripe_data;

  ObjectMeta meta;
  meta.size = bytes.size();
  // Every stored byte is rewritten per stripe: the carried data by the
  // copy below (the last carried unit's tail by the fill), the parity by
  // encode. The buffer still holds the previous call's bytes, which
  // nothing reads past the carried units.
  std::uint8_t* const stripe = stripe_buf_.data();
  std::vector<std::size_t> failed_stripes;
  for (std::size_t s = 0; s < num_stripes; ++s) {
    // Place this stripe's n units on consecutive nodes from a rotating
    // start: with domain_of(i) == i % D, consecutive node ids round-robin
    // the failure domains, so the stripe spreads over min(n, D) domains.
    StripeLocation loc;
    loc.nodes.resize(n);
    const std::size_t start = next_rotation_++;
    for (std::size_t u = 0; u < n; ++u)
      loc.nodes[u] = (start + u) % nodes_.size();

    const std::size_t off = s * stripe_data;
    const std::size_t take = std::min(stripe_data, bytes.size() - off);
    // The first `carried` data units hold the stripe's bytes; a short
    // stripe's others are padding, which encode skips and no node stores.
    const std::size_t carried = (take + unit_size_ - 1) / unit_size_;
    std::memcpy(stripe, bytes.data() + off, take);
    std::memset(stripe + take, 0, carried * unit_size_ - take);
    codec_.encode({stripe, carried * unit_size_},
                  {stripe + stripe_data, (n - k) * unit_size_}, unit_size_);

    loc.carried = carried;
    loc.unit_crcs.resize(n);
    bool stripe_ok = true;
    for (std::size_t u = 0; u < n; ++u) {
      if (!stored(loc, u)) continue;
      const std::uint8_t* const unit = stripe + u * unit_size_;
      loc.unit_crcs[u] = storage::crc32c({unit, unit_size_});
      stripe_ok &= store_unit(name, loc, s, u, unit);
    }
    if (!stripe_ok) failed_stripes.push_back(s);
    meta.stripes.push_back(std::move(loc));
    ++stats_.stripes_written;
  }
  objects_[name] = std::move(meta);
  stats_.objects = objects_.size();
  // Write failures become damage events only once the object metadata is
  // registered — the healer re-assesses the stripe through objects_.
  for (const std::size_t s : failed_stripes)
    report_damage(DamageKind::WriteFailure, name, s);
  foreground_bytes_ += bytes.size();
}

std::optional<std::vector<std::uint8_t>> Cluster::get(
    const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return std::nullopt;
  const ObjectMeta& meta = it->second;
  std::vector<std::uint8_t> out;
  out.reserve(meta.size);
  const std::size_t stripe_data = params_.k * unit_size_;
  for (std::size_t s = 0; s < meta.stripes.size(); ++s) {
    read_stripe(name, meta, s, stripe_buf_.span());
    const std::size_t take = std::min(stripe_data, meta.size - out.size());
    out.insert(out.end(), stripe_buf_.data(), stripe_buf_.data() + take);
  }
  out.resize(meta.size);
  foreground_bytes_ += out.size();
  return out;
}

bool Cluster::exists(const std::string& name) const {
  return objects_.contains(name);
}

void Cluster::remove(const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return;
  for (std::size_t s = 0; s < it->second.stripes.size(); ++s) {
    const auto& loc = it->second.stripes[s];
    for (std::size_t u = 0; u < loc.nodes.size(); ++u)
      if (stored(loc, u)) nodes_[loc.nodes[u]].units.erase({name, s, u});
  }
  objects_.erase(it);
  stats_.objects = objects_.size();
}

std::vector<std::uint8_t> Cluster::read_unit(const std::string& name,
                                             std::size_t stripe,
                                             std::size_t unit) {
  const auto it = objects_.find(name);
  if (it == objects_.end() || stripe >= it->second.stripes.size() ||
      unit >= params_.n())
    throw std::invalid_argument(
        "Cluster::read_unit: unknown object/stripe/unit");
  const ObjectMeta& meta = it->second;
  std::vector<std::uint8_t> out(unit_size_);
  if (!stored(meta.stripes[stripe], unit)) return out;  // padding: zeros
  read_stripe(name, meta, stripe, stripe_buf_.span(), unit);
  std::memcpy(out.data(), stripe_buf_.data() + unit * unit_size_, unit_size_);
  foreground_bytes_ += unit_size_;
  return out;
}

void Cluster::write_unit(const std::string& name, std::size_t stripe,
                         std::size_t unit,
                         std::span<const std::uint8_t> bytes) {
  const auto it = objects_.find(name);
  if (it == objects_.end() || stripe >= it->second.stripes.size())
    throw std::invalid_argument("Cluster::write_unit: unknown object/stripe");
  if (unit >= params_.k)
    throw std::invalid_argument(
        "Cluster::write_unit: not a data unit (parity is derived)");
  if (bytes.size() != unit_size_)
    throw std::invalid_argument("Cluster::write_unit: bytes must be one unit");
  const std::size_t k = params_.k;
  const std::size_t n = params_.n();
  StripeLocation& loc = it->second.stripes[stripe];

  // A write into padding starts storing data units [loc.carried,
  // carried). Their holders may have gone down at no cost, so each goes
  // where repair would rebuild it; a unit left with no live node would
  // be a new loss, refused when it takes the stripe past r.
  const std::size_t carried = std::max(loc.carried, unit + 1);
  std::vector<std::size_t> raised;
  for (std::size_t u = loc.carried; u < carried; ++u) raised.push_back(u);
  const auto hosts = place_units(loc, raised);
  std::size_t unplaced = 0;
  for (const auto& host : hosts) unplaced += !host.has_value();
  if (unplaced > 0) {
    std::size_t unreachable = unplaced;
    for (std::size_t u = 0; u < n; ++u)
      unreachable += stored(loc, u) && !node_usable(loc.nodes[u]);
    if (unreachable > params_.r)
      throw std::runtime_error(
          "Cluster::write_unit: stripe would be unrecoverable (more than "
          "r stored units unreachable)");
  }

  std::vector<std::uint8_t> units(n * unit_size_);
  const auto at = [&](std::size_t u) {
    return std::span<std::uint8_t>(units.data() + u * unit_size_, unit_size_);
  };

  // Fast path, the RAID small write: the old unit and all r parities
  // read clean, so the parities are patched with the delta. A padding
  // unit's old bytes are the zeros `units` starts with, so it is not
  // read. Any missing or corrupt operand falls back to the degraded read
  // and re-encode, which never patches garbage forward.
  std::uint64_t read_latency = 0;
  const auto read_clean = [&](std::size_t u) {
    std::uint64_t latency = 0;
    const bool ok = fetch_unit(name, loc, stripe, u, at(u).data(),
                               &latency) == UnitRead::Ok;
    read_latency = std::max(read_latency, latency);  // parallel fan-out
    return ok;
  };
  bool patch = !stored(loc, unit) || read_clean(unit);
  for (std::size_t p = k; patch && p < n; ++p) patch = read_clean(p);
  stats_.read_virtual_us += read_latency;
  net_.advance(read_latency);

  if (patch) {
    ++stats_.small_write_patches;
    codec_.update_unit(units, unit, bytes, unit_size_);
  } else {
    ++stats_.full_stripe_writes;
    read_stripe(name, it->second, stripe, units);
    std::memcpy(at(unit).data(), bytes.data(), unit_size_);
    codec_.encode({units.data(), k * unit_size_},
                  {units.data() + k * unit_size_, (n - k) * unit_size_},
                  unit_size_);
  }

  // The units this write stores: the new unit, any padding below it
  // (zeros in `units` either way; these on the hosts picked above) and
  // the r parities, or every stored unit of the re-encoded stripe.
  // Metadata first: a store that fails or tears below leaves its unit
  // CRC-stale, caught on read like any other corruption. A unit written
  // into padding carries bytes from now on, so reads fetch it and
  // decodes use it.
  const std::size_t was_carried = loc.carried;
  for (std::size_t i = 0; i < hosts.size(); ++i)
    if (hosts[i]) loc.nodes[raised[i]] = *hosts[i];
  loc.carried = carried;
  const auto written = [&](std::size_t u) {
    return stored(loc, u) && (!patch || u >= was_carried || u == unit);
  };
  for (std::size_t u = 0; u < n; ++u)
    if (written(u)) loc.unit_crcs[u] = storage::crc32c(at(u));
  bool all_stored = true;
  for (std::size_t u = 0; u < n; ++u)
    if (written(u))
      all_stored &= store_unit(name, loc, stripe, u, at(u).data());
  if (!all_stored) report_damage(DamageKind::WriteFailure, name, stripe);
  foreground_bytes_ += unit_size_;
}

void Cluster::fail_node(std::size_t node) {
  if (node >= nodes_.size())
    throw std::invalid_argument("Cluster: node out of range");
  mark_node_failed(node);
}

void Cluster::mark_node_failed(std::size_t node) {
  Node& n = nodes_[node];
  if (n.failed) return;
  n.failed = true;
  // Record what died with the machine: the re-replication debt a later
  // revive owes (revive_node turns these into Revive damage events).
  n.lost_units.clear();
  n.lost_units.reserve(n.units.size());
  for (const auto& [key, unit] : n.units) n.lost_units.push_back(key);
  n.units.clear();
  ++stats_.failed_nodes;
}

void Cluster::revive_node(std::size_t node) {
  if (node >= nodes_.size())
    throw std::invalid_argument("Cluster: node out of range");
  // A crash no op observed yet reached neither the cluster's bookkeeping
  // nor the node's units (routing just skipped the node). The machine's
  // contents died with it all the same: record the loss before clearing
  // the injector's crash state.
  if (injector_ != nullptr) {
    if (injector_->crashed(node)) mark_node_failed(node);
    injector_->repair_node(node);
  }
  Node& n = nodes_[node];
  if (!n.failed) return;
  n.failed = false;
  if (stats_.failed_nodes > 0) --stats_.failed_nodes;
  // The node rejoins empty: everything it held is re-replication debt.
  // Report each affected stripe once; the healer re-assesses, so stripes
  // repair already re-placed elsewhere resolve as clean.
  stats_.units_lost_on_revive += n.lost_units.size();
  std::set<std::pair<std::string, std::size_t>> seen;
  for (const auto& [name, s, u] : n.lost_units)
    if (seen.emplace(name, s).second)
      report_damage(DamageKind::Revive, name, s);
  n.lost_units.clear();
}

bool Cluster::node_failed(std::size_t node) const {
  return node < nodes_.size() &&
         (nodes_[node].failed ||
          (injector_ != nullptr && injector_->crashed(node)));
}

bool Cluster::node_usable(std::size_t node) const {
  if (node >= nodes_.size()) return false;
  if (nodes_[node].failed) return false;  // locally observed death
  // With a failure detector attached its verdict replaces the omniscient
  // injector peek; undetected crashes are discovered the honest way, by
  // an op failing against the node.
  if (membership_ != nullptr) return membership_->routable(node);
  return !(injector_ != nullptr && injector_->crashed(node));
}

std::vector<std::optional<std::size_t>> Cluster::place_units(
    const StripeLocation& loc, const std::vector<std::size_t>& units) const {
  std::vector<bool> taken(nodes_.size(), false);
  for (const std::size_t node : loc.nodes)
    if (node < taken.size()) taken[node] = true;
  std::vector<std::optional<std::size_t>> hosts;
  hosts.reserve(units.size());
  for (const std::size_t u : units) {
    const std::size_t orig = loc.nodes[u];
    // A live node with a corrupt (or revived, empty) copy is rewritten
    // in place.
    if (node_usable(orig)) {
      hosts.emplace_back(orig);
      continue;
    }
    // Otherwise a spare: prefer the unit's failure domain so the
    // placement's domain spread survives the move.
    const std::size_t want_domain = domain_of(orig);
    std::optional<std::size_t> chosen;
    for (std::size_t node = 0; node < nodes_.size(); ++node) {
      if (taken[node] || !node_usable(node)) continue;
      if (domain_of(node) == want_domain) {
        chosen = node;
        break;
      }
      if (!chosen) chosen = node;
    }
    if (chosen) taken[*chosen] = true;
    hosts.push_back(chosen);
  }
  return hosts;
}

std::vector<std::pair<std::string, std::size_t>> Cluster::stripes_on_node(
    std::size_t node) const {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const auto& [name, meta] : objects_)
    for (std::size_t s = 0; s < meta.stripes.size(); ++s) {
      const StripeLocation& loc = meta.stripes[s];
      for (std::size_t u = 0; u < loc.nodes.size(); ++u)
        if (loc.nodes[u] == node && stored(loc, u)) {
          out.emplace_back(name, s);
          break;
        }
    }
  return out;
}

void Cluster::report_damage(DamageKind kind, const std::string& name,
                            std::size_t stripe) {
  if (damage_sink_ == nullptr) return;
  ++stats_.damage_events;
  damage_sink_->report_damage(kind, name, stripe);
}

const std::vector<std::size_t>& Cluster::placement(const std::string& name,
                                                   std::size_t s) const {
  const auto it = objects_.find(name);
  if (it == objects_.end() || s >= it->second.stripes.size())
    throw std::invalid_argument("Cluster::placement: unknown object/stripe");
  return it->second.stripes[s].nodes;
}

std::size_t Cluster::object_stripe_count(const std::string& name) const {
  const auto it = objects_.find(name);
  return it == objects_.end() ? 0 : it->second.stripes.size();
}

std::vector<std::string> Cluster::object_names() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, meta] : objects_) names.push_back(name);
  return names;
}

std::optional<std::string> Cluster::object_at_or_after(
    const std::string& name) const {
  const auto it = objects_.lower_bound(name);
  if (it == objects_.end()) return std::nullopt;
  return it->first;
}

std::optional<std::string> Cluster::object_after(
    const std::string& name) const {
  const auto it = objects_.upper_bound(name);
  if (it == objects_.end()) return std::nullopt;
  return it->first;
}

bool Cluster::corrupt_unit(const std::string& name, std::size_t stripe,
                           std::size_t unit) {
  const auto it = objects_.find(name);
  if (it == objects_.end() || stripe >= it->second.stripes.size() ||
      unit >= params_.n())
    return false;
  const std::size_t node = it->second.stripes[stripe].nodes[unit];
  if (node_failed(node)) return false;
  const auto uit = nodes_[node].units.find({name, stripe, unit});
  if (uit == nodes_[node].units.end()) return false;
  uit->second[0] ^= 0x5A;
  return true;
}

std::size_t Cluster::repair() { return repairer_->repair_all(); }

StripeScrubResult Cluster::scrub_stripe(const std::string& name,
                                       std::size_t s) {
  const auto it = objects_.find(name);
  if (it == objects_.end() || s >= it->second.stripes.size())
    throw std::invalid_argument(
        "Cluster::scrub_stripe: unknown object/stripe");
  const StripeLocation& loc = it->second.stripes[s];
  StripeScrubResult res;
  // Node-local integrity pass: CRC every stored unit's copy against the
  // metadata checksum; no payload bytes cross the network here.
  std::size_t units_stored = 0;
  for (std::size_t u = 0; u < loc.nodes.size(); ++u) {
    if (!stored(loc, u)) continue;
    ++units_stored;
    const std::size_t node = loc.nodes[u];
    if (!node_usable(node)) continue;
    const auto uit = nodes_[node].units.find({name, s, u});
    if (uit == nodes_[node].units.end()) continue;
    if (storage::crc32c(uit->second) == loc.unit_crcs[u]) {
      ++res.units_verified;
    } else {
      ++res.crc_errors;
      ++stats_.corruptions_detected;
    }
  }
  res.units_lost = units_stored - res.units_verified;
  if (res.units_lost == 0) return res;
  // With a healer attached the finding joins the risk-prioritized queue;
  // the inline repair remains the sink-less path.
  // Either way the stripe is unrecoverable only past r losses: a unit
  // whose dead node has no spare waits for the revive, not the scrub.
  res.unrecoverable = res.units_lost > params_.r;
  if (damage_sink_ != nullptr)
    report_damage(DamageKind::ScrubFinding, name, s);
  else
    res.units_repaired = repairer_->repair_stripe(name, s).units_repaired;
  return res;
}

std::size_t Cluster::scrub() {
  std::size_t bad_units = 0;
  for (const auto& name : object_names())
    for (std::size_t s = 0; s < object_stripe_count(name); ++s)
      bad_units += scrub_stripe(name, s).units_lost;
  return bad_units;
}

double Cluster::node_ewma_us(std::size_t node) const {
  return node < ewma_.size() ? ewma_[node].value : 0.0;
}

void Cluster::update_ewma(std::size_t node, std::uint64_t latency_us) {
  constexpr double kAlpha = 0.2;  // the weight of each new sample
  Ewma& e = ewma_[node];
  const double sample = static_cast<double>(latency_us);
  e.value = e.samples == 0
                ? sample
                : kAlpha * sample + (1.0 - kAlpha) * e.value;
  ++e.samples;
}

bool Cluster::store_unit(const std::string& name, const StripeLocation& loc,
                         std::size_t s, std::size_t u,
                         const std::uint8_t* src) {
  const std::size_t node = loc.nodes[u];
  if (!node_usable(node)) return false;

  // Ship the unit client -> node; a dropped message is retried under the
  // capped-backoff policy.
  std::uint64_t latency = 0;
  const bool shipped = storage::with_retries(
      retry_, retry_stats_, storage::FaultInjector::key(name, s, u),
      [&]() {
        const SendResult r = net_.send(net_.client(), node, unit_size_);
        latency += r.latency_us;
        return r.delivered ? storage::Attempt::Success
                           : storage::Attempt::Retry;
      });
  stats_.write_virtual_us += latency;
  net_.advance(latency);
  if (!shipped) return false;

  // The metadata checksum was taken from the *intended* bytes, so
  // injected write corruption stays detectable on read.
  std::vector<std::uint8_t> unit(src, src + unit_size_);
  if (injector_ != nullptr &&
      !injector_->on_write(node, storage::FaultInjector::key(name, s, u),
                           unit)) {
    mark_node_failed(node);
    return false;
  }
  nodes_[node].units[{name, s, u}] = std::move(unit);
  return true;
}

Cluster::UnitRead Cluster::fetch_unit(const std::string& name,
                                      const StripeLocation& loc,
                                      std::size_t s, std::size_t u,
                                      std::uint8_t* dest,
                                      std::uint64_t* latency_us) {
  const std::size_t node = loc.nodes[u];
  if (!node_usable(node)) return UnitRead::Missing;
  const bool rpc = latency_us != nullptr;

  UnitRead result = UnitRead::Missing;
  std::uint64_t latency = 0;
  storage::with_retries(
      retry_, retry_stats_,
      storage::FaultInjector::key(name, s, rpc ? u : u + 1000), [&]() {
        const auto uit = nodes_[node].units.find({name, s, u});
        if (uit == nodes_[node].units.end()) {
          result = UnitRead::Missing;
          return storage::Attempt::Abort;
        }
        // The attempt's copy is dest itself: read faults land there, and
        // the next attempt re-copies the stored bytes over them.
        const std::span<std::uint8_t> copy(dest, unit_size_);
        std::memcpy(dest, uit->second.data(), unit_size_);
        if (injector_ != nullptr) {
          switch (injector_->on_read(
              node, storage::FaultInjector::key(name, s, u), copy)) {
            case storage::ReadFault::Crash:
              mark_node_failed(node);
              result = UnitRead::Missing;
              return storage::Attempt::Abort;
            case storage::ReadFault::Transient:
              return storage::Attempt::Retry;
            case storage::ReadFault::None:
              break;
          }
        }
        if (rpc) {
          // The response carries the unit payload node -> client.
          const SendResult r = net_.send(node, net_.client(), unit_size_);
          latency += r.latency_us;
          if (!r.delivered) return storage::Attempt::Retry;
        }
        if (storage::crc32c(copy) != loc.unit_crcs[u]) {
          // A read-side flip heals on re-read; persisted corruption
          // doesn't. Either way retry once more, then report Corrupt.
          ++stats_.corruptions_detected;
          result = UnitRead::Corrupt;
          return storage::Attempt::Retry;
        }
        result = UnitRead::Ok;
        return storage::Attempt::Success;
      });
  if (rpc) *latency_us = latency;
  return result;
}

std::optional<Cluster::HelperPlan> Cluster::plan_helpers(
    const StripeLocation& loc, const std::vector<std::size_t>& lost,
    const std::vector<bool>& in_hand, const std::vector<bool>& avoid,
    std::size_t root) const {
  const auto held = [&](std::size_t u) {
    return u < in_hand.size() && in_hand[u];
  };
  std::vector<std::size_t> pref;
  for (std::size_t u = 0; u < params_.n(); ++u) {
    const std::size_t node = loc.nodes[u];
    if (std::find(lost.begin(), lost.end(), u) != lost.end() ||
        (stored(loc, u) && !held(u) &&
         (!node_usable(node) || (node < avoid.size() && avoid[node]))))
      continue;
    pref.push_back(u);
  }
  if (pref.size() < params_.k) return std::nullopt;
  const std::size_t root_domain = domain_of(root);
  const auto rank = [&](std::size_t u) -> std::size_t {
    if (!stored(loc, u)) return 0;
    if (held(u)) return 1;
    const std::size_t domain = domain_of(loc.nodes[u]);
    return domain == root_domain ? 2 : 3 + domain;
  };
  std::stable_sort(pref.begin(), pref.end(), [&](std::size_t a, std::size_t b) {
    return rank(a) < rank(b);
  });

  HelperPlan out{codec_.plan(lost, std::move(pref)), {}};
  if (out.decode == nullptr) return std::nullopt;
  for (const std::size_t u : out.decode->survivors)
    if (stored(loc, u)) out.helpers.push_back(u);
  return out;
}

void Cluster::read_stripe(const std::string& name, const ObjectMeta& meta,
                          std::size_t s, std::span<std::uint8_t> stripe,
                          std::optional<std::size_t> only) {
  const StripeLocation& loc = meta.stripes[s];
  // The units whose bytes are in `stripe`, and the nodes whose fetch
  // failed, which no later plan of this read asks again.
  std::vector<bool> in_hand(params_.n(), false);
  std::vector<bool> avoid(nodes_.size(), false);
  const auto fetch = [&](std::size_t u, std::uint64_t& slowest) {
    std::uint64_t latency = 0;
    in_hand[u] = fetch_unit(name, loc, s, u, stripe.data() + u * unit_size_,
                            &latency) == UnitRead::Ok;
    if (!in_hand[u]) {
      avoid[loc.nodes[u]] = true;
      return false;
    }
    update_ewma(loc.nodes[u], latency);
    slowest = std::max(slowest, latency);
    return true;
  };
  std::vector<std::size_t> missing;  // units the caller returns, unread
  std::uint64_t stripe_latency = 0;

  // Fan out the reads, modeled as parallel: all are in flight at once
  // (so a hedge's plan counts them in hand), and the stripe's latency is
  // the slowest unit's effective latency.
  const std::size_t first = only.value_or(0);
  const std::size_t last = only ? *only + 1 : loc.carried;
  std::fill(in_hand.begin() + first, in_hand.begin() + last, true);
  std::vector<std::size_t> stragglers;
  for (std::size_t u = first; u < last; ++u) {
    const Ewma before = ewma_[loc.nodes[u]];
    std::uint64_t latency = 0;
    if (!fetch(u, latency)) {
      missing.push_back(u);
      continue;
    }
    // Hedge: the straggler blew its EWMA budget, so the helpers a plan
    // for losing the stragglers adds were (virtually) requested at the
    // budget mark. Both paths verify the same metadata CRCs, so only the
    // modeled completion time differs.
    const auto budget =
        static_cast<std::uint64_t>(config_.hedge.multiplier * before.value);
    if (before.samples >= config_.hedge.min_samples && latency > budget) {
      stragglers.push_back(u);
      if (const auto hedge =
              plan_helpers(loc, stragglers, in_hand, avoid, net_.client())) {
        std::uint64_t hedge_latency = 0;
        bool arrived = true;
        for (const std::size_t h : hedge->helpers) {
          if (in_hand[h]) continue;
          ++stats_.hedged_reads;
          arrived &= fetch(h, hedge_latency);
        }
        if (arrived && budget + hedge_latency < latency) {
          ++stats_.hedge_wins;
          latency = budget + hedge_latency;
        }
      }
    }
    stripe_latency = std::max(stripe_latency, latency);
  }

  if (!missing.empty()) {
    // Degraded read: fetch the helpers a plan for the missing units adds,
    // re-planning around each fetch that fails, and decode those units.
    const auto helper = [&](std::size_t u) {
      return in_hand[u] || fetch(u, stripe_latency);
    };
    auto plan = plan_helpers(loc, missing, in_hand, avoid, net_.client());
    while (plan && !std::ranges::all_of(plan->helpers, helper))
      plan = plan_helpers(loc, missing, in_hand, avoid, net_.client());
    // The degraded read *discovered* lost redundancy: report it before
    // deciding recoverability, so even a stripe that turns out to be
    // past recovery reaches the healer's ledger.
    report_damage(DamageKind::ReadCorruption, name, s);
    if (!plan)
      throw std::runtime_error(
          "Cluster::get: stripe unrecoverable (too few units reachable)");
    // The decode reads the padding units as survivors: write in the zeros
    // they hold.
    std::memset(stripe.data() + loc.carried * unit_size_, 0,
                (params_.k - loc.carried) * unit_size_);
    codec_.decode(stripe, *plan->decode, unit_size_);
    for (const std::size_t u : missing) {
      if (storage::crc32c({stripe.data() + u * unit_size_, unit_size_}) !=
          loc.unit_crcs[u])
        throw std::runtime_error(
            "Cluster::get: reconstructed unit failed checksum");
    }
    ++stats_.degraded_reads;
  }

  stats_.read_virtual_us += stripe_latency;
  net_.advance(stripe_latency);  // stripes of a get() serialize on the client
}

}  // namespace tvmec::cluster
