#include "testing/fuzz_config.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "gf/gf.h"

namespace tvmec::testing {

namespace {

constexpr std::string_view kMagic = "fuzz:v1";

const Scenario kScenarios[] = {
    Scenario::RsEncode,   Scenario::RsDecode,      Scenario::LrcRoundTrip,
    Scenario::Serve,      Scenario::ServeChaos,    Scenario::ServeShard,
    Scenario::Cluster,    Scenario::ClusterRepair, Scenario::ClusterHeal};

bool is_cluster(Scenario s) noexcept {
  return s == Scenario::Cluster || s == Scenario::ClusterRepair ||
         s == Scenario::ClusterHeal;
}

const ec::RsFamily kFamilies[] = {
    ec::RsFamily::VandermondeSystematic, ec::RsFamily::Cauchy,
    ec::RsFamily::CauchyGood, ec::RsFamily::CauchyBest};

Scenario scenario_from_name(std::string_view name) {
  // The single-node object store was folded into the cluster; its
  // reproducers replay there.
  if (name == "store" || name == "store-fault") return Scenario::Cluster;
  for (const Scenario s : kScenarios)
    if (name == to_string(s)) return s;
  throw std::invalid_argument("parse_repro: unknown scenario '" +
                              std::string(name) + "'");
}

ec::RsFamily family_from_name(std::string_view name) {
  for (const ec::RsFamily f : kFamilies)
    if (name == to_string(f)) return f;
  throw std::invalid_argument("parse_repro: unknown family '" +
                              std::string(name) + "'");
}

std::uint64_t parse_u64(std::string_view text, std::string_view key) {
  std::uint64_t value = 0;
  const auto [ptr, err] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (err != std::errc{} || ptr != text.data() + text.size())
    throw std::invalid_argument("parse_repro: bad number '" +
                                std::string(text) + "' for key " +
                                std::string(key));
  return value;
}

std::vector<std::size_t> parse_losses(std::string_view text) {
  std::vector<std::size_t> out;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    out.push_back(static_cast<std::size_t>(parse_u64(item, "loss")));
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return out;
}

}  // namespace

const char* to_string(Scenario s) noexcept {
  switch (s) {
    case Scenario::RsEncode:
      return "rs-encode";
    case Scenario::RsDecode:
      return "rs-decode";
    case Scenario::LrcRoundTrip:
      return "lrc";
    case Scenario::Serve:
      return "serve";
    case Scenario::ServeChaos:
      return "serve-chaos";
    case Scenario::ServeShard:
      return "serve-shard";
    case Scenario::Cluster:
      return "cluster";
    case Scenario::ClusterRepair:
      return "cluster-repair";
    case Scenario::ClusterHeal:
      return "cluster-heal";
  }
  return "?";
}

void FuzzConfig::validate() const {
  if (k == 0) throw std::invalid_argument("FuzzConfig: k must be >= 1");
  if (!gf::is_supported_w(w))
    throw std::invalid_argument("FuzzConfig: unsupported w=" +
                                std::to_string(w));
  if (unit_size == 0 || unit_size % w != 0)
    throw std::invalid_argument(
        "FuzzConfig: unit_size must be a nonzero multiple of w");
  if (scenario == Scenario::LrcRoundTrip) {
    if (l == 0 || k % l != 0)
      throw std::invalid_argument("FuzzConfig: LRC needs l >= 1 dividing k");
    if (r == 0)
      throw std::invalid_argument("FuzzConfig: LRC needs g (= r) >= 1");
  } else if (l != 0) {
    throw std::invalid_argument("FuzzConfig: l only applies to scenario lrc");
  }
  if (frag != 0 && scenario != Scenario::RsEncode)
    throw std::invalid_argument(
        "FuzzConfig: frag only applies to scenario rs-encode");
  if (variant != tensor::KernelVariant::Auto &&
      scenario != Scenario::RsEncode)
    throw std::invalid_argument(
        "FuzzConfig: var only applies to scenario rs-encode");
  // LRC local parities are plain XOR rows; only the k data points plus g
  // global parities need distinct field points. MDS codes need all n.
  const std::size_t field_points =
      scenario == Scenario::LrcRoundTrip ? k + r : n();
  if (field_points > (std::size_t{1} << w))
    throw std::invalid_argument("FuzzConfig: code shape exceeds field size");
  // Cluster scenarios place n units over n + 2 nodes; losses name nodes.
  const std::size_t loss_space = is_cluster(scenario) ? n() + 2 : n();
  for (const std::size_t id : losses)
    if (id >= loss_space)
      throw std::invalid_argument("FuzzConfig: loss id " + std::to_string(id) +
                                  " out of range");
}

std::string format_repro(const FuzzConfig& config) {
  std::ostringstream out;
  out << kMagic << " s=" << to_string(config.scenario)
      << " f=" << to_string(config.family) << " k=" << config.k
      << " r=" << config.r;
  if (config.l != 0) out << " l=" << config.l;
  out << " w=" << config.w << " u=" << config.unit_size
      << " seed=" << config.seed;
  if (!config.losses.empty()) {
    out << " loss=";
    for (std::size_t i = 0; i < config.losses.size(); ++i)
      out << (i ? "," : "") << config.losses[i];
  }
  if (config.sched != 0) out << " sched=" << config.sched;
  if (config.frag != 0) out << " frag=" << config.frag;
  if (config.variant != tensor::KernelVariant::Auto)
    out << " var=" << tensor::to_string(config.variant);
  return out.str();
}

FuzzConfig parse_repro(const std::string& text) {
  std::istringstream in(text);
  std::string token;
  if (!(in >> token) || token != kMagic)
    throw std::invalid_argument(
        "parse_repro: reproducer must start with 'fuzz:v1'");
  FuzzConfig config;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("parse_repro: token '" + token +
                                  "' is not key=value");
    const std::string_view key = std::string_view(token).substr(0, eq);
    const std::string_view value = std::string_view(token).substr(eq + 1);
    if (key == "s") {
      config.scenario = scenario_from_name(value);
    } else if (key == "f") {
      config.family = family_from_name(value);
    } else if (key == "k") {
      config.k = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "r") {
      config.r = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "l") {
      config.l = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "w") {
      config.w = static_cast<unsigned>(parse_u64(value, key));
    } else if (key == "u") {
      config.unit_size = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "seed") {
      config.seed = parse_u64(value, key);
    } else if (key == "loss") {
      config.losses = parse_losses(value);
    } else if (key == "sched") {
      config.sched = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "frag") {
      config.frag = parse_u64(value, key);
    } else if (key == "var") {
      const auto v = tensor::variant_from_string(value);
      if (!v)
        throw std::invalid_argument("parse_repro: unknown variant '" +
                                    std::string(value) + "'");
      config.variant = *v;
    } else {
      throw std::invalid_argument("parse_repro: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  config.validate();
  return config;
}

FuzzConfig random_config(std::mt19937_64& rng) {
  const auto pick = [&](std::size_t lo, std::size_t hi) {
    return lo + rng() % (hi - lo + 1);
  };
  FuzzConfig c;
  c.scenario = kScenarios[rng() % std::size(kScenarios)];
  c.family = kFamilies[rng() % std::size(kFamilies)];
  const unsigned ws[] = {4, 8, 16};
  c.w = ws[rng() % 3];
  c.seed = rng();
  c.sched = pick(0, 5);

  if (c.scenario == Scenario::LrcRoundTrip) {
    // k with a nontrivial divisor lattice; l | k; g (stored in r) small.
    const std::size_t ks[] = {2, 4, 6, 8, 9, 12};
    c.k = ks[rng() % std::size(ks)];
    std::vector<std::size_t> divisors;
    for (std::size_t d = 1; d <= c.k; ++d)
      if (c.k % d == 0) divisors.push_back(d);
    c.l = divisors[rng() % divisors.size()];
    c.r = pick(1, 3);
  } else {
    // Over-weight the k == 1 and r == 0 degenerate shapes.
    c.k = rng() % 4 == 0 ? 1 : pick(1, 10);
    if (c.scenario == Scenario::RsEncode)
      c.r = rng() % 6 == 0 ? 0 : pick(1, 4);
    else
      c.r = pick(1, c.scenario == Scenario::RsDecode ? 4 : 3);
  }

  // Over-weight unit_size == w: single-byte packets, the padding path.
  c.unit_size = rng() % 5 == 0 ? c.w : c.w * pick(1, 32);

  // About a quarter of encode iterations also run the scattered arms.
  if (c.scenario == Scenario::RsEncode && rng() % 4 == 0)
    c.frag = rng() | 1;  // any nonzero seed

  // About a third of encode iterations pin a SIMD tier this host offers
  // (drawn uniformly, so scalar is exercised as a forced tier too).
  if (c.scenario == Scenario::RsEncode && rng() % 3 == 0) {
    const std::vector<tensor::KernelVariant> menu =
        tensor::available_variants();
    c.variant = menu[rng() % menu.size()];
  }

  // Loss pattern. Decode scenarios erase units; clusters fail nodes.
  // The serve scenarios feed their losses to decode submissions (empty =
  // an encode-only request mix), and may draw one loss past r, so an
  // unrecoverable decode meets batching, the breaker and the counters.
  const bool serve = c.scenario == Scenario::Serve ||
                     c.scenario == Scenario::ServeChaos ||
                     c.scenario == Scenario::ServeShard;
  if (c.scenario == Scenario::RsDecode ||
      c.scenario == Scenario::LrcRoundTrip || serve) {
    const std::size_t budget = c.scenario == Scenario::LrcRoundTrip
                                   ? c.l + c.r + 1
                               : serve ? c.r + 1
                                       : c.r;
    const std::size_t lo = serve ? 0 : 1;
    const std::size_t e = std::min(pick(lo, std::max<std::size_t>(budget, lo)),
                                   c.n());
    std::vector<std::size_t> ids(c.n());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(e);
    // Usually sorted; sometimes left shuffled, sometimes with a
    // duplicate appended — decoders must tolerate both.
    if (rng() % 4 != 0) std::sort(ids.begin(), ids.end());
    if (!ids.empty() && rng() % 8 == 0)
      ids.push_back(ids[rng() % ids.size()]);
    c.losses = std::move(ids);
  } else if (is_cluster(c.scenario)) {
    const std::size_t num_nodes = c.n() + 2;
    const std::size_t e = pick(0, c.r);
    std::vector<std::size_t> nodes(num_nodes);
    for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = i;
    std::shuffle(nodes.begin(), nodes.end(), rng);
    nodes.resize(e);
    std::sort(nodes.begin(), nodes.end());
    c.losses = std::move(nodes);
  }
  c.validate();
  return c;
}

}  // namespace tvmec::testing
