#include "cluster/checkpoint.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tvmec::cluster {

namespace {

/// The one object of the manager's cluster: the latest checkpoint.
const std::string kCheckpoint = "checkpoint";

}  // namespace

CheckpointManager::CheckpointManager(const ec::CodeParams& params,
                                     std::size_t shard_capacity)
    : cluster_(params, shard_capacity, {.num_nodes = params.n()}) {}

std::uint64_t CheckpointManager::checkpoint(
    const std::vector<std::span<const std::uint8_t>>& shards) {
  const std::size_t k = cluster_.params().k;
  const std::size_t capacity = shard_capacity();
  if (shards.size() != k)
    throw std::invalid_argument("checkpoint: expected one shard per rank");
  std::vector<std::uint8_t> data(k * capacity, 0);
  std::vector<std::size_t> sizes(k);
  for (std::size_t i = 0; i < k; ++i) {
    if (shards[i].size() > capacity)
      throw std::invalid_argument("checkpoint: shard exceeds capacity");
    sizes[i] = shards[i].size();
    std::copy(shards[i].begin(), shards[i].end(), data.begin() + i * capacity);
  }
  cluster_.put(kCheckpoint, data);
  shard_sizes_ = std::move(sizes);
  return ++version_;
}

std::optional<std::uint64_t> CheckpointManager::latest_version()
    const noexcept {
  if (version_ == 0) return std::nullopt;
  return version_;
}

void CheckpointManager::lose_rank(std::size_t rank) {
  if (version_ == 0) throw std::logic_error("lose_rank: no checkpoint taken");
  if (rank >= cluster_.params().k)
    throw std::invalid_argument("lose_rank: rank out of range");
  const std::size_t node = cluster_.placement(kCheckpoint, 0)[rank];
  cluster_.fail_node(node);
  cluster_.revive_node(node);
}

std::vector<std::uint8_t> CheckpointManager::recover_shard(std::size_t rank) {
  if (version_ == 0)
    throw std::logic_error("recover_shard: no checkpoint taken");
  const ec::CodeParams& params = cluster_.params();
  if (rank >= params.k)
    throw std::invalid_argument("recover_shard: rank out of range");
  const StripeScrubResult scrub = cluster_.scrub_stripe(kCheckpoint, 0);
  if (scrub.unrecoverable)
    throw std::runtime_error(
        "CheckpointManager::recover_shard: " +
        std::to_string(scrub.units_lost) +
        " shard units lost or corrupt, but the code only tolerates r=" +
        std::to_string(params.r));
  std::vector<std::uint8_t> shard = cluster_.read_unit(kCheckpoint, 0, rank);
  shard.resize(shard_sizes_[rank]);
  return shard;
}

}  // namespace tvmec::cluster
