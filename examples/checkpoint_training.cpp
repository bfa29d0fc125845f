// The paper's §3 motivating scenario: fault-tolerant ML training via
// in-memory erasure-coded checkpoints across ranks.
//
// Eight "training ranks" each hold a model shard. Every epoch they
// checkpoint into the CheckpointManager, which erasure-codes the shards
// (k=8 data + r=2 parity) across a 10-node in-memory cluster so any two
// simultaneous rank failures lose no state — without writing to stable
// storage.
//
// Build & run:  ./build/examples/checkpoint_training

#include <cstdio>
#include <random>
#include <vector>

#include "cluster/checkpoint.h"

namespace {

/// A toy "model shard": per-rank parameters that evolve every epoch.
std::vector<std::uint8_t> train_step(std::vector<std::uint8_t> shard,
                                     std::uint64_t epoch) {
  std::mt19937_64 rng(epoch);
  for (auto& b : shard) b = static_cast<std::uint8_t>(b + (rng() & 0xF));
  return shard;
}

}  // namespace

int main() {
  using namespace tvmec;

  const ec::CodeParams params{8, 2, 8};  // 8 ranks, survives 2 failures
  const std::size_t shard_bytes = 256 * 1024;
  cluster::CheckpointManager mgr(params, shard_bytes);

  std::printf("checkpointed training: %zu ranks, %zu parity shards, "
              "%zu KB per shard\n",
              params.k, params.r, shard_bytes / 1024);

  // Initialize rank states.
  std::vector<std::vector<std::uint8_t>> ranks(params.k);
  std::mt19937_64 rng(1);
  for (auto& shard : ranks) {
    shard.resize(shard_bytes);
    for (auto& b : shard) b = static_cast<std::uint8_t>(rng());
  }

  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    // Train.
    for (std::size_t r = 0; r < params.k; ++r)
      ranks[r] = train_step(std::move(ranks[r]), epoch * 17 + r);

    // Checkpoint (in memory, erasure-coded across ranks).
    std::vector<std::span<const std::uint8_t>> spans(ranks.begin(),
                                                     ranks.end());
    const auto version = mgr.checkpoint(spans);
    std::printf("epoch %llu: checkpoint v%llu taken\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(version));

    // Two ranks die mid-epoch (the common failure mode at scale: a node
    // with multiple GPUs drops out).
    const std::size_t victim_a = epoch % params.k;
    const std::size_t victim_b = (epoch + 4) % params.k;
    mgr.lose_rank(victim_a);
    mgr.lose_rank(victim_b);
    std::printf("  ranks %zu and %zu failed\n", victim_a, victim_b);

    // Restore the victims from the erasure-coded checkpoint.
    const auto restored_a = mgr.recover_shard(victim_a);
    const auto restored_b = mgr.recover_shard(victim_b);
    if (restored_a != ranks[victim_a] || restored_b != ranks[victim_b]) {
      std::printf("  RECOVERY MISMATCH\n");
      return 1;
    }
    ranks[victim_a] = restored_a;
    ranks[victim_b] = restored_b;
    std::printf("  both ranks restored exactly; training continues\n");
  }

  std::printf("finished 3 epochs with 6 rank failures and zero data loss\n");
  return 0;
}
