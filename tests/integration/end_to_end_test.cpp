#include <gtest/gtest.h>

#include "../test_util.h"
#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "core/tvmec.h"
#include "ec/bitmatrix_code.h"
#include "tensor/expr.h"

/// End-to-end flows across module boundaries: tuning feeding the storage
/// layer, the Listing-3 tensor-expression declaration producing real
/// parities, and checkpoint/restore through the cluster.
namespace tvmec {
namespace {

constexpr std::size_t kUnit = 2048;

/// A tuned codec drives the object store: autotuning must be transparent
/// to storage-level correctness.
TEST(EndToEnd, TunedCodecInsideCluster) {
  cluster::Cluster store(ec::CodeParams{4, 2, 8}, kUnit, {.num_nodes = 7});
  const auto payload = testutil::random_vector(50000, 9);
  store.put("model.bin", payload);
  store.fail_node(2);
  store.fail_node(5);
  const auto got = store.get("model.bin");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

/// The Listing-3 story, end to end: declare the bitmatrix-EC computation
/// in the tensor-expression front end, lower it, bind the *actual* mask
/// matrix and data of a Reed-Solomon code, and get byte-identical
/// parities to the reference encoder.
TEST(EndToEnd, TensorExpressionProducesRealParities) {
  namespace te = tensor::te;
  const ec::CodeParams params{5, 3, 8};
  const std::size_t unit = 1024;
  const ec::ReedSolomon rs(params);

  // Mask operand (rw x kw) from the bitmatrix, as GemmCoder builds it.
  const ec::BitmatrixCode bits(rs.parity_matrix());
  const std::size_t m = bits.bits().rows();
  const std::size_t kk = bits.bits().cols();
  const std::size_t n = unit / params.w / 8;
  tensor::AlignedBuffer<std::uint64_t> masks(m * kk);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < kk; ++j)
      masks[i * kk + j] = bits.bits().get(i, j) ? ~std::uint64_t{0} : 0;

  const auto data = testutil::random_bytes(params.k * unit, 123);

  // Listing 3, lines 9-12.
  const te::Placeholder A = te::placeholder(m, kk, "A");
  const te::Placeholder B = te::placeholder(kk, n, "B");
  const te::IterVar k = te::reduce_axis(kk, "k");
  const te::ComputeDef def =
      te::compute(m, n, [&](te::IterVar i, te::IterVar j) {
        return te::reduce(te::BinOp::Xor, A(i, k) & B(k, j), k);
      });
  const te::LoweredGemm lowered = te::lower(def);

  tensor::AlignedBuffer<std::uint64_t> out(m * n);
  tensor::Schedule schedule;
  schedule.tile_m = 4;
  schedule.tile_n = 8;
  lowered.run(
      {{A.id(), {masks.data(), m, kk, kk}},
       {B.id(),
        {reinterpret_cast<const std::uint64_t*>(data.data()), kk, n, n}}},
      {out.data(), m, n, n}, schedule);

  std::vector<std::uint8_t> reference(params.r * unit);
  ec::apply_matrix_reference_bitpacket(rs.parity_matrix(), data.span(),
                                       reference, unit);
  ASSERT_TRUE(std::equal(reference.begin(), reference.end(),
                         reinterpret_cast<const std::uint8_t*>(out.data())));
}

/// Checkpoint/restore through the cluster under repeated loss cycles.
TEST(EndToEnd, CheckpointSurvivesRepeatedFailures) {
  const ec::CodeParams params{8, 2, 8};
  cluster::CheckpointManager mgr(params, kUnit);
  for (int epoch = 0; epoch < 5; ++epoch) {
    std::vector<std::vector<std::uint8_t>> shards;
    for (std::size_t rank = 0; rank < params.k; ++rank)
      shards.push_back(testutil::random_vector(
          kUnit - 64 * rank, static_cast<std::uint64_t>(epoch * 100 + rank)));
    std::vector<std::span<const std::uint8_t>> spans(shards.begin(),
                                                     shards.end());
    mgr.checkpoint(spans);
    mgr.lose_rank(static_cast<std::size_t>(epoch) % params.k);
    mgr.lose_rank((static_cast<std::size_t>(epoch) + 3) % params.k);
    for (std::size_t rank = 0; rank < params.k; ++rank)
      ASSERT_EQ(mgr.recover_shard(rank), shards[rank])
          << "epoch " << epoch << " rank " << rank;
  }
}

}  // namespace
}  // namespace tvmec
