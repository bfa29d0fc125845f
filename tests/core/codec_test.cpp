#include "core/tvmec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "tensor/kernel.h"
#include "tensor/variant.h"

#include "../test_util.h"

namespace tvmec::core {
namespace {

using testutil::random_bytes;

constexpr std::size_t kUnit = 4096;

tensor::AlignedBuffer<std::uint8_t> make_stripe(Codec& codec,
                                                std::uint64_t seed) {
  const auto& p = codec.params();
  tensor::AlignedBuffer<std::uint8_t> stripe(p.n() * kUnit);
  const auto data = random_bytes(p.k * kUnit, seed);
  std::copy(data.span().begin(), data.span().end(), stripe.data());
  codec.encode(
      std::span<const std::uint8_t>(stripe.data(), p.k * kUnit),
      std::span<std::uint8_t>(stripe.data() + p.k * kUnit, p.r * kUnit),
      kUnit);
  return stripe;
}

TEST(Codec, EncodeMatchesReference) {
  Codec codec(ec::CodeParams{10, 4, 8});
  const auto data = random_bytes(10 * kUnit, 1);
  tensor::AlignedBuffer<std::uint8_t> parity(4 * kUnit);
  codec.encode(data.span(), parity.span(), kUnit);
  std::vector<std::uint8_t> expect(4 * kUnit);
  ec::apply_matrix_reference_bitpacket(codec.parity_matrix(),
                                       data.span(), expect, kUnit);
  ASSERT_TRUE(
      std::equal(expect.begin(), expect.end(), parity.span().begin()));
}

/// A short stripe: encode given the leading c data units must write the
/// parity of the zero-padded stripe byte for byte. Aligned spans with
/// whole-word packets run in place at K = c*w and stage nothing; +1-offset
/// spans and a sub-word unit (2w bytes) take the zero-padded staging road.
TEST(Codec, ShortStripeEncodeMatchesZeroPaddedEncode) {
  const auto check = [](const Codec& codec, std::size_t unit,
                        const std::string& label) {
    const std::size_t k = codec.params().k;
    const std::size_t r = codec.params().r;
    const bool word_path = unit % (8 * codec.params().w) == 0;
    const auto data = random_bytes(k * unit, 31 * k + unit);
    for (std::size_t c = 1; c <= k; ++c) {
      SCOPED_TRACE(label + " u=" + std::to_string(unit) +
                   " c=" + std::to_string(c));
      tensor::AlignedBuffer<std::uint8_t> padded(k * unit);
      std::copy_n(data.data(), c * unit, padded.data());
      tensor::AlignedBuffer<std::uint8_t> want(r * unit);
      codec.encode(padded.span(), want.span(), unit);

      tensor::AlignedBuffer<std::uint8_t> got(r * unit);
      const std::uint64_t copies0 = tensor::kernel_stage_stats().stage_copies;
      codec.encode(data.span().first(c * unit), got.span(), unit);
      EXPECT_TRUE(std::equal(got.span().begin(), got.span().end(),
                             want.span().begin()))
          << "aligned";
      if (word_path)
        EXPECT_EQ(tensor::kernel_stage_stats().stage_copies, copies0)
            << "an aligned short stripe must run in place";
      else
        EXPECT_GT(tensor::kernel_stage_stats().stage_copies, copies0)
            << "a sub-word unit must stage";

      tensor::AlignedBuffer<std::uint8_t> in_off(c * unit + 1);
      tensor::AlignedBuffer<std::uint8_t> out_off(r * unit + 1);
      std::copy_n(data.data(), c * unit, in_off.data() + 1);
      const std::uint64_t copies1 = tensor::kernel_stage_stats().stage_copies;
      codec.encode(in_off.span().subspan(1), out_off.span().subspan(1), unit);
      EXPECT_TRUE(std::equal(want.span().begin(), want.span().end(),
                             out_off.data() + 1))
          << "+1-offset";
      EXPECT_GT(tensor::kernel_stage_stats().stage_copies, copies1)
          << "a misaligned short stripe must stage";
    }
  };
  const auto check_codec = [&](const Codec& codec, const std::string& label) {
    check(codec, kUnit, label);
    check(codec, 2 * codec.params().w, label);  // sub-word packets
  };
  check_codec(Codec(ec::CodeParams{10, 4, 8}), "RS(10,4) w=8");
  check_codec(Codec(ec::CodeParams{6, 3, 4}), "RS(6,3) w=4");
  check_codec(Codec(ec::CodeParams{6, 3, 16}), "RS(6,3) w=16");
  check_codec(Codec(ec::LrcParams{6, 2, 2, 8}), "LRC(6,2,2)");

  const Codec codec(ec::CodeParams{10, 4, 8});
  tensor::AlignedBuffer<std::uint8_t> data(11 * kUnit);
  tensor::AlignedBuffer<std::uint8_t> parity(4 * kUnit);
  EXPECT_THROW(codec.encode(data.span().first(0), parity.span(), kUnit),
               std::invalid_argument);
  EXPECT_THROW(
      codec.encode(data.span().first(3 * kUnit + 8), parity.span(), kUnit),
      std::invalid_argument);
  EXPECT_THROW(codec.encode(data.span().first(kUnit - 8), parity.span(), kUnit),
               std::invalid_argument);
  EXPECT_THROW(codec.encode(data.span(), parity.span(), kUnit),
               std::invalid_argument);
  EXPECT_THROW(codec.encode(data.span().first(3 * kUnit),
                            parity.span().first(3 * kUnit), kUnit),
               std::invalid_argument);
}

/// Every erasure pattern up to r over the full evaluation parameter grid
/// must decode back to the original stripe through the GEMM path.
class CodecDecodeTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CodecDecodeTest, AllPatternsRoundTrip) {
  const auto [k, r] = GetParam();
  Codec codec(ec::CodeParams{k, r, 8});
  const auto stripe = make_stripe(codec, 100 * k + r);

  tensor::AlignedBuffer<std::uint8_t> damaged(stripe.size());
  for (std::size_t e = 1; e <= r; ++e) {
    for (const auto& pattern : testutil::erasure_patterns(k + r, e)) {
      std::copy(stripe.span().begin(), stripe.span().end(), damaged.data());
      for (const std::size_t id : pattern)
        std::fill_n(damaged.data() + id * kUnit, kUnit, 0xEE);
      codec.decode(damaged.span(), pattern, kUnit);
      ASSERT_TRUE(std::equal(stripe.span().begin(), stripe.span().end(),
                             damaged.span().begin()))
          << "pattern size " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, CodecDecodeTest,
                         ::testing::Values(std::tuple<std::size_t, std::size_t>{8, 2},
                                           std::tuple<std::size_t, std::size_t>{9, 3},
                                           std::tuple<std::size_t, std::size_t>{10, 4},
                                           std::tuple<std::size_t, std::size_t>{4, 2}),
                         [](const auto& info) {
                           return "k" + std::to_string(std::get<0>(info.param)) +
                                  "r" + std::to_string(std::get<1>(info.param));
                         });

TEST(Codec, DecodeValidation) {
  Codec codec(ec::CodeParams{4, 2, 8});
  auto stripe = make_stripe(codec, 5);
  // Too many erasures.
  const std::vector<std::size_t> too_many = {0, 1, 2};
  EXPECT_THROW(codec.decode(stripe.span(), too_many, kUnit),
               std::runtime_error);
  // Wrong stripe size.
  const std::vector<std::size_t> one = {0};
  EXPECT_THROW(
      codec.decode(stripe.span().subspan(0, 5 * kUnit), one, kUnit),
      std::invalid_argument);
  // Out-of-range id.
  const std::vector<std::size_t> bad_id = {6};
  EXPECT_THROW(codec.decode(stripe.span(), bad_id, kUnit),
               std::invalid_argument);
  // Empty erasure list is a no-op.
  EXPECT_NO_THROW(codec.decode(stripe.span(), {}, kUnit));
}

TEST(Codec, DecodeCacheReusesPlans) {
  Codec codec(ec::CodeParams{6, 3, 8});
  auto stripe = make_stripe(codec, 6);
  EXPECT_EQ(codec.decode_cache_size(), 0u);

  tensor::AlignedBuffer<std::uint8_t> damaged(stripe.size());
  const std::vector<std::size_t> pattern = {1, 4};
  for (int round = 0; round < 3; ++round) {
    std::copy(stripe.span().begin(), stripe.span().end(), damaged.data());
    std::fill_n(damaged.data() + kUnit, kUnit, 0);
    std::fill_n(damaged.data() + 4 * kUnit, kUnit, 0);
    codec.decode(damaged.span(), pattern, kUnit);
  }
  EXPECT_EQ(codec.decode_cache_size(), 1u);

  // Unordered ids hit the same cache entry.
  const std::vector<std::size_t> reversed = {4, 1};
  std::copy(stripe.span().begin(), stripe.span().end(), damaged.data());
  codec.decode(damaged.span(), reversed, kUnit);
  EXPECT_EQ(codec.decode_cache_size(), 1u);
}

TEST(Codec, TuneClearsDecodeCacheAndStaysCorrect) {
  Codec codec(ec::CodeParams{6, 3, 8});
  auto stripe = make_stripe(codec, 7);
  tensor::AlignedBuffer<std::uint8_t> damaged(stripe.size());
  std::copy(stripe.span().begin(), stripe.span().end(), damaged.data());
  const std::vector<std::size_t> pattern = {0};
  codec.decode(damaged.span(), pattern, kUnit);
  EXPECT_EQ(codec.decode_cache_size(), 1u);

  tune::TuneOptions opt;
  opt.policy = tune::Policy::Random;
  opt.trials = 6;
  codec.tune(kUnit, opt, 1);
  EXPECT_EQ(codec.decode_cache_size(), 0u);

  // Encode and decode still agree with the original stripe.
  auto stripe2 = make_stripe(codec, 7);
  ASSERT_TRUE(std::equal(stripe.span().begin(), stripe.span().end(),
                         stripe2.span().begin()));

  // Installing a schedule directly drops the decode coders too, so the
  // next decode runs on the new tiles and thread count.
  std::fill_n(damaged.data(), kUnit, 0);
  codec.decode(damaged.span(), pattern, kUnit);
  EXPECT_EQ(codec.decode_cache_size(), 1u);
  tensor::Schedule s;
  s.tile_m = 8;
  s.tile_n = 16;
  s.block_n = 512;
  codec.set_schedule(s);
  EXPECT_EQ(codec.decode_cache_size(), 0u);
  std::fill_n(damaged.data(), kUnit, 0);
  codec.decode(damaged.span(), pattern, kUnit);
  EXPECT_EQ(codec.decode_cache_size(), 1u);
  EXPECT_TRUE(std::equal(stripe.span().begin(), stripe.span().end(),
                         damaged.span().begin()));
}

/// Linearity in action: a delta-update of one data unit must leave the
/// stripe identical to a full re-encode with the new data.
TEST(Codec, UpdateUnitMatchesFullReencode) {
  // An LRC(6, 2, 1) patches its local and global parities the same way.
  Codec rs(ec::CodeParams{6, 3, 8});
  Codec lrc(ec::LrcParams{6, 2, 1, 8});
  for (Codec* const codec : {&rs, &lrc}) {
    const ec::CodeParams p = codec->params();
    auto stripe = make_stripe(*codec, 11);
    for (const std::size_t unit_id : {0u, 3u, 5u}) {
      const auto new_data = random_bytes(kUnit, 500 + unit_id);
      codec->update_unit(stripe.span(), unit_id, new_data.span(), kUnit);

      // Expected: full re-encode of the updated data half.
      tensor::AlignedBuffer<std::uint8_t> expect_parity(p.r * kUnit);
      codec->encode(
          std::span<const std::uint8_t>(stripe.data(), p.k * kUnit),
          expect_parity.span(), kUnit);
      ASSERT_TRUE(std::equal(expect_parity.span().begin(),
                             expect_parity.span().end(),
                             stripe.data() + p.k * kUnit))
          << "unit " << unit_id;
      // And the data landed.
      ASSERT_TRUE(std::equal(new_data.span().begin(), new_data.span().end(),
                             stripe.data() + unit_id * kUnit));
    }
  }
}

TEST(Codec, UpdateUnitThenDecodeStillRecovers) {
  const ec::CodeParams p{4, 2, 8};
  Codec codec(p);
  auto stripe = make_stripe(codec, 12);
  const auto new_data = random_bytes(kUnit, 600);
  codec.update_unit(stripe.span(), 2, new_data.span(), kUnit);

  const tensor::AlignedBuffer<std::uint8_t> pristine = stripe;
  const std::vector<std::size_t> erased = {2, 4};
  std::fill_n(stripe.data() + 2 * kUnit, kUnit, 0);
  std::fill_n(stripe.data() + 4 * kUnit, kUnit, 0);
  codec.decode(stripe.span(), erased, kUnit);
  ASSERT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                         stripe.span().begin()));
}

TEST(Codec, UpdateUnitValidation) {
  Codec codec(ec::CodeParams{4, 2, 8});
  auto stripe = make_stripe(codec, 13);
  const auto new_data = random_bytes(kUnit, 700);
  // Parity units cannot be "updated".
  EXPECT_THROW(codec.update_unit(stripe.span(), 4, new_data.span(), kUnit),
               std::invalid_argument);
  // Wrong new-data size.
  EXPECT_THROW(codec.update_unit(stripe.span(), 0,
                                 new_data.span().subspan(0, kUnit / 2), kUnit),
               std::invalid_argument);
  // Wrong stripe size.
  EXPECT_THROW(codec.update_unit(stripe.span().subspan(0, 5 * kUnit), 0,
                                 new_data.span(), kUnit),
               std::invalid_argument);
}

/// `kernel`'s tiles, cache blocks and variant with `own`'s thread
/// knobs: what a coder whose own schedule is `own` runs on a cache hit.
tensor::Schedule with_threads_of(tensor::Schedule kernel,
                                 const tensor::Schedule& own) {
  kernel.num_threads = own.num_threads;
  kernel.par_axis = own.par_axis;
  kernel.par_grain = own.par_grain;
  return kernel;
}

TEST(Codec, TuneCachedReusesLoggedSchedules) {
  // TVM's tuning-records workflow: tune once, log the winner per task
  // shape, and let a later codec run it by loading the log.
  const std::string log =
      ::testing::TempDir() + "/codec_schedule_log.log";
  std::remove(log.c_str());

  tune::TuneOptions opt;
  opt.policy = tune::Policy::Random;
  opt.trials = 6;
  opt.seed = 5;
  Codec first(ec::CodeParams{6, 3, 8});
  const tune::TuneResult fresh = first.tune(kUnit, opt, 1);
  // The budget caps the search: a space smaller than it is timed once.
  const tune::SearchSpace space(first.encoder().task_shape(kUnit), 1);
  EXPECT_EQ(fresh.history.size(), std::min<std::size_t>(6, space.size()));
  tune::ScheduleCache tuned;
  tuned.install(first.encoder().task_shape(kUnit),
                {fresh.best_schedule, fresh.best_throughput});
  tuned.save(log);

  auto cache = std::make_shared<tune::ScheduleCache>();
  EXPECT_EQ(cache->load(log), 1u);
  Codec second(ec::CodeParams{6, 3, 8});
  second.set_schedule_cache(cache);
  const GemmCoder& coder = second.encoder();
  EXPECT_EQ(coder.schedule_for(kUnit),
            with_threads_of(fresh.best_schedule, coder.schedule()));
  // Another task shape misses and runs the codec's own schedule.
  EXPECT_EQ(coder.schedule_for(2 * kUnit), coder.schedule());

  // The cached codec still decodes correctly.
  auto stripe = make_stripe(second, 77);
  tensor::AlignedBuffer<std::uint8_t> damaged = stripe;
  const std::vector<std::size_t> erased = {0, 4, 8};
  for (const auto id : erased)
    std::fill_n(damaged.data() + id * kUnit, kUnit, 0);
  second.decode(damaged.span(), erased, kUnit);
  EXPECT_TRUE(std::equal(stripe.span().begin(), stripe.span().end(),
                         damaged.span().begin()));
  std::remove(log.c_str());
}

TEST(Codec, ScheduleCacheRunsEachTaskShapesOwnSchedule) {
  Codec codec(ec::CodeParams{4, 2, 8});
  const Codec plain(ec::CodeParams{4, 2, 8});
  const tensor::Schedule small{.tile_m = 1, .tile_n = 1};
  const tensor::Schedule big{
      .tile_m = 8, .tile_n = 64, .block_k = 8, .block_n = 256};
  auto cache = std::make_shared<tune::ScheduleCache>();
  cache->install(codec.encoder().task_shape(kUnit), {small, 1.0});
  cache->install(codec.encoder().task_shape(4 * kUnit), {big, 1.0});
  codec.set_schedule_cache(cache);

  // One lookup per encode: two hits, and the 2x unit misses.
  for (const std::size_t unit : {kUnit, 2 * kUnit, 4 * kUnit}) {
    const auto data = random_bytes(4 * unit, unit);
    tensor::AlignedBuffer<std::uint8_t> got(2 * unit), want(2 * unit);
    codec.encode(data.span(), got.span(), unit);
    plain.encode(data.span(), want.span(), unit);
    ASSERT_TRUE(std::equal(want.span().begin(), want.span().end(),
                           got.span().begin()));
  }
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_EQ(cache->stats().misses, 1u);

  const GemmCoder& coder = codec.encoder();
  EXPECT_EQ(coder.schedule_for(kUnit), with_threads_of(small, coder.schedule()));
  EXPECT_EQ(coder.schedule_for(4 * kUnit),
            with_threads_of(big, coder.schedule()));
  EXPECT_EQ(coder.schedule_for(2 * kUnit), coder.schedule());
}

TEST(Codec, InvalidParamsThrow) {
  EXPECT_THROW(Codec codec(ec::CodeParams{0, 2, 8}), std::invalid_argument);
  EXPECT_THROW(Codec codec(ec::CodeParams{300, 4, 8}), std::invalid_argument);
}


/// encode_scattered with per-unit buffers must match contiguous encode
/// byte-for-byte, and aligned units must not stage.
TEST(Codec, EncodeScatteredMatchesContiguous) {
  Codec codec(ec::CodeParams{10, 4, 8});
  const auto& p = codec.params();

  // Contiguous oracle.
  const auto flat = random_bytes(p.k * kUnit, 31);
  tensor::AlignedBuffer<std::uint8_t> want(p.r * kUnit);
  codec.encode(flat.span(), want.span(), kUnit);

  // The same stripe as k + r separately allocated (aligned) units.
  std::vector<tensor::AlignedBuffer<std::uint8_t>> units;
  std::vector<const std::uint8_t*> in_ptrs;
  std::vector<std::uint8_t*> out_ptrs;
  for (std::size_t u = 0; u < p.k; ++u) {
    units.emplace_back(kUnit);
    std::memcpy(units.back().data(), flat.data() + u * kUnit, kUnit);
    in_ptrs.push_back(units.back().data());
  }
  for (std::size_t u = 0; u < p.r; ++u) {
    units.emplace_back(kUnit);
    out_ptrs.push_back(units.back().data());
  }

  const std::uint64_t before = tensor::kernel_stage_stats().stage_copies;
  codec.encode_scattered(in_ptrs, out_ptrs, kUnit);
  EXPECT_EQ(tensor::kernel_stage_stats().stage_copies, before)
      << "aligned scattered encode must not stage";
  for (std::size_t u = 0; u < p.r; ++u)
    EXPECT_EQ(std::memcmp(out_ptrs[u], want.data() + u * kUnit, kUnit), 0)
        << "parity unit " << u;
}

TEST(Codec, EncodeScatteredMisalignedUnitsStillCorrect) {
  Codec codec(ec::CodeParams{6, 3, 8});
  const auto& p = codec.params();
  const auto flat = random_bytes(p.k * kUnit, 37);
  tensor::AlignedBuffer<std::uint8_t> want(p.r * kUnit);
  codec.encode(flat.span(), want.span(), kUnit);

  // Units shifted one byte off word alignment force the staged fallback;
  // the result must be identical and the counter must record the copies.
  std::vector<tensor::AlignedBuffer<std::uint8_t>> units;
  std::vector<const std::uint8_t*> in_ptrs;
  std::vector<std::uint8_t*> out_ptrs;
  for (std::size_t u = 0; u < p.k; ++u) {
    units.emplace_back(kUnit + 1);
    std::memcpy(units.back().data() + 1, flat.data() + u * kUnit, kUnit);
    in_ptrs.push_back(units.back().data() + 1);
  }
  for (std::size_t u = 0; u < p.r; ++u) {
    units.emplace_back(kUnit + 1);
    out_ptrs.push_back(units.back().data() + 1);
  }

  const std::uint64_t before = tensor::kernel_stage_stats().stage_copies;
  codec.encode_scattered(in_ptrs, out_ptrs, kUnit);
  EXPECT_GT(tensor::kernel_stage_stats().stage_copies, before);
  for (std::size_t u = 0; u < p.r; ++u)
    EXPECT_EQ(std::memcmp(out_ptrs[u], want.data() + u * kUnit, kUnit), 0)
        << "parity unit " << u;
}

/// The default scattered routing has no size threshold: aligned
/// encode_scattered at 4 KiB and 8 KiB units runs packed from the
/// callers' buffers, stages nothing and matches the contiguous oracle.
TEST(Codec, ScatteredRoutingThresholdDefault) {
  Codec codec(ec::CodeParams{4, 2, 8});
  const auto& p = codec.params();
  for (const std::size_t unit : {std::size_t{4096}, std::size_t{8192}}) {
    auto stripe = random_bytes(p.n() * unit, 91);
    tensor::AlignedBuffer<std::uint8_t> want(p.r * unit);
    codec.encode(stripe.span().first(p.k * unit), want.span(), unit);
    std::vector<const std::uint8_t*> in_ptrs;
    std::vector<std::uint8_t*> out_ptrs;
    for (std::size_t u = 0; u < p.k; ++u)
      in_ptrs.push_back(stripe.data() + u * unit);
    for (std::size_t u = p.k; u < p.n(); ++u)
      out_ptrs.push_back(stripe.data() + u * unit);
    const std::uint64_t before = tensor::kernel_stage_stats().stage_copies;
    codec.encode_scattered(in_ptrs, out_ptrs, unit);
    EXPECT_EQ(tensor::kernel_stage_stats().stage_copies, before)
        << "unit_size " << unit;
    // The parity units are adjacent in the stripe, as in the oracle.
    EXPECT_EQ(0, std::memcmp(out_ptrs[0], want.data(), want.size()))
        << "unit_size " << unit;
  }
}

/// decode_batch routes the same way: an aligned stripe at 4 KiB and
/// 8 KiB units is repaired exactly without staging.
TEST(Codec, ScatteredRoutingThresholdAppliesToDecodeBatch) {
  Codec codec(ec::CodeParams{4, 2, 8});
  const auto& p = codec.params();
  for (const std::size_t unit : {std::size_t{4096}, std::size_t{8192}}) {
    auto stripe = random_bytes(p.n() * unit, 92);
    codec.encode(stripe.span().first(p.k * unit),
                 stripe.span().subspan(p.k * unit), unit);
    const tensor::AlignedBuffer<std::uint8_t> original = stripe;
    const std::vector<std::size_t> erased{1};
    std::fill_n(stripe.data() + unit, unit, 0xEE);
    const Codec::DecodeBatchItem item{stripe.span(), erased, unit};
    const std::uint64_t before = tensor::kernel_stage_stats().stage_copies;
    codec.decode_batch({&item, 1});
    EXPECT_EQ(tensor::kernel_stage_stats().stage_copies, before)
        << "unit_size " << unit;
    EXPECT_TRUE(std::equal(original.span().begin(), original.span().end(),
                           stripe.span().begin()))
        << "unit_size " << unit;
  }
}

/// The routing encode_batch keeps, pinned through the calling thread's
/// kernel scratch rather than timing: under the codec's default serial
/// schedule and an XorAnd tier, a one-item and a 3-item batch both run
/// in place and take no scratch, while pointer-per-unit encode_scattered
/// runs packed. The Gfni tier packs every call, a one-item batch too.
TEST(Codec, EncodeBatchRunsInPlaceUnderSerialSchedule) {
  const std::optional<tensor::KernelVariant> prev = tensor::forced_variant();
  const Codec codec(ec::CodeParams{10, 4, 8});
  ASSERT_EQ(codec.encoder().schedule().num_threads, 1);
  const auto data = random_bytes(10 * kUnit, 70);
  tensor::AlignedBuffer<std::uint8_t> parity(3 * 4 * kUnit);
  std::vector<ec::CoderBatchItem> items;
  for (std::size_t i = 0; i < 3; ++i)
    items.push_back(
        {data.span(), parity.span().subspan(i * 4 * kUnit, 4 * kUnit),
         kUnit});

  tensor::set_forced_variant(tensor::KernelVariant::Scalar);
  std::thread([&] {
    codec.encode_batch({items.data(), 1});
    EXPECT_EQ(tensor::kernel_scratch_retained_bytes(), 0u)
        << "a one-item batch must run in place";
    codec.encode_batch(items);
    EXPECT_EQ(tensor::kernel_scratch_retained_bytes(), 0u)
        << "a serial 3-item batch must run in place";

    std::vector<const std::uint8_t*> in_ptrs;
    std::vector<std::uint8_t*> out_ptrs;
    for (std::size_t u = 0; u < 10; ++u)
      in_ptrs.push_back(data.data() + u * kUnit);
    for (std::size_t u = 0; u < 4; ++u)
      out_ptrs.push_back(parity.data() + u * kUnit);
    codec.encode_scattered(in_ptrs, out_ptrs, kUnit);
    EXPECT_GT(tensor::kernel_scratch_retained_bytes(), 0u)
        << "encode_scattered must run packed";
  }).join();

  if (tensor::variant_available(tensor::KernelVariant::Gfni)) {
    tensor::set_forced_variant(tensor::KernelVariant::Gfni);
    std::thread([&] {
      codec.encode_batch({items.data(), 1});
      EXPECT_GT(tensor::kernel_scratch_retained_bytes(), 0u)
          << "the Gfni tier packs B and C on every call";
    }).join();
  }
  tensor::set_forced_variant(prev);
}

TEST(Codec, EncodeScatteredValidation) {
  Codec codec(ec::CodeParams{4, 2, 8});
  tensor::AlignedBuffer<std::uint8_t> unit(kUnit);
  std::vector<const std::uint8_t*> in(4, unit.data());
  std::vector<std::uint8_t*> out(2, unit.data());
  std::vector<const std::uint8_t*> short_in(3, unit.data());
  EXPECT_THROW(codec.encode_scattered(short_in, out, kUnit),
               std::invalid_argument);
  EXPECT_THROW(codec.encode_scattered(in, out, 0), std::invalid_argument);
  std::vector<const std::uint8_t*> with_null = in;
  with_null[2] = nullptr;
  EXPECT_THROW(codec.encode_scattered(with_null, out, kUnit),
               std::invalid_argument);
}

/// Batched decode over separately damaged stripes must not stage: the
/// survivors are read and the erased units rebuilt in place.
TEST(Codec, DecodeBatchIsZeroCopyForAlignedStripes) {
  Codec codec(ec::CodeParams{8, 2, 8});
  constexpr int kMembers = 5;
  std::vector<tensor::AlignedBuffer<std::uint8_t>> stripes;
  std::vector<tensor::AlignedBuffer<std::uint8_t>> originals;
  for (int i = 0; i < kMembers; ++i) {
    stripes.push_back(make_stripe(codec, 500 + static_cast<unsigned>(i)));
    originals.push_back(stripes.back());
  }
  const std::vector<std::size_t> erased{2, 9};
  std::vector<Codec::DecodeBatchItem> items;
  for (int i = 0; i < kMembers; ++i) {
    for (const std::size_t id : erased)
      std::fill_n(stripes[i].data() + id * kUnit, kUnit, 0xEE);
    items.push_back({stripes[i].span(), erased, kUnit});
  }

  const std::uint64_t before = tensor::kernel_stage_stats().stage_copies;
  codec.decode_batch(items);
  EXPECT_EQ(tensor::kernel_stage_stats().stage_copies, before);
  for (int i = 0; i < kMembers; ++i)
    EXPECT_TRUE(std::equal(originals[i].span().begin(),
                           originals[i].span().end(),
                           stripes[i].span().begin()))
        << "member " << i;
}

}  // namespace
}  // namespace tvmec::core
