#include "cluster/raid_array.h"

#include <algorithm>
#include <stdexcept>

namespace tvmec::cluster {

namespace {

/// The one object of the array's cluster: its stripes are the LBA
/// stripes.
const std::string kVolume = "volume";

}  // namespace

RaidArray::RaidArray(const ec::CodeParams& params, std::size_t block_size,
                     std::size_t stripes)
    : stripes_(stripes),
      cluster_(params, block_size, {.num_nodes = params.n()}) {
  if (stripes == 0) throw std::invalid_argument("RaidArray: zero stripes");
  cluster_.put(kVolume,
               std::vector<std::uint8_t>(capacity_blocks() * block_size, 0));
}

void RaidArray::write_block(std::size_t lba,
                            std::span<const std::uint8_t> data) {
  const std::size_t k = cluster_.params().k;
  cluster_.write_unit(kVolume, lba / k, lba % k, data);
}

std::vector<std::uint8_t> RaidArray::read_block(std::size_t lba) {
  const std::size_t k = cluster_.params().k;
  return cluster_.read_unit(kVolume, lba / k, lba % k);
}

std::size_t RaidArray::verify() {
  const ec::CodeParams& params = cluster_.params();
  const std::size_t unit = block_size();
  std::vector<std::uint8_t> stripe(params.n() * unit);
  std::vector<std::uint8_t> expect(params.r * unit);
  std::size_t bad = 0;
  for (std::size_t s = 0; s < stripes_; ++s) {
    try {
      for (std::size_t u = 0; u < params.n(); ++u) {
        const auto bytes = cluster_.read_unit(kVolume, s, u);
        std::copy(bytes.begin(), bytes.end(), stripe.begin() + u * unit);
      }
    } catch (const std::runtime_error&) {
      ++bad;
      continue;
    }
    cluster_.codec().encode({stripe.data(), params.k * unit}, expect, unit);
    if (!std::equal(expect.begin(), expect.end(),
                    stripe.begin() + params.k * unit))
      ++bad;
  }
  return bad;
}

bool RaidArray::corrupt_unit(std::size_t stripe, std::size_t unit) {
  return cluster_.corrupt_unit(kVolume, stripe, unit);
}

}  // namespace tvmec::cluster
