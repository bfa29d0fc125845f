// An erasure-coded object store surviving disk failures: the classic
// storage-system integration (GFS/Azure/HDFS-style) the paper targets.
//
// Writes a few objects across 8 simulated nodes with a (4, 2) code, kills
// two nodes, shows degraded reads still succeed, then repairs onto
// replacement disks and verifies the store is healthy again. Exits 0
// only when every check passes.
//
// Build & run:  ./build/examples/object_store_repair

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "cluster/cluster.h"

int main() {
  using namespace tvmec;

  cluster::Cluster store(ec::CodeParams{4, 2, 8}, /*unit_size=*/64 * 1024,
                         {.num_nodes = 8});
  std::printf("object store: k=4 r=2, 64 KB units, 8 nodes\n");

  // Write a handful of objects of assorted sizes.
  std::mt19937_64 rng(7);
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> objects;
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> payload(100 * 1024 + 37777 * i);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    const std::string name = "obj-" + std::to_string(i);
    store.put(name, payload);
    objects.emplace_back(name, std::move(payload));
  }
  std::printf("wrote %zu objects (%zu stripes)\n", store.stats().objects,
              store.stats().stripes_written);

  // Two nodes die.
  store.fail_node(1);
  store.fail_node(5);
  std::printf("nodes 1 and 5 failed\n");

  // Every object still reads back exactly (degraded reads reconstruct
  // missing units from parity on the fly).
  for (const auto& [name, payload] : objects) {
    const auto got = store.get(name);
    if (!got || *got != payload) {
      std::printf("degraded read of %s FAILED\n", name.c_str());
      return 1;
    }
  }
  std::printf("all objects readable degraded (%zu stripes reconstructed)\n",
              store.stats().degraded_reads);

  // Replacement disks arrive; rebuild lost units.
  store.revive_node(1);
  store.revive_node(5);
  const std::size_t rebuilt = store.repair();
  std::printf("repair rebuilt %zu units onto replacement nodes\n", rebuilt);

  // Healthy again: a different double failure is survivable.
  store.fail_node(0);
  store.fail_node(3);
  for (const auto& [name, payload] : objects) {
    const auto got = store.get(name);
    if (!got || *got != payload) {
      std::printf("post-repair read of %s FAILED\n", name.c_str());
      return 1;
    }
  }
  std::printf("store survived a second double failure after repair\n");

  // The scrub counts the units on the two dead nodes as missing and
  // re-places them on live nodes. None of the stored copies may be
  // corrupt, and afterwards a second pass must find nothing at all.
  const std::size_t missing = store.scrub();
  const std::size_t corrupt = store.stats().corruptions_detected;
  const std::size_t after = store.scrub();
  std::printf("scrub re-placed %zu units, found %zu corrupt; rescrub %zu\n",
              missing, corrupt, after);
  return corrupt == 0 && after == 0 ? 0 : 1;
}
