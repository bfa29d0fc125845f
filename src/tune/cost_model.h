#pragma once

#include <cstddef>
#include <vector>

#include "tensor/schedule.h"
#include "tune/search_space.h"

/// A learned cost model in the spirit of TVM Ansor's: featurize a
/// (schedule, task shape) pair, fit a regularized linear regressor on
/// measured throughputs, and use predictions to pick which candidates are
/// worth measuring. Deliberately simple (ridge regression on hand-rolled
/// features) — the reproduction point is the sample -> predict -> measure
/// -> retrain loop, not gradient-boosted trees.
namespace tvmec::tune {

/// Number of features produced by `featurize`.
inline constexpr std::size_t kNumFeatures = 16;

/// Schedule/shape features: tile geometry, estimated cache footprints of
/// the blocked operands relative to typical L1/L2 sizes, pass counts, and
/// parallelism (thread count, partitioned axis, and how much parallel
/// slack the partitioning leaves per thread). All scaled to be O(1). The
/// kernel tier is not a feature: a search space holds one.
std::vector<double> featurize(const tensor::Schedule& s,
                              const TaskShape& shape);

class CostModel {
 public:
  /// lambda: ridge regularization strength.
  explicit CostModel(double lambda = 1e-3) : lambda_(lambda) {}

  /// Adds a measurement (throughput in arbitrary consistent units).
  void add_sample(const tensor::Schedule& s, const TaskShape& shape,
                  double throughput);

  /// Refits the regressor on all samples. No-op with < 2 samples.
  void fit();

  /// Predicted throughput; 0 until fitted.
  double predict(const tensor::Schedule& s, const TaskShape& shape) const;

  bool fitted() const noexcept { return fitted_; }
  std::size_t num_samples() const noexcept { return targets_.size(); }

 private:
  double lambda_;
  bool fitted_ = false;
  std::vector<std::vector<double>> features_;
  std::vector<double> targets_;
  std::vector<double> weights_;  // kNumFeatures + 1 (bias last)
};

}  // namespace tvmec::tune
