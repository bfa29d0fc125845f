#include "tune/cost_model.h"

#include <cmath>
#include <stdexcept>

namespace tvmec::tune {

namespace {

constexpr double kL1Bytes = 32.0 * 1024;
constexpr double kL2Bytes = 1024.0 * 1024;

/// Solves the symmetric positive-definite system M x = b in place via
/// Gaussian elimination with partial pivoting (dimension is tiny).
std::vector<double> solve(std::vector<std::vector<double>> m,
                          std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(m[r][col]) > std::abs(m[pivot][col])) pivot = r;
    std::swap(m[col], m[pivot]);
    std::swap(b[col], b[pivot]);
    if (std::abs(m[col][col]) < 1e-12) continue;  // ridge keeps this rare
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) m[r][c] -= f * m[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::abs(m[i][i]) < 1e-12 ? 0.0 : b[i] / m[i][i];
  return x;
}

}  // namespace

std::vector<double> featurize(const tensor::Schedule& s,
                              const TaskShape& shape) {
  const double tm = s.tile_m;
  const double tn = s.tile_n;
  const double bk = s.block_k == 0 ? static_cast<double>(shape.k)
                                   : static_cast<double>(s.block_k);
  const double bn = s.block_n == 0 ? static_cast<double>(shape.n)
                                   : static_cast<double>(s.block_n);
  const double threads = s.num_threads;

  // Operand footprints of one blocked pass, in bytes (8-byte elements).
  const double b_block_bytes = bk * bn * 8.0;
  const double c_strip_bytes = tm * bn * 8.0;

  std::vector<double> f;
  f.reserve(kNumFeatures);
  f.push_back(std::log2(tm));                       // 0 tile height
  f.push_back(std::log2(tn));                       // 1 tile width
  f.push_back(std::log2(tm * tn));                  // 2 register-tile area
  f.push_back(tm * tn / 16.0);                      // 3 accumulator pressure
  f.push_back(std::log2(1.0 + b_block_bytes / kL1Bytes));   // 4 B vs L1
  f.push_back(b_block_bytes <= kL1Bytes ? 1.0 : 0.0);       // 5 L1-resident
  f.push_back(std::log2(1.0 + b_block_bytes / kL2Bytes));   // 6 B vs L2
  f.push_back(std::log2(1.0 + c_strip_bytes / kL1Bytes));   // 7 C strip
  f.push_back(static_cast<double>(shape.k) / bk / 8.0);     // 8 k passes
  f.push_back(static_cast<double>(shape.n) / bn / 8.0);     // 9 n passes
  f.push_back(std::log2(threads));                          // 10 parallelism
  f.push_back(threads > 1 ? 1.0 : 0.0);                     // 11 parallel flag

  // Parallel-axis strategy. The decisive signal for EC shapes: register
  // tiles available along the partitioned axis per thread — M-partitioned
  // EC encodes have ~1 (starved), N-partitioned ones have thousands.
  const double m_tiles = std::ceil(static_cast<double>(shape.m) / tm);
  const double n_tiles = std::ceil(static_cast<double>(shape.n) / tn);
  const double axis_tiles = s.par_axis == tensor::ParAxis::M
                                ? m_tiles
                                : s.par_axis == tensor::ParAxis::N
                                      ? n_tiles
                                      : m_tiles * n_tiles;
  f.push_back(s.par_axis == tensor::ParAxis::N ? 1.0 : 0.0);   // 12 par n
  f.push_back(s.par_axis == tensor::ParAxis::MN ? 1.0 : 0.0);  // 13 par mn
  f.push_back(std::log2(1.0 + axis_tiles / threads));  // 14 tiles/thread
  f.push_back(std::log2(1.0 + static_cast<double>(s.par_grain)));  // 15 grain
  return f;
}

void CostModel::add_sample(const tensor::Schedule& s, const TaskShape& shape,
                           double throughput) {
  if (throughput < 0)
    throw std::invalid_argument("CostModel: negative throughput");
  features_.push_back(featurize(s, shape));
  targets_.push_back(throughput);
}

void CostModel::fit() {
  const std::size_t n = targets_.size();
  if (n < 2) return;
  const std::size_t d = kNumFeatures + 1;  // + bias
  std::vector<std::vector<double>> xtx(d, std::vector<double>(d, 0.0));
  std::vector<double> xty(d, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> x = features_[s];
    x.push_back(1.0);  // bias
    for (std::size_t i = 0; i < d; ++i) {
      xty[i] += x[i] * targets_[s];
      for (std::size_t j = 0; j < d; ++j) xtx[i][j] += x[i] * x[j];
    }
  }
  for (std::size_t i = 0; i < d; ++i) xtx[i][i] += lambda_;
  weights_ = solve(std::move(xtx), std::move(xty));
  fitted_ = true;
}

double CostModel::predict(const tensor::Schedule& s,
                          const TaskShape& shape) const {
  if (!fitted_) return 0.0;
  std::vector<double> x = featurize(s, shape);
  x.push_back(1.0);
  double y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) y += weights_[i] * x[i];
  return y;
}

}  // namespace tvmec::tune
