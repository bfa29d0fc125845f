#include "tensor/schedule.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace tvmec::tensor {

const char* to_string(ParAxis axis) noexcept {
  switch (axis) {
    case ParAxis::M:
      return "m";
    case ParAxis::N:
      return "n";
    case ParAxis::MN:
      return "mn";
  }
  return "?";
}

std::string Schedule::to_string() const {
  std::string s = "mt" + std::to_string(tile_m) + "x" + std::to_string(tile_n);
  s += " kb" + std::to_string(block_k);
  s += " nb" + std::to_string(block_n);
  s += " t" + std::to_string(num_threads);
  s += " p";
  s += tensor::to_string(par_axis);
  s += " g" + std::to_string(par_grain);
  s += " v";
  s += tensor::to_string(variant);
  return s;
}

Schedule Schedule::parse(const std::string& text) {
  Schedule s;
  unsigned long long bk = 0;
  unsigned long long bn = 0;
  int consumed = 0;
  if (std::sscanf(text.c_str(), "mt%dx%d kb%llu nb%llu t%d%n", &s.tile_m,
                  &s.tile_n, &bk, &bn, &s.num_threads, &consumed) != 5)
    throw std::invalid_argument("Schedule::parse: malformed '" + text + "'");
  const char* rest = text.c_str() + consumed;
  while (*rest == ' ') ++rest;
  if (*rest == '\0') {
    // Legacy 5-field form: predates the parallel-axis knobs, when rows
    // of C were always partitioned.
    s.par_axis = ParAxis::M;
    s.par_grain = 0;
  } else {
    unsigned long long grain = 0;
    char axis[4] = {};
    int tail = 0;
    if (std::sscanf(rest, "p%3s g%llu%n", axis, &grain, &tail) != 2)
      throw std::invalid_argument("Schedule::parse: malformed '" + text +
                                  "'");
    if (std::strcmp(axis, "m") == 0) {
      s.par_axis = ParAxis::M;
    } else if (std::strcmp(axis, "n") == 0) {
      s.par_axis = ParAxis::N;
    } else if (std::strcmp(axis, "mn") == 0) {
      s.par_axis = ParAxis::MN;
    } else {
      throw std::invalid_argument("Schedule::parse: bad parallel axis '" +
                                  text + "'");
    }
    s.par_grain = static_cast<std::size_t>(grain);
    rest += tail;
    while (*rest == ' ') ++rest;
    if (*rest == 'v') {
      // Variant suffix; absent in pre-variant 7-field logs (-> Auto).
      const auto v = variant_from_string(rest + 1);
      if (!v)
        throw std::invalid_argument("Schedule::parse: bad variant '" + text +
                                    "'");
      s.variant = *v;
    } else if (*rest != '\0') {
      throw std::invalid_argument("Schedule::parse: malformed '" + text +
                                  "'");
    }
  }
  s.block_k = static_cast<std::size_t>(bk);
  s.block_n = static_cast<std::size_t>(bn);
  if (!s.valid())
    throw std::invalid_argument("Schedule::parse: invalid schedule '" +
                                text + "'");
  return s;
}

bool is_supported_tile(int tile_m, int tile_n) noexcept {
  const auto ok_m = [](int t) { return t == 1 || t == 2 || t == 4 || t == 8; };
  const auto ok_n = [](int t) {
    return t == 1 || t == 2 || t == 4 || t == 8 || t == 16 || t == 32 ||
           t == 64;
  };
  return ok_m(tile_m) && ok_n(tile_n);
}

bool Schedule::valid() const noexcept {
  if (!is_supported_tile(tile_m, tile_n)) return false;
  if (num_threads < 1 || num_threads > 256) return false;
  if (par_axis != ParAxis::M && par_axis != ParAxis::N &&
      par_axis != ParAxis::MN)
    return false;
  // Absurd grains (chunks of a million tiles) are pointless but harmless;
  // cap to keep to_string/parse and the search space sane.
  if (par_grain > (std::size_t{1} << 20)) return false;
  switch (variant) {
    case KernelVariant::Auto:
    case KernelVariant::Scalar:
    case KernelVariant::Avx2:
    case KernelVariant::Avx512:
    case KernelVariant::Neon:
    case KernelVariant::Gfni:
      break;
    default:
      return false;
  }
  return true;
}

Schedule default_schedule() noexcept {
  Schedule s;
  s.tile_m = 4;
  s.tile_n = 4;
  s.block_k = 0;
  s.block_n = 0;
  s.num_threads = 1;
  s.par_axis = ParAxis::N;
  s.par_grain = 0;
  return s;
}

}  // namespace tvmec::tensor
