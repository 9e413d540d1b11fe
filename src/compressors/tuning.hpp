#pragma once

// Shared auto-tuning utilities for the QoZ- and HPEZ-like compressors:
// centered sub-box sampling, level-wise error-bound schedules, and the
// rate-distortion trial that selects the (alpha, beta) schedule.

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "compressors/interp_engine.hpp"
#include "compressors/plan.hpp"
#include "encode/huffman.hpp"
#include "predict/multilevel.hpp"
#include "util/field.hpp"
#include "util/stats.hpp"

namespace qip {

/// eb multiplier for level l under the (alpha, beta) schedule:
/// eb_l = eb * max(alpha^-(l-1), 1/beta). Coarse-level errors propagate
/// through interpolation to many points, so coarse bins shrink.
inline double level_eb_scale(int level, double alpha, double beta) {
  return std::max(std::pow(alpha, -(level - 1)), 1.0 / beta);
}

/// Copy a centered sub-box (up to `edge` per axis) used for tuning trials.
template <class T>
Field<T> centered_sample_box(const T* data, const Dims& dims,
                             std::size_t edge) {
  std::array<std::size_t, kMaxRank> ext{1, 1, 1, 1}, lo{0, 0, 0, 0};
  for (int a = 0; a < dims.rank(); ++a) {
    ext[a] = std::min(dims.extent(a), edge);
    lo[a] = (dims.extent(a) - ext[a]) / 2;
  }
  Field<T> out(Dims(dims.rank(), ext));
  copy_box(data, dims, lo, 1, out.data(), out.dims());
  return out;
}

/// Pick (alpha, beta) by a rate-distortion Lagrangian on a sampled
/// sub-box: J = log2(mse) + 2 * bits-per-point. At high rate one extra
/// bit per point buys a factor-4 MSE reduction, so the optimum balances
/// the terms. `per_level` supplies the already-tuned interpolation
/// choices (reused across trial schedules).
template <class T>
std::pair<double, double> tune_alpha_beta(const T* data, const Dims& dims,
                                          double error_bound,
                                          std::int32_t radius,
                                          const std::vector<LevelPlan>& per_level) {
  static constexpr std::pair<double, double> kCands[] = {
      {1.0, 1.0}, {1.25, 2.0}, {1.5, 4.0}, {2.0, 6.0}};
  Field<T> box = centered_sample_box(data, dims, 64);
  const Dims& sd = box.dims();
  const int levels = interpolation_level_count(sd);

  double best_j = std::numeric_limits<double>::infinity();
  std::pair<double, double> best = kCands[0];
  for (const auto& [alpha, beta] : kCands) {
    Field<T> work = box.clone();
    InterpPlan plan;
    plan.levels.resize(static_cast<std::size_t>(levels));
    for (int l = 1; l <= levels; ++l) {
      LevelPlan lp =
          per_level.empty()
              ? LevelPlan{}
              : per_level[std::min<std::size_t>(l - 1, per_level.size() - 1)];
      lp.eb_scale = level_eb_scale(l, alpha, beta);
      plan.levels[static_cast<std::size_t>(l - 1)] = lp;
    }
    LinearQuantizer<T> quant(error_bound, radius);
    const auto res =
        InterpEngine<T>::encode(work.data(), sd, plan, error_bound, quant,
                                QPConfig{});
    const double bits =
        static_cast<double>(huffman_cost_bits(res.symbols)) +
        static_cast<double>(quant.outlier_count()) * sizeof(T) * 8.0;
    const double m = mse(box.span(), work.span());
    const double j = (m > 0 ? std::log2(m) : -200.0) +
                     2.0 * bits / static_cast<double>(sd.size());
    if (j < best_j) {
      best_j = j;
      best = {alpha, beta};
    }
  }
  return best;
}

}  // namespace qip
