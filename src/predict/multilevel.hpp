#pragma once

// Multilevel interpolation traversal (paper Sec. IV-A).
//
// SZ3-style compressors process a field level by level, coarse to fine:
// at level `l` (1-based, 1 = finest) the grid spacing is s = 2^(l-1), and
// the points on the s-grid are predicted from the already-processed
// 2s-grid, one axis ("direction") at a time. Within a level, the stage for
// the k-th axis in the direction order predicts points whose coordinate
// along that axis is an odd multiple of s, whose coordinates along
// already-done axes are any multiple of s, and whose coordinates along
// pending axes are multiples of 2s. This module enumerates those stage
// grids and exposes the per-stage linear strides that both the value
// interpolators and the quantization-index predictor (core/qp.hpp) need:
// the stage-grid spacing in the orthogonal plane is exactly the paper's
// observed 2x2 / 1x2 / 1x1 clustering strides.

#include <array>
#include <cmath>
#include <span>

#include "util/dims.hpp"

namespace qip {

/// Number of interpolation levels for a field: smallest L with 2^L >= the
/// largest extent, so that the coarsest known grid contains only the
/// origin.
inline int interpolation_level_count(const Dims& dims) {
  int levels = 1;
  while ((std::size_t{1} << levels) < dims.max_extent()) ++levels;
  return levels;
}

/// Per-axis iteration pattern of one (level, direction) stage.
struct StageGrid {
  std::array<std::size_t, kMaxRank> start{};  ///< first coordinate per axis
  std::array<std::size_t, kMaxRank> step{};   ///< coordinate step per axis
  std::size_t stride = 1;                     ///< level grid spacing s
  int dim = 0;                                ///< axis interpolated along
  int level = 1;                              ///< 1 = finest
};

/// Build the stage grid for the `k`-th axis of `order` at level stride
/// `stride` (s = 2^(level-1)).
inline StageGrid make_stage_grid([[maybe_unused]] const Dims& dims,
                                 std::size_t stride, std::span<const int> order,
                                 int k, int level) {
  StageGrid g;
  g.stride = stride;
  g.dim = order[k];
  g.level = level;
  for (int a = 0; a < kMaxRank; ++a) {
    g.start[a] = 0;
    g.step[a] = 1;  // axes beyond rank iterate once (extent 1)
  }
  for (int j = 0; j < static_cast<int>(order.size()); ++j) {
    const int axis = order[j];
    if (j < k) {
      g.start[axis] = 0;
      g.step[axis] = stride;
    } else if (j == k) {
      g.start[axis] = stride;
      g.step[axis] = 2 * stride;
    } else {
      g.start[axis] = 0;
      g.step[axis] = 2 * stride;
    }
  }
  return g;
}

/// Invoke f(coord, linear_index) for every point of the stage grid, in
/// lexicographic coordinate order (axis 0 outermost). This order
/// guarantees that the stage-grid "previous" neighbors used by QP have
/// already been visited.
template <class F>
void for_each_stage_point(const Dims& dims, const StageGrid& g, F&& f) {
  std::array<std::size_t, kMaxRank> c{};
  const std::size_t e0 = dims.extent(0), e1 = dims.extent(1);
  const std::size_t e2 = dims.extent(2), e3 = dims.extent(3);
  for (c[0] = g.start[0]; c[0] < e0; c[0] += g.step[0])
    for (c[1] = g.start[1]; c[1] < e1; c[1] += g.step[1])
      for (c[2] = g.start[2]; c[2] < e2; c[2] += g.step[2])
        for (c[3] = g.start[3]; c[3] < e3; c[3] += g.step[3])
          f(c, dims.index(c[0], c[1], c[2], c[3]));
}

/// Same as for_each_stage_point but restricted to the half-open box
/// [lo, hi) — used by HPEZ-like block-wise direction tuning.
template <class F>
void for_each_stage_point_in_box(const Dims& dims, const StageGrid& g,
                                 const std::array<std::size_t, kMaxRank>& lo,
                                 const std::array<std::size_t, kMaxRank>& hi,
                                 F&& f) {
  auto first_at_or_after = [](std::size_t start, std::size_t step,
                              std::size_t lo_a) {
    if (lo_a <= start) return start;
    const std::size_t k = (lo_a - start + step - 1) / step;
    return start + k * step;
  };
  std::array<std::size_t, kMaxRank> c{};
  std::array<std::size_t, kMaxRank> from{};
  for (int a = 0; a < kMaxRank; ++a)
    from[a] = first_at_or_after(g.start[a], g.step[a], lo[a]);
  for (c[0] = from[0]; c[0] < hi[0]; c[0] += g.step[0])
    for (c[1] = from[1]; c[1] < hi[1]; c[1] += g.step[1])
      for (c[2] = from[2]; c[2] < hi[2]; c[2] += g.step[2])
        for (c[3] = from[3]; c[3] < hi[3]; c[3] += g.step[3])
          f(c, dims.index(c[0], c[1], c[2], c[3]));
}

/// QP neighbor axes for one stage: back = the interpolation direction,
/// left/top = the two fastest remaining axes (the orthogonal plane whose
/// clustering the paper exploits). Degenerate ranks reuse the back axis
/// as the second plane axis (the stage grid is regular along it too) and
/// drop the 3-D "back" neighbor in that case.
struct QPAxes {
  int back = -1, left = -1, top = -1;
  std::size_t back_off = 0, left_off = 0, top_off = 0;
};

/// `field` decides which axes are degenerate (extent 1); `dims` gives the
/// offsets. They differ for a walk over a decimated lattice of the
/// field, where an axis may shrink to one lattice point: the walk keeps
/// the field's axis choice, and that axis's neighbors are simply never
/// available, exactly as in the full-size walk.
inline QPAxes assign_qp_axes(const StageGrid& g, const Dims& dims,
                             int back_axis, const Dims& field) {
  QPAxes ax;
  ax.back = back_axis;
  int cands[kMaxRank];
  int ncand = 0;
  for (int a = dims.rank() - 1; a >= 0; --a) {
    if (a != back_axis && field.extent(a) > 1) cands[ncand++] = a;
  }
  ax.left = ncand > 0 ? cands[0] : -1;
  ax.top = ncand > 1 ? cands[1] : (ncand == 1 ? back_axis : -1);
  if (ax.top == ax.back) ax.back = -1;
  auto off = [&](int axis) -> std::size_t {
    return axis < 0 ? 0 : g.step[axis] * dims.stride(axis);
  };
  ax.back_off = off(ax.back);
  ax.left_off = off(ax.left);
  ax.top_off = off(ax.top);
  return ax;
}

inline QPAxes assign_qp_axes(const StageGrid& g, const Dims& dims,
                             int back_axis) {
  return assign_qp_axes(g, dims, back_axis, dims);
}

/// Default SZ3 direction order: axis 0 (slowest varying, "z") first.
inline std::array<int, kMaxRank> default_order(int rank) {
  std::array<int, kMaxRank> o{};
  for (int a = 0; a < rank; ++a) o[a] = a;
  return o;
}

}  // namespace qip
