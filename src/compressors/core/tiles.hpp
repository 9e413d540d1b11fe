#pragma once

// Fixed tile grid over a field domain, shared by the container v3 tile
// directory, the interpolation engine's tile-independent traversal, and
// the partial decodes — together with the DecodeRequest every decode
// takes.
//
// Tiles split only the *fine* interpolation levels: a level l is tiled
// when l <= TileLayout::max_level. The coarse levels above stay global,
// so after decoding them the reconstruction is known on the
// 2^max_level-spaced grid everywhere — that grid is the only cross-tile
// state a tile's prediction stencils may read, which is what makes a
// tile decodable from its own symbol chunks alone (see
// docs/FORMATS.md, "tile directory").

#include <array>
#include <cstdint>

#include "util/dims.hpp"
#include "util/status.hpp"

namespace qip {

/// Sentinel tile id for whole-domain payload chunks (untiled levels and
/// non-progressive codecs).
inline constexpr std::uint64_t kWholeDomainTile = ~std::uint64_t{0};

/// How much of the payload a partial decode actually touched — the
/// figure the progressive format exists to shrink — and how much decode
/// memory it took besides its output. Surfaced by `qipc preview/extract
/// --stats` and asserted on by the progressive tests.
struct PartialDecodeStats {
  std::size_t payload_bytes_read = 0;   ///< compressed chunk bytes consumed
  std::size_t payload_bytes_total = 0;  ///< payload the archive declares
  /// Elements of the decode buffers the request allocated besides its
  /// output: 0 for a preview, which decodes straight into it; the
  /// coarse lattice plus the tile sub-field for a region.
  std::size_t scratch_elems = 0;
};

/// Half-open box [lo, hi) in field coordinates. Axes beyond the field's
/// rank must span [0, 1).
struct Box {
  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{1, 1, 1, 1};

  /// Whole-domain box for `dims`.
  static Box whole(const Dims& dims) {
    Box b;
    for (int a = 0; a < kMaxRank; ++a) b.hi[a] = dims.extent(a);
    return b;
  }
};

/// Upper bound on the payload level count a directory may declare. The
/// interpolation level count of a field is at most log2(max extent), so
/// 64 covers every representable field; anything larger is a bomb.
inline constexpr std::uint64_t kMaxPayloadLevels = 64;

/// Extent of the level-`level` preview grid along an axis of extent `e`.
inline std::size_t preview_extent(std::size_t e, int level) {
  return (e - 1) / (std::size_t{1} << (level - 1)) + 1;
}

/// Clamp and validate a region request against the archive's dims: the
/// box must be non-empty and inside the domain on every rank axis; axes
/// beyond the rank are normalized to [0, 1).
[[nodiscard]] inline Box validate_region(const Box& box, const Dims& dims) {
  Box b = box;
  for (int a = 0; a < kMaxRank; ++a) {
    if (a >= dims.rank()) {
      b.lo[a] = 0;
      b.hi[a] = 1;
      continue;
    }
    if (b.lo[a] >= b.hi[a] || b.hi[a] > dims.extent(a))
      throw DecodeError("region outside the archive's domain");
  }
  return b;
}

/// One decode: the whole field, the level-`level` preview grid (the
/// points c * 2^(level-1)), or the sub-box `box`. Every codec serves
/// kFull; the partial kinds only where the codec declares them.
struct DecodeRequest {
  enum class Kind : std::uint8_t { kFull, kPreview, kRegion };
  Kind kind = Kind::kFull;
  int level = 1;  ///< kPreview: 1 = finest grid
  Box box;        ///< kRegion

  static DecodeRequest preview(int level) {
    return {Kind::kPreview, level, Box{}};
  }
  static DecodeRequest region(const Box& box) {
    return {Kind::kRegion, 1, box};
  }

  /// Shape of the output for a field of `field_dims`, known before
  /// anything is allocated. Throws DecodeError on a preview level outside
  /// [1, kMaxPayloadLevels] or a box outside the domain.
  [[nodiscard]] Dims output_dims(const Dims& field_dims) const {
    std::array<std::size_t, kMaxRank> e{1, 1, 1, 1};
    for (int a = 0; a < field_dims.rank(); ++a) e[a] = field_dims.extent(a);
    if (kind == Kind::kPreview) {
      if (level < 1 || static_cast<std::uint64_t>(level) > kMaxPayloadLevels)
        throw DecodeError("preview level outside the archive's level range");
      for (int a = 0; a < field_dims.rank(); ++a)
        e[a] = preview_extent(e[a], level);
    } else if (kind == Kind::kRegion) {
      const Box b = validate_region(box, field_dims);
      for (int a = 0; a < field_dims.rank(); ++a) e[a] = b.hi[a] - b.lo[a];
    }
    return Dims(field_dims.rank(), e);
  }
};

/// Points of `box` (clipped to the domain) whose every coordinate is a
/// multiple of 2^`log_step`.
inline std::size_t grid_points_in_box(const Dims& dims, const Box& box,
                                      int log_step) {
  std::size_t n = 1;
  for (int a = 0; a < dims.rank(); ++a) {
    const std::size_t hi =
        box.hi[a] < dims.extent(a) ? box.hi[a] : dims.extent(a);
    if (box.lo[a] >= hi) return 0;
    if (log_step >= 63) {  // only coordinate 0 is such a multiple
      n *= box.lo[a] == 0 ? 1 : 0;
      continue;
    }
    const std::size_t s = std::size_t{1} << log_step;
    const std::size_t first = (box.lo[a] + s - 1) / s * s;
    n *= first < hi ? (hi - 1 - first) / s + 1 : 0;
  }
  return n;
}

/// Points of interpolation level `level` (>= 1) inside `box`: those on
/// the 2^(level-1) grid but not on the 2^level grid. The stages of a
/// level partition exactly this set whatever the plan, so it is the
/// symbol count of the level's chunk for that box — a tile chunk's
/// count is fixed by the grid and the dims alone.
inline std::size_t level_point_count(const Dims& dims, int level,
                                     const Box& box) {
  return grid_points_in_box(dims, box, level - 1) -
         grid_points_in_box(dims, box, level);
}

/// Copy the strided sub-grid src[lo + c * step], c < dst_dims, into the
/// dense array `dst` of shape `dst_dims`: a crop at step 1, a level
/// decimation from lo 0. Axes beyond the rank need lo 0.
template <class T>
void copy_box(const T* src, const Dims& src_dims,
              const std::array<std::size_t, kMaxRank>& lo, std::size_t step,
              T* dst, const Dims& dst_dims) {
  std::array<std::size_t, kMaxRank> c{};
  std::size_t i = 0;
  for (c[0] = 0; c[0] < dst_dims.extent(0); ++c[0])
    for (c[1] = 0; c[1] < dst_dims.extent(1); ++c[1])
      for (c[2] = 0; c[2] < dst_dims.extent(2); ++c[2])
        for (c[3] = 0; c[3] < dst_dims.extent(3); ++c[3])
          dst[i++] = src[src_dims.index(lo[0] + c[0] * step,
                                        lo[1] + c[1] * step,
                                        lo[2] + c[2] * step,
                                        lo[3] + c[3] * step)];
}

/// The fixed tile grid induced by a tile edge length over `dims`. Tile
/// ids are lexicographic (axis 0 outermost), matching the engine's
/// traversal order and the directory's chunk order.
struct TileGrid {
  std::array<std::size_t, kMaxRank> count{1, 1, 1, 1};
  std::size_t tile = 0;  ///< edge length (elements per axis)
  std::size_t total = 1;

  TileGrid() = default;
  TileGrid(const Dims& dims, std::size_t tile_size) : tile(tile_size) {
    for (int a = 0; a < dims.rank(); ++a) {
      count[a] = (dims.extent(a) + tile_size - 1) / tile_size;
      total *= count[a];
    }
  }

  /// Box of tile `id`; clipped to the field extents.
  Box box(std::uint64_t id, const Dims& dims) const {
    Box b;
    std::array<std::size_t, kMaxRank> c{};
    std::uint64_t rest = id;
    for (int a = kMaxRank - 1; a >= 0; --a) {
      c[a] = static_cast<std::size_t>(rest % count[a]);
      rest /= count[a];
    }
    for (int a = 0; a < kMaxRank; ++a) {
      if (a < dims.rank()) {
        b.lo[a] = c[a] * tile;
        b.hi[a] = b.lo[a] + tile < dims.extent(a) ? b.lo[a] + tile
                                                  : dims.extent(a);
      } else {
        b.lo[a] = 0;
        b.hi[a] = dims.extent(a);
      }
    }
    return b;
  }

  /// Id of the tile containing coordinate `c` (axes beyond rank ignored).
  std::uint64_t id_of(const std::array<std::size_t, kMaxRank>& c) const {
    std::uint64_t id = 0;
    for (int a = 0; a < kMaxRank; ++a) id = id * count[a] + c[a] / tile;
    return id;
  }
};

/// Tiling decision committed into an archive: which edge length, and up
/// to which interpolation level tiles apply (levels 1..max_level are
/// tiled, coarser levels stay global). max_level == 0 means untiled.
struct TileLayout {
  std::size_t tile_size = 0;
  int max_level = 0;

  bool active() const { return tile_size > 0 && max_level > 0; }
  bool tiled(int level) const { return active() && level <= max_level; }

  /// Grid spacing of the globally-known reconstruction once every
  /// untiled level has been decoded; the only out-of-tile points a tiled
  /// level's stencils may read.
  std::size_t known_stride() const { return std::size_t{1} << max_level; }

  /// The committed layout for a request of tile edge `tile_size` over
  /// `dims` with `level_count` interpolation levels. Returns an inactive
  /// layout when tiling cannot pay for itself: the edge is clamped to a
  /// power of two in [16, 4096], levels are tiled only while a tile
  /// spans at least 8 stage strides, and a grid of fewer than two tiles
  /// is no grid at all.
  static TileLayout plan(std::size_t tile_size, const Dims& dims,
                         int level_count) {
    TileLayout t;
    if (tile_size == 0) return t;
    std::size_t edge = 16;
    while (edge < tile_size && edge < 4096) edge *= 2;
    if (edge > dims.max_extent()) return t;  // single tile: pointless
    int ml = 0;
    while (ml + 1 <= level_count &&
           (std::size_t{1} << ml) * 8 <= edge)
      ++ml;
    if (ml == 0) return t;
    t.tile_size = edge;
    t.max_level = ml < level_count ? ml : level_count - 1;
    if (t.max_level <= 0) return TileLayout{};
    return t;
  }
};

}  // namespace qip
