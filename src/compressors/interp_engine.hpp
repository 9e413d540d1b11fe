#pragma once

// Shared multilevel interpolation engine (paper Sec. IV-A, Algorithm 1).
//
// SZ3-, QoZ-, HPEZ- and MGARD-like compressors all traverse the field
// level by level, predict each point by interpolation from already
// processed points, quantize the residual, and keep the *reconstructed*
// value in the working buffer so later predictions see exactly what the
// decompressor will see. This class implements that traversal once, for
// both directions (encode/decode template parameter), with:
//
//  * sequential direction orders (SZ3/QoZ) and parity-class
//    multi-dimensional interpolation (HPEZ-like),
//  * optional block-wise plans with cross-block stencil guards
//    (HPEZ-like 32^3 adaptive blocks),
//  * per-level error-bound scaling (QoZ-like),
//  * inline quantization-index prediction (the paper's QP, Algorithm 1
//    line 7) driven by core/qp.hpp.
//
// Decode replays the identical traversal, so QP compensations are
// recomputed from already-recovered indices — information symmetry is by
// construction.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "compressors/plan.hpp"
#include "core/qp.hpp"
#include "core/tiles.hpp"
#include "predict/interpolation.hpp"
#include "predict/multilevel.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "util/dims.hpp"
#include "util/scratch.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace qip {

/// One contiguous run of the encoded symbol stream: the symbols of one
/// interpolation level, or of one tile within a tiled level (tile ==
/// kWholeDomainTile for untiled runs). Recorded by the encoder in
/// traversal order and sealed 1:1 into container-v3 payload chunks, so
/// partial decodes can seek by level/tile without replaying the walk.
struct SymbolSpan {
  int level = 0;
  std::uint64_t tile = kWholeDomainTile;
  std::size_t begin = 0;          ///< first symbol index
  std::size_t count = 0;          ///< symbols in the run
  std::size_t outlier_begin = 0;  ///< quantizer outliers before the run
  std::size_t outlier_count = 0;  ///< outliers the run's symbols consume
};

template <class T>
class InterpEngine {
 public:
  struct EncodeResult {
    /// Entropy-coder input, in traversal order (anchor, then levels).
    std::vector<std::uint32_t> symbols;
    /// Spatial array of stored codes (q + radius; 0 = unpredictable),
    /// retained only when requested — used by the characterization tools.
    std::vector<std::uint32_t> codes;
    /// Spatial arrangement of the encoded symbols (Q' in the paper),
    /// retained with `codes`; lets the Fig. 5 bench compare regional
    /// entropy before and after quantization index prediction.
    std::vector<std::uint32_t> symbols_spatial;
  };

  /// Compress `data` in place (it holds the reconstruction afterwards).
  /// The symbol buffer is preallocated to the exact point count and
  /// written through a cursor — the traversal visits every point exactly
  /// once, so no push_back bookkeeping is needed in the hot loop.
  ///
  /// With `tiles` active, levels <= tiles->max_level are traversed tile
  /// by tile under the known-grid stencil rule (see run_stage), making
  /// each tile's symbols decodable on their own. `spans` (when given)
  /// receives one SymbolSpan per level / per tile in traversal order —
  /// the contract container v3 seals into its payload directory.
  ///
  /// `pool` (when given) fans eligible stages out across the workers via
  /// run_stage_par, and the tiles of each tiled level out one tile per
  /// task (walk_tiles) — bytes stay identical to the sequential walk at
  /// every worker count.
  [[nodiscard]] static EncodeResult encode(T* data, const Dims& dims, const InterpPlan& plan,
                             double base_eb, LinearQuantizer<T>& quant,
                             const QPConfig& qp, bool keep_codes = false,
                             const TileLayout* tiles = nullptr,
                             std::vector<SymbolSpan>* spans = nullptr,
                             ThreadPool* pool = nullptr) {
    EncodeResult res;
    res.symbols.assign(dims.size(), 0);
    // Without keep_codes the QP codes live in per-thread scratch (see
    // walk); the characterization tools get the spatial arrays.
    if (keep_codes) {
      res.codes.assign(dims.size(), 0);
      res.symbols_spatial.assign(dims.size(), 0);
    }
    walk<true>(data, dims, plan, base_eb, quant, qp, res.symbols.data(),
               keep_codes ? res.codes.data() : nullptr,
               keep_codes ? &res.symbols_spatial : nullptr, tiles, spans,
               /*stop_level=*/1, pool);
    return res;
  }

  /// Reverse of encode(); fills `data` with the reconstruction. Throws
  /// DecodeError when `symbols` holds fewer entries than the traversal
  /// consumes (hostile archives must not drive the cursor out of bounds).
  ///
  /// `tiles` must replay the layout the archive was encoded under.
  /// `stop_level` = L > 1 decodes only the levels >= L — the progressive
  /// preview: the traversal consumes exactly grid_point_count(dims, L)
  /// symbols and fills the level-L lattice, the points c * 2^(L-1), into
  /// `data` as a dense array of shape
  /// DecodeRequest::preview(L).output_dims(dims) (see Lattice). Every
  /// value is bit-identical to that point of a full decode.
  static void decode(std::span<const std::uint32_t> symbols, const Dims& dims,
                     const InterpPlan& plan, double base_eb,
                     LinearQuantizer<T>& quant, const QPConfig& qp, T* data,
                     const TileLayout* tiles = nullptr, int stop_level = 1,
                     ThreadPool* pool = nullptr) {
    if (stop_level < 1) stop_level = 1;
    if (symbols.size() < grid_point_count(dims, stop_level))
      throw DecodeError("interp: symbol stream shorter than field");
    walk<false>(data, dims, plan, base_eb, quant, qp, symbols.data(), nullptr,
                nullptr, tiles, nullptr, stop_level, pool);
  }

  /// Decode the symbols of one tile chunk (one level, one tile box) into
  /// `data`, for the region path: the known grid (the untiled levels)
  /// must already be in `data`, and coarser tiled levels of the same
  /// tile must have been applied first. `dims` may be a sub-field of the
  /// archive's whose origin is a multiple of the known stride, with
  /// `box` in its coordinates: every boundary and known-grid test then
  /// answers as in the field, provided the sub-field holds the known
  /// grid the tile's stencils reach (see decode_region in
  /// core/driver.hpp). The caller positions the quantizer's outlier
  /// cursor from the chunk directory, and passes `codes_need` =
  /// tile_codes_needed(dims, plan, qp, tiles, 1), computed once for all
  /// the chunks of a region so they share one buffer per thread. Throws
  /// DecodeError when the level is not tiled or the symbol count does
  /// not match the tile's level-point count — the guards that keep
  /// hostile directories from driving the cursor out of bounds.
  static void decode_tile(std::span<const std::uint32_t> symbols,
                          const Dims& dims, const InterpPlan& plan,
                          double base_eb, LinearQuantizer<T>& quant,
                          const QPConfig& qp, T* data, const TileLayout& tiles,
                          int level, const Box& box, std::size_t codes_need) {
    if (level < 1 || level > static_cast<int>(plan.levels.size()) ||
        !tiles.tiled(level))
      throw DecodeError("interp: tile chunk level outside the tiled levels");
    if (symbols.size() != level_point_count(dims, level, box))
      throw DecodeError("interp: tile chunk symbol count mismatch");
    const LevelPlan& lp = plan.levels[static_cast<std::size_t>(level - 1)];
    quant.set_error_bound(base_eb * lp.eb_scale);
    std::size_t cursor = 0;
    run_tile<false>(data, Lattice::of(dims, 1), lp, level, quant, qp,
                    symbols.data(), cursor,
                    codes_need ? scratch_cache<std::uint32_t>(codes_need)
                               : nullptr,
                    nullptr, box, tiles.known_stride());
    quant.set_error_bound(base_eb);
  }

  /// Compact QP code entries one thread needs to walk any tile of the
  /// tiled levels >= `from_level`: their largest stage on tile 0. Tile 0
  /// holds the largest tile stage because every tile edge is a power of
  /// two of at least 4 * known_stride() (the directory parser refuses
  /// anything else), so all tiles share tile 0's stage-grid phase and
  /// only edge tiles clip.
  static std::size_t tile_codes_needed(const Dims& dims,
                                       const InterpPlan& plan,
                                       const QPConfig& qp,
                                       const TileLayout& tiles,
                                       int from_level) {
    if (!tiles.active()) return 0;
    const Box tile0 = TileGrid(dims, tiles.tile_size).box(0, dims);
    const int top = std::min(tiles.max_level,
                             static_cast<int>(plan.levels.size()));
    std::size_t need = 0;
    for (int l = std::max(from_level, 1); l <= top; ++l) {
      const LevelPlan& lp = plan.levels[static_cast<std::size_t>(l - 1)];
      need = std::max(need, qp_codes_needed(dims, lp, l, qp, tile0));
    }
    return need;
  }

  /// Points whose every coordinate is a multiple of 2^(level-1): the
  /// grid fully known once levels >= `level` are decoded, and exactly
  /// the symbol count a stop_level = `level` decode consumes.
  static std::size_t grid_point_count(const Dims& dims, int level) {
    return grid_points_in_box(dims, Box::whole(dims), level - 1);
  }

  /// Dry-run prediction of one stage on a subsample of its points, using
  /// original (unquantized) values for both targets and stencils. Returns
  /// a bit-cost proxy: sum over sampled points of log2(2|q|+1)+1. Used by
  /// the QoZ-like per-level tuner and the HPEZ-like block tuner to rank
  /// candidate plans cheaply and deterministically.
  static double sample_stage_cost(const T* data, const Dims& dims,
                                  const StageGrid& g, const LevelPlan& lp,
                                  double eb, std::size_t sample_step);

  /// Total sampled bit-cost of one whole level under candidate plan `lp`,
  /// optionally restricted to box [lo, hi). The workhorse of the QoZ-like
  /// per-level tuner and the HPEZ-like per-block tuner.
  static double level_cost_sample(const T* data, const Dims& dims, int level,
                                  const LevelPlan& lp, double eb,
                                  std::size_t sample_step,
                                  const std::array<std::size_t, kMaxRank>* lo =
                                      nullptr,
                                  const std::array<std::size_t, kMaxRank>* hi =
                                      nullptr);

 private:
  /// Symbol cursor type: encode writes symbols, decode reads them.
  template <bool kEncode>
  using SymPtr = std::conditional_t<kEncode, std::uint32_t*, const std::uint32_t*>;

  /// Per-stage constants for interpolation + QP.
  struct StageCtx {
    StageGrid g;
    std::uint32_t md_mask = 0;  // parity-class axes; 0 => sequential stage
    int back_axis = -1, left_axis = -1, top_axis = -1;
    std::size_t back_off = 0, left_off = 0, top_off = 0;
  };

  static constexpr std::size_t kNoBlock = ~std::size_t{0};

  /// The array a walk runs on: the field itself (shift 0), or for a
  /// stop-level-L decode the level-L lattice — the field points whose
  /// every coordinate is a multiple of S = 2^shift, shift = L - 1,
  /// stored densely. Every field length the walk uses (stage stride, box
  /// and tile edge, known stride) divides by S on the lattice, and
  /// a point x = x'·S passes `x + k·s < n` exactly when x' + k·s/S <
  /// ceil(n/S), so stencil kinds, QP neighbors and symbol counts match
  /// the full-size walk's at every point. Plans, error bounds and the QP
  /// gate keep the true level; `field` keeps the QP axis choice and the
  /// HPEZ block grid.
  struct Lattice {
    Dims dims;   ///< the array walked
    Dims field;  ///< the field the archive describes
    int shift = 0;

    static Lattice of(const Dims& field, int stop_level) {
      return {DecodeRequest::preview(stop_level).output_dims(field), field,
              stop_level - 1};
    }
    /// Grid spacing of `level` (>= shift + 1) on the lattice.
    std::size_t stride(int level) const {
      return std::size_t{1} << (level - 1 - shift);
    }
    /// A field coordinate bound mapped onto the lattice: ceil(v / S).
    std::size_t up(std::size_t v) const {
      return (v + (std::size_t{1} << shift) - 1) >> shift;
    }
  };

  /// Fill the StageCtx QP fields from the shared axis-assignment rule.
  static void assign_qp_axes(StageCtx& ctx, const Lattice& lat) {
    const QPAxes ax =
        qip::assign_qp_axes(ctx.g, lat.dims, ctx.back_axis, lat.field);
    ctx.back_axis = ax.back;
    ctx.left_axis = ax.left;
    ctx.top_axis = ax.top;
    ctx.back_off = ax.back_off;
    ctx.left_off = ax.left_off;
    ctx.top_off = ax.top_off;
  }

  /// Build the sequential-order stage for position k of `order`.
  static StageCtx make_seq_stage(const Lattice& lat, std::size_t stride,
                                 const LevelPlan& lp, int k, int level) {
    const Dims& dims = lat.dims;
    int order[kMaxRank] = {0, 1, 2, 3};
    for (int a = 0; a < dims.rank(); ++a) order[a] = lp.order[a];
    StageCtx ctx;
    ctx.g = make_stage_grid(dims, stride,
                            std::span<const int>(order, dims.rank()), k, level);
    ctx.back_axis = ctx.g.dim;
    assign_qp_axes(ctx, lat);
    return ctx;
  }

  /// Build the parity-class stage for axis set `mask` (HPEZ-like md mode).
  static StageCtx make_md_stage(const Lattice& lat, std::size_t stride,
                                std::uint32_t mask, int level) {
    const Dims& dims = lat.dims;
    StageCtx ctx;
    ctx.md_mask = mask;
    ctx.g.stride = stride;
    ctx.g.level = level;
    for (int a = 0; a < kMaxRank; ++a) {
      ctx.g.start[a] = 0;
      ctx.g.step[a] = 1;
    }
    for (int a = 0; a < dims.rank(); ++a) {
      ctx.g.start[a] = (mask >> a) & 1 ? stride : 0;
      ctx.g.step[a] = 2 * stride;
    }
    // Interpolation "direction" for QP purposes: fastest axis in the class.
    for (int a = dims.rank() - 1; a >= 0; --a) {
      if ((mask >> a) & 1) {
        ctx.g.dim = a;
        break;
      }
    }
    ctx.back_axis = ctx.g.dim;
    assign_qp_axes(ctx, lat);
    return ctx;
  }

  /// 1-D interpolation along `axis` with spacing `s`, honoring the SZ3
  /// boundary rules (cubic -> quadratic -> linear -> copy) and an
  /// optional usability predicate for cross-block guards.
  template <class Usable>
  static T interp_1d(const T* data, const Dims& dims,
                     const std::array<std::size_t, kMaxRank>& c,
                     std::size_t idx, int axis, std::size_t s,
                     InterpKind kind, Usable&& usable) {
    const std::size_t x = c[axis];
    const std::size_t n = dims.extent(axis);
    const std::ptrdiff_t st =
        static_cast<std::ptrdiff_t>(s * dims.stride(axis));

    // b = f(x-s) always exists (x is an odd multiple of s, so x >= s).
    const T b = data[idx - st];
    T cv{}, av{}, dv{};
    const bool has_c = x + s < n && usable(axis, x + s);
    if (has_c) cv = data[idx + st];
    const bool has_a = x >= 3 * s && usable(axis, x - 3 * s);
    if (has_a) av = data[idx - 3 * st];
    const bool has_d = x + 3 * s < n && usable(axis, x + 3 * s);
    if (has_d) dv = data[idx + 3 * st];

    if (!has_c) return b;
    if (kind == InterpKind::kLinear) return interp_linear(b, cv);
    if (has_a && has_d) return interp_cubic(av, b, cv, dv);
    if (has_a) return interp_quad(cv, b, av);
    if (has_d) return interp_quad(b, cv, dv);
    return interp_linear(b, cv);
  }

  /// Full prediction for a stage point: sequential stages interpolate
  /// along the stage direction; parity-class stages average the 1-D
  /// interpolations along every class axis.
  template <class Usable>
  static T predict_point(const T* data, const Dims& dims, const StageCtx& ctx,
                         const std::array<std::size_t, kMaxRank>& c,
                         std::size_t idx, InterpKind kind, Usable&& usable) {
    if (ctx.md_mask == 0) {
      return interp_1d(data, dims, c, idx, ctx.g.dim, ctx.g.stride, kind,
                       usable);
    }
    double acc = 0.0;
    int cnt = 0;
    for (int a = 0; a < dims.rank(); ++a) {
      if ((ctx.md_mask >> a) & 1) {
        acc += static_cast<double>(
            interp_1d(data, dims, c, idx, a, ctx.g.stride, kind, usable));
        ++cnt;
      }
    }
    return static_cast<T>(acc / cnt);
  }

  static bool qp_active_at(const QPConfig& qp, int level) {
    return qp.enabled && level <= qp.max_level &&
           qp.dimension != QPDimension::kNone;
  }

  /// Compact QP code entries one thread needs to walk `box` at `level`:
  /// the largest stage QP runs on there (0 when it runs on none). The
  /// walk sizes each thread's scratch once from this, so a buffer never
  /// grows between the stages of one walk.
  static std::size_t qp_codes_needed(const Dims& dims, const LevelPlan& lp,
                                     int level, const QPConfig& qp,
                                     const Box& box) {
    if (!qp_active_at(qp, level)) return 0;
    std::size_t m = 0;
    for_each_stage(Lattice::of(dims, 1), lp, level, [&](const StageCtx& ctx) {
      m = std::max(m, stage_shape(dims, ctx.g, box).total);
    });
    return m;
  }

  /// Process every point of one stage inside `box`. kEncode selects
  /// direction. `blocked` marks a box narrower than the domain: an HPEZ
  /// block, or a tile when `tile_known` != 0. Sequential stages run
  /// row-major through run_stage_slice and its SIMD row kernels (across
  /// `pool` via run_stage_par when the box is the whole domain); HPEZ
  /// blocks, parity-class (md) stages and the characterization path
  /// (`sym_spatial`) of tiles take the per-point walker below.
  ///
  /// `tile_known` != 0 switches the cross-boundary stencil guard to the
  /// stricter tile-independence rule: outside the box only points of
  /// the globally-known grid (every coordinate a multiple of
  /// `tile_known` = the tiling's known stride) are usable. Unlike the
  /// HPEZ block guard it admits neither earlier blocks nor the
  /// level-entry 2s grid, because a region decode reconstructs *no*
  /// tiled-level point outside the requested tiles — not even at
  /// coarser tiled levels.
  ///
  /// `codes` holds the QP codes: compact and box-local, in scratch of at
  /// least the stage's size, except on the characterization path, which
  /// passes the spatial array its consumers expect. It is written only
  /// where QP runs (or characterization asks for it), and it is
  /// uninitialized: compensation only reads entries a same-stage point
  /// of the same box wrote earlier in traversal order (the avail gates
  /// floor at the box's first stage layer).
  template <bool kEncode>
  static void run_stage(T* data, const Dims& dims, const StageCtx& ctx,
                        InterpKind kind, LinearQuantizer<T>& quant,
                        const QPConfig& qp, SymPtr<kEncode> syms,
                        std::size_t& cursor, std::uint32_t* codes,
                        std::vector<std::uint32_t>* sym_spatial, bool blocked,
                        const Box& box, std::size_t tile_known = 0,
                        ThreadPool* pool = nullptr) {
    const StageShape sh = stage_shape(dims, ctx.g, box);
    if (sh.empty) return;
    const bool tile_rows = tile_known != 0 && sym_spatial == nullptr;
    if (ctx.md_mask == 0 && (!blocked || tile_rows)) {
      if (!blocked && pool != nullptr && sym_spatial == nullptr &&
          run_stage_par<kEncode>(data, dims, ctx, kind, quant, qp, syms,
                                 cursor, codes, sh, pool))
        return;
      StageSlice sl = full_slice(sh);
      sl.known = tile_known;
      // Neighboring tiles may run concurrently (walk_tiles).
      sl.shared = tile_known != 0;
      run_stage_slice<kEncode>(data, dims, ctx, kind, quant, qp, syms, cursor,
                               codes, sym_spatial, sh, sl,
                               [](std::size_t, std::size_t) {});
      cursor += sh.total;
      return;
    }
    const std::int32_t radius = quant.radius();
    const std::size_t s2 = 2 * ctx.g.stride;
    const std::array<std::size_t, kMaxRank>& lo = box.lo;
    const std::array<std::size_t, kMaxRank>& hi = box.hi;

    // Cross-block stencil guard. A stencil point differs from the current
    // point only along `axis`; it is usable iff it lies
    //  * inside the current block (earlier stage of the same block), or
    //  * in an earlier block along `axis` (blocks are processed in
    //    lexicographic order, so with all other block coordinates equal
    //    the smaller-axis block is already fully processed), or
    //  * on the level-entry grid: *every* coordinate a multiple of 2s —
    //    the along-axis coordinate must divide 2s AND the current point's
    //    other coordinates must too, because the stencil point inherits
    //    them. Anything else in a forward block is unprocessed at decode
    //    time and must not be read.
    // Tile mode (`tile_known` != 0) replaces the last two rules with the
    // known-grid rule documented above.
    const std::array<std::size_t, kMaxRank>* cur = nullptr;
    auto usable = [&](int axis, std::size_t y) -> bool {
      if (!blocked) return true;
      if (y >= lo[axis] && y < hi[axis]) return true;
      if (tile_known != 0) {
        if (y % tile_known != 0) return false;
        for (int a = 0; a < dims.rank(); ++a)
          if (a != axis && (*cur)[a] % tile_known != 0) return false;
        return true;
      }
      if (y < lo[axis]) return true;  // earlier block along this axis
      if (y % s2 != 0) return false;
      for (int a = 0; a < dims.rank(); ++a)
        if (a != axis && (*cur)[a] % s2 != 0) return false;
      return true;
    };

    // Compact codes follow the visit order (lexicographic over the box's
    // stage grid), so a point's code slot is its stage-local symbol
    // index and its QP neighbors sit one StageShape::cstr step back.
    const bool compact = sym_spatial == nullptr;
    std::uint32_t* const cstore =
        qp_active_at(qp, ctx.g.level) || !compact ? codes : nullptr;
    const std::size_t cursor0 = cursor;
    QPNeighborhood nb;
    nb.back = compact && ctx.back_axis >= 0 ? sh.cstr[ctx.back_axis]
                                            : ctx.back_off;
    nb.left = compact && ctx.left_axis >= 0 ? sh.cstr[ctx.left_axis]
                                            : ctx.left_off;
    nb.top = compact && ctx.top_axis >= 0 ? sh.cstr[ctx.top_axis]
                                          : ctx.top_off;
    auto visit = [&](const std::array<std::size_t, kMaxRank>& c,
                     std::size_t idx) {
      cur = &c;
      const T pred =
          predict_point(data, dims, ctx, c, idx, kind, usable);
      const std::size_t ci = compact ? cursor - cursor0 : idx;

      // QP neighbors exist from the box's second stage layer on.
      auto avail = [&](int axis, std::size_t off) -> bool {
        return axis >= 0 && off != 0 &&
               c[axis] >= sh.first[axis] + ctx.g.step[axis];
      };
      nb.avail_back = avail(ctx.back_axis, ctx.back_off);
      nb.avail_left = avail(ctx.left_axis, ctx.left_off);
      nb.avail_top = avail(ctx.top_axis, ctx.top_off);

      const std::int64_t comp =
          qp_compensation(cstore, ci, nb, qp, ctx.g.level, radius);

      if constexpr (kEncode) {
        T recon;
        const std::uint32_t code = quant.quantize(data[idx], pred, &recon);
        data[idx] = recon;
        if (cstore) cstore[ci] = code;
        const std::uint32_t sym = qp_encode_symbol(code, comp, radius);
        if (sym_spatial) (*sym_spatial)[idx] = sym;
        syms[cursor++] = sym;
      } else {
        const std::uint32_t code =
            qp_decode_symbol(syms[cursor++], comp, radius);
        if (cstore) cstore[ci] = code;
        data[idx] = quant.recover(code, pred);
      }
    };

    if (blocked) {
      for_each_stage_point_in_box(dims, ctx.g, lo, hi, visit);
    } else {
      for_each_stage_point(dims, ctx.g, visit);
    }
  }

  /// Geometry of one sequential stage clipped to a box (the whole
  /// domain, or one tile): the box's first stage coordinate per axis,
  /// the per-axis stage-grid extents over the box, and box-local symbol
  /// strides. The strides serve double duty — cstr[a] is both the
  /// symbol-stream distance between adjacent grid layers along `a` and
  /// the compact-codes stride — which is what makes every symbol's
  /// position format-determined: the row with box-local grid
  /// coordinates k lands at sum(k[a] * cstr[a]), independent of who
  /// computes it. That identity is the backbone of run_stage_par and of
  /// the tile fan-out.
  struct StageShape {
    Box box;                                    ///< the clip, in the domain
    std::array<std::size_t, kMaxRank> first{};  ///< first stage coordinate
    std::array<std::size_t, kMaxRank> gext{};   ///< stage-grid extents
    std::array<std::size_t, kMaxRank> cstr{};   ///< symbol/compact strides
    std::size_t cnt = 0;    ///< points per row (last-axis grid extent)
    std::size_t rows = 0;   ///< number of rows
    std::size_t total = 0;  ///< rows * cnt: symbols this stage emits
    bool empty = true;      ///< stage has no points in the box
  };

  static StageShape stage_shape(const Dims& dims, const StageGrid& g,
                                const Box& box) {
    StageShape sh;
    std::size_t acc = 1;
    for (int a = kMaxRank - 1; a >= 0; --a) {
      sh.box.lo[a] = box.lo[a];
      sh.box.hi[a] = std::min(box.hi[a], dims.extent(a));
      sh.first[a] = first_on(g.start[a], g.step[a], box.lo[a]);
      if (sh.first[a] >= sh.box.hi[a]) return StageShape{};
      sh.cstr[a] = acc;
      sh.gext[a] = (sh.box.hi[a] - 1 - sh.first[a]) / g.step[a] + 1;
      acc *= sh.gext[a];
    }
    sh.cnt = sh.gext[dims.rank() - 1];
    sh.total = acc;
    sh.rows = acc / sh.cnt;
    sh.empty = false;
    return sh;
  }

  /// One partition of a stage for the parallel walk: odometer axes run
  /// [from[a], to[a]), row points run [j0, min(j1, cnt)). `spec_axis`
  /// (encode speculation only) floors the QP availability along that
  /// axis at from[spec_axis] instead of the box's first stage layer, so
  /// the partition's first layer emits compensation-free symbols rather
  /// than reading codes across the partition boundary. The full stage is
  /// full_slice(shape).
  struct StageSlice {
    std::array<std::size_t, kMaxRank> from{};
    std::array<std::size_t, kMaxRank> to{};
    std::size_t j0 = 0;
    std::size_t j1 = ~std::size_t{0};
    int spec_axis = -1;
    /// Neighboring slices run concurrently on other workers, so the
    /// SIMD row kernels must keep their full-width load footprints
    /// inside this slice's own predicted lanes (RowArgs::shared_*).
    bool shared = false;
    /// Tile clip: != 0 applies the known-grid stencil rule outside the
    /// shape's box (see run_stage); 0 for whole-domain slices.
    std::size_t known = 0;
  };

  static StageSlice full_slice(const StageShape& sh) {
    StageSlice sl;
    sl.from = sh.first;
    sl.to = sh.box.hi;
    return sl;
  }

  /// The kernel a point takes given which stencil points it may read:
  /// the SZ3 boundary rules cubic -> quadratic -> linear -> copy, exactly
  /// as interp_1d applies them.
  static PredKind pick_kind(InterpKind kind, bool has_a, bool has_c,
                            bool has_d) {
    if (!has_c) return PredKind::kCopy;
    if (kind == InterpKind::kLinear) return PredKind::kLinear;
    if (has_a && has_d) return PredKind::kCubic;
    if (has_a) return PredKind::kQuadA;
    if (has_d) return PredKind::kQuadD;
    return PredKind::kLinear;
  }

  /// Row-major traversal of one slice of a sequential stage, over the
  /// whole domain or clipped to a tile. Rows walk the fastest axis at
  /// element stride 1; the stencil boundary rules (cubic -> quadratic ->
  /// linear -> copy) and the QP neighbor availability are resolved per
  /// row (or per row segment when the interpolation axis *is* the row
  /// axis), not per point, and the linear index advances incrementally
  /// instead of being recomputed from coordinates at every point.
  /// Produces exactly the same symbols, codes and reconstruction as the
  /// per-point walker under the same stencil rule.
  ///
  /// `sym_base` is the stage's first symbol position; each row's symbols
  /// land at sym_base + row_off + j with row_off from StageShape::cstr,
  /// so disjoint slices write disjoint, format-determined ranges.
  /// `seg_fn(row_off, pos)` fires once per row before its first point —
  /// the hook run_stage_par uses to reposition per-worker outlier
  /// cursors (decode) and record outlier segment positions (encode).
  ///
  /// Tile slices (sl.known != 0) apply the known-grid rule per row:
  /// along the row axis it moves the segment bounds; off it, it is
  /// constant along a row unless the row's other coordinates sit on the
  /// known grid and a stencil leg leaves the box — those rows emit
  /// their foreign-reading points one by one.
  template <bool kEncode, class SegFn>
  static void run_stage_slice(T* data, const Dims& dims, const StageCtx& ctx,
                              InterpKind kind, LinearQuantizer<T>& quant,
                              const QPConfig& qp, SymPtr<kEncode> syms,
                              std::size_t sym_base, std::uint32_t* codes,
                              std::vector<std::uint32_t>* sym_spatial,
                              const StageShape& sh, const StageSlice& sl,
                              SegFn&& seg_fn) {
    const StageGrid& g = ctx.g;
    const int last = dims.rank() - 1;
    const std::size_t s = g.stride;
    const int d = g.dim;
    const int level = g.level;
    const std::int32_t radius = quant.radius();
    const bool qp_active = qp_active_at(qp, level);
    std::uint32_t* const codes_p = codes;
    // Codes written by this stage are read back only by same-level QP
    // compensation (and by the characterization tools); when neither
    // consumer exists the stores are dead — skip them.
    std::uint32_t* const cstore =
        (qp_active || sym_spatial != nullptr) ? codes_p : nullptr;

    const std::size_t first_l = sh.first[last];
    const std::size_t step_l = g.step[last];
    const std::size_t cnt = sh.cnt;
    const std::size_t jlo = sl.j0;
    const std::size_t jhi = std::min(sl.j1, cnt);
    if (jlo >= jhi) return;

    // Compact stage-local codes layout (see RowArgs::ci0): every QP
    // neighbor offset is one stage-grid step (multilevel.hpp), so codes
    // can index by grid coordinate instead of spatial position — rows
    // become unit-stride and the traffic shrinks from the whole field's
    // span to the stage's own footprint. The characterization path
    // (sym_spatial) keeps the spatial layout its consumers expect.
    const bool compact = cstore != nullptr && sym_spatial == nullptr;
    const std::array<std::size_t, kMaxRank>& cstr = sh.cstr;
    const std::size_t cback = ctx.back_axis >= 0 ? cstr[ctx.back_axis] : 0;
    const std::size_t cleft = ctx.left_axis >= 0 ? cstr[ctx.left_axis] : 0;
    const std::size_t ctop = ctx.top_axis >= 0 ? cstr[ctx.top_axis] : 0;

    // Stencil geometry. A stencil point at coordinate y along d is
    // usable when it lies in the domain and in the clip box, or — tile
    // slices only — on the known grid when the point's other
    // coordinates are too (`onk`).
    const std::size_t K = sl.known;
    const std::size_t n_d = dims.extent(d);
    const std::size_t lo_d = sh.box.lo[d];
    const std::size_t hi_d = sh.box.hi[d];
    auto usable = [&](std::size_t y, bool onk) {
      return y < n_d && ((y >= lo_d && y < hi_d) || (onk && y % K == 0));
    };
    const std::ptrdiff_t st =
        static_cast<std::ptrdiff_t>(d == last ? s : s * dims.stride(d));

    // Row-axis interpolation (d == last): the rules change along the row
    // at fixed positions, jc = first point whose forward neighbor
    // f(x+s) is unusable, jd = first point whose far forward neighbor
    // f(x+3s) is (jd <= jc). Only j == 0 can lack f(x-3s). Both bounds
    // are monotone, so the known grid extends each by at most two
    // points past the box.
    struct RowBounds {
      std::size_t jc = 0, jd = 0;
      bool a0 = false;
    };
    auto row_bounds = [&](bool onk) {
      RowBounds rb;
      if (d != last) return rb;
      const std::size_t lim = std::min(n_d, hi_d);
      auto below = [&](std::size_t off) -> std::size_t {
        return lim > first_l + off
                   ? std::min(cnt, (lim - first_l - off - 1) / step_l + 1)
                   : 0;
      };
      rb.jc = below(s);
      while (rb.jc < cnt && usable(first_l + rb.jc * step_l + s, onk)) ++rb.jc;
      rb.jd = below(3 * s);
      while (rb.jd < cnt && usable(first_l + rb.jd * step_l + 3 * s, onk))
        ++rb.jd;
      rb.a0 = first_l >= 3 * s && usable(first_l - 3 * s, onk);
      return rb;
    };
    const RowBounds rb_off = row_bounds(false);
    const RowBounds rb_on = K != 0 ? row_bounds(true) : rb_off;

    // SIMD row-kernel eligibility for this stage. Stride-1/2 rows run
    // the direct vector loads; wider spacings (levels >= 2 along the row
    // axis) go through the kernels' gather path, which stages each tile
    // into contiguous scratch rows first. The characterization path
    // (sym_spatial) and exotic radii stay on the engine's own loops. See
    // simd/dispatch.hpp for the identity contract, QIP_SIMD_FORCE_SCALAR
    // and QIP_SIMD_TIER.
    const simd::Kernels<T>* kt = simd::kernels<T>();
    if (kt && (sym_spatial != nullptr || radius <= 0 || radius > (1 << 20)))
      kt = nullptr;
    // Decode must chain point-by-point when a QP-read axis runs along
    // the row: compensation at point j then consumes codes decoded by
    // this very segment. Encode never needs this (a block's codes are
    // all committed before its compensations are read).
    bool qp_serial = false;
    if (kt && qp_active) {
      switch (qp.dimension) {
        case QPDimension::k1DBack:
          qp_serial = ctx.back_axis == last;
          break;
        case QPDimension::k1DTop:
          qp_serial = ctx.top_axis == last;
          break;
        case QPDimension::k1DLeft:
          qp_serial = ctx.left_axis == last;
          break;
        case QPDimension::k2D:
          qp_serial = ctx.left_axis == last || ctx.top_axis == last;
          break;
        case QPDimension::k3D:
          qp_serial = ctx.back_axis == last || ctx.left_axis == last ||
                      ctx.top_axis == last;
          break;
        case QPDimension::kNone:
          break;
      }
    }

    std::array<std::size_t, kMaxRank> c{};
    for (int a = 0; a < kMaxRank; ++a) c[a] = sl.from[a];

    for (;;) {
      std::size_t base = 0;
      for (int a = 0; a < last; ++a) base += c[a] * dims.stride(a);
      // Stage-local row offset: symbol position of the row's j == 0
      // point relative to the stage base, and (compact mode) the row's
      // codes base — one value, by the cstr double duty above.
      std::size_t row_off = 0;
      for (int a = 0; a < last; ++a)
        row_off += (c[a] - sh.first[a]) / g.step[a] * cstr[a];
      const std::size_t cbase = row_off;
      std::size_t cur = sym_base + row_off + jlo;
      seg_fn(row_off, cur);

      // QP neighbor availability is constant along the row except on the
      // row axis, where only j == 0 lacks its stage-grid predecessor.
      // The floor is the box's first stage layer; along the speculation
      // axis it is the slice entry instead: the partition's first layer
      // pretends its predecessor layer does not exist (compensation 0) so
      // pass 1 never reads codes owned by another partition.
      // run_stage_par's serial pass 2 recomputes those rows' symbols
      // afterwards.
      QPNeighborhood nbR;
      nbR.back = compact ? cback : ctx.back_off;
      nbR.left = compact ? cleft : ctx.left_off;
      nbR.top = compact ? ctop : ctx.top_off;
      auto row_avail = [&](int axis, std::size_t off) {
        if (axis < 0 || off == 0) return false;
        if (axis == last) return true;
        const std::size_t fl =
            axis == sl.spec_axis ? sl.from[axis] : sh.first[axis];
        return c[axis] >= fl + g.step[axis];
      };
      nbR.avail_back = row_avail(ctx.back_axis, ctx.back_off);
      nbR.avail_left = row_avail(ctx.left_axis, ctx.left_off);
      nbR.avail_top = row_avail(ctx.top_axis, ctx.top_off);
      QPNeighborhood nb0 = nbR;
      if (ctx.back_axis == last) nb0.avail_back = false;
      if (ctx.left_axis == last) nb0.avail_left = false;
      if (ctx.top_axis == last) nb0.avail_top = false;

      auto emit = [&](std::size_t idx, std::size_t ci, T pred,
                      const QPNeighborhood& nb) {
        const std::int64_t comp =
            qp_active ? qp_compensation(codes_p, ci, nb, qp, level, radius)
                      : 0;
        if constexpr (kEncode) {
          T recon;
          const std::uint32_t code = quant.quantize(data[idx], pred, &recon);
          data[idx] = recon;
          if (cstore) cstore[ci] = code;
          const std::uint32_t sym = qp_encode_symbol(code, comp, radius);
          if (sym_spatial) (*sym_spatial)[idx] = sym;
          syms[cur++] = sym;
        } else {
          const std::uint32_t code = qp_decode_symbol(syms[cur++], comp, radius);
          if (cstore) cstore[ci] = code;
          data[idx] = quant.recover(code, pred);
        }
      };

      // Run points j0..j1 of the row through one prediction kernel,
      // clamped to the slice's point range. Long interior segments hand
      // off to the dispatched SIMD row kernel (bit-identical by
      // contract); j == 0 stays scalar because it alone uses the nb0
      // neighborhood.
      auto run_seg = [&](std::size_t j0, std::size_t j1, PredKind pk,
                         auto&& predfn) {
        j0 = std::max(j0, jlo);
        j1 = std::min(j1, jhi);
        if (j0 >= j1) return;
        const std::size_t cistep = compact ? 1 : step_l;
        std::size_t i = base + first_l + j0 * step_l;
        std::size_t ci = compact ? cbase + j0 : i;
        std::size_t j = j0;
        if (j == 0) {
          emit(i, ci, predfn(i), nb0);
          ++j;
          i += step_l;
          ci += cistep;
        }
        // A tile's stride-2 deinterleaving loads reach one element past
        // the segment's last point; when that element lies beyond the
        // box (the next row in memory, or the next tile), the last point
        // stays scalar so no full-width load touches a neighbor's lanes.
        std::size_t jk = j1;
        if (K != 0 && step_l == 2 && first_l + (j1 - 1) * step_l + 1 >=
                                         sh.box.hi[last])
          --jk;
        if (kt != nullptr && jk > j && jk - j >= simd::kMinKernelPoints) {
          simd::RowArgs<T> ra;
          ra.data = data;
          ra.codes = cstore;
          ra.total = dims.size();
          ra.i0 = i;
          ra.count = jk - j;
          ra.estep = step_l;
          ra.ci0 = ci;
          ra.cestep = cistep;
          ra.st = st;
          ra.kind = pk;
          ra.quant = &quant;
          ra.qp = &qp;
          ra.nb = nbR;
          ra.level = level;
          ra.radius = radius;
          ra.qp_active = qp_active;
          ra.qp_serial = qp_serial;
          // Concurrent-neighbor load guards: the preceding lane is
          // another worker's only when this kernel segment starts the
          // row's j-slice; the trailing lanes are foreign whenever the
          // segment runs to the slice boundary (next j-slice, or the
          // next row in memory for row-partitioned slices) — and, in a
          // tile, past any segment, whose forward stencil may end on a
          // known-grid point just outside the box.
          ra.shared_lo = sl.shared && jlo > 0 && j == jlo;
          ra.shared_hi = sl.shared && (K != 0 || j1 == jhi);
          if constexpr (kEncode) {
            ra.syms_out = syms + cur;
            kt->encode_row(ra);
          } else {
            ra.syms_in = syms + cur;
            kt->decode_row(ra);
          }
          cur += ra.count;
          j = jk;
          i += ra.count * step_l;
          ci += ra.count * cistep;
        }
        for (; j < j1; ++j, i += step_l, ci += cistep)
          emit(i, ci, predfn(i), nbR);
      };

      auto p_copy = [&](std::size_t i) { return data[i - st]; };
      auto p_lin = [&](std::size_t i) {
        return interp_linear(data[i - st], data[i + st]);
      };
      auto p_cubic = [&](std::size_t i) {
        return interp_cubic(data[i - 3 * st], data[i - st], data[i + st],
                            data[i + 3 * st]);
      };
      auto p_quad_a = [&](std::size_t i) {
        return interp_quad(data[i + st], data[i - st], data[i - 3 * st]);
      };
      auto p_quad_d = [&](std::size_t i) {
        return interp_quad(data[i - st], data[i + st], data[i + 3 * st]);
      };
      auto seg = [&](std::size_t j0, std::size_t j1, PredKind pk) {
        switch (pk) {
          case PredKind::kCopy: return run_seg(j0, j1, pk, p_copy);
          case PredKind::kLinear: return run_seg(j0, j1, pk, p_lin);
          case PredKind::kCubic: return run_seg(j0, j1, pk, p_cubic);
          case PredKind::kQuadA: return run_seg(j0, j1, pk, p_quad_a);
          case PredKind::kQuadD: return run_seg(j0, j1, pk, p_quad_d);
        }
      };

      // Known-grid membership of the row's coordinates other than d and
      // the row axis; only tile slices consult it.
      bool rest_on_known = K != 0;
      for (int a = 0; rest_on_known && a < last; ++a)
        if (a != d && c[a] % K != 0) rest_on_known = false;

      if (d != last) {
        // The stencil moves along axis d, whose coordinate is fixed
        // within the row, so the whole row shares one kernel — unless
        // the known grid admits a foreign leg at some row points only.
        const std::size_t x = c[d];
        auto pick_at = [&](bool onk) {
          return pick_kind(kind, x >= 3 * s && usable(x - 3 * s, onk),
                           usable(x + s, onk), usable(x + 3 * s, onk));
        };
        const PredKind k0 = pick_at(false);
        const PredKind k1 = rest_on_known ? pick_at(true) : k0;
        if (k1 == k0) {
          seg(0, cnt, k0);
        } else {
          // Row points on the known grid take k1 (its foreign legs are
          // known-grid points), one at a time; runs between them share
          // k0, whose legs stay inside the box.
          std::size_t j = 0;
          while (j < cnt) {
            const bool on = (first_l + j * step_l) % K == 0;
            std::size_t e = j + 1;
            if (!on)
              while (e < cnt && (first_l + e * step_l) % K != 0) ++e;
            seg(j, e, on ? k1 : k0);
            j = e;
          }
        }
      } else {
        const RowBounds& rb = rest_on_known ? rb_on : rb_off;
        if (kind == InterpKind::kLinear) {
          seg(0, rb.jc, PredKind::kLinear);
          seg(rb.jc, cnt, PredKind::kCopy);
        } else {
          seg(0, 1, pick_kind(kind, rb.a0, rb.jc > 0, rb.jd > 0));
          seg(1, rb.jd, PredKind::kCubic);
          seg(std::max<std::size_t>(1, rb.jd), rb.jc, PredKind::kQuadA);
          seg(std::max<std::size_t>(1, rb.jc), cnt, PredKind::kCopy);
        }
      }

      int a = last - 1;
      for (; a >= 0; --a) {
        c[a] += g.step[a];
        if (c[a] < sl.to[a]) break;
        c[a] = sl.from[a];
      }
      if (a < 0) break;
    }
  }

  /// Stages smaller than this stay sequential: the fan-out bookkeeping
  /// (outlier splice / per-row prefix sums) costs more than it saves.
  static constexpr std::size_t kParMinPoints = std::size_t{1} << 15;

  /// Drive one whole-domain sequential stage across `pool` with
  /// worker-count-independent bytes. Returns false when no safe
  /// partition exists — the caller then walks the whole stage as one
  /// slice.
  ///
  /// Symbol (and compact-code) positions are format-determined — row
  /// with grid coordinates k starts at sum(k[a] * cstr[a]) — so every
  /// worker writes exactly where the sequential walk would. The only
  /// cross-row coupling is the QP compensation chain, handled by one of
  /// three schemes:
  ///
  ///  * Free-axis partitioning: the chain axes are the availability
  ///    gates qp_compensation actually reads for this stage's
  ///    QPDimension (a degenerate axis — off == 0 — contributes
  ///    compensation 0 and is not a chain axis). Any other grid axis
  ///    with >= 2 layers partitions the rows into contiguous coordinate
  ///    ranges whose chain reads are all internal: a neighbor along a
  ///    chain axis differs only along that axis, so it shares the
  ///    partition-axis coordinate.
  ///  * j-slicing: when only the row axis is chain-free, split every
  ///    row's point range [j_w, j_{w+1}) instead. Chain reads land at
  ///    the same j of an earlier row — again internal, because every
  ///    partition walks all rows in order.
  ///  * Encode speculation (no chain-free axis at all, e.g. a rank-2
  ///    k2D stage): partition along the widest axis anyway, suppress
  ///    availability across the boundary (the slice's spec_axis), and
  ///    serially recompute the boundary layers' symbols afterwards from
  ///    the committed codes (fix_boundary_layers). Codes, the
  ///    reconstruction and the outlier list are compensation-independent
  ///    — qp_encode_symbol returns 0 iff code == 0 — so pass 1's only
  ///    provisional output is boundary-row symbols. Decode cannot
  ///    speculate (codes are derived from compensations there), so such
  ///    stages decode sequentially.
  ///
  /// Outliers keep the sequential order by construction: encode records
  /// them in worker-local quantizers with per-row segment positions and
  /// splices the segments back sorted by symbol position; decode gives
  /// each worker a cursor-bearing view of the shared table, repositioned
  /// per row from the per-row zero-symbol prefix sums (symbol 0 is the
  /// only outlier consumer on a well-formed stream; a hostile stream
  /// that wraps a nonzero symbol onto code 0 reads bounded garbage or
  /// throws DecodeError — the same guarantee the sequential walk gives,
  /// though the garbage may differ).
  template <bool kEncode>
  static bool run_stage_par(T* data, const Dims& dims, const StageCtx& ctx,
                            InterpKind kind, LinearQuantizer<T>& quant,
                            const QPConfig& qp, SymPtr<kEncode> syms,
                            std::size_t& cursor, std::uint32_t* codes,
                            const StageShape& sh, ThreadPool* pool) {
    const StageGrid& g = ctx.g;
    const int last = dims.rank() - 1;
    if (sh.total < kParMinPoints) return false;
    unsigned width = pool->size();
    if (const unsigned cap = ThreadPool::width_cap(); cap && cap < width)
      width = cap;
    if (width < 2) return false;

    // The chain axes for this stage (see the contract above).
    const bool qp_active = qp.enabled && g.level <= qp.max_level &&
                           qp.dimension != QPDimension::kNone;
    bool chain[kMaxRank] = {false, false, false, false};
    if (qp_active) {
      const bool b = ctx.back_axis >= 0 && ctx.back_off > 0;
      const bool l = ctx.left_axis >= 0 && ctx.left_off > 0;
      const bool t = ctx.top_axis >= 0 && ctx.top_off > 0;
      switch (qp.dimension) {
        case QPDimension::k1DBack:
          if (b) chain[ctx.back_axis] = true;
          break;
        case QPDimension::k1DTop:
          if (t) chain[ctx.top_axis] = true;
          break;
        case QPDimension::k1DLeft:
          if (l) chain[ctx.left_axis] = true;
          break;
        case QPDimension::k2D:
          // qp2d_compensation requires left AND top; back is unused.
          if (l && t) {
            chain[ctx.left_axis] = true;
            chain[ctx.top_axis] = true;
          }
          break;
        case QPDimension::k3D:
          if (b && l && t) {
            chain[ctx.back_axis] = true;
            chain[ctx.left_axis] = true;
            chain[ctx.top_axis] = true;
          }
          break;
        case QPDimension::kNone:
          break;
      }
    }

    // Partition scheme: prefer the widest chain-free odometer axis, then
    // j-slicing, then (encode only) speculation along the widest axis.
    int p = -1;
    for (int a = 0; a < last; ++a) {
      if (chain[a] || sh.gext[a] < 2) continue;
      if (p < 0 || sh.gext[a] > sh.gext[p]) p = a;
    }
    bool jslice = false;
    bool speculate = false;
    if (p < 0) {
      if (!chain[last] && sh.cnt >= width * 2 * simd::kMinKernelPoints) {
        jslice = true;
      } else if constexpr (kEncode) {
        for (int a = 0; a < last; ++a)
          if (sh.gext[a] >= 2 && (p < 0 || sh.gext[a] > sh.gext[p])) p = a;
        if (p < 0) return false;
        speculate = true;
      } else {
        return false;
      }
    }

    // Units to split: grid layers along p, or points per row (j-slicing).
    const std::size_t units = jslice ? sh.cnt : sh.gext[p];
    if (static_cast<std::size_t>(width) > units)
      width = static_cast<unsigned>(units);
    if (speculate && static_cast<std::size_t>(width) > units / 2)
      width = static_cast<unsigned>(units / 2);  // >= 1 non-boundary layer
    if (width < 2) return false;

    const std::size_t sym_base = cursor;
    auto make_slice = [&](unsigned w) {
      StageSlice sl = full_slice(sh);
      sl.shared = true;
      if (jslice) {
        sl.j0 = units * w / width;
        sl.j1 = units * (w + 1) / width;
      } else {
        sl.from[p] = g.start[p] + units * w / width * g.step[p];
        sl.to[p] = std::min(dims.extent(p),
                            g.start[p] + units * (w + 1) / width * g.step[p]);
        if (speculate) sl.spec_axis = p;
      }
      return sl;
    };

    if constexpr (!kEncode) {
      // Per-row zero-symbol prefix sums position each worker's outlier
      // cursor; j-slicing additionally needs the zeros before each
      // slice boundary within the row.
      std::vector<std::size_t> pz(sh.rows + 1, 0);
      std::vector<std::size_t> cut;
      if (jslice) cut.assign(sh.rows * width, 0);
      pool->parallel_for(width, [&](std::size_t w) {
        const std::size_t r0 = sh.rows * w / width;
        const std::size_t r1 = sh.rows * (w + 1) / width;
        for (std::size_t r = r0; r < r1; ++r) {
          const std::uint32_t* row = syms + sym_base + r * sh.cnt;
          std::size_t z = 0;
          if (jslice) {
            for (unsigned v = 0; v < width; ++v) {
              cut[r * width + v] = z;
              const std::size_t jb = units * (v + 1) / width;
              for (std::size_t j = units * v / width; j < jb; ++j)
                z += row[j] == 0;
            }
          } else {
            for (std::size_t j = 0; j < sh.cnt; ++j) z += row[j] == 0;
          }
          pz[r + 1] = z;
        }
      });
      for (std::size_t r = 0; r < sh.rows; ++r) pz[r + 1] += pz[r];

      const std::size_t out_base = quant.outlier_cursor();
      pool->parallel_for(width, [&](std::size_t w) {
        LinearQuantizer<T> vq = LinearQuantizer<T>::view_of(quant);
        run_stage_slice<false>(
            data, dims, ctx, kind, vq, qp, syms, sym_base, codes, nullptr, sh,
            make_slice(static_cast<unsigned>(w)),
            [&](std::size_t row_off, std::size_t) {
              const std::size_t r = row_off / sh.cnt;
              vq.set_outlier_cursor(out_base + pz[r] +
                                    (jslice ? cut[r * width + w] : 0));
            });
      });
      quant.set_outlier_cursor(out_base + pz[sh.rows]);
      cursor = sym_base + sh.total;
      return true;
    } else {
      // Encode: worker-local quantizers record outliers; one segment per
      // outlier-producing row, keyed by the row slice's symbol position
      // (strictly increasing in traversal order), then spliced back
      // sorted so the parent's list is byte-identical to sequential.
      struct OutSeg {
        std::size_t pos;    ///< symbol position of the row slice
        std::size_t begin;  ///< first outlier in the worker's local list
        std::size_t count;
        unsigned w;
      };
      std::vector<std::vector<T>> louts(width);
      std::vector<std::vector<OutSeg>> lsegs(width);
      pool->parallel_for(width, [&](std::size_t w) {
        LinearQuantizer<T> lq(quant.error_bound(), quant.radius());
        std::vector<OutSeg>& segs = lsegs[w];
        std::size_t seg_pos = 0;
        std::size_t mark = 0;
        auto flush = [&](std::size_t next_pos) {
          const std::size_t n = lq.outlier_count();
          if (n > mark)
            segs.push_back({seg_pos, mark, n - mark,
                            static_cast<unsigned>(w)});
          mark = n;
          seg_pos = next_pos;
        };
        run_stage_slice<true>(data, dims, ctx, kind, lq, qp, syms, sym_base,
                              codes, nullptr, sh,
                              make_slice(static_cast<unsigned>(w)),
                              [&](std::size_t, std::size_t pos) { flush(pos); });
        flush(0);
        louts[w] = lq.take_outliers();
      });

      std::size_t nseg = 0;
      for (const auto& v : lsegs) nseg += v.size();
      std::vector<OutSeg> all;
      all.reserve(nseg);
      for (const auto& v : lsegs) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end(),
                [](const OutSeg& x, const OutSeg& y) { return x.pos < y.pos; });
      for (const OutSeg& sg : all)
        quant.append_outliers(
            std::span<const T>(louts[sg.w]).subspan(sg.begin, sg.count));

      if (speculate)
        fix_boundary_layers(dims, ctx, qp, syms, sym_base, codes, sh, p, width,
                            quant.radius());
      cursor = sym_base + sh.total;
      return true;
    }
  }

  /// Pass 2 of the encode speculation: serially recompute the symbols of
  /// every partition-boundary layer from the committed compact codes,
  /// now with the true cross-partition availability. Codes, the
  /// reconstruction and the outliers are compensation-independent, so
  /// only these rows' symbols change — and a symbol flips between zero
  /// and nonzero only with its code, which pass 1 already fixed, so the
  /// outlier correspondence is untouched.
  static void fix_boundary_layers(const Dims& dims, const StageCtx& ctx,
                                  const QPConfig& qp, std::uint32_t* syms,
                                  std::size_t sym_base, std::uint32_t* codes,
                                  const StageShape& sh, int p, unsigned width,
                                  std::int32_t radius) {
    const StageGrid& g = ctx.g;
    const int last = dims.rank() - 1;
    const int level = g.level;
    const simd::Kernels<T>* kt = simd::kernels<T>();
    if (kt && (radius <= 0 || radius > (1 << 20) || kt->sym_fix_row == nullptr))
      kt = nullptr;
    const std::size_t cback = ctx.back_axis >= 0 ? sh.cstr[ctx.back_axis] : 0;
    const std::size_t cleft = ctx.left_axis >= 0 ? sh.cstr[ctx.left_axis] : 0;
    const std::size_t ctop = ctx.top_axis >= 0 ? sh.cstr[ctx.top_axis] : 0;

    for (unsigned w = 1; w < width; ++w) {
      const std::size_t layer = sh.gext[p] * w / width;
      std::array<std::size_t, kMaxRank> c{};
      for (int a = 0; a < kMaxRank; ++a) c[a] = g.start[a];
      c[p] = g.start[p] + layer * g.step[p];
      for (;;) {
        std::size_t row_off = 0;
        for (int a = 0; a < last; ++a)
          row_off += (c[a] - g.start[a]) / g.step[a] * sh.cstr[a];

        QPNeighborhood nb;
        nb.back = cback;
        nb.left = cleft;
        nb.top = ctop;
        auto row_avail = [&](int axis, std::size_t off) {
          if (axis < 0 || off == 0) return false;
          if (axis == last) return true;
          // The true rule: the boundary layer's predecessor along p
          // (suppressed in pass 1) exists, because layer >= 1.
          return c[axis] >= g.start[axis] + g.step[axis];
        };
        nb.avail_back = row_avail(ctx.back_axis, cback);
        nb.avail_left = row_avail(ctx.left_axis, cleft);
        nb.avail_top = row_avail(ctx.top_axis, ctop);
        QPNeighborhood nb0 = nb;
        if (ctx.back_axis == last) nb0.avail_back = false;
        if (ctx.left_axis == last) nb0.avail_left = false;
        if (ctx.top_axis == last) nb0.avail_top = false;

        std::size_t ci = row_off;
        std::size_t pos = sym_base + row_off;
        std::size_t j = 0;
        if (sh.cnt > 0) {
          syms[pos] = qp_encode_symbol(
              codes[ci], qp_compensation(codes, ci, nb0, qp, level, radius),
              radius);
          ++j;
          ++ci;
          ++pos;
        }
        if (kt != nullptr && sh.cnt - j >= simd::kMinKernelPoints) {
          simd::RowArgs<T> ra;
          ra.data = nullptr;
          ra.codes = codes;
          ra.total = 0;
          ra.i0 = 0;
          ra.count = sh.cnt - j;
          ra.estep = 1;
          ra.ci0 = ci;
          ra.cestep = 1;
          ra.st = 0;
          ra.kind = PredKind::kCopy;
          ra.quant = nullptr;
          ra.qp = &qp;
          ra.nb = nb;
          ra.level = level;
          ra.radius = radius;
          ra.qp_active = true;
          ra.qp_serial = false;
          ra.syms_out = syms + pos;
          kt->sym_fix_row(ra);
          j = sh.cnt;
        }
        for (; j < sh.cnt; ++j, ++ci, ++pos)
          syms[pos] = qp_encode_symbol(
              codes[ci], qp_compensation(codes, ci, nb, qp, level, radius),
              radius);

        int a = last - 1;
        for (; a >= 0; --a) {
          if (a == p) continue;
          c[a] += g.step[a];
          if (c[a] < dims.extent(a)) break;
          c[a] = g.start[a];
        }
        if (a < 0) break;
      }
    }
  }

  static std::size_t first_on(std::size_t start, std::size_t step,
                              std::size_t at_least) {
    if (at_least <= start) return start;
    const std::size_t k = (at_least - start + step - 1) / step;
    return start + k * step;
  }

  /// Enumerate the stages of `lp` at `level` on `lat` and feed them to
  /// `fn`.
  template <class F>
  static void for_each_stage(const Lattice& lat, const LevelPlan& lp,
                             int level, F&& fn) {
    const int rank = lat.dims.rank();
    const std::size_t stride = lat.stride(level);
    if (!lp.md) {
      for (int k = 0; k < rank; ++k)
        fn(make_seq_stage(lat, stride, lp, k, level));
      return;
    }
    const std::uint32_t nmask = 1u << rank;
    for (int pc = 1; pc <= rank; ++pc) {
      for (std::uint32_t mask = 1; mask < nmask; ++mask) {
        if (std::popcount(mask) == pc)
          fn(make_md_stage(lat, stride, mask, level));
      }
    }
  }

  /// Every stage of tiled level `level` inside one tile box, in plan
  /// order: sequential stages on the row kernels (tile slice), md stages
  /// and the characterization path on the per-point walker.
  template <bool kEncode>
  static void run_tile(T* data, const Lattice& lat, const LevelPlan& lp,
                       int level, LinearQuantizer<T>& quant,
                       const QPConfig& qp, SymPtr<kEncode> syms,
                       std::size_t& cursor, std::uint32_t* codes,
                       std::vector<std::uint32_t>* sym_spatial,
                       const Box& box, std::size_t known) {
    for_each_stage(lat, lp, level, [&](const StageCtx& ctx) {
      run_stage<kEncode>(data, lat.dims, ctx, lp.kind, quant, qp, syms,
                         cursor, codes, sym_spatial, /*blocked=*/true, box,
                         known);
    });
  }

  /// One tiled level: every tile runs all its stages under the known-grid
  /// stencil rule, in the grid's lexicographic id order — the order the
  /// v3 directory seals. A tile reads nothing another tile of the level
  /// writes (its stencils leave the box only for known-grid points, its
  /// QP codes are box-local), so with `pool` the tiles fan out one per
  /// task:
  ///  * symbols: tile t's run starts at the level base plus the
  ///    level-point counts of the tiles before it, a format-determined
  ///    offset;
  ///  * encode outliers: each tile quantizes through its own quantizer,
  ///    and the per-tile lists splice back in tile order;
  ///  * decode outliers: each tile reads through a view of the shared
  ///    table seeked to its prefix, taken from per-tile zero-symbol
  ///    counts (symbol 0 is the only outlier consumer on a well-formed
  ///    stream; see run_stage_par for the hostile-stream guarantee).
  /// The bytes are those of the sequential tile loop at every width.
  /// Each tile walks with the QP codes of the thread it runs on: the
  /// characterization path's `spatial` array, or that thread's scratch
  /// of `codes_need` entries. On a lattice the tile grid divides by S:
  /// tile edge and known stride are multiples of S at every tiled level
  /// >= the stop level, so the grid keeps its tile count and each box
  /// maps to [lo/S, ceil(hi/S)).
  template <bool kEncode>
  static void walk_tiles(T* data, const Lattice& lat, const LevelPlan& lp,
                         int level, LinearQuantizer<T>& quant,
                         const QPConfig& qp, SymPtr<kEncode> syms,
                         std::size_t& cursor, std::uint32_t* spatial,
                         std::size_t codes_need,
                         std::vector<std::uint32_t>* sym_spatial,
                         const TileLayout& tiles,
                         std::vector<SymbolSpan>* spans, ThreadPool* pool) {
    const Dims& dims = lat.dims;
    const TileGrid grid(dims, tiles.tile_size >> lat.shift);
    const std::size_t n = grid.total;
    const std::size_t known = tiles.known_stride() >> lat.shift;
    std::vector<std::size_t> at(n + 1, cursor);
    for (std::size_t t = 0; t < n; ++t)
      at[t + 1] = at[t] + level_point_count(dims, level - lat.shift,
                                            grid.box(t, dims));
    auto record = [&](std::size_t t, std::size_t out_begin,
                      std::size_t out_count) {
      if (spans)
        spans->push_back(
            {level, t, at[t], at[t + 1] - at[t], out_begin, out_count});
    };
    auto tile = [&](std::size_t t, LinearQuantizer<T>& q) {
      std::uint32_t* const codes =
          spatial != nullptr || codes_need == 0
              ? spatial
              : scratch_cache<std::uint32_t>(codes_need);
      std::size_t cur = at[t];
      run_tile<kEncode>(data, lat, lp, level, q, qp, syms, cur, codes,
                        sym_spatial, grid.box(t, dims), known);
    };
    cursor = at[n];

    if (pool == nullptr || pool->size() < 2 || n < 2 ||
        sym_spatial != nullptr) {
      for (std::size_t t = 0; t < n; ++t) {
        const std::size_t o = quant.outlier_count();
        tile(t, quant);
        record(t, o, quant.outlier_count() - o);
      }
      return;
    }
    if constexpr (kEncode) {
      std::vector<std::vector<T>> outs(n);
      pool->parallel_for(n, [&](std::size_t t) {
        LinearQuantizer<T> lq(quant.error_bound(), quant.radius());
        tile(t, lq);
        outs[t] = lq.take_outliers();
      });
      for (std::size_t t = 0; t < n; ++t) {
        record(t, quant.outlier_count(), outs[t].size());
        quant.append_outliers(outs[t]);
      }
    } else {
      std::vector<std::size_t> zeros(n + 1, 0);
      pool->parallel_for(n, [&](std::size_t t) {
        zeros[t + 1] = static_cast<std::size_t>(
            std::count(syms + at[t], syms + at[t + 1], std::uint32_t{0}));
      });
      for (std::size_t t = 0; t < n; ++t) zeros[t + 1] += zeros[t];
      const std::size_t out_base = quant.outlier_cursor();
      pool->parallel_for(n, [&](std::size_t t) {
        LinearQuantizer<T> vq = LinearQuantizer<T>::view_of(quant);
        vq.set_outlier_cursor(out_base + zeros[t]);
        tile(t, vq);
      });
      quant.set_outlier_cursor(out_base + zeros[n]);
    }
  }

  template <bool kEncode>
  static void walk(T* data, const Dims& dims, const InterpPlan& plan,
                   double base_eb, LinearQuantizer<T>& quant,
                   const QPConfig& qp, SymPtr<kEncode> syms,
                   std::uint32_t* spatial,
                   std::vector<std::uint32_t>* sym_spatial,
                   const TileLayout* tiles = nullptr,
                   std::vector<SymbolSpan>* spans = nullptr,
                   int stop_level = 1, ThreadPool* pool = nullptr) {
    // Encode always walks the whole field; a decode that stops at level
    // L walks the level-L lattice.
    const Lattice lat = Lattice::of(dims, stop_level);
    std::size_t cursor = 0;
    std::size_t span_begin = 0;
    std::size_t span_out = 0;
    auto record_span = [&](int level, std::uint64_t tile) {
      if (!spans) return;
      spans->push_back({level, tile, span_begin, cursor - span_begin, span_out,
                        quant.outlier_count() - span_out});
      span_begin = cursor;
      span_out = quant.outlier_count();
    };

    // Anchor: the origin, predicted as 0, never QP-compensated. It rides
    // in the coarsest level's span.
    quant.set_error_bound(base_eb);
    if constexpr (kEncode) {
      T recon;
      const std::uint32_t code = quant.quantize(data[0], T{0}, &recon);
      data[0] = recon;
      if (spatial) spatial[0] = code;
      const std::uint32_t sym = qp_encode_symbol(code, 0, quant.radius());
      if (sym_spatial) (*sym_spatial)[0] = sym;
      syms[cursor++] = sym;
    } else {
      const std::uint32_t code =
          qp_decode_symbol(syms[cursor++], 0, quant.radius());
      data[0] = quant.recover(code, T{0});
    }

    const int level_count = static_cast<int>(plan.levels.size());
    const Box whole = Box::whole(lat.dims);

    // A tiled level walks tile by tile unless it is block-wise. The
    // encoder never tiles a block-wise plan and the driver refuses to
    // decode one; should a caller pass one anyway, its block-wise levels
    // take the block walker and the field-sized scratch below.
    auto tile_walked = [&](int level) {
      return tiles && tiles->tiled(level) && !plan.blockwise(level);
    };

    // QP code scratch, sized once for the whole walk. Levels walked as a
    // whole (or block by block) use this thread's buffer the size of the
    // walked array; a full decode's request regrows one a preview left
    // smaller, and scratch.hpp returns the old pages at once. A
    // tile-walked level needs only its largest tile stage, on every
    // thread walking a tile — the same count on the lattice as in the
    // field, so it comes from the field's tile 0.
    std::uint32_t* codes = spatial;
    std::size_t tile_need = 0;
    if (spatial == nullptr) {
      if (tiles)
        tile_need = tile_codes_needed(dims, plan, qp, *tiles, stop_level);
      std::size_t need = tile_need;
      for (int level = level_count; level >= stop_level; --level)
        if (qp_active_at(qp, level) && !tile_walked(level))
          need = lat.dims.size();
      if (need != 0) codes = scratch_cache<std::uint32_t>(need);
    }

    for (int level = level_count; level >= stop_level; --level) {
      const LevelPlan& lp = plan.levels[static_cast<std::size_t>(level - 1)];
      quant.set_error_bound(base_eb * lp.eb_scale);

      if (tile_walked(level)) {
        walk_tiles<kEncode>(data, lat, lp, level, quant, qp, syms, cursor,
                            spatial, tile_need, sym_spatial, *tiles, spans,
                            pool);
        span_begin = cursor;
        span_out = quant.outlier_count();
        continue;
      }

      if (!plan.blockwise(level)) {
        for_each_stage(lat, lp, level, [&](const StageCtx& ctx) {
          run_stage<kEncode>(data, lat.dims, ctx, lp.kind, quant, qp, syms,
                             cursor, codes, sym_spatial, /*blocked=*/false,
                             whole, /*tile_known=*/0, pool);
        });
        record_span(level, kWholeDomainTile);
        continue;
      }

      // Block-wise traversal (HPEZ-like): lexicographic block order, each
      // block fully processed (all its stages) before the next. The block
      // grid is the field's — block_choice indexes its blocks — and each
      // block maps to the lattice points it holds, [ceil(lo/S),
      // ceil(hi/S)); a block holding none (S > block edge) walks nothing
      // but keeps its index.
      const std::size_t bs = plan.block_size;
      std::array<std::size_t, kMaxRank> nblk{1, 1, 1, 1};
      for (int a = 0; a < dims.rank(); ++a)
        nblk[a] = (dims.extent(a) + bs - 1) / bs;
      const auto& choice =
          plan.block_choice[static_cast<std::size_t>(level - 1)];
      std::size_t bidx = 0;
      std::array<std::size_t, kMaxRank> b{};
      for (b[0] = 0; b[0] < nblk[0]; ++b[0])
        for (b[1] = 0; b[1] < nblk[1]; ++b[1])
          for (b[2] = 0; b[2] < nblk[2]; ++b[2])
            for (b[3] = 0; b[3] < nblk[3]; ++b[3]) {
              Box blk = whole;
              for (int a = 0; a < dims.rank(); ++a) {
                blk.lo[a] = lat.up(b[a] * bs);
                blk.hi[a] =
                    lat.up(std::min(b[a] * bs + bs, dims.extent(a)));
              }
              LevelPlan blp = plan.candidates[choice[bidx]];
              blp.eb_scale = lp.eb_scale;
              for_each_stage(lat, blp, level, [&](const StageCtx& ctx) {
                run_stage<kEncode>(data, lat.dims, ctx, blp.kind, quant, qp,
                                   syms, cursor, codes, sym_spatial,
                                   /*blocked=*/true, blk);
              });
              ++bidx;
            }
      record_span(level, kWholeDomainTile);
    }
    quant.set_error_bound(base_eb);
  }
};

template <class T>
double InterpEngine<T>::sample_stage_cost(const T* data, const Dims& dims,
                                          const StageGrid& g,
                                          const LevelPlan& lp, double eb,
                                          std::size_t sample_step) {
  StageCtx ctx;
  ctx.g = g;
  ctx.back_axis = g.dim;
  if (lp.md) {
    // Rebuild the class mask from the grid starts.
    for (int a = 0; a < dims.rank(); ++a)
      if (g.start[a] == g.stride) ctx.md_mask |= 1u << a;
  }
  auto usable = [](int, std::size_t) { return true; };

  // Subsampled grid: inflate every step by sample_step.
  StageGrid sg = g;
  for (int a = 0; a < dims.rank(); ++a) sg.step[a] *= sample_step;

  double bits = 0.0;
  std::size_t count = 0;
  for_each_stage_point(dims, sg, [&](const std::array<std::size_t, kMaxRank>& c,
                                     std::size_t idx) {
    const T pred = predict_point(data, dims, ctx, c, idx, lp.kind, usable);
    const double q =
        std::abs(static_cast<double>(data[idx]) - static_cast<double>(pred)) /
        (2.0 * eb);
    bits += std::log2(2.0 * q + 1.0) + 1.0;
    ++count;
  });
  return count ? bits : 0.0;
}

template <class T>
double InterpEngine<T>::level_cost_sample(
    const T* data, const Dims& dims, int level, const LevelPlan& lp, double eb,
    std::size_t sample_step, const std::array<std::size_t, kMaxRank>* lo,
    const std::array<std::size_t, kMaxRank>* hi) {
  double bits = 0.0;
  for_each_stage(Lattice::of(dims, 1), lp, level, [&](const StageCtx& ctx) {
    StageCtx sctx = ctx;
    if (lo && hi) {
      // Apply the same cross-block stencil guard the blocked encoder will
      // use, so the proxy cost includes the boundary-prediction penalty of
      // block independence.
      const std::size_t s2 = 2 * ctx.g.stride;
      const std::array<std::size_t, kMaxRank>* cur = nullptr;
      auto usable = [&](int axis, std::size_t y) -> bool {
        if (y >= (*lo)[axis] && y < (*hi)[axis]) return true;
        if (y < (*lo)[axis]) return true;
        if (y % s2 != 0) return false;
        for (int a = 0; a < dims.rank(); ++a)
          if (a != axis && (*cur)[a] % s2 != 0) return false;
        return true;
      };
      StageGrid sg = ctx.g;
      for (int a = 0; a < dims.rank(); ++a) sg.step[a] *= sample_step;
      double stage_bits = 0.0;
      for_each_stage_point_in_box(
          dims, sg, *lo, *hi,
          [&](const std::array<std::size_t, kMaxRank>& c, std::size_t idx) {
            cur = &c;
            const T pred =
                predict_point(data, dims, sctx, c, idx, lp.kind, usable);
            const double q = std::abs(static_cast<double>(data[idx]) -
                                      static_cast<double>(pred)) /
                             (2.0 * eb);
            stage_bits += std::log2(2.0 * q + 1.0) + 1.0;
          });
      bits += stage_bits;
    } else {
      bits += sample_stage_cost(data, dims, ctx.g, lp, eb, sample_step);
    }
  });
  return bits;
}

}  // namespace qip
