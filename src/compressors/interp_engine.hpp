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
  /// by tile with the cross-tile stencil guard (see run_stage), making
  /// each tile's symbols decodable on their own. `spans` (when given)
  /// receives one SymbolSpan per level / per tile in traversal order —
  /// the contract container v3 seals into its payload directory.
  ///
  /// `pool` (when given) fans eligible stages out across the workers via
  /// run_stage_par — bytes stay identical to the sequential walk at
  /// every worker count; see that function for the partition rules.
  [[nodiscard]] static EncodeResult encode(T* data, const Dims& dims, const InterpPlan& plan,
                             double base_eb, LinearQuantizer<T>& quant,
                             const QPConfig& qp, bool keep_codes = false,
                             const TileLayout* tiles = nullptr,
                             std::vector<SymbolSpan>* spans = nullptr,
                             ThreadPool* pool = nullptr) {
    EncodeResult res;
    res.symbols.assign(dims.size(), 0);
    // The spatial codes array is QP state: compensation reads same-stage
    // neighbors out of it. Without QP it is write-only, so skip the
    // allocation (and every store into it) unless the caller keeps it.
    const bool qp_live = qp.enabled && qp.dimension != QPDimension::kNone;
    std::vector<std::uint32_t> codes;
    std::uint32_t* codes_p = nullptr;
    if (keep_codes) {
      codes.assign(dims.size(), 0);
      codes_p = codes.data();
    } else if (qp_live) {
      // Same contract as decode below: compensation never reads an entry
      // the stage traversal has not already written, so the scratch needs
      // neither zeroing nor a fresh allocation per call.
      codes_p = scratch_cache<std::uint32_t>(dims.size());
    }
    if (keep_codes) res.symbols_spatial.assign(dims.size(), 0);
    walk<true>(data, dims, plan, base_eb, quant, qp, res.symbols.data(),
               codes_p, keep_codes ? &res.symbols_spatial : nullptr, tiles,
               spans, /*stop_level=*/1, pool);
    if (keep_codes) res.codes = std::move(codes);
    return res;
  }

  /// Reverse of encode(); fills `data` with the reconstruction. Throws
  /// DecodeError when `symbols` holds fewer entries than the traversal
  /// consumes (hostile archives must not drive the cursor out of bounds).
  ///
  /// `tiles` must replay the layout the archive was encoded under.
  /// `stop_level` > 1 decodes only the levels coarser than or equal to
  /// it — the progressive-preview path: the traversal consumes exactly
  /// grid_point_count(dims, stop_level) symbols and fills exactly the
  /// points whose coordinates are multiples of 2^(stop_level-1); other
  /// points of `data` are left untouched.
  static void decode(std::span<const std::uint32_t> symbols, const Dims& dims,
                     const InterpPlan& plan, double base_eb,
                     LinearQuantizer<T>& quant, const QPConfig& qp, T* data,
                     const TileLayout* tiles = nullptr, int stop_level = 1,
                     ThreadPool* pool = nullptr) {
    if (stop_level < 1) stop_level = 1;
    if (symbols.size() < grid_point_count(dims, stop_level))
      throw DecodeError("interp: symbol stream shorter than field");
    const bool qp_live = qp.enabled && qp.dimension != QPDimension::kNone;
    // Deliberately uninitialized (and reused across calls on this
    // thread): compensation only ever reads entries a same-stage point
    // wrote earlier in traversal order (the avail gates floor at the
    // stage grid / block entry), so neither zero-filling 4 bytes per
    // point nor a fresh fault-in per decode would ever be observed.
    std::uint32_t* codes =
        qp_live ? scratch_cache<std::uint32_t>(dims.size()) : nullptr;
    walk<false>(data, dims, plan, base_eb, quant, qp, symbols.data(), codes,
                nullptr, tiles, nullptr, stop_level, pool);
  }

  /// Decode the symbols of one tile chunk (one level, one tile box) into
  /// `data`, for the region path: the untiled levels must already be
  /// decoded into `data` (via decode() with stop_level just above the
  /// tiled levels), and coarser tiled levels of the same tile must have
  /// been applied first. The caller positions the quantizer's outlier
  /// cursor from the chunk directory. Throws DecodeError when the symbol
  /// count does not match the tile's stage-point count — the guard that
  /// keeps hostile directories from driving the cursor out of bounds.
  static void decode_tile(std::span<const std::uint32_t> symbols,
                          const Dims& dims, const InterpPlan& plan,
                          double base_eb, LinearQuantizer<T>& quant,
                          const QPConfig& qp, T* data, const TileLayout& tiles,
                          int level, const Box& box) {
    const int level_count = static_cast<int>(plan.levels.size());
    if (level < 1 || level > level_count)
      throw DecodeError("interp: tile chunk level outside plan");
    if (symbols.size() != tile_point_count(dims, plan, level, box))
      throw DecodeError("interp: tile chunk symbol count mismatch");
    const LevelPlan& lp = plan.levels[static_cast<std::size_t>(level - 1)];
    const std::size_t stride = std::size_t{1} << (level - 1);
    const bool qp_live = qp.enabled && qp.dimension != QPDimension::kNone;
    std::uint32_t* codes =
        qp_live ? scratch_cache<std::uint32_t>(dims.size()) : nullptr;
    quant.set_error_bound(base_eb * lp.eb_scale);
    std::size_t cursor = 0;
    for_each_stage(dims, stride, lp, level, [&](const StageCtx& ctx) {
      run_stage<false>(data, dims, ctx, lp.kind, quant, qp, symbols.data(),
                       cursor, codes, nullptr, /*blocked=*/true, box.lo,
                       box.hi, tiles.known_stride());
    });
    quant.set_error_bound(base_eb);
  }

  /// Points whose every coordinate is a multiple of 2^(level-1): the
  /// grid fully known once levels >= `level` are decoded, and exactly
  /// the symbol count a stop_level = `level` decode consumes.
  static std::size_t grid_point_count(const Dims& dims, int level) {
    if (level > 64) level = 64;
    const std::size_t s = level >= 64 ? ~std::size_t{0} >> 1
                                      : std::size_t{1} << (level - 1);
    std::size_t n = 1;
    for (int a = 0; a < dims.rank(); ++a)
      n *= (dims.extent(a) - 1) / s + 1;
    return n;
  }

  /// Symbols the walk consumes for the whole-domain run of `level`: the
  /// points processed at that level, plus the anchor for the coarsest.
  static std::size_t level_symbol_count(const Dims& dims, int level,
                                        int level_count) {
    return grid_point_count(dims, level) - grid_point_count(dims, level + 1) +
           (level == level_count ? 1 : 0);
  }

  /// Stage points of `level` inside the half-open box — the exact symbol
  /// count of one tile chunk.
  static std::size_t tile_point_count(const Dims& dims, const InterpPlan& plan,
                                      int level, const Box& box) {
    const LevelPlan& lp = plan.levels[static_cast<std::size_t>(level - 1)];
    const std::size_t stride = std::size_t{1} << (level - 1);
    std::size_t total = 0;
    for_each_stage(dims, stride, lp, level, [&](const StageCtx& ctx) {
      std::size_t n = 1;
      for (int a = 0; a < kMaxRank; ++a) {
        const std::size_t hi = std::min(box.hi[a], dims.extent(a));
        const std::size_t first =
            first_on(ctx.g.start[a], ctx.g.step[a], box.lo[a]);
        n *= first < hi ? (hi - 1 - first) / ctx.g.step[a] + 1 : 0;
      }
      total += n;
    });
    return total;
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

  /// Fill the StageCtx QP fields from the shared axis-assignment rule.
  static void assign_qp_axes(StageCtx& ctx, const Dims& dims) {
    const QPAxes ax = qip::assign_qp_axes(ctx.g, dims, ctx.back_axis);
    ctx.back_axis = ax.back;
    ctx.left_axis = ax.left;
    ctx.top_axis = ax.top;
    ctx.back_off = ax.back_off;
    ctx.left_off = ax.left_off;
    ctx.top_off = ax.top_off;
  }

  /// Build the sequential-order stage for position k of `order`.
  static StageCtx make_seq_stage(const Dims& dims, std::size_t stride,
                                 const LevelPlan& lp, int k, int level) {
    int order[kMaxRank] = {0, 1, 2, 3};
    for (int a = 0; a < dims.rank(); ++a) order[a] = lp.order[a];
    StageCtx ctx;
    ctx.g = make_stage_grid(dims, stride,
                            std::span<const int>(order, dims.rank()), k, level);
    ctx.back_axis = ctx.g.dim;
    assign_qp_axes(ctx, dims);
    return ctx;
  }

  /// Build the parity-class stage for axis set `mask` (HPEZ-like md mode).
  static StageCtx make_md_stage(const Dims& dims, std::size_t stride,
                                std::uint32_t mask, int level) {
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
    assign_qp_axes(ctx, dims);
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

  /// Process every point of one stage, restricted to [lo, hi) when
  /// `blocked` (HPEZ-like). kEncode selects direction. The dominant
  /// unblocked sequential case takes the specialized row-major path.
  ///
  /// `tile_known` != 0 switches the cross-boundary stencil guard to the
  /// stricter tile-independence rule: outside [lo, hi) only points of
  /// the globally-known grid (every coordinate a multiple of
  /// `tile_known` = the tiling's known stride) are usable. Unlike the
  /// HPEZ block guard it admits neither earlier blocks nor the
  /// level-entry 2s grid, because a region decode reconstructs *no*
  /// tiled-level point outside the requested tiles — not even at
  /// coarser tiled levels.
  template <bool kEncode>
  static void run_stage(T* data, const Dims& dims, const StageCtx& ctx,
                        InterpKind kind, LinearQuantizer<T>& quant,
                        const QPConfig& qp, SymPtr<kEncode> syms,
                        std::size_t& cursor, std::uint32_t* codes,
                        std::vector<std::uint32_t>* sym_spatial, bool blocked,
                        const std::array<std::size_t, kMaxRank>& lo,
                        const std::array<std::size_t, kMaxRank>& hi,
                        std::size_t tile_known = 0,
                        ThreadPool* pool = nullptr) {
    if (!blocked && ctx.md_mask == 0) {
      if (pool != nullptr && sym_spatial == nullptr &&
          run_stage_par<kEncode>(data, dims, ctx, kind, quant, qp, syms,
                                 cursor, codes, pool))
        return;
      run_stage_seq<kEncode>(data, dims, ctx, kind, quant, qp, syms, cursor,
                             codes, sym_spatial);
      return;
    }
    const std::int32_t radius = quant.radius();
    const std::size_t s2 = 2 * ctx.g.stride;

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

    auto visit = [&](const std::array<std::size_t, kMaxRank>& c,
                     std::size_t idx) {
      cur = &c;
      const T pred =
          predict_point(data, dims, ctx, c, idx, kind, usable);

      QPNeighborhood nb;
      auto avail = [&](int axis, std::size_t off) -> bool {
        if (axis < 0 || off == 0) return false;
        const std::size_t floor_coord =
            blocked ? std::max(ctx.g.start[axis],
                               first_on(ctx.g.start[axis], ctx.g.step[axis],
                                        lo[axis]))
                    : ctx.g.start[axis];
        return c[axis] >= floor_coord + ctx.g.step[axis];
      };
      nb.back = ctx.back_off;
      nb.left = ctx.left_off;
      nb.top = ctx.top_off;
      nb.avail_back = avail(ctx.back_axis, ctx.back_off);
      nb.avail_left = avail(ctx.left_axis, ctx.left_off);
      nb.avail_top = avail(ctx.top_axis, ctx.top_off);

      const std::int64_t comp =
          qp_compensation(codes, idx, nb, qp, ctx.g.level, radius);

      if constexpr (kEncode) {
        T recon;
        const std::uint32_t code = quant.quantize(data[idx], pred, &recon);
        data[idx] = recon;
        if (codes) codes[idx] = code;
        const std::uint32_t sym = qp_encode_symbol(code, comp, radius);
        if (sym_spatial) (*sym_spatial)[idx] = sym;
        syms[cursor++] = sym;
      } else {
        const std::uint32_t code =
            qp_decode_symbol(syms[cursor++], comp, radius);
        if (codes) codes[idx] = code;
        data[idx] = quant.recover(code, pred);
      }
    };

    if (blocked) {
      for_each_stage_point_in_box(dims, ctx.g, lo, hi, visit);
    } else {
      for_each_stage_point(dims, ctx.g, visit);
    }
  }

  /// Geometry of one unblocked sequential stage: per-axis stage-grid
  /// extents and stage-local symbol strides. The strides serve double
  /// duty — cstr[a] is both the symbol-stream distance between adjacent
  /// grid layers along `a` and the compact-codes stride — which is what
  /// makes every symbol's position format-determined: the row with grid
  /// coordinates k lands at sum(k[a] * cstr[a]), independent of who
  /// computes it. That identity is the backbone of run_stage_par.
  struct StageShape {
    std::array<std::size_t, kMaxRank> gext{};  ///< stage-grid extents
    std::array<std::size_t, kMaxRank> cstr{};  ///< symbol/compact strides
    std::size_t cnt = 0;    ///< points per row (last-axis grid extent)
    std::size_t rows = 0;   ///< number of rows
    std::size_t total = 0;  ///< rows * cnt: symbols this stage emits
    bool empty = true;      ///< stage has no points on this grid
  };

  static StageShape stage_shape(const Dims& dims, const StageGrid& g) {
    StageShape sh;
    for (int a = 0; a < dims.rank(); ++a)
      if (g.start[a] >= dims.extent(a)) return sh;
    std::size_t acc = 1;
    for (int a = kMaxRank - 1; a >= 0; --a) {
      sh.cstr[a] = acc;
      sh.gext[a] = (dims.extent(a) - g.start[a] - 1) / g.step[a] + 1;
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
  /// axis at from[spec_axis] instead of the stage start, so the
  /// partition's first layer emits compensation-free symbols rather than
  /// reading codes across the partition boundary. The full stage is the
  /// slice {from = start, to = extents, j0 = 0, j1 = ~0, spec_axis = -1}.
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
  };

  static StageSlice whole_slice(const Dims& dims, const StageGrid& g) {
    StageSlice sl;
    for (int a = 0; a < kMaxRank; ++a) {
      sl.from[a] = g.start[a];
      sl.to[a] = dims.extent(a);
    }
    return sl;
  }

  /// Specialized traversal for the dominant case: unblocked sequential
  /// stage, whole domain, one thread. Thin wrapper over run_stage_slice
  /// with the full-stage slice; see there for the traversal itself.
  template <bool kEncode>
  static void run_stage_seq(T* data, const Dims& dims, const StageCtx& ctx,
                            InterpKind kind, LinearQuantizer<T>& quant,
                            const QPConfig& qp, SymPtr<kEncode> syms,
                            std::size_t& cursor, std::uint32_t* codes,
                            std::vector<std::uint32_t>* sym_spatial) {
    const StageShape sh = stage_shape(dims, ctx.g);
    if (sh.empty) return;
    run_stage_slice<kEncode>(data, dims, ctx, kind, quant, qp, syms, cursor,
                             codes, sym_spatial, sh, whole_slice(dims, ctx.g),
                             [](std::size_t, std::size_t) {});
    cursor += sh.total;
  }

  /// Row-major traversal of one slice of an unblocked sequential stage.
  /// Rows walk the fastest axis at element stride 1; the stencil
  /// boundary rules (cubic -> quadratic -> linear -> copy) and the QP
  /// neighbor availability are resolved per row (or per row segment when
  /// the interpolation axis *is* the row axis), not per point, and the
  /// linear index advances incrementally instead of being recomputed from
  /// coordinates at every point. Produces exactly the same symbols, codes
  /// and reconstruction as the generic path.
  ///
  /// `sym_base` is the stage's first symbol position; each row's symbols
  /// land at sym_base + row_off + j with row_off from StageShape::cstr,
  /// so disjoint slices write disjoint, format-determined ranges.
  /// `seg_fn(row_off, pos)` fires once per row before its first point —
  /// the hook run_stage_par uses to reposition per-worker outlier
  /// cursors (decode) and record outlier segment positions (encode).
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
    const bool qp_active = qp.enabled && level <= qp.max_level &&
                           qp.dimension != QPDimension::kNone;
    std::uint32_t* const codes_p = codes;
    // Codes written by this stage are read back only by same-level QP
    // compensation (and by the characterization tools); when neither
    // consumer exists the stores are dead — skip them.
    std::uint32_t* const cstore =
        (qp_active || sym_spatial != nullptr) ? codes_p : nullptr;

    const std::size_t start_l = g.start[last];
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

    // Stencil geometry. When the interpolation axis is the row axis, the
    // boundary rules change along the row at fixed positions: jc = first
    // point whose forward neighbor f(x+s) falls off the grid, jd = first
    // point whose far forward neighbor f(x+3s) does (jd <= jc).
    const std::size_t n_l = dims.extent(last);
    std::ptrdiff_t st;
    std::size_t jc = 0, jd = 0;
    if (d == last) {
      st = static_cast<std::ptrdiff_t>(s);
      jc = n_l > 2 * s ? (n_l - 2 * s - 1) / (2 * s) + 1 : 0;
      jd = n_l > 4 * s ? (n_l - 4 * s - 1) / (2 * s) + 1 : 0;
    } else {
      st = static_cast<std::ptrdiff_t>(s * dims.stride(d));
    }

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
        row_off += (c[a] - g.start[a]) / g.step[a] * cstr[a];
      const std::size_t cbase = row_off;
      std::size_t cur = sym_base + row_off + jlo;
      seg_fn(row_off, cur);

      // QP neighbor availability is constant along the row except on the
      // row axis, where only j == 0 lacks its stage-grid predecessor.
      // Along the speculation axis the floor is the slice entry, not the
      // stage start: the partition's first layer pretends its
      // predecessor layer does not exist (compensation 0) so pass 1
      // never reads codes owned by another partition. run_stage_par's
      // serial pass 2 recomputes those rows' symbols afterwards.
      QPNeighborhood nbR;
      nbR.back = compact ? cback : ctx.back_off;
      nbR.left = compact ? cleft : ctx.left_off;
      nbR.top = compact ? ctop : ctx.top_off;
      auto row_avail = [&](int axis, std::size_t off) {
        if (axis < 0 || off == 0) return false;
        if (axis == last) return true;
        const std::size_t fl =
            axis == sl.spec_axis ? sl.from[axis] : g.start[axis];
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
        std::size_t i = base + start_l + j0 * step_l;
        std::size_t ci = compact ? cbase + j0 : i;
        std::size_t j = j0;
        if (j == 0) {
          emit(i, ci, predfn(i), nb0);
          ++j;
          i += step_l;
          ci += cistep;
        }
        if (kt != nullptr && j1 - j >= simd::kMinKernelPoints) {
          simd::RowArgs<T> ra;
          ra.data = data;
          ra.codes = cstore;
          ra.total = dims.size();
          ra.i0 = i;
          ra.count = j1 - j;
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
          // next row in memory for row-partitioned slices).
          ra.shared_lo = sl.shared && jlo > 0 && j == jlo;
          ra.shared_hi = sl.shared && j1 == jhi;
          if constexpr (kEncode) {
            ra.syms_out = syms + cur;
            kt->encode_row(ra);
          } else {
            ra.syms_in = syms + cur;
            kt->decode_row(ra);
          }
          cur += ra.count;
          return;
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

      if (d != last) {
        // Whole row shares one kernel: the stencil moves along axis d,
        // whose coordinate is fixed within the row.
        const std::size_t x = c[d];
        const std::size_t n_d = dims.extent(d);
        const bool has_c = x + s < n_d;
        const bool has_a = x >= 3 * s;
        const bool has_d = x + 3 * s < n_d;
        if (!has_c) {
          run_seg(0, cnt, PredKind::kCopy, p_copy);
        } else if (kind == InterpKind::kLinear) {
          run_seg(0, cnt, PredKind::kLinear, p_lin);
        } else if (has_a && has_d) {
          run_seg(0, cnt, PredKind::kCubic, p_cubic);
        } else if (has_a) {
          run_seg(0, cnt, PredKind::kQuadA, p_quad_a);
        } else if (has_d) {
          run_seg(0, cnt, PredKind::kQuadD, p_quad_d);
        } else {
          run_seg(0, cnt, PredKind::kLinear, p_lin);
        }
      } else if (kind == InterpKind::kLinear) {
        run_seg(0, std::min(jc, cnt), PredKind::kLinear, p_lin);
        run_seg(std::min(jc, cnt), cnt, PredKind::kCopy, p_copy);
      } else {
        // j == 0 has no backward far neighbor f(x-3s).
        if (jc == 0) {
          run_seg(0, 1, PredKind::kCopy, p_copy);
        } else if (jd > 0) {
          run_seg(0, 1, PredKind::kQuadD, p_quad_d);
        } else {
          run_seg(0, 1, PredKind::kLinear, p_lin);
        }
        run_seg(1, std::min(jd, cnt), PredKind::kCubic, p_cubic);
        run_seg(std::max<std::size_t>(1, jd), std::min(jc, cnt),
                PredKind::kQuadA, p_quad_a);
        run_seg(std::max<std::size_t>(1, jc), cnt, PredKind::kCopy, p_copy);
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

  /// Drive one unblocked sequential stage across `pool` with
  /// worker-count-independent bytes. Returns false when no safe
  /// partition exists — the caller falls back to run_stage_seq.
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
                            ThreadPool* pool) {
    const StageGrid& g = ctx.g;
    const int last = dims.rank() - 1;
    const StageShape sh = stage_shape(dims, g);
    if (sh.empty) return false;
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
      StageSlice sl = whole_slice(dims, g);
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

  /// Enumerate the stages of `lp` at stride s and feed them to `fn`.
  template <class F>
  static void for_each_stage(const Dims& dims, std::size_t stride,
                             const LevelPlan& lp, int level, F&& fn) {
    if (!lp.md) {
      for (int k = 0; k < dims.rank(); ++k)
        fn(make_seq_stage(dims, stride, lp, k, level));
      return;
    }
    const std::uint32_t nmask = 1u << dims.rank();
    for (int pc = 1; pc <= dims.rank(); ++pc) {
      for (std::uint32_t mask = 1; mask < nmask; ++mask) {
        if (std::popcount(mask) == pc)
          fn(make_md_stage(dims, stride, mask, level));
      }
    }
  }

  template <bool kEncode>
  static void walk(T* data, const Dims& dims, const InterpPlan& plan,
                   double base_eb, LinearQuantizer<T>& quant,
                   const QPConfig& qp, SymPtr<kEncode> syms,
                   std::uint32_t* codes,
                   std::vector<std::uint32_t>* sym_spatial,
                   const TileLayout* tiles = nullptr,
                   std::vector<SymbolSpan>* spans = nullptr,
                   int stop_level = 1, ThreadPool* pool = nullptr) {
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
      if (codes) codes[0] = code;
      const std::uint32_t sym = qp_encode_symbol(code, 0, quant.radius());
      if (sym_spatial) (*sym_spatial)[0] = sym;
      syms[cursor++] = sym;
    } else {
      const std::uint32_t code =
          qp_decode_symbol(syms[cursor++], 0, quant.radius());
      if (codes) codes[0] = code;
      data[0] = quant.recover(code, T{0});
    }

    const int level_count = static_cast<int>(plan.levels.size());
    const std::array<std::size_t, kMaxRank> whole_lo{0, 0, 0, 0};
    std::array<std::size_t, kMaxRank> whole_hi{};
    for (int a = 0; a < kMaxRank; ++a) whole_hi[a] = dims.extent(a);

    for (int level = level_count; level >= stop_level; --level) {
      const std::size_t stride = std::size_t{1} << (level - 1);
      const LevelPlan& lp = plan.levels[static_cast<std::size_t>(level - 1)];
      quant.set_error_bound(base_eb * lp.eb_scale);

      if (tiles && tiles->tiled(level) && !plan.blockwise(level)) {
        // Tiled level: every tile runs all its stages under the strict
        // tile-independence guard before the next tile, in the grid's
        // lexicographic id order — the order the v3 directory seals.
        const TileGrid grid(dims, tiles->tile_size);
        const std::size_t known = tiles->known_stride();
        for (std::uint64_t t = 0; t < grid.total; ++t) {
          const Box box = grid.box(t, dims);
          for_each_stage(dims, stride, lp, level, [&](const StageCtx& ctx) {
            run_stage<kEncode>(data, dims, ctx, lp.kind, quant, qp, syms,
                               cursor, codes, sym_spatial, /*blocked=*/true,
                               box.lo, box.hi, known);
          });
          record_span(level, t);
        }
        continue;
      }

      if (!plan.blockwise(level)) {
        for_each_stage(dims, stride, lp, level, [&](const StageCtx& ctx) {
          run_stage<kEncode>(data, dims, ctx, lp.kind, quant, qp, syms,
                             cursor, codes, sym_spatial, /*blocked=*/false,
                             whole_lo, whole_hi, /*tile_known=*/0, pool);
        });
        record_span(level, kWholeDomainTile);
        continue;
      }

      // Block-wise traversal (HPEZ-like): lexicographic block order, each
      // block fully processed (all its stages) before the next.
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
              std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
              std::array<std::size_t, kMaxRank> hi{1, 1, 1, 1};
              for (int a = 0; a < kMaxRank; ++a) {
                if (a < dims.rank()) {
                  lo[a] = b[a] * bs;
                  hi[a] = std::min(lo[a] + bs, dims.extent(a));
                } else {
                  lo[a] = 0;
                  hi[a] = dims.extent(a);
                }
              }
              LevelPlan blp = plan.candidates[choice[bidx]];
              blp.eb_scale = lp.eb_scale;
              for_each_stage(dims, stride, blp, level,
                             [&](const StageCtx& ctx) {
                               run_stage<kEncode>(data, dims, ctx, blp.kind,
                                                  quant, qp, syms, cursor,
                                                  codes, sym_spatial,
                                                  /*blocked=*/true, lo, hi);
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
  const std::size_t stride = std::size_t{1} << (level - 1);
  double bits = 0.0;
  for_each_stage(dims, stride, lp, level, [&](const StageCtx& ctx) {
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
