#include "compressors/mgard.hpp"

#include <algorithm>
#include <cmath>

#include "compressors/core/driver.hpp"
#include "predict/interpolation.hpp"
#include "predict/multilevel.hpp"
#include "util/status.hpp"

namespace qip {
namespace {

/// Piecewise-linear prediction along `axis` at spacing `s` from the
/// hierarchy source `src` (original data during encode, reconstruction
/// during decode).
template <class T>
T linear_pred(const T* src, const Dims& dims,
              const std::array<std::size_t, kMaxRank>& c, std::size_t idx,
              int axis, std::size_t s) {
  const std::ptrdiff_t st = static_cast<std::ptrdiff_t>(s * dims.stride(axis));
  const T left = src[idx - st];
  if (c[axis] + s < dims.extent(axis))
    return interp_linear(left, src[idx + st]);
  return left;
}

/// The level/stage/point traversal shared by encode and decode. During
/// encode `src == orig` (global transform); during decode `src == recon`.
template <class T, bool kEncode>
void mgard_walk(const T* src, T* recon, const Dims& dims,
                const std::vector<double>& level_eb, double base_eb,
                LinearQuantizer<T>& quant, const QPConfig& qp,
                std::vector<std::uint32_t>& symbols, std::size_t& cursor,
                std::vector<std::uint32_t>& codes,
                std::vector<std::uint32_t>* sym_spatial = nullptr,
                int min_level = 1,
                std::vector<SymbolSpan>* spans = nullptr) {
  const std::int32_t radius = quant.radius();
  const int levels = static_cast<int>(level_eb.size());
  const auto order = default_order(dims.rank());

  if constexpr (!kEncode) {
    // The walk consumes one symbol per visited point — the level-
    // `min_level` grid population, dims.size() for a full decode.
    // Checking once up front keeps hostile (or truncated) archives from
    // driving the cursor out of bounds (mirrors lorenzo_walk).
    if (cursor > symbols.size() ||
        symbols.size() - cursor <
            InterpEngine<T>::grid_point_count(dims, min_level))
      throw DecodeError("mgard: symbol stream shorter than field");
  }
  std::size_t span_begin = symbols.size();
  std::size_t span_out = quant.outlier_count();

  quant.set_error_bound(base_eb);
  if constexpr (kEncode) {
    T r;
    const std::uint32_t code = quant.quantize(src[0], T{0}, &r);
    codes[0] = code;
    const std::uint32_t sym = qp_encode_symbol(code, 0, radius);
    if (sym_spatial) (*sym_spatial)[0] = sym;
    symbols.push_back(sym);
  } else {
    const std::uint32_t code =
        qp_decode_symbol(symbols[cursor++], 0, radius);
    codes[0] = code;
    recon[0] = quant.recover(code, T{0});
  }

  for (int level = levels; level >= min_level; --level) {
    const std::size_t s = std::size_t{1} << (level - 1);
    quant.set_error_bound(level_eb[static_cast<std::size_t>(level - 1)]);
    for (int k = 0; k < dims.rank(); ++k) {
      const StageGrid g = make_stage_grid(
          dims, s, std::span<const int>(order.data(), dims.rank()), k, level);
      const QPAxes ax = assign_qp_axes(g, dims, g.dim);

      for_each_stage_point(dims, g, [&](const std::array<std::size_t,
                                                         kMaxRank>& c,
                                        std::size_t idx) {
        const T pred = linear_pred(src, dims, c, idx, g.dim, s);

        QPNeighborhood nb;
        nb.back = ax.back_off;
        nb.left = ax.left_off;
        nb.top = ax.top_off;
        auto avail = [&](int axis) {
          return axis >= 0 && c[axis] >= g.start[axis] + g.step[axis];
        };
        nb.avail_back = avail(ax.back);
        nb.avail_left = avail(ax.left);
        nb.avail_top = avail(ax.top);
        const std::int64_t comp =
            qp_compensation(codes.data(), idx, nb, qp, level, radius);

        if constexpr (kEncode) {
          T r;
          const std::uint32_t code = quant.quantize(src[idx], pred, &r);
          codes[idx] = code;
          const std::uint32_t sym = qp_encode_symbol(code, comp, radius);
          if (sym_spatial) (*sym_spatial)[idx] = sym;
          symbols.push_back(sym);
        } else {
          const std::uint32_t code =
              qp_decode_symbol(symbols[cursor++], comp, radius);
          codes[idx] = code;
          recon[idx] = quant.recover(code, pred);
        }
      });
    }
    if constexpr (kEncode) {
      // One span per hierarchy level (the anchor symbol rides in the
      // coarsest span), mirroring the interpolation engine's layout so
      // the shared chunk writer applies unchanged.
      if (spans) {
        spans->push_back({level, kWholeDomainTile, span_begin,
                          symbols.size() - span_begin, span_out,
                          quant.outlier_count() - span_out});
        span_begin = symbols.size();
        span_out = quant.outlier_count();
      }
    }
  }
  quant.set_error_bound(base_eb);
}

/// The kConfig stage, parsed (shared by the full, resolution-reduced and
/// preview decodes).
template <class T>
struct MGARDStream {
  InterpCommon c;
  std::vector<double> level_eb;
  LinearQuantizer<T> quant{0.0};
  std::vector<std::uint32_t> symbols;
};

template <class T>
MGARDStream<T> mgard_read_header(const ContainerReader& in) {
  MGARDStream<T> s;
  ByteReader h = in.stage(StageId::kConfig);
  s.c = load_interp_common(h);
  const std::uint64_t levels = h.get_varint();
  // Each level costs one 8-byte eb below, so the stream itself bounds a
  // truthful count; anything larger is an allocation bomb.
  if (levels > h.remaining() / sizeof(double))
    throw DecodeError("mgard: level count exceeds stream");
  s.level_eb.resize(static_cast<std::size_t>(levels));
  for (auto& e : s.level_eb) e = h.get<double>();
  s.quant = LinearQuantizer<T>(s.c.error_bound);
  s.quant.load(h);
  return s;
}

template <class T>
MGARDStream<T> mgard_read_stream(const ContainerReader& in, ThreadPool* pool) {
  MGARDStream<T> s = mgard_read_header<T>(in);
  s.symbols = read_symbols_stage(in, in.chunk_count(), pool);
  return s;
}

/// Stage policy: global hierarchical transform with an exact-bound
/// correction pass (stored in its own kCorrections stage).
struct MGARDCodec {
  using Config = MGARDConfig;
  using Artifacts = IndexArtifacts;
  static constexpr CompressorId kId = CompressorId::kMGARD;
  static constexpr const char* kName = "mgard";

  template <class T>
  static void encode(const T* data, const Dims& dims, const Config& cfg,
                     ContainerWriter& out, Artifacts* artifacts) {
    const int levels = interpolation_level_count(dims);
    std::vector<double> level_eb(static_cast<std::size_t>(levels));
    for (int l = 1; l <= levels; ++l) {
      const double frac = std::max(
          cfg.fine_fraction * std::pow(cfg.decay, l - 1), cfg.floor_fraction);
      level_eb[static_cast<std::size_t>(l - 1)] = cfg.error_bound * frac;
    }

    LinearQuantizer<T> quant(cfg.error_bound, cfg.radius);
    std::vector<std::uint32_t> symbols;
    symbols.reserve(dims.size());
    std::vector<std::uint32_t> codes(dims.size(), 0);
    std::size_t cursor = 0;
    std::vector<std::uint32_t> sym_spatial;
    if (artifacts) sym_spatial.assign(dims.size(), 0);
    std::vector<SymbolSpan> spans;
    mgard_walk<T, true>(data, nullptr, dims, level_eb, cfg.error_bound, quant,
                        cfg.qp, symbols, cursor, codes,
                        artifacts ? &sym_spatial : nullptr, 1, &spans);
    if (artifacts) {
      artifacts->codes = codes;
      artifacts->symbols_spatial = std::move(sym_spatial);
    }

    // Correction pass: replay the decoder, then patch every point whose
    // accumulated hierarchy error exceeds the bound. Bin eb/2 leaves the
    // patched error at eb/2 worst case.
    Field<T> recon(dims);
    {
      std::vector<std::uint32_t> scratch_codes(dims.size(), 0);
      std::size_t cur = 0;
      quant.reset_cursor();
      mgard_walk<T, false>(recon.data(), recon.data(), dims, level_eb,
                           cfg.error_bound, quant, cfg.qp, symbols, cur,
                           scratch_codes);
    }
    const auto corrections = collect_corrections(
        data, dims.size(), cfg.error_bound, cfg.error_bound / 2.0,
        [&](std::size_t i) { return static_cast<double>(recon[i]); });

    ByteWriter& h = out.stage(StageId::kConfig);
    save_interp_common(h, cfg.error_bound, cfg.radius, cfg.qp);
    h.put_varint(static_cast<std::uint64_t>(levels));
    for (double e : level_eb) h.put(e);
    quant.save(h);
    write_symbol_chunks(out, symbols, spans, cfg.pool);
    write_corrections_stage(out, corrections);
  }

  template <class T>
  static void decode(const ContainerReader& in, T* out, ThreadPool* pool) {
    MGARDStream<T> s = mgard_read_stream<T>(in, pool);
    const Dims& dims = in.dims();
    std::vector<std::uint32_t> codes(dims.size(), 0);
    std::size_t cursor = 0;
    mgard_walk<T, false>(out, out, dims, s.level_eb, s.c.error_bound, s.quant,
                         s.c.qp, s.symbols, cursor, codes);
    apply_corrections_stage(in, out, dims.size(), s.c.error_bound / 2.0,
                            "mgard");
  }

  /// Level-`level` preview from the coarse chunk prefix. The exact-bound
  /// correction pass indexes the finest grid, so for level > 1 it is
  /// skipped and a preview is bounded by the hierarchy's per-level error
  /// budget rather than the patched worst case — the standard
  /// progressive trade. At level 1 the preview grid *is* the finest
  /// grid, so corrections apply and the result equals a full decode.
  template <class T>
  static Field<T> decode_preview(const ContainerReader& in, int level,
                                 ThreadPool* pool, PartialDecodeStats* stats) {
    MGARDStream<T> s = mgard_read_header<T>(in);
    const int levels = static_cast<int>(s.level_eb.size());
    if (level < 1 || level > levels)
      throw DecodeError("preview level outside the archive's level range");
    const Dims& dims = in.dims();
    s.symbols = read_symbols_stage(in, level_prefix(in, level), pool);

    Field<T> full(dims);
    std::vector<std::uint32_t> codes(dims.size(), 0);
    std::size_t cursor = 0;
    mgard_walk<T, false>(full.data(), full.data(), dims, s.level_eb,
                         s.c.error_bound, s.quant, s.c.qp, s.symbols, cursor,
                         codes, nullptr, level);
    if (level == 1)
      apply_corrections_stage(in, full.data(), dims.size(),
                              s.c.error_bound / 2.0, "mgard");
    record_payload_read(in, stats);
    return decimate_to_level(full.data(), dims, level);
  }
};

}  // namespace

template <class T>
std::vector<std::uint8_t> mgard_compress(const T* data, const Dims& dims,
                                         const MGARDConfig& cfg,
                                         IndexArtifacts* artifacts) {
  return codec_seal<MGARDCodec>(data, dims, cfg, artifacts);
}

template <class T>
Field<T> mgard_decompress(std::span<const std::uint8_t> archive,
                          ThreadPool* pool) {
  return codec_open<MGARDCodec, T>(archive, pool);
}

template <class T>
void mgard_decompress_into(std::span<const std::uint8_t> archive, T* out,
                           const Dims& expect, ThreadPool* pool) {
  codec_open_into<MGARDCodec, T>(archive, out, expect, pool);
}

template <class T>
Field<T> mgard_decompress_reduced(std::span<const std::uint8_t> archive,
                                  int skip_levels) {
  const ContainerReader in(archive, CompressorId::kMGARD, dtype_tag<T>());
  MGARDStream<T> s = mgard_read_stream<T>(in, nullptr);
  const Dims& dims = in.dims();
  const int levels = static_cast<int>(s.level_eb.size());

  const int skip = std::clamp(skip_levels, 0, levels - 1);
  Field<T> full(dims);
  std::vector<std::uint32_t> codes(dims.size(), 0);
  std::size_t cursor = 0;
  mgard_walk<T, false>(full.data(), full.data(), dims, s.level_eb,
                       s.c.error_bound, s.quant, s.c.qp, s.symbols, cursor,
                       codes, nullptr, 1 + skip);

  // Decimate the coarse grid (stride 2^skip per axis).
  const std::size_t stride = std::size_t{1} << skip;
  std::size_t e[kMaxRank] = {1, 1, 1, 1};
  for (int a = 0; a < dims.rank(); ++a)
    e[a] = (dims.extent(a) + stride - 1) / stride;
  Dims out_dims = [&] {
    switch (dims.rank()) {
      case 1: return Dims{e[0]};
      case 2: return Dims{e[0], e[1]};
      case 3: return Dims{e[0], e[1], e[2]};
      default: return Dims{e[0], e[1], e[2], e[3]};
    }
  }();
  Field<T> out(out_dims);
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < out_dims.extent(0); ++c[0])
    for (c[1] = 0; c[1] < out_dims.extent(1); ++c[1])
      for (c[2] = 0; c[2] < out_dims.extent(2); ++c[2])
        for (c[3] = 0; c[3] < out_dims.extent(3); ++c[3])
          out[out_dims.index(c[0], c[1], c[2], c[3])] =
              full[dims.index(c[0] * stride,
                              dims.rank() > 1 ? c[1] * stride : 0,
                              dims.rank() > 2 ? c[2] * stride : 0,
                              dims.rank() > 3 ? c[3] * stride : 0)];
  return out;
}

template <class T>
Field<T> mgard_decompress_preview(std::span<const std::uint8_t> archive,
                                  int level, ThreadPool* pool,
                                  PartialDecodeStats* stats) {
  return codec_open_preview<MGARDCodec, T>(archive, level, pool, stats);
}

template Field<float> mgard_decompress_reduced<float>(
    std::span<const std::uint8_t>, int);
template Field<double> mgard_decompress_reduced<double>(
    std::span<const std::uint8_t>, int);
template Field<float> mgard_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
template Field<double> mgard_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);

template std::vector<std::uint8_t> mgard_compress<float>(
    const float*, const Dims&, const MGARDConfig&, IndexArtifacts*);
template std::vector<std::uint8_t> mgard_compress<double>(
    const double*, const Dims&, const MGARDConfig&, IndexArtifacts*);
template Field<float> mgard_decompress<float>(std::span<const std::uint8_t>,
                                              ThreadPool*);
template Field<double> mgard_decompress<double>(std::span<const std::uint8_t>,
                                                ThreadPool*);
template void mgard_decompress_into<float>(std::span<const std::uint8_t>,
                                           float*, const Dims&, ThreadPool*);
template void mgard_decompress_into<double>(std::span<const std::uint8_t>,
                                            double*, const Dims&, ThreadPool*);

}  // namespace qip
