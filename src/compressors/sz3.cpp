#include "compressors/sz3.hpp"

#include <algorithm>
#include <cstring>

#include "compressors/core/driver.hpp"
#include "compressors/lorenzo_path.hpp"
#include "predict/multilevel.hpp"

namespace qip {
namespace {

/// Extract a centered sub-box (up to `edge` per axis) for predictor
/// selection sampling.
template <class T>
Field<T> sample_box(const T* data, const Dims& dims, std::size_t edge) {
  std::array<std::size_t, kMaxRank> ext{1, 1, 1, 1}, lo{0, 0, 0, 0};
  for (int a = 0; a < dims.rank(); ++a) {
    ext[a] = std::min(dims.extent(a), edge);
    lo[a] = (dims.extent(a) - ext[a]) / 2;
  }
  Dims sub = [&] {
    switch (dims.rank()) {
      case 1: return Dims{ext[0]};
      case 2: return Dims{ext[0], ext[1]};
      case 3: return Dims{ext[0], ext[1], ext[2]};
      default: return Dims{ext[0], ext[1], ext[2], ext[3]};
    }
  }();
  Field<T> out(sub);
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < ext[0]; ++c[0])
    for (c[1] = 0; c[1] < ext[1]; ++c[1])
      for (c[2] = 0; c[2] < ext[2]; ++c[2])
        for (c[3] = 0; c[3] < ext[3]; ++c[3])
          out[sub.index(c[0], c[1], c[2], c[3])] =
              data[dims.index(lo[0] + c[0], lo[1] + c[1], lo[2] + c[2],
                              lo[3] + c[3])];
  return out;
}

/// Estimated archive bits for a symbol stream + outliers.
template <class T>
double estimate_bits(const std::vector<std::uint32_t>& symbols,
                     std::size_t outliers) {
  return static_cast<double>(huffman_cost_bits(symbols)) +
         static_cast<double>(outliers) * sizeof(T) * 8.0;
}

/// Decide between interpolation and Lorenzo on a sampled sub-box,
/// mirroring SZ3's sampling-based predictor selection.
template <class T>
SZ3Predictor select_predictor(const T* data, const Dims& dims,
                              const SZ3Config& cfg, const InterpPlan& plan_tmpl) {
  if (!cfg.auto_fallback) return SZ3Predictor::kInterpolation;

  Field<T> box_i = sample_box(data, dims, 64);
  const Dims& sd = box_i.dims();
  Field<T> box_l = box_i.clone();

  LinearQuantizer<T> qi(cfg.error_bound, cfg.radius);
  InterpPlan plan = InterpPlan::uniform(
      interpolation_level_count(sd),
      plan_tmpl.levels.empty() ? LevelPlan{} : plan_tmpl.levels.front());
  const auto res = InterpEngine<T>::encode(box_i.data(), sd, plan,
                                           cfg.error_bound, qi, QPConfig{});
  const double bits_interp = estimate_bits<T>(res.symbols, qi.outlier_count());

  LinearQuantizer<T> ql(cfg.error_bound, cfg.radius);
  std::vector<std::uint32_t> lsym;
  lsym.reserve(sd.size());
  std::size_t cur = 0;
  lorenzo_walk<T, true>(box_l.data(), sd, ql, lsym, cur);
  const double bits_lorenzo = estimate_bits<T>(lsym, ql.outlier_count());

  // Mild hysteresis toward interpolation, SZ3's default path.
  return bits_lorenzo < 0.95 * bits_interp ? SZ3Predictor::kLorenzo
                                           : SZ3Predictor::kInterpolation;
}

/// Stage policy: interpolation with a sampled Lorenzo fallback. The
/// kConfig stage carries the committed predictor after the common prefix,
/// and the interpolation plan only when that predictor is interpolation.
struct SZ3Codec {
  using Config = SZ3Config;
  using Artifacts = SZ3Artifacts;
  static constexpr CompressorId kId = CompressorId::kSZ3;
  static constexpr const char* kName = "sz3";

  template <class T>
  static void encode(const T* data, const Dims& dims, const Config& cfg,
                     ContainerWriter& out, Artifacts* artifacts) {
    LevelPlan lp;
    lp.kind = cfg.kind;
    InterpPlan plan = InterpPlan::uniform(interpolation_level_count(dims), lp);

    const SZ3Predictor predictor = select_predictor(data, dims, cfg, plan);

    LinearQuantizer<T> quant(cfg.error_bound, cfg.radius);
    std::vector<std::uint32_t> symbols;
    std::vector<SymbolSpan> spans;
    TileLayout tiles;

    if (predictor == SZ3Predictor::kInterpolation) {
      tiles = interp_tile_layout(cfg.tile_size, dims, plan);
      IndexArtifacts ia;
      InterpEncoding<T> enc = interp_encode(
          data, dims, plan, cfg.error_bound, cfg.radius, cfg.qp,
          artifacts ? &ia : nullptr, tiles.active() ? &tiles : nullptr,
          &spans, cfg.pool);
      symbols = std::move(enc.symbols);
      quant = std::move(enc.quant);
      if (artifacts) {
        artifacts->codes = std::move(ia.codes);
        artifacts->symbols_spatial = std::move(ia.symbols_spatial);
      }
    } else {
      Field<T> work(dims, std::vector<T>(data, data + dims.size()));
      symbols.reserve(dims.size());
      std::size_t cur = 0;
      lorenzo_walk<T, true>(work.data(), dims, quant, symbols, cur);
      // The Lorenzo scan is a single sequential sweep: one whole-domain
      // level-1 chunk (no progressive refinement to expose).
      spans.push_back(
          {1, kWholeDomainTile, 0, symbols.size(), 0, quant.outlier_count()});
      if (artifacts) {
        artifacts->codes.clear();
        artifacts->symbols_spatial.clear();
      }
    }
    if (artifacts) artifacts->predictor = predictor;

    ByteWriter& h = out.stage(StageId::kConfig);
    save_interp_common(h, cfg.error_bound, cfg.radius, cfg.qp);
    h.put(static_cast<std::uint8_t>(predictor));
    if (predictor == SZ3Predictor::kInterpolation) plan.save(h);
    quant.save(h);
    out.set_tiling(tiles);
    write_symbol_chunks(out, symbols, spans, cfg.pool);
  }

  /// Parsed SZ3 kConfig stage (common | predictor | [plan] | quantizer).
  template <class T>
  struct LoadedConfig {
    InterpCommon c;
    SZ3Predictor predictor{};
    InterpPlan plan;
    LinearQuantizer<T> quant{1.0};
  };

  template <class T>
  static LoadedConfig<T> load_config(const ContainerReader& in) {
    ByteReader h = in.stage(StageId::kConfig);
    LoadedConfig<T> lc;
    lc.c = load_interp_common(h);
    lc.predictor = static_cast<SZ3Predictor>(h.get<std::uint8_t>());
    if (lc.predictor == SZ3Predictor::kInterpolation)
      lc.plan = InterpPlan::load(h);
    lc.quant.set_error_bound(lc.c.error_bound);
    lc.quant.load(h);
    return lc;
  }

  template <class T>
  static void decode(const ContainerReader& in, T* out, ThreadPool* pool) {
    LoadedConfig<T> lc = load_config<T>(in);
    std::vector<std::uint32_t> symbols =
        read_symbols_stage(in, in.chunk_count(), pool);

    if (lc.predictor == SZ3Predictor::kInterpolation) {
      InterpEngine<T>::decode(symbols, in.dims(), lc.plan, lc.c.error_bound,
                              lc.quant, lc.c.qp, out, archive_tiles(in),
                              /*stop_level=*/1, pool);
    } else {
      std::size_t cur = 0;
      lorenzo_walk<T, false>(out, in.dims(), lc.quant, symbols, cur);
    }
  }

  template <class T>
  static Field<T> decode_preview(const ContainerReader& in, int level,
                                 ThreadPool* pool, PartialDecodeStats* stats) {
    LoadedConfig<T> lc = load_config<T>(in);
    if (lc.predictor == SZ3Predictor::kInterpolation)
      return interp_preview_core(in, level, pool, stats, lc.plan, lc.c,
                                 lc.quant);
    // The Lorenzo scan has no level structure: level 1 is simply the
    // full decode, anything coarser does not exist in the stream.
    if (level != 1)
      throw DecodeError("sz3: lorenzo archives only support level-1 preview");
    Field<T> out(in.dims());
    decode<T>(in, out.data(), pool);
    record_payload_read(in, stats);
    return out;
  }

  template <class T>
  static Field<T> decode_region(const ContainerReader& in, const Box& box,
                                ThreadPool* pool, PartialDecodeStats* stats) {
    LoadedConfig<T> lc = load_config<T>(in);
    if (lc.predictor != SZ3Predictor::kInterpolation)
      throw DecodeError(
          "sz3: lorenzo archives have no tile directory; region decode "
          "requires the interpolation path with a tile size");
    return interp_region_core(in, box, pool, stats, lc.plan, lc.c, lc.quant);
  }
};

}  // namespace

template <class T>
std::vector<std::uint8_t> sz3_compress(const T* data, const Dims& dims,
                                       const SZ3Config& cfg,
                                       SZ3Artifacts* artifacts) {
  return codec_seal<SZ3Codec>(data, dims, cfg, artifacts);
}

template <class T>
Field<T> sz3_decompress(std::span<const std::uint8_t> archive,
                        ThreadPool* pool) {
  return codec_open<SZ3Codec, T>(archive, pool);
}

template <class T>
void sz3_decompress_into(std::span<const std::uint8_t> archive, T* out,
                         const Dims& expect, ThreadPool* pool) {
  codec_open_into<SZ3Codec, T>(archive, out, expect, pool);
}

template <class T>
Field<T> sz3_decompress_preview(std::span<const std::uint8_t> archive,
                                int level, ThreadPool* pool,
                                PartialDecodeStats* stats) {
  return codec_open_preview<SZ3Codec, T>(archive, level, pool, stats);
}

template <class T>
Field<T> sz3_decompress_region(std::span<const std::uint8_t> archive,
                               const Box& box, ThreadPool* pool,
                               PartialDecodeStats* stats) {
  return codec_open_region<SZ3Codec, T>(archive, box, pool, stats);
}

template std::vector<std::uint8_t> sz3_compress<float>(const float*, const Dims&,
                                                       const SZ3Config&,
                                                       SZ3Artifacts*);
template std::vector<std::uint8_t> sz3_compress<double>(const double*,
                                                        const Dims&,
                                                        const SZ3Config&,
                                                        SZ3Artifacts*);
template Field<float> sz3_decompress<float>(std::span<const std::uint8_t>,
                                            ThreadPool*);
template Field<double> sz3_decompress<double>(std::span<const std::uint8_t>,
                                              ThreadPool*);
template void sz3_decompress_into<float>(std::span<const std::uint8_t>, float*,
                                         const Dims&, ThreadPool*);
template void sz3_decompress_into<double>(std::span<const std::uint8_t>,
                                          double*, const Dims&, ThreadPool*);
template Field<float> sz3_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
template Field<double> sz3_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
template Field<float> sz3_decompress_region<float>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);
template Field<double> sz3_decompress_region<double>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);

}  // namespace qip
