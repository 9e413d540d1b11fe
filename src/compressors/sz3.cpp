#include "compressors/sz3.hpp"

#include <algorithm>
#include <cstring>

#include "compressors/core/driver.hpp"
#include "compressors/lorenzo_path.hpp"
#include "compressors/tuning.hpp"
#include "predict/multilevel.hpp"

namespace qip {
namespace {

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

  Field<T> box_i = centered_sample_box(data, dims, 64);
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
  static constexpr const char* kName = "SZ3";
  static constexpr CodecTraits kTraits{
      .interpolation = true, .qp = true, .preview = true, .region = true};

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

  /// Lorenzo archives have no level structure: a level-1 preview is the
  /// full decode, and there is no coarser level or tile directory.
  template <class T>
  static void decode(const ContainerReader& in, const DecodeRequest& req,
                     T* out, ThreadPool* pool, PartialDecodeStats* stats) {
    LoadedConfig<T> lc = load_config<T>(in);
    if (lc.predictor == SZ3Predictor::kInterpolation)
      return interp_decode(in, req, out, pool, stats, lc.plan, lc.c,
                           lc.quant);
    if (req.kind == DecodeRequest::Kind::kRegion)
      throw DecodeError(
          "sz3: lorenzo archives have no tile directory; region decode "
          "requires the interpolation path with a tile size");
    if (req.kind == DecodeRequest::Kind::kPreview && req.level != 1)
      throw DecodeError("sz3: lorenzo archives only support level-1 preview");
    std::vector<std::uint32_t> symbols =
        read_symbols_stage(in, in.chunk_count(), pool);
    std::size_t cur = 0;
    lorenzo_walk<T, false>(out, in.dims(), lc.quant, symbols, cur);
    report_partial(in, req, stats);
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
  return codec_decode<SZ3Codec, T>(archive, {}, pool);
}

template <class T>
Field<T> sz3_decompress_preview(std::span<const std::uint8_t> archive,
                                int level, ThreadPool* pool,
                                PartialDecodeStats* stats) {
  return codec_decode<SZ3Codec, T>(archive, DecodeRequest::preview(level),
                                   pool, stats);
}

template <class T>
Field<T> sz3_decompress_region(std::span<const std::uint8_t> archive,
                               const Box& box, ThreadPool* pool,
                               PartialDecodeStats* stats) {
  return codec_decode<SZ3Codec, T>(archive, DecodeRequest::region(box), pool,
                                   stats);
}

CompressorEntry sz3_entry() { return codec_entry<SZ3Codec>(); }

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
