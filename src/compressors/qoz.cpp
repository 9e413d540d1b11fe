#include "compressors/qoz.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "compressors/core/driver.hpp"
#include "compressors/tuning.hpp"
#include "predict/multilevel.hpp"

namespace qip {
namespace {

/// Candidate (kind, order) pairs for the per-level interpolation tuner:
/// cubic/linear crossed with slowest-first and fastest-first orders.
std::vector<LevelPlan> interp_candidates(int rank) {
  std::array<std::int8_t, kMaxRank> fwd{0, 1, 2, 3};
  std::array<std::int8_t, kMaxRank> rev{0, 1, 2, 3};
  for (int a = 0; a < rank; ++a) rev[a] = static_cast<std::int8_t>(rank - 1 - a);
  std::vector<LevelPlan> cands;
  for (InterpKind k : {InterpKind::kCubic, InterpKind::kLinear}) {
    for (const auto& o : {fwd, rev}) {
      LevelPlan lp;
      lp.kind = k;
      lp.order = o;
      cands.push_back(lp);
    }
  }
  return cands;
}

/// Stage policy: the per-level tuner picks the plan, then the shared
/// interpolation stage pipeline does everything else.
struct QoZCodec {
  using Config = QoZConfig;
  using Artifacts = IndexArtifacts;
  static constexpr CompressorId kId = CompressorId::kQoZ;
  static constexpr const char* kName = "QoZ";
  static constexpr CodecTraits kTraits{
      .interpolation = true, .qp = true, .preview = true, .region = true};

  template <class T>
  static void encode(const T* data, const Dims& dims, const Config& cfg,
                     ContainerWriter& out, Artifacts* artifacts) {
    const int levels = interpolation_level_count(dims);

    // Per-level interpolation tuning (coarse levels are nearly free to
    // sample; fine levels are subsampled harder).
    std::vector<LevelPlan> per_level(static_cast<std::size_t>(levels));
    if (cfg.tune_interp) {
      const auto cands = interp_candidates(dims.rank());
      for (int l = 1; l <= levels; ++l) {
        const std::size_t step = l == 1 ? 5 : (l == 2 ? 3 : 1);
        double best_cost = std::numeric_limits<double>::infinity();
        LevelPlan best = cands.front();
        for (const auto& cand : cands) {
          const double cost = InterpEngine<T>::level_cost_sample(
              data, dims, l, cand, cfg.error_bound, step);
          if (cost < best_cost) {
            best_cost = cost;
            best = cand;
          }
        }
        per_level[static_cast<std::size_t>(l - 1)] = best;
      }
    }

    double alpha = cfg.alpha, beta = cfg.beta;
    if (cfg.tune_level_eb) {
      std::tie(alpha, beta) =
          tune_alpha_beta(data, dims, cfg.error_bound, cfg.radius, per_level);
    }

    InterpPlan plan;
    plan.levels.resize(static_cast<std::size_t>(levels));
    for (int l = 1; l <= levels; ++l) {
      LevelPlan lp = per_level[static_cast<std::size_t>(l - 1)];
      lp.eb_scale = level_eb_scale(l, alpha, beta);
      plan.levels[static_cast<std::size_t>(l - 1)] = lp;
    }

    interp_encode_stages(out, data, dims, plan, cfg.error_bound, cfg.radius,
                         cfg.qp, cfg.pool, artifacts, cfg.tile_size);
  }

  template <class T>
  static void decode(const ContainerReader& in, const DecodeRequest& req,
                     T* out, ThreadPool* pool, PartialDecodeStats* stats) {
    interp_decode_stages(in, req, out, pool, stats);
  }
};

}  // namespace

template <class T>
std::vector<std::uint8_t> qoz_compress(const T* data, const Dims& dims,
                                       const QoZConfig& cfg,
                                       IndexArtifacts* artifacts) {
  return codec_seal<QoZCodec>(data, dims, cfg, artifacts);
}

template <class T>
Field<T> qoz_decompress(std::span<const std::uint8_t> archive,
                        ThreadPool* pool) {
  return codec_decode<QoZCodec, T>(archive, {}, pool);
}

template <class T>
Field<T> qoz_decompress_preview(std::span<const std::uint8_t> archive,
                                int level, ThreadPool* pool,
                                PartialDecodeStats* stats) {
  return codec_decode<QoZCodec, T>(archive, DecodeRequest::preview(level),
                                   pool, stats);
}

template <class T>
Field<T> qoz_decompress_region(std::span<const std::uint8_t> archive,
                               const Box& box, ThreadPool* pool,
                               PartialDecodeStats* stats) {
  return codec_decode<QoZCodec, T>(archive, DecodeRequest::region(box), pool,
                                   stats);
}

CompressorEntry qoz_entry() { return codec_entry<QoZCodec>(); }

template std::vector<std::uint8_t> qoz_compress<float>(
    const float*, const Dims&, const QoZConfig&, IndexArtifacts*);
template std::vector<std::uint8_t> qoz_compress<double>(
    const double*, const Dims&, const QoZConfig&, IndexArtifacts*);
template Field<float> qoz_decompress<float>(std::span<const std::uint8_t>,
                                            ThreadPool*);
template Field<double> qoz_decompress<double>(std::span<const std::uint8_t>,
                                              ThreadPool*);
template Field<float> qoz_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
template Field<double> qoz_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
template Field<float> qoz_decompress_region<float>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);
template Field<double> qoz_decompress_region<double>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);

}  // namespace qip
