#include "compressors/hpez.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "compressors/core/driver.hpp"
#include "compressors/tuning.hpp"
#include "predict/multilevel.hpp"

namespace qip {
namespace {

/// Candidate set — a strict superset of the QoZ tuner's: sequential
/// orders plus multi-dimensional (parity-class) interpolation, cubic and
/// linear. The same list doubles as the per-block candidate table.
std::vector<LevelPlan> hpez_candidates(int rank) {
  std::vector<LevelPlan> cands;
  LevelPlan md_cubic;
  md_cubic.md = true;
  cands.push_back(md_cubic);           // 0: md cubic
  LevelPlan md_linear = md_cubic;
  md_linear.kind = InterpKind::kLinear;
  cands.push_back(md_linear);          // 1: md linear
  LevelPlan seq_fwd;                   // 2: z-first cubic (clustering-prone)
  cands.push_back(seq_fwd);
  LevelPlan seq_rev;                   // 3: x-first cubic
  for (int a = 0; a < rank; ++a)
    seq_rev.order[a] = static_cast<std::int8_t>(rank - 1 - a);
  cands.push_back(seq_rev);
  LevelPlan seq_fwd_lin = seq_fwd;     // 4: z-first linear
  seq_fwd_lin.kind = InterpKind::kLinear;
  cands.push_back(seq_fwd_lin);
  return cands;
}

/// Decide the committed interpolation plan: global per-level tuning,
/// QoZ-style (alpha, beta) selection, block-wise refinement at fine
/// levels, and a final size comparison between fully sealed block-wise
/// and global candidate archives. The comparison runs QP-blind (see
/// HPEZCodec::encode).
template <class T>
InterpPlan hpez_tune_plan(const T* data, const Dims& dims,
                          const HPEZConfig& cfg) {
  const int levels = interpolation_level_count(dims);
  const std::size_t bs = cfg.block_size;

  InterpPlan plan;
  plan.block_size = bs;
  plan.candidates = hpez_candidates(dims.rank());
  plan.levels.resize(static_cast<std::size_t>(levels));
  plan.block_choice.resize(static_cast<std::size_t>(levels));
  plan.level_blockwise.assign(static_cast<std::size_t>(levels), 0);

  // Block grid (lexicographic order must match the engine's traversal).
  std::array<std::size_t, kMaxRank> nblk{1, 1, 1, 1};
  std::size_t total_blocks = 1;
  for (int a = 0; a < dims.rank(); ++a) {
    nblk[a] = (dims.extent(a) + bs - 1) / bs;
    total_blocks *= nblk[a];
  }

  // Pass 1: global per-level tuning over the full candidate set.
  std::vector<LevelPlan> per_level(static_cast<std::size_t>(levels));
  std::vector<double> global_cost(static_cast<std::size_t>(levels), 0.0);
  for (int l = 1; l <= levels; ++l) {
    const std::size_t step = l == 1 ? 5 : (l == 2 ? 3 : 1);
    double best_cost = std::numeric_limits<double>::infinity();
    LevelPlan best = plan.candidates.front();
    for (const auto& cand : plan.candidates) {
      const double cost = InterpEngine<T>::level_cost_sample(
          data, dims, l, cand, cfg.error_bound, step);
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    per_level[static_cast<std::size_t>(l - 1)] = best;
    global_cost[static_cast<std::size_t>(l - 1)] = best_cost;
  }

  // QoZ-style (alpha, beta) rate-distortion trial on the tuned levels.
  const auto [alpha, beta] =
      tune_alpha_beta(data, dims, cfg.error_bound, cfg.radius, per_level);

  // Pass 2: block-wise refinement at fine levels. Enabled only when the
  // summed per-block optima beat the global optimum by enough to cover
  // the cross-block guard penalty the sampler cannot see.
  for (int l = 1; l <= levels; ++l) {
    LevelPlan& lp = plan.levels[static_cast<std::size_t>(l - 1)];
    lp = per_level[static_cast<std::size_t>(l - 1)];
    lp.eb_scale = level_eb_scale(l, alpha, beta);
    auto& choice = plan.block_choice[static_cast<std::size_t>(l - 1)];
    choice.assign(total_blocks, 0);

    const std::size_t stride = std::size_t{1} << (l - 1);
    // A requested tile grid (random-access region decode) and per-block
    // plan refinement both want to own the fine-level traversal order;
    // the tile directory wins, so the block tuner stands down when a
    // tile size is set (see interp_tile_layout and docs/FORMATS.md).
    const bool try_blocks = cfg.tune_blocks && cfg.tile_size == 0 &&
                            stride * 4 <= bs && dims.rank() >= 2;
    if (!try_blocks) continue;

    const std::size_t step = l == 1 ? 5 : 3;
    const double eb_l = cfg.error_bound * lp.eb_scale;
    double block_total = 0.0;
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
                hi[a] = dims.extent(a);
              }
            }
            double best_cost = std::numeric_limits<double>::infinity();
            std::uint8_t best = 0;
            for (std::size_t ci = 0; ci < plan.candidates.size(); ++ci) {
              const double cost = InterpEngine<T>::level_cost_sample(
                  data, dims, l, plan.candidates[ci], eb_l, step, &lo, &hi);
              if (cost < best_cost) {
                best_cost = cost;
                best = static_cast<std::uint8_t>(ci);
              }
            }
            choice[bidx++] = best;
            block_total += best_cost;
          }

    // Re-sample the global winner at the block-tuner's step for a fair
    // comparison (different sampling steps are not comparable).
    const double global_at_step = InterpEngine<T>::level_cost_sample(
        data, dims, l, lp, eb_l, step);
    if (block_total < 0.98 * global_at_step)
      plan.level_blockwise[static_cast<std::size_t>(l - 1)] = 1;
  }

  // The sampled proxy cannot see the final entropy/lossless stages, so
  // commit by encoding with both the block-wise and the globally-tuned
  // plan and keeping the smaller archive. The extra pass is in character:
  // HPEZ trades compression speed for ratio via heavy serial tuning
  // (paper Table I: "medium speed, high ratio").
  const bool any_blockwise =
      std::any_of(plan.level_blockwise.begin(), plan.level_blockwise.end(),
                  [](std::uint8_t v) { return v != 0; });
  if (any_blockwise) {
    const auto arc_blk =
        interp_seal(CompressorId::kHPEZ, data, dims, plan, cfg.error_bound,
                    cfg.radius, QPConfig{}, cfg.pool, nullptr);
    InterpPlan global_plan = plan;
    global_plan.level_blockwise.assign(global_plan.level_blockwise.size(), 0);
    const auto arc_glb =
        interp_seal(CompressorId::kHPEZ, data, dims, global_plan,
                    cfg.error_bound, cfg.radius, QPConfig{}, cfg.pool, nullptr);
    if (arc_glb.size() < arc_blk.size()) plan = std::move(global_plan);
  }
  return plan;
}

/// Stage policy: heavy serial tuning picks the plan, then the shared
/// interpolation stage pipeline does everything else.
struct HPEZCodec {
  using Config = HPEZConfig;
  using Artifacts = IndexArtifacts;
  static constexpr CompressorId kId = CompressorId::kHPEZ;
  static constexpr const char* kName = "HPEZ";
  static constexpr CodecTraits kTraits{
      .interpolation = true, .qp = true, .preview = true, .region = true};

  template <class T>
  static void encode(const T* data, const Dims& dims, const Config& cfg,
                     ContainerWriter& out, Artifacts* artifacts) {
    // The plan decision must not depend on the QP configuration, or QP
    // would change the committed plan and thus the decompressed data —
    // breaking its "same reconstruction, smaller archive" contract. So
    // the tuner (including its sealed-size comparison) runs QP-blind,
    // and the winner is encoded with the requested QP config.
    const InterpPlan plan = hpez_tune_plan(data, dims, cfg);
    // With a tile size set, the block tuner stands down (tile order and
    // per-block plans cannot coexist on a level), every level is decided
    // globally, and interp_tile_layout commits a tile grid — so HPEZ
    // archives support region decode exactly like SZ3/QoZ ones. Without
    // a tile size the plan may go block-wise at fine levels and the
    // archive keeps per-level chunks (progressive preview) only.
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
std::vector<std::uint8_t> hpez_compress(const T* data, const Dims& dims,
                                        const HPEZConfig& cfg,
                                        IndexArtifacts* artifacts) {
  return codec_seal<HPEZCodec>(data, dims, cfg, artifacts);
}

template <class T>
Field<T> hpez_decompress(std::span<const std::uint8_t> archive,
                         ThreadPool* pool) {
  return codec_decode<HPEZCodec, T>(archive, {}, pool);
}

template <class T>
Field<T> hpez_decompress_preview(std::span<const std::uint8_t> archive,
                                 int level, ThreadPool* pool,
                                 PartialDecodeStats* stats) {
  return codec_decode<HPEZCodec, T>(archive, DecodeRequest::preview(level),
                                    pool, stats);
}

template <class T>
Field<T> hpez_decompress_region(std::span<const std::uint8_t> archive,
                                const Box& box, ThreadPool* pool,
                                PartialDecodeStats* stats) {
  return codec_decode<HPEZCodec, T>(archive, DecodeRequest::region(box), pool,
                                    stats);
}

CompressorEntry hpez_entry() { return codec_entry<HPEZCodec>(); }

template std::vector<std::uint8_t> hpez_compress<float>(
    const float*, const Dims&, const HPEZConfig&, IndexArtifacts*);
template std::vector<std::uint8_t> hpez_compress<double>(
    const double*, const Dims&, const HPEZConfig&, IndexArtifacts*);
template Field<float> hpez_decompress<float>(std::span<const std::uint8_t>,
                                             ThreadPool*);
template Field<double> hpez_decompress<double>(std::span<const std::uint8_t>,
                                               ThreadPool*);
template Field<float> hpez_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
template Field<double> hpez_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
template Field<float> hpez_decompress_region<float>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);
template Field<double> hpez_decompress_region<double>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);

}  // namespace qip
