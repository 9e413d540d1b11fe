#pragma once

// QoZ-like quality-oriented compressor (Liu et al., SC'22): SZ3's
// multilevel interpolation enhanced with (a) per-level auto-tuning of the
// interpolant and direction order on sampled stage points, and (b)
// level-wise error-bound scaling (smaller bounds on coarse levels, whose
// errors propagate through interpolation to many points), with the
// (alpha, beta) pair selected by a rate-distortion trial on a sampled
// sub-box. No Lorenzo fallback — matching the paper's observation that
// QoZ's QP overhead is steady because it never switches predictors.

#include <cstdint>
#include <span>
#include <vector>

#include "compressors/core/options.hpp"
#include "compressors/core/tiles.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

struct QoZConfig : CodecOptions {
  /// Level-wise bound: eb_l = eb * max(alpha^-(l-1), 1/beta). Tuned over a
  /// small candidate set when `tune_level_eb` is set.
  double alpha = 1.5;
  double beta = 4.0;
  bool tune_level_eb = true;
  /// Per-level interpolant/direction tuning on sampled stage points.
  bool tune_interp = true;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> qoz_compress(const T* data, const Dims& dims,
                                       const QoZConfig& cfg,
                                       IndexArtifacts* artifacts = nullptr);

template <class T>
[[nodiscard]] Field<T> qoz_decompress(std::span<const std::uint8_t> archive,
                                      ThreadPool* pool = nullptr);

/// Progressive preview: decode only the interpolation levels coarser
/// than or equal to `level` and return the decimated level-`level` grid,
/// reading only the coarse prefix of a v3 payload.
template <class T>
[[nodiscard]] Field<T> qoz_decompress_preview(
    std::span<const std::uint8_t> archive, int level,
    ThreadPool* pool = nullptr, PartialDecodeStats* stats = nullptr);

/// Random-access region decode (requires an archive sealed with a tile
/// directory, i.e. tile_size > 0 at compress time).
template <class T>
[[nodiscard]] Field<T> qoz_decompress_region(
    std::span<const std::uint8_t> archive, const Box& box,
    ThreadPool* pool = nullptr, PartialDecodeStats* stats = nullptr);

extern template std::vector<std::uint8_t> qoz_compress<float>(
    const float*, const Dims&, const QoZConfig&, IndexArtifacts*);
extern template std::vector<std::uint8_t> qoz_compress<double>(
    const double*, const Dims&, const QoZConfig&, IndexArtifacts*);
extern template Field<float> qoz_decompress<float>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<double> qoz_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<float> qoz_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
extern template Field<double> qoz_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
extern template Field<float> qoz_decompress_region<float>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);
extern template Field<double> qoz_decompress_region<double>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);

}  // namespace qip
