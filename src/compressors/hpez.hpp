#pragma once

// HPEZ-like compressor (Liu et al., SIGMOD'24): auto-tuned
// multi-component interpolation. Key moving parts reproduced here:
//  * multi-dimensional (parity-class) interpolation, which consumes the
//    orthogonal-plane correlation that plain directional interpolation
//    leaves behind — exactly why the paper finds HPEZ's quantization
//    indices the least clustered and QP's gains on it the smallest;
//  * block-wise (32^3) interpolation tuning: each block independently
//    picks its interpolant/direction from a candidate set (the paper's
//    Fig. 5 highlights the lone block that chose z-first);
//  * QoZ-style level-wise error-bound scaling;
//  * the QP hook, like every interpolation compressor in this library.

#include <cstdint>
#include <span>
#include <vector>

#include "compressors/core/options.hpp"
#include "compressors/core/tiles.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

struct HPEZConfig : CodecOptions {
  std::size_t block_size = 32;
  double alpha = 1.5;  ///< level-wise eb decay
  double beta = 4.0;   ///< level-wise eb floor divisor
  bool tune_blocks = true;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> hpez_compress(const T* data, const Dims& dims,
                                        const HPEZConfig& cfg,
                                        IndexArtifacts* artifacts = nullptr);

template <class T>
[[nodiscard]] Field<T> hpez_decompress(std::span<const std::uint8_t> archive,
                                       ThreadPool* pool = nullptr);

/// Progressive preview: decode only the interpolation levels coarser
/// than or equal to `level` and return the decimated level-`level` grid.
/// HPEZ payloads are chunked per level, so this reads only the coarse
/// prefix of a v3 archive.
template <class T>
[[nodiscard]] Field<T> hpez_decompress_preview(
    std::span<const std::uint8_t> archive, int level,
    ThreadPool* pool = nullptr, PartialDecodeStats* stats = nullptr);

/// Random-access region decode. Archives sealed with a tile size commit
/// a tile directory (the block tuner stands down for them); untiled
/// HPEZ archives, whose fine levels may be block-wise, throw
/// DecodeError.
template <class T>
[[nodiscard]] Field<T> hpez_decompress_region(
    std::span<const std::uint8_t> archive, const Box& box,
    ThreadPool* pool = nullptr, PartialDecodeStats* stats = nullptr);

extern template std::vector<std::uint8_t> hpez_compress<float>(
    const float*, const Dims&, const HPEZConfig&, IndexArtifacts*);
extern template std::vector<std::uint8_t> hpez_compress<double>(
    const double*, const Dims&, const HPEZConfig&, IndexArtifacts*);
extern template Field<float> hpez_decompress<float>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<double> hpez_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<float> hpez_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
extern template Field<double> hpez_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
extern template Field<float> hpez_decompress_region<float>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);
extern template Field<double> hpez_decompress_region<double>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);

}  // namespace qip
