#pragma once

// SZ3-like error-bounded lossy compressor (Zhao et al., ICDE'21 /
// Liang et al., TBD'22): multilevel dynamic spline interpolation with a
// sampling-based fallback to multidimensional Lorenzo prediction, linear
// scaling quantization, Huffman coding and a byte-level lossless pass —
// plus the paper's optional quantization index prediction (QP) hook.

#include <cstdint>
#include <span>
#include <vector>

#include "compressors/core/options.hpp"
#include "compressors/core/tiles.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

/// Which value predictor an SZ3-like archive committed to.
enum class SZ3Predictor : std::uint8_t {
  kInterpolation = 0,
  kLorenzo = 1,  ///< the small-error-bound fallback; QP is never applied here
};

struct SZ3Config : CodecOptions {
  /// Try Lorenzo on a sample and switch when it is estimated cheaper
  /// (the behavior the paper observes on SegSalt at eb = 1e-5).
  bool auto_fallback = true;
};

/// Introspection data for the characterization experiments (Figs. 3-5):
/// the spatial quantization-code array and the chosen predictor.
struct SZ3Artifacts {
  std::vector<std::uint32_t> codes;  ///< code = q + radius, 0 = unpredictable
  std::vector<std::uint32_t> symbols_spatial;  ///< Q' arranged spatially
  SZ3Predictor predictor = SZ3Predictor::kInterpolation;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> sz3_compress(const T* data, const Dims& dims,
                                       const SZ3Config& cfg,
                                       SZ3Artifacts* artifacts = nullptr);

template <class T>
[[nodiscard]] Field<T> sz3_decompress(std::span<const std::uint8_t> archive,
                                      ThreadPool* pool = nullptr);

/// Progressive preview: decode only the interpolation levels coarser
/// than or equal to `level` and return the decimated level-`level` grid.
/// On v3 archives this reads only the coarse prefix of the payload
/// (`stats` reports how much). Lorenzo-fallback archives support level 1
/// only (the full decode).
template <class T>
[[nodiscard]] Field<T> sz3_decompress_preview(
    std::span<const std::uint8_t> archive, int level,
    ThreadPool* pool = nullptr, PartialDecodeStats* stats = nullptr);

/// Random-access region decode: return the sub-box [box.lo, box.hi),
/// reading the coarse levels plus only the tile chunks that cover the
/// box. Requires an archive sealed with a tile directory (tile_size > 0
/// at compress time); throws DecodeError otherwise.
template <class T>
[[nodiscard]] Field<T> sz3_decompress_region(
    std::span<const std::uint8_t> archive, const Box& box,
    ThreadPool* pool = nullptr, PartialDecodeStats* stats = nullptr);

extern template std::vector<std::uint8_t> sz3_compress<float>(
    const float*, const Dims&, const SZ3Config&, SZ3Artifacts*);
extern template std::vector<std::uint8_t> sz3_compress<double>(
    const double*, const Dims&, const SZ3Config&, SZ3Artifacts*);
extern template Field<float> sz3_decompress<float>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<double> sz3_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<float> sz3_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
extern template Field<double> sz3_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
extern template Field<float> sz3_decompress_region<float>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);
extern template Field<double> sz3_decompress_region<double>(
    std::span<const std::uint8_t>, const Box&, ThreadPool*,
    PartialDecodeStats*);

}  // namespace qip
