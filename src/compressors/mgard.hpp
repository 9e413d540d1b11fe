#pragma once

// MGARD-like compressor (Ainsworth et al., multilevel techniques for
// compression and reduction of scientific data).
//
// Unlike the SZ3/QoZ/HPEZ feedback loop, this is a *global* hierarchical
// transform: multilinear (piecewise-linear, dimension-by-dimension)
// interpolation coefficients are computed level-wise from the original
// data, quantized with conservative level-dependent bins (coarse-level
// errors propagate through the hierarchy to many points), and the error
// bound is enforced exactly by a final correction pass that re-runs the
// decoder on the encode side and patches every violating point — the
// practical stand-in for MGARD's norm-based bin selection. This makes
// the compressor noticeably slower and less ratio-efficient than the
// SZ3 family, matching its placement in the paper's Table I/II, while
// the quantization indices still live on the same stage grids, so the
// QP hook applies unchanged.

#include <cstdint>
#include <span>
#include <vector>

#include "compressors/core/options.hpp"
#include "compressors/core/tiles.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

struct MGARDConfig : CodecOptions {
  /// Level bin schedule: eb_l = eb * max(fine_fraction * decay^(l-1),
  /// floor_fraction). Conservative by design; the correction pass
  /// guarantees the bound regardless.
  double fine_fraction = 0.6;
  double decay = 0.75;
  double floor_fraction = 0.05;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> mgard_compress(const T* data, const Dims& dims,
                                         const MGARDConfig& cfg,
                                         IndexArtifacts* artifacts = nullptr);

template <class T>
[[nodiscard]] Field<T> mgard_decompress(std::span<const std::uint8_t> archive,
                                        ThreadPool* pool = nullptr);

/// Progressive preview, the resolution reduction that distinguishes
/// MGARD in the paper's Table I: decode only the hierarchy levels >=
/// `level` from the coarse chunk prefix of the payload (`stats` reports
/// how many payload bytes that touched) and return the decimated
/// level-`level` grid (stride 2^(level-1) per axis, ceil-divided
/// extents). For level > 1 the finest-grid correction pass is skipped,
/// so the bound is the hierarchy's per-level budget, not the patched
/// worst case; a level-1 preview applies corrections and equals a full
/// decode.
template <class T>
[[nodiscard]] Field<T> mgard_decompress_preview(
    std::span<const std::uint8_t> archive, int level,
    ThreadPool* pool = nullptr, PartialDecodeStats* stats = nullptr);

extern template Field<float> mgard_decompress_preview<float>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);
extern template Field<double> mgard_decompress_preview<double>(
    std::span<const std::uint8_t>, int, ThreadPool*, PartialDecodeStats*);

extern template std::vector<std::uint8_t> mgard_compress<float>(
    const float*, const Dims&, const MGARDConfig&, IndexArtifacts*);
extern template std::vector<std::uint8_t> mgard_compress<double>(
    const double*, const Dims&, const MGARDConfig&, IndexArtifacts*);
extern template Field<float> mgard_decompress<float>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<double> mgard_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);

}  // namespace qip
