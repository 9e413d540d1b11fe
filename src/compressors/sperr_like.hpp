#pragma once

// SPERR-like wavelet compressor (Li, Lindstrom & Clyne, IPDPS'23
// family): multi-level separable CDF 9/7 lifting transform, uniform
// scalar quantization of the wavelet coefficients with an entropy-coded
// index stream, and — exactly as real SPERR does — an outlier correction
// pass that enforces the pointwise error bound. (Real SPERR uses SPECK
// set-partitioning instead of scalar quantization; the ratio/speed
// placement of Table IV — top-tier ratios, modest throughput — is what
// this reproduction preserves.)

#include <cstdint>
#include <span>
#include <vector>

#include "compressors/core/options.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

struct SPERRConfig : CodecOptions {
  int levels = 3;            ///< dyadic decomposition depth per axis
  double quant_factor = 8.0; ///< coefficient bin = eb / quant_factor
                             ///< (small bins beat corrections in size)
  /// Experimental: the paper's future-work item (1), QP generalized to a
  /// non-interpolation archetype. Applies the same adaptively-gated 2-D
  /// Lorenzo prediction to the wavelet quantization indices, per
  /// subband, before entropy coding. Reversible: the reconstruction is
  /// untouched. See bench/ablation_design_choices.
  bool index_prediction = false;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> sperr_compress(const T* data, const Dims& dims,
                                         const SPERRConfig& cfg);

template <class T>
[[nodiscard]] Field<T> sperr_decompress(std::span<const std::uint8_t> archive,
                                        ThreadPool* pool = nullptr);

extern template std::vector<std::uint8_t> sperr_compress<float>(
    const float*, const Dims&, const SPERRConfig&);
extern template std::vector<std::uint8_t> sperr_compress<double>(
    const double*, const Dims&, const SPERRConfig&);
extern template Field<float> sperr_decompress<float>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<double> sperr_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);

}  // namespace qip
