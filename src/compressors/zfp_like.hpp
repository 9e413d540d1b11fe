#pragma once

// ZFP-like fixed-accuracy block transform compressor (Lindstrom, TVCG'14
// family). Pipeline per 4^d block: common-exponent fixed-point
// conversion, separable reversible two-level S-transform (the exactly
// invertible integer stand-in for ZFP's lifted near-orthogonal
// transform), negabinary mapping, and embedded group-tested bitplane
// coding down to a tolerance-derived minimum plane. A final correction
// pass enforces the absolute error bound exactly (library contract),
// where real ZFP relies on transform analysis.
//
// Characteristic behavior reproduced from the paper's Table IV: highest
// throughput of the baselines, high PSNR for its ratio, but clearly
// lower ratios than the interpolation family at the same bound.

#include <cstdint>
#include <span>
#include <vector>

#include "compressors/core/options.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

struct ZFPConfig : CodecOptions {
  /// Extra bitplanes kept below the tolerance plane; larger = safer but
  /// bigger. The correction pass covers whatever the margin misses.
  int guard_bits = 2;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> zfp_compress(const T* data, const Dims& dims,
                                       const ZFPConfig& cfg);

template <class T>
[[nodiscard]] Field<T> zfp_decompress(std::span<const std::uint8_t> archive,
                                      ThreadPool* pool = nullptr);

extern template std::vector<std::uint8_t> zfp_compress<float>(
    const float*, const Dims&, const ZFPConfig&);
extern template std::vector<std::uint8_t> zfp_compress<double>(
    const double*, const Dims&, const ZFPConfig&);
extern template Field<float> zfp_decompress<float>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<double> zfp_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);

}  // namespace qip
