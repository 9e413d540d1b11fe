#pragma once

// TTHRESH-like Tucker/HOSVD compressor (Ballester-Ripoll et al.,
// TVCG'19 family): per-mode Gram-matrix eigendecomposition (cyclic
// Jacobi) yields orthonormal factor matrices; the data is projected to a
// Tucker core whose coefficients decay rapidly and are scalar-quantized
// and entropy-coded (real TTHRESH bitplane-codes them — the ratio/speed
// placement is what matters: strong ratios, by far the slowest
// compression in Table IV). Factors are stored quantized; a correction
// pass enforces the pointwise bound, which real TTHRESH does not
// guarantee natively.

#include <cstdint>
#include <span>
#include <vector>

#include "compressors/core/options.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

struct TTHRESHConfig : CodecOptions {
  double quant_factor = 3.0;  ///< core bin = eb / quant_factor
  /// Modes longer than this skip decorrelation (identity factor): the
  /// Jacobi eigensolve is O(n^3) and pointless past a few hundred rows.
  std::size_t max_mode_size = 512;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> tthresh_compress(const T* data, const Dims& dims,
                                           const TTHRESHConfig& cfg);

template <class T>
[[nodiscard]] Field<T> tthresh_decompress(std::span<const std::uint8_t> archive,
                                          ThreadPool* pool = nullptr);

extern template std::vector<std::uint8_t> tthresh_compress<float>(
    const float*, const Dims&, const TTHRESHConfig&);
extern template std::vector<std::uint8_t> tthresh_compress<double>(
    const double*, const Dims&, const TTHRESHConfig&);
extern template Field<float> tthresh_decompress<float>(
    std::span<const std::uint8_t>, ThreadPool*);
extern template Field<double> tthresh_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);

}  // namespace qip
