#pragma once

// Type-erased access to every compressor in the library, for benchmark
// harnesses, examples, and anything that iterates "all compressors".

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compressors/core/container.hpp"
#include "compressors/core/options.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

class ThreadPool;

/// Options understood by every compressor — the common CodecOptions
/// surface the paper's experiments sweep (error bound, QP config, worker
/// pool). Compressor-specific knobs use their native config structs,
/// which embed the same fields by inheriting CodecOptions.
using GenericOptions = CodecOptions;

/// One registered compressor.
struct CompressorEntry {
  std::string name;     ///< "MGARD", "SZ3", "QoZ", "HPEZ", "ZFP", ...
  CompressorId id{};    ///< the id its archives carry
  bool interpolation;   ///< member of the interpolation family
  bool supports_qp;     ///< QP hook available (the four base compressors)

  std::function<std::vector<std::uint8_t>(const float*, const Dims&,
                                          const GenericOptions&)>
      compress_f32;
  std::function<Field<float>(std::span<const std::uint8_t>)> decompress_f32;
  std::function<std::vector<std::uint8_t>(const double*, const Dims&,
                                          const GenericOptions&)>
      compress_f64;
  std::function<Field<double>(std::span<const std::uint8_t>)> decompress_f64;

  /// Copy-free decode: writes the reconstruction straight into a
  /// caller-owned buffer of shape `expect` (throws DecodeError when the
  /// archive's dims disagree). The codec's internal stages (level walk,
  /// Huffman decode) fan out over `pool` when non-null and run inline
  /// when it is nullptr; the output is the same either way. Used by
  /// chunked_decompress to fill slabs of the output field without a
  /// temporary Field + copy, and by the serving scheduler to give one
  /// large job several workers.
  std::function<void(std::span<const std::uint8_t>, float*, const Dims&,
                     ThreadPool*)>
      decompress_into_f32;
  std::function<void(std::span<const std::uint8_t>, double*, const Dims&,
                     ThreadPool*)>
      decompress_into_f64;

  /// Whether the partial-decode entry points below do real work. Both
  /// are always callable: codecs without the capability install a
  /// closure that throws UnknownCodecError, so callers that don't check
  /// first still get a typed refusal instead of a null std::function.
  bool supports_preview = false;
  bool supports_region = false;

  /// Progressive preview: decode only the interpolation levels coarser
  /// than or equal to `level`, reading just the coarse prefix of the
  /// payload, and return the decimated level-`level` grid.
  std::function<Field<float>(std::span<const std::uint8_t>, int,
                             PartialDecodeStats*)>
      decompress_preview_f32;
  std::function<Field<double>(std::span<const std::uint8_t>, int,
                              PartialDecodeStats*)>
      decompress_preview_f64;

  /// Random-access region decode from the tile directory. Requires an
  /// archive sealed with tile_size > 0 (DecodeError otherwise).
  std::function<Field<float>(std::span<const std::uint8_t>, const Box&,
                             PartialDecodeStats*)>
      decompress_region_f32;
  std::function<Field<double>(std::span<const std::uint8_t>, const Box&,
                              PartialDecodeStats*)>
      decompress_region_f64;

  /// Pool-threaded variants of the partial decodes, mirroring
  /// decompress_into_*: chunk Huffman decodes, the tile fan-out, and the
  /// parallel level walk all run over `pool` when non-null.
  std::function<Field<float>(std::span<const std::uint8_t>, int,
                             PartialDecodeStats*, ThreadPool*)>
      decompress_preview_pool_f32;
  std::function<Field<double>(std::span<const std::uint8_t>, int,
                              PartialDecodeStats*, ThreadPool*)>
      decompress_preview_pool_f64;
  std::function<Field<float>(std::span<const std::uint8_t>, const Box&,
                             PartialDecodeStats*, ThreadPool*)>
      decompress_region_pool_f32;
  std::function<Field<double>(std::span<const std::uint8_t>, const Box&,
                              PartialDecodeStats*, ThreadPool*)>
      decompress_region_pool_f64;
};

/// All compressors, in the paper's Table IV order:
/// MGARD, SZ3, QoZ, HPEZ, ZFP, TTHRESH, SPERR.
[[nodiscard]] const std::vector<CompressorEntry>& compressor_registry();

/// Lookup by name; throws UnknownCodecError if unknown.
[[nodiscard]] const CompressorEntry& find_compressor(std::string_view name);

/// Lookup by the codec id in an archive's container header. Throws
/// DecodeError on malformed bytes and UnknownCodecError — carrying the
/// offending codec id and format version — when the archive is
/// structurally valid but names a codec this build does not know.
[[nodiscard]] const CompressorEntry& find_compressor_for(std::span<const std::uint8_t> archive);

/// The four interpolation-based compressors the paper integrates QP into.
[[nodiscard]] std::vector<const CompressorEntry*> qp_base_compressors();

}  // namespace qip
