#pragma once

// Type-erased access to every compressor in the library, for benchmark
// harnesses, examples, and anything that iterates "all compressors".

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

/// One registered compressor: compress and decode per dtype, built by
/// the codec's own translation unit from its policy (codec_entry in
/// core/driver.hpp).
struct CompressorEntry {
  std::string name;     ///< "MGARD", "SZ3", "QoZ", "HPEZ", "ZFP", ...
  CompressorId id{};    ///< the id its archives carry
  bool interpolation = false;  ///< member of the interpolation family
  bool supports_qp = false;    ///< QP hook available (the four base codecs)
  /// Request kinds served beyond kFull. Decoding any other kind throws
  /// UnknownCodecError before the archive is read.
  bool supports_preview = false;
  bool supports_region = false;

  std::function<std::vector<std::uint8_t>(const float*, const Dims&,
                                          const GenericOptions&)>
      compress_f32;
  std::function<std::vector<std::uint8_t>(const double*, const Dims&,
                                          const GenericOptions&)>
      compress_f64;

  /// Decode `req` into the caller's `out`, whose shape `out_dims` must be
  /// req.output_dims(archive dims) (DecodeError otherwise). The codec's
  /// stages fan out over `pool` when non-null and run inline when it is
  /// nullptr; the output is the same either way. Preview and region
  /// decodes report the payload they read into `stats` when non-null.
  std::function<void(std::span<const std::uint8_t>, const DecodeRequest&,
                     float*, const Dims&, ThreadPool*, PartialDecodeStats*)>
      decode_f32;
  std::function<void(std::span<const std::uint8_t>, const DecodeRequest&,
                     double*, const Dims&, ThreadPool*, PartialDecodeStats*)>
      decode_f64;

  /// decode_f32/_f64 into a field shaped from the archive header.
  template <class T>
  [[nodiscard]] Field<T> decode(std::span<const std::uint8_t> archive,
                                const DecodeRequest& req,
                                ThreadPool* pool = nullptr,
                                PartialDecodeStats* stats = nullptr) const {
    require_served(req.kind, name, supports_preview, supports_region);
    Field<T> out(req.output_dims(inspect_container(archive).dims));
    if constexpr (std::is_same_v<T, float>)
      decode_f32(archive, req, out.data(), out.dims(), pool, stats);
    else
      decode_f64(archive, req, out.data(), out.dims(), pool, stats);
    return out;
  }

  [[nodiscard]] Field<float> decompress_f32(
      std::span<const std::uint8_t> archive, ThreadPool* pool = nullptr) const {
    return decode<float>(archive, {}, pool);
  }
  [[nodiscard]] Field<double> decompress_f64(
      std::span<const std::uint8_t> archive, ThreadPool* pool = nullptr) const {
    return decode<double>(archive, {}, pool);
  }
  /// Progressive preview: the decimated level-`level` grid, decoded from
  /// the coarse prefix of the payload.
  [[nodiscard]] Field<float> decompress_preview_f32(
      std::span<const std::uint8_t> archive, int level,
      PartialDecodeStats* stats, ThreadPool* pool = nullptr) const {
    return decode<float>(archive, DecodeRequest::preview(level), pool, stats);
  }
  /// Random-access region decode from the tile directory; DecodeError
  /// for an archive sealed without a tile size.
  [[nodiscard]] Field<float> decompress_region_f32(
      std::span<const std::uint8_t> archive, const Box& box,
      PartialDecodeStats* stats, ThreadPool* pool = nullptr) const {
    return decode<float>(archive, DecodeRequest::region(box), pool, stats);
  }
};

/// Each codec's entry, built in the codec's own translation unit from its
/// policy; compressor_registry() lists them.
CompressorEntry mgard_entry();
CompressorEntry sz3_entry();
CompressorEntry qoz_entry();
CompressorEntry hpez_entry();
CompressorEntry zfp_entry();
CompressorEntry tthresh_entry();
CompressorEntry sperr_entry();

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
