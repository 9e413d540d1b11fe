#include "compressors/registry.hpp"

#include <stdexcept>

#include "compressors/hpez.hpp"
#include "compressors/mgard.hpp"
#include "compressors/qoz.hpp"
#include "compressors/sperr_like.hpp"
#include "compressors/sz3.hpp"
#include "compressors/tthresh_like.hpp"
#include "compressors/zfp_like.hpp"

namespace qip {
namespace {

// One descriptor per codec: name, traits, and the three typed entry
// points. make_entry() below generates every type-erased closure from
// this — adding a codec to the registry is adding one descriptor here
// and one line to the table in compressor_registry().

struct MGARDFront {
  static constexpr const char* kName = "MGARD";
  static constexpr CompressorId kId = CompressorId::kMGARD;
  static constexpr bool kInterpolation = true;
  static constexpr bool kSupportsQP = true;
  using Config = MGARDConfig;
  template <class T>
  static std::vector<std::uint8_t> compress(const T* d, const Dims& dims,
                                            const Config& c) {
    return mgard_compress(d, dims, c);
  }
  template <class T>
  static Field<T> decompress(std::span<const std::uint8_t> a) {
    return mgard_decompress<T>(a);
  }
  template <class T>
  static void decompress_into(std::span<const std::uint8_t> a, T* out,
                              const Dims& expect, ThreadPool* pool) {
    mgard_decompress_into<T>(a, out, expect, pool);
  }
  template <class T>
  static Field<T> decompress_preview(std::span<const std::uint8_t> a,
                                     int level, PartialDecodeStats* stats,
                                     ThreadPool* pool) {
    return mgard_decompress_preview<T>(a, level, pool, stats);
  }
};

struct SZ3Front {
  static constexpr const char* kName = "SZ3";
  static constexpr CompressorId kId = CompressorId::kSZ3;
  static constexpr bool kInterpolation = true;
  static constexpr bool kSupportsQP = true;
  using Config = SZ3Config;
  template <class T>
  static std::vector<std::uint8_t> compress(const T* d, const Dims& dims,
                                            const Config& c) {
    return sz3_compress(d, dims, c);
  }
  template <class T>
  static Field<T> decompress(std::span<const std::uint8_t> a) {
    return sz3_decompress<T>(a);
  }
  template <class T>
  static void decompress_into(std::span<const std::uint8_t> a, T* out,
                              const Dims& expect, ThreadPool* pool) {
    sz3_decompress_into<T>(a, out, expect, pool);
  }
  template <class T>
  static Field<T> decompress_preview(std::span<const std::uint8_t> a,
                                     int level, PartialDecodeStats* stats,
                                     ThreadPool* pool) {
    return sz3_decompress_preview<T>(a, level, pool, stats);
  }
  template <class T>
  static Field<T> decompress_region(std::span<const std::uint8_t> a,
                                    const Box& box, PartialDecodeStats* stats,
                                    ThreadPool* pool) {
    return sz3_decompress_region<T>(a, box, pool, stats);
  }
};

struct QoZFront {
  static constexpr const char* kName = "QoZ";
  static constexpr CompressorId kId = CompressorId::kQoZ;
  static constexpr bool kInterpolation = true;
  static constexpr bool kSupportsQP = true;
  using Config = QoZConfig;
  template <class T>
  static std::vector<std::uint8_t> compress(const T* d, const Dims& dims,
                                            const Config& c) {
    return qoz_compress(d, dims, c);
  }
  template <class T>
  static Field<T> decompress(std::span<const std::uint8_t> a) {
    return qoz_decompress<T>(a);
  }
  template <class T>
  static void decompress_into(std::span<const std::uint8_t> a, T* out,
                              const Dims& expect, ThreadPool* pool) {
    qoz_decompress_into<T>(a, out, expect, pool);
  }
  template <class T>
  static Field<T> decompress_preview(std::span<const std::uint8_t> a,
                                     int level, PartialDecodeStats* stats,
                                     ThreadPool* pool) {
    return qoz_decompress_preview<T>(a, level, pool, stats);
  }
  template <class T>
  static Field<T> decompress_region(std::span<const std::uint8_t> a,
                                    const Box& box, PartialDecodeStats* stats,
                                    ThreadPool* pool) {
    return qoz_decompress_region<T>(a, box, pool, stats);
  }
};

struct HPEZFront {
  static constexpr const char* kName = "HPEZ";
  static constexpr CompressorId kId = CompressorId::kHPEZ;
  static constexpr bool kInterpolation = true;
  static constexpr bool kSupportsQP = true;
  using Config = HPEZConfig;
  template <class T>
  static std::vector<std::uint8_t> compress(const T* d, const Dims& dims,
                                            const Config& c) {
    return hpez_compress(d, dims, c);
  }
  template <class T>
  static Field<T> decompress(std::span<const std::uint8_t> a) {
    return hpez_decompress<T>(a);
  }
  template <class T>
  static void decompress_into(std::span<const std::uint8_t> a, T* out,
                              const Dims& expect, ThreadPool* pool) {
    hpez_decompress_into<T>(a, out, expect, pool);
  }
  template <class T>
  static Field<T> decompress_preview(std::span<const std::uint8_t> a,
                                     int level, PartialDecodeStats* stats,
                                     ThreadPool* pool) {
    return hpez_decompress_preview<T>(a, level, pool, stats);
  }
  // Region decode works on HPEZ archives sealed with a tile size: the
  // block tuner stands down for tiled encodes (see hpez.cpp), so the
  // plan is globally tuned and the tile directory is committed like
  // SZ3/QoZ. Untiled HPEZ archives throw DecodeError as usual.
  template <class T>
  static Field<T> decompress_region(std::span<const std::uint8_t> a,
                                    const Box& box, PartialDecodeStats* stats,
                                    ThreadPool* pool) {
    return hpez_decompress_region<T>(a, box, pool, stats);
  }
};

struct ZFPFront {
  static constexpr const char* kName = "ZFP";
  static constexpr CompressorId kId = CompressorId::kZFP;
  static constexpr bool kInterpolation = false;
  static constexpr bool kSupportsQP = false;
  using Config = ZFPConfig;
  template <class T>
  static std::vector<std::uint8_t> compress(const T* d, const Dims& dims,
                                            const Config& c) {
    return zfp_compress(d, dims, c);
  }
  template <class T>
  static Field<T> decompress(std::span<const std::uint8_t> a) {
    return zfp_decompress<T>(a);
  }
  template <class T>
  static void decompress_into(std::span<const std::uint8_t> a, T* out,
                              const Dims& expect, ThreadPool* pool) {
    zfp_decompress_into<T>(a, out, expect, pool);
  }
};

struct TTHRESHFront {
  static constexpr const char* kName = "TTHRESH";
  static constexpr CompressorId kId = CompressorId::kTTHRESH;
  static constexpr bool kInterpolation = false;
  static constexpr bool kSupportsQP = false;
  using Config = TTHRESHConfig;
  template <class T>
  static std::vector<std::uint8_t> compress(const T* d, const Dims& dims,
                                            const Config& c) {
    return tthresh_compress(d, dims, c);
  }
  template <class T>
  static Field<T> decompress(std::span<const std::uint8_t> a) {
    return tthresh_decompress<T>(a);
  }
  template <class T>
  static void decompress_into(std::span<const std::uint8_t> a, T* out,
                              const Dims& expect, ThreadPool* pool) {
    tthresh_decompress_into<T>(a, out, expect, pool);
  }
};

struct SPERRFront {
  static constexpr const char* kName = "SPERR";
  static constexpr CompressorId kId = CompressorId::kSPERR;
  static constexpr bool kInterpolation = false;
  static constexpr bool kSupportsQP = false;
  using Config = SPERRConfig;
  template <class T>
  static std::vector<std::uint8_t> compress(const T* d, const Dims& dims,
                                            const Config& c) {
    return sperr_compress(d, dims, c);
  }
  template <class T>
  static Field<T> decompress(std::span<const std::uint8_t> a) {
    return sperr_decompress<T>(a);
  }
  template <class T>
  static void decompress_into(std::span<const std::uint8_t> a, T* out,
                              const Dims& expect, ThreadPool* pool) {
    sperr_decompress_into<T>(a, out, expect, pool);
  }
};

/// Generate a registry entry from a Front descriptor. The native config
/// starts from its own defaults and adopts the caller's common
/// CodecOptions surface wholesale (error bound, QP, radius, interpolant,
/// pool); codecs that ignore a field (ZFP and QP, say) simply never read
/// it.
template <class Front>
CompressorEntry make_entry() {
  CompressorEntry e;
  e.name = Front::kName;
  e.id = Front::kId;
  e.interpolation = Front::kInterpolation;
  e.supports_qp = Front::kSupportsQP;
  auto cfg_of = [](const GenericOptions& o) {
    typename Front::Config c;
    static_cast<CodecOptions&>(c) = o;
    return c;
  };
  e.compress_f32 = [cfg_of](const float* d, const Dims& dims,
                            const GenericOptions& o) {
    return Front::template compress<float>(d, dims, cfg_of(o));
  };
  e.compress_f64 = [cfg_of](const double* d, const Dims& dims,
                            const GenericOptions& o) {
    return Front::template compress<double>(d, dims, cfg_of(o));
  };
  e.decompress_f32 = [](std::span<const std::uint8_t> a) {
    return Front::template decompress<float>(a);
  };
  e.decompress_f64 = [](std::span<const std::uint8_t> a) {
    return Front::template decompress<double>(a);
  };
  e.decompress_into_f32 = [](std::span<const std::uint8_t> a, float* dst,
                             const Dims& d, ThreadPool* pool) {
    Front::template decompress_into<float>(a, dst, d, pool);
  };
  e.decompress_into_f64 = [](std::span<const std::uint8_t> a, double* dst,
                             const Dims& d, ThreadPool* pool) {
    Front::template decompress_into<double>(a, dst, d, pool);
  };
  // Partial-decode entry points are optional per Front; absence installs
  // a typed refusal so the std::function is never null and callers that
  // skip the supports_* check still fail with UnknownCodecError.
  if constexpr (requires(std::span<const std::uint8_t> a,
                         PartialDecodeStats* st, ThreadPool* p) {
                  Front::template decompress_preview<float>(a, 1, st, p);
                }) {
    e.supports_preview = true;
    e.decompress_preview_f32 = [](std::span<const std::uint8_t> a, int level,
                                  PartialDecodeStats* st) {
      return Front::template decompress_preview<float>(a, level, st, nullptr);
    };
    e.decompress_preview_f64 = [](std::span<const std::uint8_t> a, int level,
                                  PartialDecodeStats* st) {
      return Front::template decompress_preview<double>(a, level, st, nullptr);
    };
    e.decompress_preview_pool_f32 = [](std::span<const std::uint8_t> a,
                                       int level, PartialDecodeStats* st,
                                       ThreadPool* p) {
      return Front::template decompress_preview<float>(a, level, st, p);
    };
    e.decompress_preview_pool_f64 = [](std::span<const std::uint8_t> a,
                                       int level, PartialDecodeStats* st,
                                       ThreadPool* p) {
      return Front::template decompress_preview<double>(a, level, st, p);
    };
  } else {
    e.decompress_preview_f32 = [](std::span<const std::uint8_t>, int,
                                  PartialDecodeStats*) -> Field<float> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support progressive preview");
    };
    e.decompress_preview_f64 = [](std::span<const std::uint8_t>, int,
                                  PartialDecodeStats*) -> Field<double> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support progressive preview");
    };
    e.decompress_preview_pool_f32 =
        [](std::span<const std::uint8_t>, int, PartialDecodeStats*,
           ThreadPool*) -> Field<float> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support progressive preview");
    };
    e.decompress_preview_pool_f64 =
        [](std::span<const std::uint8_t>, int, PartialDecodeStats*,
           ThreadPool*) -> Field<double> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support progressive preview");
    };
  }
  if constexpr (requires(std::span<const std::uint8_t> a, const Box& b,
                         PartialDecodeStats* st, ThreadPool* p) {
                  Front::template decompress_region<float>(a, b, st, p);
                }) {
    e.supports_region = true;
    e.decompress_region_f32 = [](std::span<const std::uint8_t> a,
                                 const Box& b, PartialDecodeStats* st) {
      return Front::template decompress_region<float>(a, b, st, nullptr);
    };
    e.decompress_region_f64 = [](std::span<const std::uint8_t> a,
                                 const Box& b, PartialDecodeStats* st) {
      return Front::template decompress_region<double>(a, b, st, nullptr);
    };
    e.decompress_region_pool_f32 = [](std::span<const std::uint8_t> a,
                                      const Box& b, PartialDecodeStats* st,
                                      ThreadPool* p) {
      return Front::template decompress_region<float>(a, b, st, p);
    };
    e.decompress_region_pool_f64 = [](std::span<const std::uint8_t> a,
                                      const Box& b, PartialDecodeStats* st,
                                      ThreadPool* p) {
      return Front::template decompress_region<double>(a, b, st, p);
    };
  } else {
    e.decompress_region_f32 = [](std::span<const std::uint8_t>, const Box&,
                                 PartialDecodeStats*) -> Field<float> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support region decode");
    };
    e.decompress_region_f64 = [](std::span<const std::uint8_t>, const Box&,
                                 PartialDecodeStats*) -> Field<double> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support region decode");
    };
    e.decompress_region_pool_f32 =
        [](std::span<const std::uint8_t>, const Box&, PartialDecodeStats*,
           ThreadPool*) -> Field<float> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support region decode");
    };
    e.decompress_region_pool_f64 =
        [](std::span<const std::uint8_t>, const Box&, PartialDecodeStats*,
           ThreadPool*) -> Field<double> {
      throw UnknownCodecError(std::string(Front::kName) +
                              " does not support region decode");
    };
  }
  return e;
}

}  // namespace

const std::vector<CompressorEntry>& compressor_registry() {
  // Paper Table IV order.
  static const std::vector<CompressorEntry> entries = {
      make_entry<MGARDFront>(), make_entry<SZ3Front>(),
      make_entry<QoZFront>(),   make_entry<HPEZFront>(),
      make_entry<ZFPFront>(),   make_entry<TTHRESHFront>(),
      make_entry<SPERRFront>()};
  return entries;
}

const CompressorEntry& find_compressor(std::string_view name) {
  for (const auto& e : compressor_registry())
    if (e.name == name) return e;
  throw UnknownCodecError("unknown compressor: " + std::string(name));
}

const CompressorEntry& find_compressor_for(
    std::span<const std::uint8_t> archive) {
  const ContainerInfo info = inspect_container(archive);
  for (const auto& e : compressor_registry())
    if (e.id == info.codec) return e;
  throw UnknownCodecError(
      "unknown compressor id " +
          std::to_string(static_cast<unsigned>(info.codec)) + " in archive",
      static_cast<std::uint8_t>(info.codec), info.version);
}

std::vector<const CompressorEntry*> qp_base_compressors() {
  std::vector<const CompressorEntry*> out;
  for (const auto& e : compressor_registry())
    if (e.supports_qp) out.push_back(&e);
  return out;
}

}  // namespace qip
