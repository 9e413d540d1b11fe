#include "compressors/sperr_like.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "compressors/core/driver.hpp"
#include "encode/rle.hpp"

namespace qip {
namespace {

// CDF 9/7 lifting constants (JPEG2000 irreversible filter).
constexpr double kA = -1.586134342059924;
constexpr double kB = -0.052980118572961;
constexpr double kG = 0.882911075530934;
constexpr double kD = 0.443506852043971;
constexpr double kK = 1.230174104914001;

/// Mirror index into [0, n).
inline std::size_t mirror(std::ptrdiff_t i, std::size_t n) {
  if (n == 1) return 0;
  while (i < 0 || i >= static_cast<std::ptrdiff_t>(n)) {
    if (i < 0) i = -i;
    if (i >= static_cast<std::ptrdiff_t>(n))
      i = 2 * static_cast<std::ptrdiff_t>(n) - 2 - i;
  }
  return static_cast<std::size_t>(i);
}

/// One forward CDF 9/7 pass on a line of length n (in place, then
/// deinterleaved: approximations first).
void line_fwd(double* x, std::size_t n, std::vector<double>& tmp) {
  if (n < 2) return;
  auto at = [&](std::ptrdiff_t i) -> double& { return x[mirror(i, n)]; };
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 1; i < sn; i += 2) x[i] += kA * (at(i - 1) + at(i + 1));
  for (std::ptrdiff_t i = 0; i < sn; i += 2) x[i] += kB * (at(i - 1) + at(i + 1));
  for (std::ptrdiff_t i = 1; i < sn; i += 2) x[i] += kG * (at(i - 1) + at(i + 1));
  for (std::ptrdiff_t i = 0; i < sn; i += 2) x[i] += kD * (at(i - 1) + at(i + 1));
  const std::size_t nl = (n + 1) / 2;
  tmp.resize(n);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i];
  for (std::size_t i = 0; i < nl; ++i) x[i] = tmp[2 * i] / kK;
  for (std::size_t i = nl; i < n; ++i) x[i] = tmp[2 * (i - nl) + 1] * (kK / 2);
}

void line_inv(double* x, std::size_t n, std::vector<double>& tmp) {
  if (n < 2) return;
  const std::size_t nl = (n + 1) / 2;
  tmp.resize(n);
  for (std::size_t i = 0; i < nl; ++i) tmp[2 * i] = x[i] * kK;
  for (std::size_t i = nl; i < n; ++i) tmp[2 * (i - nl) + 1] = x[i] / (kK / 2);
  for (std::size_t i = 0; i < n; ++i) x[i] = tmp[i];
  auto at = [&](std::ptrdiff_t i) -> double& { return x[mirror(i, n)]; };
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 0; i < sn; i += 2) x[i] -= kD * (at(i - 1) + at(i + 1));
  for (std::ptrdiff_t i = 1; i < sn; i += 2) x[i] -= kG * (at(i - 1) + at(i + 1));
  for (std::ptrdiff_t i = 0; i < sn; i += 2) x[i] -= kB * (at(i - 1) + at(i + 1));
  for (std::ptrdiff_t i = 1; i < sn; i += 2) x[i] -= kA * (at(i - 1) + at(i + 1));
}

/// Extents of the low-pass box after `level` halvings.
std::array<std::size_t, kMaxRank> level_extents(const Dims& dims, int level) {
  std::array<std::size_t, kMaxRank> e{1, 1, 1, 1};
  for (int a = 0; a < dims.rank(); ++a) {
    std::size_t n = dims.extent(a);
    for (int l = 0; l < level; ++l) n = (n + 1) / 2;
    e[a] = n;
  }
  return e;
}

/// Apply the transform along every axis of the level's low-pass box.
template <bool kFwd>
void dwt_level(std::vector<double>& buf, const Dims& dims, int level) {
  const auto ext = level_extents(dims, level);
  std::vector<double> line, tmp;
  // For the inverse, axes must be undone in reverse order.
  for (int step = 0; step < dims.rank(); ++step) {
    const int axis = kFwd ? step : dims.rank() - 1 - step;
    const std::size_t n = ext[axis];
    if (n < 2) continue;
    line.resize(n);
    // Iterate all lines along `axis` within the box.
    std::array<std::size_t, kMaxRank> c{};
    std::array<std::size_t, kMaxRank> lim = ext;
    lim[axis] = 1;
    for (c[0] = 0; c[0] < lim[0]; ++c[0])
      for (c[1] = 0; c[1] < lim[1]; ++c[1])
        for (c[2] = 0; c[2] < lim[2]; ++c[2])
          for (c[3] = 0; c[3] < lim[3]; ++c[3]) {
            const std::size_t base = dims.index(c[0], c[1], c[2], c[3]);
            const std::size_t stride = dims.stride(axis);
            for (std::size_t i = 0; i < n; ++i)
              line[i] = buf[base + i * stride];
            if constexpr (kFwd)
              line_fwd(line.data(), n, tmp);
            else
              line_inv(line.data(), n, tmp);
            for (std::size_t i = 0; i < n; ++i)
              buf[base + i * stride] = line[i];
          }
  }
}

/// --- Future-work extension: QP generalized to the wavelet archetype ---
///
/// Applies the adaptively-gated 2-D Lorenzo prediction (paper Algorithm
/// 2's Case III gate) to the quantization indices of each wavelet
/// subband. Subbands are boxes in the deinterleaved layout; within one,
/// indices of smooth regions cluster just like the interpolation stage
/// grids do. The forward pass runs in reverse lexicographic order so
/// every prediction reads original neighbor indices; the decoder runs
/// forward, reading already-recovered ones -- the identical information
/// symmetry as the interpolation-compressor QP.
template <bool kForward>
void subband_index_predict(std::vector<std::uint32_t>& sym, const Dims& dims,
                           int levels) {
  auto signed_q = [](std::uint32_t s) {
    return static_cast<std::int64_t>((static_cast<std::uint64_t>(s) >> 1) ^
                                     (~(static_cast<std::uint64_t>(s) & 1) + 1));
  };
  auto zig = [](std::int64_t q) {
    return static_cast<std::uint32_t>((static_cast<std::uint64_t>(q) << 1) ^
                                      static_cast<std::uint64_t>(q >> 63));
  };

  // Enumerate subband boxes: per level, every low/high combination except
  // all-low; plus the final DC box.
  struct Box {
    std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0}, hi{1, 1, 1, 1};
  };
  std::vector<Box> boxes;
  for (int l = 0; l < levels; ++l) {
    const auto cur = level_extents(dims, l);
    const auto nxt = level_extents(dims, l + 1);
    const std::uint32_t nmask = 1u << dims.rank();
    for (std::uint32_t mask = 1; mask < nmask; ++mask) {
      Box b;
      bool empty = false;
      for (int a = 0; a < dims.rank(); ++a) {
        if ((mask >> a) & 1) {
          b.lo[a] = nxt[a];
          b.hi[a] = cur[a];
        } else {
          b.lo[a] = 0;
          b.hi[a] = nxt[a];
        }
        if (b.lo[a] >= b.hi[a]) empty = true;
      }
      if (!empty) boxes.push_back(b);
    }
  }
  {
    Box dc;
    const auto top = level_extents(dims, levels);
    for (int a = 0; a < dims.rank(); ++a) dc.hi[a] = top[a];
    boxes.push_back(dc);
  }

  for (const auto& b : boxes) {
    // The two fastest axes with more than one sample in this box.
    int a1 = -1, a0 = -1;
    for (int a = dims.rank() - 1; a >= 0; --a) {
      if (b.hi[a] - b.lo[a] < 2) continue;
      if (a1 < 0)
        a1 = a;
      else if (a0 < 0)
        a0 = a;
    }
    if (a1 < 0 || a0 < 0) continue;
    const std::size_t off1 = dims.stride(a1), off0 = dims.stride(a0);

    auto compensation = [&](const std::array<std::size_t, kMaxRank>& c,
                            std::size_t idx) -> std::int64_t {
      if (c[a1] < b.lo[a1] + 1 || c[a0] < b.lo[a0] + 1) return 0;
      const std::int64_t ql = signed_q(sym[idx - off1]);
      const std::int64_t qt = signed_q(sym[idx - off0]);
      if (!((ql > 0 && qt > 0) || (ql < 0 && qt < 0))) return 0;  // Case III
      const std::int64_t qd = signed_q(sym[idx - off1 - off0]);
      return ql + qt - qd;
    };

    auto visit = [&](const std::array<std::size_t, kMaxRank>& c) {
      const std::size_t idx = dims.index(c[0], c[1], c[2], c[3]);
      const std::int64_t comp = compensation(c, idx);
      if (comp == 0) return;
      if constexpr (kForward)
        sym[idx] = zig(signed_q(sym[idx]) - comp);
      else
        sym[idx] = zig(signed_q(sym[idx]) + comp);
    };

    std::array<std::size_t, kMaxRank> c{};
    if constexpr (kForward) {
      // Reverse lex order: predictions read original neighbors.
      for (c[0] = b.hi[0]; c[0]-- > b.lo[0];)
        for (c[1] = b.hi[1]; c[1]-- > b.lo[1];)
          for (c[2] = b.hi[2]; c[2]-- > b.lo[2];)
            for (c[3] = b.hi[3]; c[3]-- > b.lo[3];) visit(c);
    } else {
      for (c[0] = b.lo[0]; c[0] < b.hi[0]; ++c[0])
        for (c[1] = b.lo[1]; c[1] < b.hi[1]; ++c[1])
          for (c[2] = b.lo[2]; c[2] < b.hi[2]; ++c[2])
            for (c[3] = b.lo[3]; c[3] < b.hi[3]; ++c[3]) visit(c);
    }
  }
}

int effective_levels(const Dims& dims, int requested) {
  int lv = 0;
  std::size_t m = dims.max_extent();
  while (lv < requested && m >= 8) {
    m = (m + 1) / 2;
    ++lv;
  }
  return std::max(lv, 1);
}

/// Stage policy: CDF 9/7 wavelet coefficients as an RLE symbol stream
/// plus the exact-bound correction list.
struct SPERRCodec {
  using Config = SPERRConfig;
  using Artifacts = NoArtifacts;
  static constexpr CompressorId kId = CompressorId::kSPERR;
  static constexpr const char* kName = "SPERR";
  static constexpr CodecTraits kTraits{};

  template <class T>
  static void encode(const T* data, const Dims& dims, const Config& cfg,
                     ContainerWriter& out, Artifacts*) {
    const int levels = effective_levels(dims, cfg.levels);
    std::vector<double> buf(dims.size());
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = static_cast<double>(data[i]);
    for (int l = 0; l < levels; ++l) dwt_level<true>(buf, dims, l);

    // Uniform scalar quantization of the coefficients.
    const double delta = cfg.error_bound / cfg.quant_factor;
    std::vector<std::uint32_t> symbols(buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const std::int64_t q = std::llround(buf[i] / (2.0 * delta));
      symbols[i] = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(q) << 1) ^
          static_cast<std::uint64_t>(q >> 63));
      buf[i] = 2.0 * delta * static_cast<double>(q);  // decoder's view
    }

    // Reconstruct from the decoder's coefficients to find violations.
    for (int l = levels - 1; l >= 0; --l) dwt_level<false>(buf, dims, l);
    const auto corrections = collect_corrections(
        data, dims.size(), cfg.error_bound, cfg.error_bound / 2.0,
        // Compare against the value the decoder will actually produce,
        // including the final cast to T.
        [&](std::size_t i) {
          return static_cast<double>(static_cast<T>(buf[i]));
        });

    if (cfg.index_prediction)
      subband_index_predict<true>(symbols, dims, levels);

    ByteWriter& h = out.stage(StageId::kConfig);
    h.put(cfg.error_bound);
    h.put(static_cast<std::int32_t>(levels));
    h.put(cfg.quant_factor);
    h.put<std::uint8_t>(cfg.index_prediction ? 1 : 0);
    write_raw_chunk(out, rle_encode_symbols(symbols));
    write_corrections_stage(out, corrections);
  }

  template <class T>
  static void decode(const ContainerReader& in, const DecodeRequest&, T* out,
                     ThreadPool*, PartialDecodeStats*) {
    ByteReader h = in.stage(StageId::kConfig);
    const double eb = h.get<double>();
    const int levels = h.get<std::int32_t>();
    const double quant_factor = h.get<double>();
    const bool index_prediction = h.get<std::uint8_t>() != 0;
    const Dims& dims = in.dims();
    auto symbols = rle_decode_symbols(read_raw_chunk(in), dims.size());
    if (symbols.size() < dims.size())
      throw DecodeError("sperr: symbol stream shorter than field");
    if (index_prediction) subband_index_predict<false>(symbols, dims, levels);

    const double delta = eb / quant_factor;
    std::vector<double> buf(dims.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const std::uint64_t zz = symbols[i];
      const std::int64_t q =
          static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
      buf[i] = 2.0 * delta * static_cast<double>(q);
    }
    for (int l = levels - 1; l >= 0; --l) dwt_level<false>(buf, dims, l);

    for (std::size_t i = 0; i < buf.size(); ++i)
      out[i] = static_cast<T>(buf[i]);
    apply_corrections_stage(in, out, dims.size(), eb / 2.0, "sperr");
  }
};

}  // namespace

template <class T>
std::vector<std::uint8_t> sperr_compress(const T* data, const Dims& dims,
                                         const SPERRConfig& cfg) {
  return codec_seal<SPERRCodec>(data, dims, cfg);
}

template <class T>
Field<T> sperr_decompress(std::span<const std::uint8_t> archive,
                          ThreadPool* pool) {
  return codec_decode<SPERRCodec, T>(archive, {}, pool);
}

CompressorEntry sperr_entry() { return codec_entry<SPERRCodec>(); }

template std::vector<std::uint8_t> sperr_compress<float>(const float*,
                                                         const Dims&,
                                                         const SPERRConfig&);
template std::vector<std::uint8_t> sperr_compress<double>(const double*,
                                                          const Dims&,
                                                          const SPERRConfig&);
template Field<float> sperr_decompress<float>(std::span<const std::uint8_t>,
                                              ThreadPool*);
template Field<double> sperr_decompress<double>(std::span<const std::uint8_t>,
                                                ThreadPool*);

}  // namespace qip
