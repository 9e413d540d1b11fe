#include "compressors/zfp_like.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "compressors/core/driver.hpp"
#include "encode/bitstream.hpp"

namespace qip {
namespace {

constexpr int kEdge = 4;
constexpr std::uint64_t kNegaMask = 0xAAAAAAAAAAAAAAAAull;

/// Fixed-point fraction bits: enough precision that quantization noise
/// sits far below any realistic tolerance, with headroom for the x64
/// worst-case transform growth inside int64.
template <class T>
constexpr int fraction_bits();
template <>
constexpr int fraction_bits<float>() { return 30; }
template <>
constexpr int fraction_bits<double>() { return 48; }

/// Exactly invertible S-transform pair: s = floor((a+b)/2), d = a-b.
inline void s_fwd(std::int64_t& a, std::int64_t& b) {
  const std::int64_t s = (a + b) >> 1;
  const std::int64_t d = a - b;
  a = s;
  b = d;
}
inline void s_inv(std::int64_t& s, std::int64_t& d) {
  const std::int64_t a = s + ((d + 1) >> 1);
  const std::int64_t b = a - d;
  s = a;
  d = b;
}

/// Two-level S-transform of a 4-sample line (in place, given stride).
/// Output slots: 0 = coarse average, 1 = coarse detail, 2/3 = fine
/// details — mirroring a two-level Haar decomposition.
inline void line_fwd(std::int64_t* p, std::size_t s) {
  s_fwd(p[0], p[s]);          // (x0,x1) -> (s0,d0)
  s_fwd(p[2 * s], p[3 * s]);  // (x2,x3) -> (s1,d1)
  std::int64_t s0 = p[0], d0 = p[s], s1 = p[2 * s], d1 = p[3 * s];
  s_fwd(s0, s1);  // -> (ss, ds)
  p[0] = s0;
  p[s] = s1;      // ds in slot 1
  p[2 * s] = d0;
  p[3 * s] = d1;
}
inline void line_inv(std::int64_t* p, std::size_t s) {
  std::int64_t ss = p[0], ds = p[s], d0 = p[2 * s], d1 = p[3 * s];
  s_inv(ss, ds);  // -> (s0, s1)
  p[0] = ss;
  p[s] = d0;
  p[2 * s] = ds;
  p[3 * s] = d1;
  s_inv(p[0], p[s]);
  s_inv(p[2 * s], p[3 * s]);
}

inline std::uint64_t to_negabinary(std::int64_t i) {
  return (static_cast<std::uint64_t>(i) + kNegaMask) ^ kNegaMask;
}
inline std::int64_t from_negabinary(std::uint64_t u) {
  return static_cast<std::int64_t>((u ^ kNegaMask) - kNegaMask);
}

/// Per-rank coefficient permutation ordered by total decomposition
/// degree (coarse first), matching the embedded coder's assumption that
/// earlier coefficients are larger.
std::vector<int> degree_order(int rank) {
  const int n = 1;
  (void)n;
  const int size = 1 << (2 * rank);  // 4^rank
  auto slot_degree = [](int pos) { return pos == 0 ? 0 : (pos == 1 ? 1 : 2); };
  std::vector<int> order(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    int da = 0, db = 0, ta = a, tb = b;
    for (int d = 0; d < rank; ++d) {
      da += slot_degree(ta & 3);
      db += slot_degree(tb & 3);
      ta >>= 2;
      tb >>= 2;
    }
    return da != db ? da < db : a < b;
  });
  return order;
}

struct BlockCodec {
  int rank;
  int n;  // 4^rank
  std::vector<int> order;

  explicit BlockCodec(int r) : rank(r), n(1 << (2 * r)), order(degree_order(r)) {}

  void transform_fwd(std::int64_t* blk) const {
    for (int axis = rank - 1; axis >= 0; --axis) apply(blk, axis, true);
  }
  void transform_inv(std::int64_t* blk) const {
    for (int axis = 0; axis < rank; ++axis) apply(blk, axis, false);
  }

 private:
  void apply(std::int64_t* blk, int axis, bool fwd) const {
    // Lines along `axis`: iterate all positions with that axis pinned 0.
    const int stride = 1 << (2 * (rank - 1 - axis));
    const int lines = n / kEdge;
    for (int li = 0; li < lines; ++li) {
      // Expand line index into an offset skipping the target axis.
      int off = 0, rem = li;
      for (int d = rank - 1; d >= 0; --d) {
        if (d == axis) continue;
        const int coord = rem & 3;
        rem >>= 2;
        off += coord << (2 * (rank - 1 - d));
      }
      if (fwd)
        line_fwd(blk + off, static_cast<std::size_t>(stride));
      else
        line_inv(blk + off, static_cast<std::size_t>(stride));
    }
  }
};

int top_bit(std::uint64_t v) { return v ? 63 - std::countl_zero(v) : -1; }

/// Embedded group-tested bitplane encoder (ZFP-style): per plane, emit
/// the bits of the already-significant ordered prefix, then alternately
/// test the remainder ("any set bit here?") and scan forward to the next
/// set bit. The decoder mirrors the control flow exactly.
///
/// Fast path for n <= 64 (ranks 1-3): each plane is transposed once into
/// a 64-bit mask with ordered-coefficient i at bit (63 - i), so prefix
/// emission is one batched write and tail scans are countl_zero.
void encode_planes(BitWriter& bw, const std::uint64_t* c,
                   const std::vector<int>& order, int kmax, int kmin) {
  const int n = static_cast<int>(order.size());
  if (n <= 64) {
    int m = 0;
    for (int p = kmax; p >= kmin; --p) {
      std::uint64_t mask = 0;
      for (int i = 0; i < n; ++i)
        mask |= ((c[order[static_cast<std::size_t>(i)]] >> p) & 1)
                << (63 - i);
      if (m > 0) bw.write(mask >> (64 - m), m);
      int i = m;
      while (i < n) {
        // Next set bit at or after position i, if any.
        const std::uint64_t rest = mask << i;
        const int skip = rest ? std::countl_zero(rest) : 64;
        const bool any = i + skip < n;
        bw.write_bit(any);
        if (!any) break;
        // Emit `skip` zeros then the 1 that ends the scan.
        bw.write(1, skip + 1);
        i += skip + 1;
        m = i;
      }
    }
    return;
  }
  int m = 0;
  for (int p = kmax; p >= kmin; --p) {
    for (int i = 0; i < m; ++i)
      bw.write_bit((c[order[static_cast<std::size_t>(i)]] >> p) & 1);
    int i = m;
    while (i < n) {
      bool any = false;
      for (int j = i; j < n; ++j) {
        if ((c[order[static_cast<std::size_t>(j)]] >> p) & 1) {
          any = true;
          break;
        }
      }
      bw.write_bit(any);
      if (!any) break;
      for (;;) {
        const bool b = (c[order[static_cast<std::size_t>(i)]] >> p) & 1;
        bw.write_bit(b);
        ++i;
        if (b) break;
      }
      m = i;
    }
  }
}

void decode_planes(BitReader& br, std::uint64_t* c,
                   const std::vector<int>& order, int kmax, int kmin) {
  const int n = static_cast<int>(order.size());
  if (n <= 64) {
    int m = 0;
    for (int p = kmax; p >= kmin; --p) {
      if (m > 0) {
        std::uint64_t prefix = br.read(m);
        // Bit (m-1-i) of prefix is ordered coefficient i's plane bit.
        while (prefix) {
          const int bit = 63 - std::countl_zero(prefix);
          c[order[static_cast<std::size_t>(m - 1 - bit)]] |= 1ull << p;
          prefix &= ~(1ull << bit);
        }
      }
      int i = m;
      while (i < n) {
        if (!br.read_bit()) break;
        for (;;) {
          const bool b = br.read_bit() != 0;
          if (b) c[order[static_cast<std::size_t>(i)]] |= 1ull << p;
          ++i;
          if (b) break;
        }
        m = i;
      }
    }
    return;
  }
  int m = 0;
  for (int p = kmax; p >= kmin; --p) {
    for (int i = 0; i < m; ++i)
      if (br.read_bit()) c[order[static_cast<std::size_t>(i)]] |= 1ull << p;
    int i = m;
    while (i < n) {
      if (!br.read_bit()) break;
      for (;;) {
        const bool b = br.read_bit() != 0;
        if (b) c[order[static_cast<std::size_t>(i)]] |= 1ull << p;
        ++i;
        if (b) break;
      }
      m = i;
    }
  }
}

/// Tolerance-derived minimum plane for a block with exponent e.
template <class T>
int min_plane(double tol, int e, int guard_bits) {
  if (tol <= 0) return 0;
  const double tol_int = std::ldexp(tol, fraction_bits<T>() - 1 - e);
  if (tol_int < 1.0) return 0;
  const int mb = static_cast<int>(std::floor(std::log2(tol_int))) - guard_bits;
  return std::max(mb, 0);
}

template <class T, bool kEncode>
void walk_blocks(T* data, const Dims& dims, double tol, int guard_bits,
                 BitWriter* bw, BitReader* br) {
  const int rank = dims.rank();
  const BlockCodec codec(rank);
  const int Q = fraction_bits<T>();

  std::array<std::size_t, kMaxRank> nblk{1, 1, 1, 1};
  for (int a = 0; a < rank; ++a)
    nblk[a] = (dims.extent(a) + kEdge - 1) / kEdge;

  std::vector<std::int64_t> blk(static_cast<std::size_t>(codec.n));
  std::vector<std::uint64_t> nb(static_cast<std::size_t>(codec.n));

  std::array<std::size_t, kMaxRank> b{};
  for (b[0] = 0; b[0] < nblk[0]; ++b[0])
    for (b[1] = 0; b[1] < nblk[1]; ++b[1])
      for (b[2] = 0; b[2] < nblk[2]; ++b[2])
        for (b[3] = 0; b[3] < nblk[3]; ++b[3]) {
          // Gather with clamped padding / scatter valid region.
          auto for_each_cell = [&](auto&& fn) {
            std::array<std::size_t, kMaxRank> c{};
            const int e0 = rank > 0 ? kEdge : 1, e1 = rank > 1 ? kEdge : 1;
            const int e2 = rank > 2 ? kEdge : 1, e3 = rank > 3 ? kEdge : 1;
            for (int i0 = 0; i0 < e0; ++i0)
              for (int i1 = 0; i1 < e1; ++i1)
                for (int i2 = 0; i2 < e2; ++i2)
                  for (int i3 = 0; i3 < e3; ++i3) {
                    c = {b[0] * kEdge + static_cast<std::size_t>(i0),
                         b[1] * kEdge + static_cast<std::size_t>(i1),
                         b[2] * kEdge + static_cast<std::size_t>(i2),
                         b[3] * kEdge + static_cast<std::size_t>(i3)};
                    int blk_idx = 0;
                    const int loc[4] = {i0, i1, i2, i3};
                    for (int d = 0; d < rank; ++d)
                      blk_idx += loc[d] << (2 * (rank - 1 - d));
                    fn(c, blk_idx);
                  }
          };

          if constexpr (kEncode) {
            T maxv = 0;
            for_each_cell([&](std::array<std::size_t, kMaxRank> c, int bi) {
              std::array<std::size_t, kMaxRank> cc{};
              for (int d = 0; d < kMaxRank; ++d)
                cc[d] = std::min(c[d], dims.extent(d) - 1);
              const T v = data[dims.index(cc[0], cc[1], cc[2], cc[3])];
              blk[static_cast<std::size_t>(bi)] = 0;
              nb[static_cast<std::size_t>(bi)] = 0;
              maxv = std::max(maxv, static_cast<T>(std::abs(v)));
            });
            if (!(maxv > 0)) {
              bw->write_bit(true);  // all-zero block
              continue;
            }
            bw->write_bit(false);
            int e = 0;
            std::frexp(static_cast<double>(maxv), &e);  // maxv < 2^e
            bw->write(static_cast<std::uint64_t>(e + 1024) & 0xFFF, 12);

            // Power-of-two scaling is exact, so one precomputed multiply
            // replaces a per-point ldexp call.
            const double scale = std::ldexp(1.0, Q - 1 - e);
            for_each_cell([&](std::array<std::size_t, kMaxRank> c, int bi) {
              std::array<std::size_t, kMaxRank> cc{};
              for (int d = 0; d < kMaxRank; ++d)
                cc[d] = std::min(c[d], dims.extent(d) - 1);
              const double v =
                  static_cast<double>(data[dims.index(cc[0], cc[1], cc[2], cc[3])]);
              blk[static_cast<std::size_t>(bi)] = std::llround(v * scale);
            });
            codec.transform_fwd(blk.data());
            int kmax = 0;
            for (int i = 0; i < codec.n; ++i) {
              nb[static_cast<std::size_t>(i)] =
                  to_negabinary(blk[static_cast<std::size_t>(i)]);
              kmax = std::max(kmax, top_bit(nb[static_cast<std::size_t>(i)]));
            }
            bw->write(static_cast<std::uint64_t>(kmax), 6);
            const int kmin = min_plane<T>(tol, e, guard_bits);
            if (kmax >= kmin)
              encode_planes(*bw, nb.data(), codec.order, kmax, kmin);
          } else {
            if (br->read_bit()) {  // all-zero block
              for_each_cell([&](std::array<std::size_t, kMaxRank> c, int) {
                bool valid = true;
                for (int d = 0; d < kMaxRank; ++d)
                  if (c[d] >= dims.extent(d)) valid = false;
                if (valid)
                  data[dims.index(c[0], c[1], c[2], c[3])] = T{0};
              });
              continue;
            }
            const int e = static_cast<int>(br->read(12)) - 1024;
            const int kmax = static_cast<int>(br->read(6));
            const int kmin = min_plane<T>(tol, e, guard_bits);
            std::fill(nb.begin(), nb.end(), 0);
            if (kmax >= kmin)
              decode_planes(*br, nb.data(), codec.order, kmax, kmin);
            for (int i = 0; i < codec.n; ++i)
              blk[static_cast<std::size_t>(i)] =
                  from_negabinary(nb[static_cast<std::size_t>(i)]);
            codec.transform_inv(blk.data());
            const double inv_scale = std::ldexp(1.0, e + 1 - Q);
            for_each_cell([&](std::array<std::size_t, kMaxRank> c, int bi) {
              bool valid = true;
              for (int d = 0; d < kMaxRank; ++d)
                if (c[d] >= dims.extent(d)) valid = false;
              if (valid)
                data[dims.index(c[0], c[1], c[2], c[3])] = static_cast<T>(
                    static_cast<double>(blk[static_cast<std::size_t>(bi)]) *
                    inv_scale);
            });
          }
        }
}

/// Stage policy: embedded block-transform stream plus the exact-bound
/// correction list.
struct ZFPCodec {
  using Config = ZFPConfig;
  using Artifacts = NoArtifacts;
  static constexpr CompressorId kId = CompressorId::kZFP;
  static constexpr const char* kName = "ZFP";
  static constexpr CodecTraits kTraits{};

  template <class T>
  static void encode(const T* data, const Dims& dims, const Config& cfg,
                     ContainerWriter& out, Artifacts*) {
    BitWriter bw;
    walk_blocks<T, true>(const_cast<T*>(data), dims, cfg.error_bound,
                         cfg.guard_bits, &bw, nullptr);
    std::vector<std::uint8_t> stream = bw.finish();

    // Correction pass: decode our own stream and patch violations so the
    // absolute bound holds exactly.
    Field<T> recon(dims);
    {
      BitReader br(stream);
      walk_blocks<T, false>(recon.data(), dims, cfg.error_bound,
                            cfg.guard_bits, nullptr, &br);
    }
    const auto corrections = collect_corrections(
        data, dims.size(), cfg.error_bound, cfg.error_bound / 2.0,
        [&](std::size_t i) { return static_cast<double>(recon[i]); });

    ByteWriter& h = out.stage(StageId::kConfig);
    h.put(cfg.error_bound);
    h.put(static_cast<std::int32_t>(cfg.guard_bits));
    write_raw_chunk(out, stream);
    write_corrections_stage(out, corrections);
  }

  template <class T>
  static void decode(const ContainerReader& in, const DecodeRequest&, T* out,
                     ThreadPool*, PartialDecodeStats*) {
    ByteReader h = in.stage(StageId::kConfig);
    const double eb = h.get<double>();
    const int guard = h.get<std::int32_t>();

    const std::vector<std::uint8_t> stream = read_raw_chunk(in);
    BitReader br(stream);
    walk_blocks<T, false>(out, in.dims(), eb, guard, nullptr, &br);
    apply_corrections_stage(in, out, in.dims().size(), eb / 2.0, "zfp");
  }
};

}  // namespace

template <class T>
std::vector<std::uint8_t> zfp_compress(const T* data, const Dims& dims,
                                       const ZFPConfig& cfg) {
  return codec_seal<ZFPCodec>(data, dims, cfg);
}

template <class T>
Field<T> zfp_decompress(std::span<const std::uint8_t> archive,
                        ThreadPool* pool) {
  return codec_decode<ZFPCodec, T>(archive, {}, pool);
}

CompressorEntry zfp_entry() { return codec_entry<ZFPCodec>(); }

template std::vector<std::uint8_t> zfp_compress<float>(const float*,
                                                       const Dims&,
                                                       const ZFPConfig&);
template std::vector<std::uint8_t> zfp_compress<double>(const double*,
                                                        const Dims&,
                                                        const ZFPConfig&);
template Field<float> zfp_decompress<float>(std::span<const std::uint8_t>,
                                            ThreadPool*);
template Field<double> zfp_decompress<double>(std::span<const std::uint8_t>,
                                              ThreadPool*);

}  // namespace qip
