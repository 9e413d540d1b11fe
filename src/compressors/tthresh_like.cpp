#include "compressors/tthresh_like.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "compressors/core/driver.hpp"
#include "encode/rle.hpp"

namespace qip {
namespace {

/// Cyclic Jacobi eigendecomposition of a symmetric matrix (row-major).
/// On return `a`'s diagonal holds eigenvalues and `v` the eigenvectors
/// as columns. O(sweeps * n^3); fine for the mode sizes we allow.
void jacobi_eigen(std::vector<double>& a, std::size_t n,
                  std::vector<double>& v) {
  v.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;
  for (int sweep = 0; sweep < 16; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += a[p * n + q] * a[p * n + q];
    if (off < 1e-22 * n * n) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (std::abs(apq) < 1e-300) continue;
        const double app = a[p * n + p], aqq = a[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k * n + p], akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p * n + k], aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v[k * n + p], vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }
}

Dims with_extent(const Dims& d, int axis, std::size_t e) {
  std::size_t x[kMaxRank] = {d.extent(0), d.extent(1), d.extent(2),
                             d.extent(3)};
  x[axis] = e;
  return Dims(d.rank(), x);
}

/// Iterate all lines along `axis`: fn(base_offset, stride).
template <class F>
void for_each_line(const Dims& dims, int axis, F&& fn) {
  std::array<std::size_t, kMaxRank> lim{};
  for (int a = 0; a < kMaxRank; ++a) lim[a] = dims.extent(a);
  lim[axis] = 1;
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < lim[0]; ++c[0])
    for (c[1] = 0; c[1] < lim[1]; ++c[1])
      for (c[2] = 0; c[2] < lim[2]; ++c[2])
        for (c[3] = 0; c[3] < lim[3]; ++c[3])
          fn(dims.index(c[0], c[1], c[2], c[3]));
}

/// Gram matrix of the mode-`axis` unfolding: G = X_(n) X_(n)^T.
std::vector<double> mode_gram(const std::vector<double>& x, const Dims& dims,
                              int axis) {
  const std::size_t n = dims.extent(axis);
  const std::size_t stride = dims.stride(axis);
  std::vector<double> g(n * n, 0.0);
  std::vector<double> line(n);
  for_each_line(dims, axis, [&](std::size_t base) {
    for (std::size_t i = 0; i < n; ++i) line[i] = x[base + i * stride];
    for (std::size_t i = 0; i < n; ++i) {
      const double li = line[i];
      for (std::size_t j = i; j < n; ++j) g[i * n + j] += li * line[j];
    }
  });
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) g[i * n + j] = g[j * n + i];
  return g;
}

/// Tensor-times-matrix producing a new buffer: with `project` the mode
/// extent shrinks n -> r via y_j = sum_i m[i*r+j] x_i (U^T x); otherwise
/// it expands r -> n via y_i = sum_j m[i*r+j] c_j (U c). `m` is n x r
/// row-major in both cases. `dims` is updated to the output shape.
std::vector<double> ttm(const std::vector<double>& x, Dims& dims, int axis,
                        const std::vector<double>& m, std::size_t n,
                        std::size_t r, bool project) {
  const Dims in_dims = dims;
  const Dims out_dims = with_extent(in_dims, axis, project ? r : n);
  std::vector<double> y(out_dims.size(), 0.0);
  const std::size_t in_stride = in_dims.stride(axis);
  const std::size_t out_stride = out_dims.stride(axis);
  const std::size_t in_len = in_dims.extent(axis);
  const std::size_t out_len = out_dims.extent(axis);

  // Lines of the *output* tensor correspond 1:1 with lines of the input
  // (all other coordinates equal); enumerate via the output shape with
  // the axis pinned and recompute the input base with the same coords.
  std::array<std::size_t, kMaxRank> lim{};
  for (int a = 0; a < kMaxRank; ++a) lim[a] = out_dims.extent(a);
  lim[axis] = 1;
  std::array<std::size_t, kMaxRank> c{};
  std::vector<double> in_line(in_len);
  for (c[0] = 0; c[0] < lim[0]; ++c[0])
    for (c[1] = 0; c[1] < lim[1]; ++c[1])
      for (c[2] = 0; c[2] < lim[2]; ++c[2])
        for (c[3] = 0; c[3] < lim[3]; ++c[3]) {
          const std::size_t in_base = in_dims.index(c[0], c[1], c[2], c[3]);
          const std::size_t out_base = out_dims.index(c[0], c[1], c[2], c[3]);
          for (std::size_t i = 0; i < in_len; ++i)
            in_line[i] = x[in_base + i * in_stride];
          if (project) {
            for (std::size_t j = 0; j < out_len; ++j) {
              double acc = 0.0;
              for (std::size_t i = 0; i < in_len; ++i)
                acc += m[i * r + j] * in_line[i];
              y[out_base + j * out_stride] = acc;
            }
          } else {
            for (std::size_t i = 0; i < out_len; ++i) {
              double acc = 0.0;
              for (std::size_t j = 0; j < in_len; ++j)
                acc += m[i * r + j] * in_line[j];
              y[out_base + i * out_stride] = acc;
            }
          }
        }
  dims = out_dims;
  return y;
}

/// Stage policy: Tucker factors live in kConfig (they are model state,
/// like an interpolation plan), the quantized core is the raw payload
/// chunk, and kCorrections enforces the bound.
struct TTHRESHCodec {
  using Config = TTHRESHConfig;
  using Artifacts = NoArtifacts;
  static constexpr CompressorId kId = CompressorId::kTTHRESH;
  static constexpr const char* kName = "TTHRESH";
  static constexpr CodecTraits kTraits{};

  template <class T>
  static void encode(const T* data, const Dims& dims, const Config& cfg,
                     ContainerWriter& out, Artifacts*) {
    const int rank = dims.rank();
    const double delta = cfg.error_bound / cfg.quant_factor;
    std::vector<double> core(dims.size());
    for (std::size_t i = 0; i < core.size(); ++i)
      core[i] = static_cast<double>(data[i]);
    Dims core_dims = dims;

    // ST-HOSVD with rank truncation: per mode, eigendecompose the Gram
    // matrix, drop trailing eigenpairs while the cumulative discarded
    // energy stays within a fraction of the quantization-noise budget, and
    // project. Factors are float-rounded so encoder and decoder use
    // bit-identical matrices.
    std::vector<std::vector<double>> factors(static_cast<std::size_t>(rank));
    std::vector<std::uint32_t> mode_rank(static_cast<std::size_t>(rank), 0);
    std::vector<std::uint8_t> has_factor(static_cast<std::size_t>(rank), 0);
    const double energy_budget =
        0.25 * delta * delta * static_cast<double>(dims.size());
    for (int axis = 0; axis < rank; ++axis) {
      const std::size_t n = dims.extent(axis);
      if (n < 2 || n > cfg.max_mode_size) continue;
      std::vector<double> g = mode_gram(core, core_dims, axis);
      std::vector<double> v;
      jacobi_eigen(g, n, v);
      std::vector<std::size_t> idx(n);
      for (std::size_t i = 0; i < n; ++i) idx[i] = i;
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return g[a * n + a] > g[b * n + b];
      });
      // Truncate: discard the smallest eigenvalues within budget.
      std::size_t r = n;
      double discarded = 0.0;
      while (r > 1) {
        const double lam = std::max(0.0, g[idx[r - 1] * n + idx[r - 1]]);
        if (discarded + lam > energy_budget) break;
        discarded += lam;
        --r;
      }
      auto& u = factors[static_cast<std::size_t>(axis)];
      u.resize(n * r);
      for (std::size_t j = 0; j < r; ++j)
        for (std::size_t i = 0; i < n; ++i)
          u[i * r + j] =
              static_cast<double>(static_cast<float>(v[i * n + idx[j]]));
      has_factor[static_cast<std::size_t>(axis)] = 1;
      mode_rank[static_cast<std::size_t>(axis)] = static_cast<std::uint32_t>(r);
      core = ttm(core, core_dims, axis, u, n, r, /*project=*/true);
    }

    // Scalar-quantize the truncated core and zero-run entropy-code it.
    std::vector<std::uint32_t> symbols(core.size());
    for (std::size_t i = 0; i < core.size(); ++i) {
      const std::int64_t q = std::llround(core[i] / (2.0 * delta));
      symbols[i] = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(q) << 1) ^
          static_cast<std::uint64_t>(q >> 63));
      core[i] = 2.0 * delta * static_cast<double>(q);
    }

    // Reconstruct to collect bound-enforcing corrections.
    std::vector<double> recon = core;
    Dims recon_dims = core_dims;
    for (int axis = rank - 1; axis >= 0; --axis) {
      if (has_factor[static_cast<std::size_t>(axis)])
        recon = ttm(recon, recon_dims, axis,
                    factors[static_cast<std::size_t>(axis)], dims.extent(axis),
                    mode_rank[static_cast<std::size_t>(axis)],
                    /*project=*/false);
    }
    const auto corrections = collect_corrections(
        data, dims.size(), cfg.error_bound, cfg.error_bound / 2.0,
        [&](std::size_t i) {
          return static_cast<double>(static_cast<T>(recon[i]));
        });

    ByteWriter& h = out.stage(StageId::kConfig);
    h.put(cfg.error_bound);
    h.put(cfg.quant_factor);
    for (int axis = 0; axis < rank; ++axis) {
      h.put(has_factor[static_cast<std::size_t>(axis)]);
      if (has_factor[static_cast<std::size_t>(axis)]) {
        h.put_varint(mode_rank[static_cast<std::size_t>(axis)]);
        for (double u : factors[static_cast<std::size_t>(axis)])
          h.put(static_cast<float>(u));
      }
    }
    write_raw_chunk(out, rle_encode_symbols(symbols));
    write_corrections_stage(out, corrections);
  }

  template <class T>
  static void decode(const ContainerReader& in, const DecodeRequest&, T* out,
                     ThreadPool*, PartialDecodeStats*) {
    ByteReader h = in.stage(StageId::kConfig);
    const Dims& dims = in.dims();
    const double eb = h.get<double>();
    const double quant_factor = h.get<double>();
    const int rank = dims.rank();
    std::vector<std::vector<double>> factors(static_cast<std::size_t>(rank));
    std::vector<std::uint32_t> mode_rank(static_cast<std::size_t>(rank), 0);
    std::vector<std::uint8_t> has_factor(static_cast<std::size_t>(rank), 0);
    Dims core_dims = dims;
    for (int axis = 0; axis < rank; ++axis) {
      has_factor[static_cast<std::size_t>(axis)] = h.get<std::uint8_t>();
      if (has_factor[static_cast<std::size_t>(axis)]) {
        const std::size_t n = dims.extent(axis);
        const std::size_t rk = static_cast<std::size_t>(h.get_varint());
        if (rk == 0 || rk > n)
          throw DecodeError("tthresh: invalid mode rank");
        mode_rank[static_cast<std::size_t>(axis)] =
            static_cast<std::uint32_t>(rk);
        auto& u = factors[static_cast<std::size_t>(axis)];
        // The factor matrix is read as n*rk floats right below; a rank
        // the stream cannot back is an allocation bomb. (n >= rk >= 1
        // here, so the division is safe.)
        if (rk > h.remaining() / sizeof(float) / n)
          throw DecodeError("tthresh: factor matrix exceeds stream");
        u.resize(n * rk);
        for (auto& e : u) e = static_cast<double>(h.get<float>());
        core_dims = with_extent(core_dims, axis, rk);
      }
    }
    const auto symbols =
        rle_decode_symbols(read_raw_chunk(in), core_dims.size());
    if (symbols.size() != core_dims.size())
      throw DecodeError("tthresh core size mismatch");

    const double delta = eb / quant_factor;
    std::vector<double> core(core_dims.size());
    for (std::size_t i = 0; i < core.size(); ++i) {
      const std::uint64_t zz = symbols[i];
      const std::int64_t q =
          static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
      core[i] = 2.0 * delta * static_cast<double>(q);
    }
    for (int axis = rank - 1; axis >= 0; --axis) {
      if (has_factor[static_cast<std::size_t>(axis)])
        core = ttm(core, core_dims, axis,
                   factors[static_cast<std::size_t>(axis)], dims.extent(axis),
                   mode_rank[static_cast<std::size_t>(axis)],
                   /*project=*/false);
    }

    for (std::size_t i = 0; i < core.size(); ++i)
      out[i] = static_cast<T>(core[i]);
    apply_corrections_stage(in, out, dims.size(), eb / 2.0, "tthresh");
  }
};

}  // namespace

template <class T>
std::vector<std::uint8_t> tthresh_compress(const T* data, const Dims& dims,
                                           const TTHRESHConfig& cfg) {
  return codec_seal<TTHRESHCodec>(data, dims, cfg);
}

template <class T>
Field<T> tthresh_decompress(std::span<const std::uint8_t> archive,
                            ThreadPool* pool) {
  return codec_decode<TTHRESHCodec, T>(archive, {}, pool);
}

CompressorEntry tthresh_entry() { return codec_entry<TTHRESHCodec>(); }

template std::vector<std::uint8_t> tthresh_compress<float>(
    const float*, const Dims&, const TTHRESHConfig&);
template std::vector<std::uint8_t> tthresh_compress<double>(
    const double*, const Dims&, const TTHRESHConfig&);
template Field<float> tthresh_decompress<float>(std::span<const std::uint8_t>,
                                                ThreadPool*);
template Field<double> tthresh_decompress<double>(
    std::span<const std::uint8_t>, ThreadPool*);

}  // namespace qip
