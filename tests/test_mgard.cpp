// MGARD-like compressor tests: strict bound enforcement via the
// correction pass, QP transparency, and the expected ratio gap vs the
// SZ3 family.

#include "compressors/mgard.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <random>

#include "compressors/sz3.hpp"
#include "predict/multilevel.hpp"
#include "util/stats.hpp"

namespace qip {
namespace {

Field<float> bumpy_field(Dims dims, unsigned seed = 17) {
  Field<float> f(dims);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> u(0.f, 1.f);
  struct Bump {
    float cz, cy, cx, a, w;
  };
  std::vector<Bump> bumps(12);
  for (auto& b : bumps)
    b = {u(rng) * dims.extent(0), u(rng) * dims.extent(1),
         u(rng) * dims.extent(2), 2 * u(rng) - 1, 0.002f + 0.01f * u(rng)};
  for (std::size_t z = 0; z < dims.extent(0); ++z)
    for (std::size_t y = 0; y < dims.extent(1); ++y)
      for (std::size_t x = 0; x < dims.extent(2); ++x) {
        float v = 0;
        for (const auto& b : bumps) {
          const float dz = z - b.cz, dy = y - b.cy, dx = x - b.cx;
          v += b.a * std::exp(-b.w * (dz * dz + dy * dy + dx * dx));
        }
        f.at(z, y, x) = v;
      }
  return f;
}

TEST(MGARD, StrictBoundDespiteGlobalTransform) {
  const auto f = bumpy_field(Dims{40, 48, 56});
  for (double eb : {1e-2, 1e-3, 1e-4}) {
    MGARDConfig cfg;
    cfg.error_bound = eb;
    const auto arc = mgard_compress(f.data(), f.dims(), cfg);
    const auto dec = mgard_decompress<float>(arc);
    EXPECT_LE(max_abs_error(f.span(), dec.span()), eb * (1 + 1e-9))
        << "eb=" << eb;
  }
}

TEST(MGARD, BoundHoldsOnRoughData) {
  // Rough data stresses the correction pass: the hierarchy accumulates
  // error and many points need patching, but the bound must still hold.
  Field<float> f(Dims{32, 32, 32});
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> u(-1.f, 1.f);
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = u(rng);
  MGARDConfig cfg;
  cfg.error_bound = 1e-3;
  const auto dec = mgard_decompress<float>(mgard_compress(f.data(), f.dims(), cfg));
  EXPECT_LE(max_abs_error(f.span(), dec.span()), 1e-3 * (1 + 1e-9));
}

TEST(MGARD, QPDoesNotChangeDecompressedData) {
  const auto f = bumpy_field(Dims{36, 40, 44});
  MGARDConfig base;
  base.error_bound = 1e-3;
  MGARDConfig withqp = base;
  withqp.qp = QPConfig::best_fit();
  const auto d0 =
      mgard_decompress<float>(mgard_compress(f.data(), f.dims(), base));
  const auto d1 =
      mgard_decompress<float>(mgard_compress(f.data(), f.dims(), withqp));
  for (std::size_t i = 0; i < d0.size(); ++i) ASSERT_EQ(d0[i], d1[i]) << i;
}

TEST(MGARD, LowerRatioThanSZ3AtSameBound) {
  // Table I/II ordering: MGARD's conservative global transform trails the
  // SZ3 feedback loop in ratio on smooth data.
  const auto f = bumpy_field(Dims{64, 64, 64});
  MGARDConfig mc;
  mc.error_bound = 1e-3;
  SZ3Config sc;
  sc.error_bound = 1e-3;
  const auto am = mgard_compress(f.data(), f.dims(), mc);
  const auto as = sz3_compress(f.data(), f.dims(), sc);
  EXPECT_GT(am.size(), as.size());
}

// Generic dtype × rank roundtrips live in test_all_codecs.cpp.

}  // namespace
}  // namespace qip

namespace qip {
namespace {

TEST(MGARD, ResolutionReductionShapesAndAccuracy) {
  // Build a smooth field, compress, and preview at several levels:
  // shapes must halve per level and values must track the original
  // coarse grid.
  Field<float> f(Dims{33, 40, 48});
  for (std::size_t z = 0; z < 33; ++z)
    for (std::size_t y = 0; y < 40; ++y)
      for (std::size_t x = 0; x < 48; ++x)
        f.at(z, y, x) = std::sin(0.15f * z) * std::cos(0.11f * y) +
                        0.4f * std::sin(0.09f * x);
  MGARDConfig cfg;
  cfg.error_bound = 1e-3;
  const auto arc = mgard_compress(f.data(), f.dims(), cfg);

  const auto r0 = mgard_decompress_preview<float>(arc, 1);
  EXPECT_EQ(r0.dims(), f.dims());

  const auto r1 = mgard_decompress_preview<float>(arc, 2);
  EXPECT_EQ(r1.dims(), (Dims{17, 20, 24}));
  double worst = 0;
  for (std::size_t z = 0; z < 17; ++z)
    for (std::size_t y = 0; y < 20; ++y)
      for (std::size_t x = 0; x < 24; ++x)
        worst = std::max(worst, std::abs(static_cast<double>(
                                    r1.at(z, y, x) -
                                    f.at(2 * z, 2 * y, 2 * x))));
  // No pointwise guarantee at reduced resolution, but the hierarchy error
  // stays within a few bin widths on smooth data.
  EXPECT_LT(worst, 50 * cfg.error_bound);

  const auto r2 = mgard_decompress_preview<float>(arc, 3);
  EXPECT_EQ(r2.dims(), (Dims{9, 10, 12}));
}

TEST(MGARD, PreviewBeyondLevelsRefused) {
  Field<float> f(Dims{9, 9, 9});
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = static_cast<float>(i % 5);
  MGARDConfig cfg;
  cfg.error_bound = 1e-2;
  const auto arc = mgard_compress(f.data(), f.dims(), cfg);
  // levels(9) = 4 -> coarsest preview level 4 -> stride 8 -> extents
  // ceil(9/8) = 2; no level beyond it exists.
  EXPECT_EQ(mgard_decompress_preview<float>(arc, 4).dims(), (Dims{2, 2, 2}));
  EXPECT_THROW((void)mgard_decompress_preview<float>(arc, 5), DecodeError);
  EXPECT_THROW((void)mgard_decompress_preview<float>(arc, 99), DecodeError);
}

std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One pinned MGARD archive: its shape, dtype and QP configuration, and
/// the FNV-1a of its previews at every level (each level's dims, then
/// its values), chained coarse-to-fine into one hash.
struct PreviewPin {
  const char* name;
  int rank;
  std::array<std::size_t, kMaxRank> ext;
  bool f64;
  int qp;  ///< 0 off, 1 best_fit, 2 best_fit in 3-D over levels 1-3
  std::uint64_t fnv;
};

template <class T>
std::uint64_t preview_hash(const PreviewPin& k) {
  const Dims dims(k.rank, k.ext);
  Field<T> f(dims);
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < dims.extent(0); ++c[0])
    for (c[1] = 0; c[1] < dims.extent(1); ++c[1])
      for (c[2] = 0; c[2] < dims.extent(2); ++c[2])
        for (c[3] = 0; c[3] < dims.extent(3); ++c[3]) {
          const double r = 0.23 * static_cast<double>(c[0]) +
                           0.17 * static_cast<double>(c[1]) +
                           0.11 * static_cast<double>(c[2]) +
                           0.07 * static_cast<double>(c[3]);
          f[dims.index(c[0], c[1], c[2], c[3])] =
              static_cast<T>(std::sin(r) + 0.3 * std::cos(3.1 * r));
        }
  MGARDConfig cfg;
  cfg.error_bound = 1e-3;
  if (k.qp != 0) cfg.qp = QPConfig::best_fit();
  if (k.qp == 2) {
    cfg.qp.dimension = QPDimension::k3D;
    cfg.qp.max_level = 3;
  }
  const auto arc = mgard_compress(f.data(), dims, cfg);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int level = interpolation_level_count(dims); level >= 1; --level) {
    const Field<T> p = mgard_decompress_preview<T>(arc, level);
    for (int a = 0; a < kMaxRank; ++a) {
      const std::uint64_t e = p.dims().extent(a);
      h = fnv1a(&e, sizeof e, h);
    }
    h = fnv1a(p.data(), p.size() * sizeof(T), h);
  }
  return h;
}

TEST(MGARD, PreviewBytesPinnedAtEveryLevel) {
  // Hashes recorded from the full-size-scratch preview, before previews
  // moved onto the level lattice; the {2, 37, 41} case has an axis that
  // collapses to one lattice point at every preview level.
  const PreviewPin pins[] = {
      {"r1_f32_qp", 1, {97, 1, 1, 1}, false, 1, 0xdadbfe2483aaa8afull},
      {"r2_f64_noqp", 2, {40, 33, 1, 1}, true, 0, 0x37709dc9857d9d44ull},
      {"r2_f32_qp", 2, {29, 50, 1, 1}, false, 1, 0xafd0164701fa62c2ull},
      {"r3_f32_qp", 3, {24, 17, 20, 1}, false, 1, 0x1d2912802dcd4a92ull},
      {"r3_f64_qp3d", 3, {24, 17, 20, 1}, true, 2, 0xf64f881faa2cb5bdull},
      {"r3_f32_qp_thin", 3, {2, 37, 41, 1}, false, 1, 0xd3e635c87c13cca0ull},
      {"r4_f32_noqp", 4, {6, 9, 10, 12}, false, 0, 0xfa8fa32354f3dec1ull},
      {"r4_f64_qp", 4, {5, 7, 9, 11}, true, 1, 0x264499d699c1a04cull},
  };
  for (const PreviewPin& k : pins) {
    const std::uint64_t h =
        k.f64 ? preview_hash<double>(k) : preview_hash<float>(k);
    EXPECT_EQ(h, k.fnv) << k.name << ": actual 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace qip
