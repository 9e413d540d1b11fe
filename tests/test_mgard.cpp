// MGARD-like compressor tests: strict bound enforcement via the
// correction pass, QP transparency, and the expected ratio gap vs the
// SZ3 family.

#include "compressors/mgard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "compressors/sz3.hpp"
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

}  // namespace
}  // namespace qip
