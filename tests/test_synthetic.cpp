// Dataset generator tests: determinism, shape, value sanity, and the
// structural properties each stand-in is supposed to exhibit.

#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace qip {
namespace {

TEST(Synthetic, SpecsMatchTableIII) {
  const auto& specs = dataset_specs();
  ASSERT_EQ(specs.size(), 7u);
  EXPECT_EQ(std::string(dataset_spec(DatasetId::kMiranda).name), "Miranda");
  EXPECT_EQ(dataset_spec(DatasetId::kMiranda).field_count, 7);
  EXPECT_EQ(dataset_spec(DatasetId::kHurricane).field_count, 13);
  EXPECT_EQ(dataset_spec(DatasetId::kSegSalt).field_count, 3);
  EXPECT_EQ(dataset_spec(DatasetId::kScale).field_count, 12);
  EXPECT_EQ(dataset_spec(DatasetId::kS3D).field_count, 11);
  EXPECT_EQ(dataset_spec(DatasetId::kCESM).field_count, 33);
  EXPECT_TRUE(dataset_spec(DatasetId::kS3D).is_double);
  EXPECT_EQ(dataset_spec(DatasetId::kRTM).paper_dims.rank(), 4);
  EXPECT_EQ(dataset_spec(DatasetId::kSegSalt).paper_dims,
            (Dims{1008, 1008, 352}));
}

TEST(Synthetic, Deterministic) {
  const Dims d{24, 24, 24};
  const auto a = make_field(DatasetId::kMiranda, 0, d, 1);
  const auto b = make_field(DatasetId::kMiranda, 0, d, 1);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Synthetic, FieldsDifferByIndexAndSeed) {
  const Dims d{16, 16, 16};
  const auto a = make_field(DatasetId::kHurricane, 0, d, 1);
  const auto b = make_field(DatasetId::kHurricane, 1, d, 1);
  const auto c = make_field(DatasetId::kHurricane, 0, d, 2);
  double dab = 0, dac = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dab += std::abs(a[i] - b[i]);
    dac += std::abs(a[i] - c[i]);
  }
  EXPECT_GT(dab, 0.0);
  EXPECT_GT(dac, 0.0);
}

// A rank-4 field of a rank-3 dataset is that dataset's rank-3 field
// with its first axis split in two: every one of the four axes is
// filled, and no slab along the leading axis is left at zero.
TEST(Synthetic, Rank4FieldsFillEveryAxis) {
  for (const DatasetId id : {DatasetId::kMiranda, DatasetId::kCESM}) {
    const auto f4 = make_field(id, 0, Dims{4, 4, 4, 4}, 1);
    const auto f3 = make_field(id, 0, Dims{16, 4, 4}, 1);
    ASSERT_EQ(f4.size(), f3.size());
    for (std::size_t i = 0; i < f4.size(); ++i) ASSERT_EQ(f4[i], f3[i]) << i;
    for (std::size_t w = 0; w < 4; ++w) {
      bool nonzero = false;
      for (std::size_t i = w * 64; i < (w + 1) * 64; ++i)
        nonzero = nonzero || f4[i] != 0.f;
      EXPECT_TRUE(nonzero) << "slab " << w;
    }
  }
}

TEST(Synthetic, AllDatasetsFiniteAndNonConstant) {
  const Dims d3{20, 24, 28};
  for (const auto& spec : dataset_specs()) {
    const Dims d = spec.paper_dims.rank() == 4 ? Dims{6, 10, 12, 8} : d3;
    const auto f = make_field(spec.id, 0, d, 3);
    ValueRange<float> r = value_range(f.span());
    for (std::size_t i = 0; i < f.size(); ++i)
      ASSERT_TRUE(std::isfinite(f[i])) << spec.name;
    EXPECT_GT(r.width(), 0.f) << spec.name;
  }
}

TEST(Synthetic, ScaleFieldsHaveZeroRegions) {
  // Cloud-like fields are thresholded: a large fraction must be exactly 0.
  const auto f = make_field(DatasetId::kScale, 0, Dims{32, 48, 48}, 5);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < f.size(); ++i)
    if (f[i] == 0.f) ++zeros;
  EXPECT_GT(zeros, f.size() / 10);
}

TEST(Synthetic, SegSaltHasSaltBodyContrast) {
  // The velocity field (index 1) must contain the constant high-velocity
  // salt region.
  const auto f = make_field(DatasetId::kSegSalt, 1, Dims{48, 48, 48}, 1);
  std::size_t salt = 0;
  for (std::size_t i = 0; i < f.size(); ++i)
    if (std::abs(f[i] - 4.5f) < 0.25f) ++salt;
  EXPECT_GT(salt, f.size() / 100);
}

TEST(Synthetic, S3DDoubleVariant) {
  const auto f = make_field_f64(DatasetId::kS3D, 0, Dims{16, 20, 24}, 1);
  ValueRange<double> r = value_range(f.span());
  EXPECT_GT(r.hi, 300.0);  // temperature-like field peaks above ambient
}

TEST(Synthetic, RTMWavefrontMoves) {
  // The 4-D wavefield's energy centroid radius must grow with time.
  const Dims d{8, 24, 24, 24};
  const auto f = make_field(DatasetId::kRTM, 0, d, 1);
  auto radius_of = [&](std::size_t t) {
    double num = 0, den = 0;
    for (std::size_t z = 0; z < 24; ++z)
      for (std::size_t y = 0; y < 24; ++y)
        for (std::size_t x = 0; x < 24; ++x) {
          const double e = std::abs(f.at(t, z, y, x));
          const double dz = z / 23.0 - 0.05, dy = y / 23.0 - 0.5,
                       dx = x / 23.0 - 0.5;
          num += e * std::sqrt(dz * dz + dy * dy + dx * dx);
          den += e;
        }
    return den > 0 ? num / den : 0.0;
  };
  EXPECT_GT(radius_of(7), radius_of(0));
}

TEST(Synthetic, FieldIndexWrapsModuloCount) {
  const Dims d{12, 12, 12};
  const auto a = make_field(DatasetId::kSegSalt, 0, d, 1);
  const auto b = make_field(DatasetId::kSegSalt, 3, d, 1);  // 3 % 3 == 0
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Synthetic, BenchDimsEnvOverride) {
  const auto& spec = dataset_spec(DatasetId::kMiranda);
  unsetenv("QIP_BENCH_SCALE");
  EXPECT_EQ(bench_dims(spec), spec.bench_dims);
  setenv("QIP_BENCH_SCALE", "full", 1);
  EXPECT_EQ(bench_dims(spec), spec.paper_dims);
  unsetenv("QIP_BENCH_SCALE");
}

}  // namespace
}  // namespace qip
