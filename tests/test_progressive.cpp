// Partial-decode tests for container v3: progressive preview must be
// bit-identical to decimating a full decode while reading strictly
// fewer payload bytes, region decode must be bit-identical to cropping
// a full decode, v2 archives must be refused with a typed error, and
// the registry must expose (or refuse) the capabilities per codec.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "compressors/core/driver.hpp"
#include "compressors/hpez.hpp"
#include "compressors/mgard.hpp"
#include "compressors/qoz.hpp"
#include "compressors/registry.hpp"
#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "simd/dispatch.hpp"

namespace qip {
namespace {

// Smooth multi-frequency field over any rank; deterministic.
template <class T>
Field<T> wave_field(const Dims& dims, unsigned seed = 11) {
  Field<T> f(dims);
  const double p = 0.37 * seed;
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < dims.extent(0); ++c[0])
    for (c[1] = 0; c[1] < dims.extent(1); ++c[1])
      for (c[2] = 0; c[2] < dims.extent(2); ++c[2])
        for (c[3] = 0; c[3] < dims.extent(3); ++c[3]) {
          const double r = 0.21 * static_cast<double>(c[0]) +
                           0.13 * static_cast<double>(c[1]) +
                           0.08 * static_cast<double>(c[2]) +
                           0.05 * static_cast<double>(c[3]);
          f.data()[dims.index(c[0], c[1], c[2], c[3])] =
              static_cast<T>(std::sin(r + p) + 0.4 * std::cos(2.7 * r) +
                             0.1 * std::sin(9.1 * r + p));
        }
  return f;
}

Box make_box(const Dims& dims,
             std::initializer_list<std::pair<std::size_t, std::size_t>> ax) {
  Box b = Box::whole(dims);
  int a = 0;
  for (const auto& [lo, hi] : ax) {
    b.lo[a] = lo;
    b.hi[a] = hi;
    ++a;
  }
  return b;
}

template <class T>
Field<T> crop(const Field<T>& f, const Box& box) {
  const Dims& d = f.dims();
  std::size_t e[kMaxRank];
  for (int a = 0; a < kMaxRank; ++a) e[a] = box.hi[a] - box.lo[a];
  Dims rd;
  switch (d.rank()) {
    case 1: rd = Dims{e[0]}; break;
    case 2: rd = Dims{e[0], e[1]}; break;
    case 3: rd = Dims{e[0], e[1], e[2]}; break;
    default: rd = Dims{e[0], e[1], e[2], e[3]}; break;
  }
  Field<T> out(rd);
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < e[0]; ++c[0])
    for (c[1] = 0; c[1] < e[1]; ++c[1])
      for (c[2] = 0; c[2] < e[2]; ++c[2])
        for (c[3] = 0; c[3] < e[3]; ++c[3])
          out.data()[rd.index(c[0], c[1], c[2], c[3])] =
              f.data()[d.index(box.lo[0] + c[0], box.lo[1] + c[1],
                               box.lo[2] + c[2], box.lo[3] + c[3])];
  return out;
}

template <class T>
void expect_identical(const Field<T>& a, const Field<T>& b) {
  ASSERT_EQ(a.dims(), b.dims());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

// ---------------------------------------------------------------------
// Progressive preview: prefix identity + strict byte savings.

TEST(Progressive, QoZPreviewMatchesDecimatedFullDecode) {
  const auto f = wave_field<float>(Dims{64, 64, 64});
  QoZConfig cfg;
  cfg.error_bound = 1e-3;
  const auto arc = qoz_compress(f.data(), f.dims(), cfg);
  const auto full = qoz_decompress<float>(arc);
  for (int level = 1; level <= 4; ++level) {
    PartialDecodeStats st;
    const auto prev = qoz_decompress_preview<float>(arc, level, nullptr, &st);
    expect_identical(prev, decimate_to_level(full.data(), f.dims(), level));
    EXPECT_GT(st.payload_bytes_total, 0u);
    if (level == 1) {
      EXPECT_EQ(st.payload_bytes_read, st.payload_bytes_total);
    } else {
      // The acceptance criterion: a coarse preview must consume strictly
      // fewer compressed payload bytes than a full decode.
      EXPECT_LT(st.payload_bytes_read, st.payload_bytes_total)
          << "level " << level;
    }
  }
}

TEST(Progressive, QoZPreviewDecodesFromTruncatedPrefix) {
  const auto f = wave_field<float>(Dims{64, 64, 64}, 5);
  QoZConfig cfg;
  cfg.error_bound = 1e-3;
  const auto arc = qoz_compress(f.data(), f.dims(), cfg);
  PartialDecodeStats st;
  const auto want = qoz_decompress_preview<float>(arc, 3, nullptr, &st);
  ASSERT_LT(st.payload_bytes_read, st.payload_bytes_total);

  // The payload is the archive's tail and a level-3 preview reads a
  // prefix of it, so everything after those bytes can be cut away.
  const std::size_t cut = st.payload_bytes_total - st.payload_bytes_read;
  const std::vector<std::uint8_t> prefix(arc.begin(),
                                         arc.end() - static_cast<long>(cut));
  const auto got = qoz_decompress_preview<float>(prefix, 3);
  expect_identical(got, want);
  // The bytes for the finer levels are gone: full and fine decodes
  // must fail with a typed error, not garbage.
  EXPECT_THROW((void)qoz_decompress<float>(prefix), DecodeError);
  EXPECT_THROW((void)qoz_decompress_preview<float>(prefix, 1), DecodeError);
}

TEST(Progressive, SZ3InterpolationPreviewMatches) {
  const auto f = wave_field<float>(Dims{48, 48, 48}, 2);
  SZ3Config cfg;
  cfg.error_bound = 1e-4;
  cfg.auto_fallback = false;  // commit to the interpolation path
  cfg.qp = QPConfig::best_fit();
  const auto arc = sz3_compress(f.data(), f.dims(), cfg);
  const auto full = sz3_decompress<float>(arc);
  for (int level = 2; level <= 3; ++level) {
    PartialDecodeStats st;
    const auto prev = sz3_decompress_preview<float>(arc, level, nullptr, &st);
    expect_identical(prev, decimate_to_level(full.data(), f.dims(), level));
    EXPECT_LT(st.payload_bytes_read, st.payload_bytes_total);
  }
}

TEST(Progressive, HPEZPreviewMatchesWithoutTiles) {
  // Without a tile size, HPEZ plans may go block-wise at fine levels;
  // per-level chunks are still committed, so preview works while region
  // decode refuses for lack of a tile directory.
  const auto f = wave_field<float>(Dims{48, 48, 48}, 3);
  HPEZConfig cfg;
  cfg.error_bound = 1e-3;
  const auto arc = hpez_compress(f.data(), f.dims(), cfg);
  const auto full = hpez_decompress<float>(arc);
  PartialDecodeStats st;
  const auto prev = hpez_decompress_preview<float>(arc, 2, nullptr, &st);
  expect_identical(prev, decimate_to_level(full.data(), f.dims(), 2));
  EXPECT_LT(st.payload_bytes_read, st.payload_bytes_total);
  EXPECT_THROW(
      (void)hpez_decompress_region<float>(arc, make_box(f.dims(), {{0, 16}})),
      DecodeError);
}

TEST(Progressive, HPEZRegionDecodeWithTiles) {
  // A requested tile size stands the block tuner down, so the archive
  // commits a tile directory and region decode crops identically to a
  // full decode — the same contract SZ3/QoZ honor.
  const auto f = wave_field<float>(Dims{48, 48, 48}, 3);
  HPEZConfig cfg;
  cfg.error_bound = 1e-3;
  cfg.tile_size = 16;
  const auto arc = hpez_compress(f.data(), f.dims(), cfg);
  const auto full = hpez_decompress<float>(arc);
  const Box box = make_box(f.dims(), {{8, 40}, {0, 16}, {17, 48}});
  PartialDecodeStats st;
  const auto got = hpez_decompress_region<float>(arc, box, nullptr, &st);
  EXPECT_LT(st.payload_bytes_read, st.payload_bytes_total);
  expect_identical(got, crop(full, box));
}

TEST(Progressive, MGARDPreviewBoundedByLevelBudget) {
  const auto f = wave_field<float>(Dims{48, 48, 48}, 4);
  MGARDConfig cfg;
  cfg.error_bound = 1e-3;
  const auto arc = mgard_compress(f.data(), f.dims(), cfg);
  const auto full = mgard_decompress<float>(arc);
  PartialDecodeStats st;
  const auto prev = mgard_decompress_preview<float>(arc, 2, nullptr, &st);
  const auto want = decimate_to_level(full.data(), f.dims(), 2);
  ASSERT_EQ(prev.dims(), want.dims());
  EXPECT_LT(st.payload_bytes_read, st.payload_bytes_total);
  // The preview skips the exact-bound correction pass, so it is held to
  // the hierarchy's per-level budget, not the patched worst case.
  double err = 0;
  for (std::size_t i = 0; i < prev.size(); ++i)
    err = std::max(err, std::abs(static_cast<double>(prev[i]) - want[i]));
  EXPECT_LE(err, 16 * cfg.error_bound);
  EXPECT_THROW((void)mgard_decompress_preview<float>(arc, 99), DecodeError);
}

TEST(Progressive, SZ3LorenzoFallbackRefusesFineAndRegion) {
  // The same field/bound pair the fuzz corpus uses: the sampling
  // selector commits to Lorenzo, which has no level structure.
  const Dims dims{32, 40, 48};
  const Field<float> f = make_field(DatasetId::kMiranda, 0, dims, 7);
  SZ3Config cfg;
  cfg.error_bound = 1e-3;
  SZ3Artifacts art;
  const auto arc = sz3_compress(f.data(), dims, cfg, &art);
  ASSERT_EQ(art.predictor, SZ3Predictor::kLorenzo)
      << "selector no longer picks Lorenzo here; retune the fixture";
  // Level 1 is the full decode and must still work, bit-identically.
  const auto full = sz3_decompress<float>(arc);
  expect_identical(sz3_decompress_preview<float>(arc, 1), full);
  EXPECT_THROW((void)sz3_decompress_preview<float>(arc, 2), DecodeError);
  EXPECT_THROW(
      (void)sz3_decompress_region<float>(arc, make_box(dims, {{0, 16}})),
      DecodeError);
}

// ---------------------------------------------------------------------
// Region decode: crop identity across ranks, dtypes, and QP.

template <class T>
void check_region_identity(const Dims& dims, const Box& box, bool with_qp,
                           unsigned seed) {
  const auto f = wave_field<T>(dims, seed);
  QoZConfig cfg;
  cfg.error_bound = 1e-3;
  cfg.tile_size = 16;
  if (with_qp) cfg.qp = QPConfig::best_fit();
  const auto arc = qoz_compress(f.data(), dims, cfg);
  const auto full = qoz_decompress<T>(arc);
  PartialDecodeStats st;
  const auto reg = qoz_decompress_region<T>(arc, box, nullptr, &st);
  expect_identical(reg, crop(full, box));
  EXPECT_LT(st.payload_bytes_read, st.payload_bytes_total)
      << dims.str() << " qp=" << with_qp;
}

TEST(Progressive, RegionMatchesCropRank2) {
  const Dims dims{96, 96};
  const Box box = make_box(dims, {{10, 49}, {33, 80}});
  check_region_identity<float>(dims, box, false, 21);
  check_region_identity<float>(dims, box, true, 21);
  check_region_identity<double>(dims, box, false, 22);
  check_region_identity<double>(dims, box, true, 22);
}

TEST(Progressive, RegionMatchesCropRank3) {
  const Dims dims{48, 48, 48};
  const Box box = make_box(dims, {{5, 37}, {16, 48}, {0, 23}});
  check_region_identity<float>(dims, box, false, 31);
  check_region_identity<float>(dims, box, true, 31);
  check_region_identity<double>(dims, box, false, 32);
  check_region_identity<double>(dims, box, true, 32);
}

TEST(Progressive, RegionMatchesCropRank4) {
  const Dims dims{32, 32, 16, 16};
  const Box box = make_box(dims, {{3, 29}, {17, 32}, {0, 16}, {4, 12}});
  check_region_identity<float>(dims, box, false, 41);
  check_region_identity<float>(dims, box, true, 41);
  check_region_identity<double>(dims, box, false, 42);
  check_region_identity<double>(dims, box, true, 42);
}

TEST(Progressive, SZ3RegionMatchesCrop) {
  const Dims dims{64, 64, 64};
  const auto f = wave_field<float>(dims, 6);
  SZ3Config cfg;
  cfg.error_bound = 1e-3;
  cfg.auto_fallback = false;
  cfg.tile_size = 16;
  cfg.qp = QPConfig::best_fit();
  const auto arc = sz3_compress(f.data(), dims, cfg);
  const auto full = sz3_decompress<float>(arc);
  const Box box = make_box(dims, {{8, 40}, {20, 52}, {0, 17}});
  PartialDecodeStats st;
  const auto reg = sz3_decompress_region<float>(arc, box, nullptr, &st);
  expect_identical(reg, crop(full, box));
  EXPECT_LT(st.payload_bytes_read, st.payload_bytes_total);
}

TEST(Progressive, RegionValidation) {
  const Dims dims{64, 64};
  const auto f = wave_field<float>(dims, 8);
  QoZConfig tiled;
  tiled.error_bound = 1e-3;
  tiled.tile_size = 16;
  const auto arc = qoz_compress(f.data(), dims, tiled);
  // Degenerate and out-of-range boxes are typed errors.
  EXPECT_THROW(
      (void)qoz_decompress_region<float>(arc, make_box(dims, {{10, 10}})),
      DecodeError);
  EXPECT_THROW(
      (void)qoz_decompress_region<float>(arc, make_box(dims, {{0, 65}})),
      DecodeError);
  // An untiled archive has no tile directory to serve a region from.
  QoZConfig untiled;
  untiled.error_bound = 1e-3;
  const auto arc2 = qoz_compress(f.data(), dims, untiled);
  EXPECT_THROW(
      (void)qoz_decompress_region<float>(arc2, make_box(dims, {{0, 16}})),
      DecodeError);
}

// ---------------------------------------------------------------------
// Container v2 is no longer read: every entry point refuses a v2 header
// with the typed UnknownCodecError that carries the offending version.

TEST(Progressive, V2ArchivesRefusedWithTypedError) {
  const Dims dims{24, 20, 16};
  const auto f = wave_field<float>(dims, 4);
  SZ3Config cfg;
  cfg.error_bound = 1e-3;
  auto arc = sz3_compress(f.data(), dims, cfg);
  arc[4] = 2;  // the version byte follows the 4-byte magic

  auto expect_v2_refusal = [&](const char* what, auto&& open) {
    try {
      open();
      ADD_FAILURE() << what << ": a v2 header must not open";
    } catch (const UnknownCodecError& e) {
      EXPECT_EQ(e.version(), 2) << what;
      EXPECT_EQ(e.codec_id(), static_cast<std::uint8_t>(CompressorId::kSZ3))
          << what;
    }
  };
  expect_v2_refusal("inspect_container",
                    [&] { (void)inspect_container(arc); });
  expect_v2_refusal("find_compressor_for",
                    [&] { (void)find_compressor_for(arc); });
  const auto& e = find_compressor("SZ3");
  expect_v2_refusal("decompress", [&] { (void)e.decompress_f32(arc); });
  expect_v2_refusal("preview", [&] {
    (void)e.decompress_preview_f32(arc, 1, nullptr);
  });
  expect_v2_refusal("region", [&] {
    (void)e.decompress_region_f32(arc, Box::whole(dims), nullptr);
  });
}

// ---------------------------------------------------------------------
// SIMD tiers: partial decodes must be tier-invariant.

struct ScalarGuard {
  ScalarGuard() { simd::set_force_scalar_override(1); }
  ~ScalarGuard() { simd::set_force_scalar_override(-1); }
};

struct TierGuard {
  explicit TierGuard(simd::Tier t) {
    simd::set_tier_cap_override(static_cast<int>(t));
  }
  ~TierGuard() { simd::set_tier_cap_override(-1); }
};

TEST(Progressive, PartialDecodesAreSimdTierInvariant) {
  const Dims dims{64, 64, 64};
  const auto f = wave_field<float>(dims, 9);
  QoZConfig cfg;
  cfg.error_bound = 1e-3;
  cfg.tile_size = 16;
  const auto arc = qoz_compress(f.data(), dims, cfg);
  const Box box = make_box(dims, {{8, 40}, {16, 48}, {24, 56}});

  const auto prev_default = qoz_decompress_preview<float>(arc, 2);
  const auto reg_default = qoz_decompress_region<float>(arc, box);
  {
    ScalarGuard g;
    expect_identical(qoz_decompress_preview<float>(arc, 2), prev_default);
    expect_identical(qoz_decompress_region<float>(arc, box), reg_default);
  }
  if (simd::tier_compiled(simd::Tier::kAVX2)) {
    TierGuard g(simd::Tier::kAVX2);
    expect_identical(qoz_decompress_preview<float>(arc, 2), prev_default);
    expect_identical(qoz_decompress_region<float>(arc, box), reg_default);
  }
}

// ---------------------------------------------------------------------
// Registry capability surface.

TEST(Progressive, RegistryExposesCapabilitiesPerCodec) {
  for (const auto& e : compressor_registry()) {
    const bool progressive = e.name == "SZ3" || e.name == "QoZ" ||
                             e.name == "HPEZ" || e.name == "MGARD";
    EXPECT_EQ(e.supports_preview, progressive) << e.name;
    EXPECT_EQ(e.supports_region,
              e.name == "SZ3" || e.name == "QoZ" || e.name == "HPEZ")
        << e.name;
    // Always callable: unsupported codecs install a typed refusal.
    ASSERT_TRUE(e.decompress_preview_f32 != nullptr) << e.name;
    ASSERT_TRUE(e.decompress_region_f64 != nullptr) << e.name;
    ASSERT_TRUE(e.decompress_preview_pool_f32 != nullptr) << e.name;
    ASSERT_TRUE(e.decompress_region_pool_f64 != nullptr) << e.name;
  }
  const auto& zfp = find_compressor("ZFP");
  EXPECT_THROW((void)zfp.decompress_preview_f32({}, 1, nullptr),
               UnknownCodecError);
  const auto& mgard = find_compressor("MGARD");
  EXPECT_THROW((void)mgard.decompress_region_f32({}, Box{}, nullptr),
               UnknownCodecError);
  EXPECT_THROW(
      (void)mgard.decompress_region_pool_f32({}, Box{}, nullptr, nullptr),
      UnknownCodecError);
}

TEST(Progressive, RegistryPreviewMatchesDirectCall) {
  const auto f = wave_field<double>(Dims{48, 48}, 13);
  QoZConfig cfg;
  cfg.error_bound = 1e-3;
  cfg.tile_size = 16;
  const auto arc = qoz_compress(f.data(), f.dims(), cfg);
  const auto& e = find_compressor("QoZ");
  PartialDecodeStats st;
  expect_identical(e.decompress_preview_f64(arc, 2, &st),
                   qoz_decompress_preview<double>(arc, 2));
  const Box box = make_box(f.dims(), {{4, 37}, {16, 48}});
  expect_identical(e.decompress_region_f64(arc, box, nullptr),
                   qoz_decompress_region<double>(arc, box));
}

}  // namespace
}  // namespace qip
