// Engine-level tests: encode/decode symmetry across plans (seq, md,
// blockwise), bound enforcement, QP transparency at the engine level,
// and the tuning samplers.

#include "compressors/interp_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <utility>

#include "compressors/core/driver.hpp"
#include "predict/multilevel.hpp"
#include "util/field.hpp"
#include "util/thread_pool.hpp"

namespace qip {
namespace {

Field<float> waves(Dims dims, unsigned seed = 7) {
  Field<float> f(dims);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> ph(0.f, 6.f);
  const float p1 = ph(rng), p2 = ph(rng);
  for (std::size_t z = 0; z < dims.extent(0); ++z)
    for (std::size_t y = 0; y < dims.extent(1); ++y)
      for (std::size_t x = 0; x < dims.extent(2); ++x)
        for (std::size_t w = 0; w < dims.extent(3); ++w)
          f[dims.index(z, y, x, w)] =
              std::sin(0.11f * z + p1) * std::cos(0.07f * y + p2) +
              0.5f * std::sin(0.13f * (x + w));
  return f;
}

/// Roundtrip helper: encode a copy, serialize the quantizer, decode, and
/// check bitwise match with the encoder's reconstruction plus the bound.
void roundtrip(const Field<float>& f, const InterpPlan& plan, double eb,
               const QPConfig& qp) {
  Field<float> work = f.clone();
  LinearQuantizer<float> enc(eb);
  const auto res =
      InterpEngine<float>::encode(work.data(), f.dims(), plan, eb, enc, qp);
  ASSERT_EQ(res.symbols.size(), f.size());

  ByteWriter w;
  enc.save(w);
  const auto buf = w.bytes();
  ByteReader r(buf);
  LinearQuantizer<float> dec(0.0);
  dec.load(r);
  Field<float> out(f.dims());
  InterpEngine<float>::decode(res.symbols, f.dims(), plan, eb, dec,
                              qp, out.data());
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_EQ(out[i], work[i]) << "decoder diverged @" << i;
    ASSERT_LE(std::abs(out[i] - f[i]), eb * (1 + 1e-9)) << "@" << i;
  }
}

TEST(InterpEngine, SeqRoundtripVariousShapes) {
  for (Dims dims : {Dims{33}, Dims{20, 31}, Dims{17, 18, 19},
                    Dims{6, 7, 8, 9}}) {
    const auto f = waves(dims);
    const InterpPlan plan =
        InterpPlan::uniform(interpolation_level_count(dims), LevelPlan{});
    roundtrip(f, plan, 1e-3, QPConfig{});
  }
}

TEST(InterpEngine, MdRoundtripVariousShapes) {
  LevelPlan lp;
  lp.md = true;
  for (Dims dims : {Dims{20, 31}, Dims{17, 18, 19}, Dims{6, 7, 8, 9}}) {
    const auto f = waves(dims);
    const InterpPlan plan =
        InterpPlan::uniform(interpolation_level_count(dims), lp);
    roundtrip(f, plan, 1e-3, QPConfig{});
  }
}

TEST(InterpEngine, LinearKindAndReversedOrder) {
  LevelPlan lp;
  lp.kind = InterpKind::kLinear;
  lp.order = {2, 1, 0, 3};
  const auto f = waves(Dims{21, 22, 23});
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(f.dims()), lp);
  roundtrip(f, plan, 5e-4, QPConfig{});
}

TEST(InterpEngine, PerLevelEbScalesRespectTightestBound) {
  // Scales <= 1 everywhere means the global bound holds a fortiori.
  const auto f = waves(Dims{40, 40, 40});
  InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(f.dims()), LevelPlan{});
  for (std::size_t l = 0; l < plan.levels.size(); ++l)
    plan.levels[l].eb_scale = 1.0 / (1 << std::min<std::size_t>(l, 4));
  roundtrip(f, plan, 1e-3, QPConfig{});
}

TEST(InterpEngine, BlockwiseRoundtripWithMixedChoices) {
  const auto f = waves(Dims{40, 40, 40});
  const int levels = interpolation_level_count(f.dims());
  InterpPlan plan = InterpPlan::uniform(levels, LevelPlan{});
  plan.block_size = 16;
  LevelPlan md;
  md.md = true;
  LevelPlan rev;
  rev.order = {2, 1, 0, 3};
  LevelPlan lin;
  lin.kind = InterpKind::kLinear;
  plan.candidates = {LevelPlan{}, md, rev, lin};
  plan.level_blockwise.assign(static_cast<std::size_t>(levels), 0);
  plan.block_choice.resize(static_cast<std::size_t>(levels));
  const std::size_t nblocks = 3 * 3 * 3;  // ceil(40/16)^3
  for (int l = 1; l <= levels; ++l) {
    auto& bc = plan.block_choice[static_cast<std::size_t>(l - 1)];
    bc.resize(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b)
      bc[b] = static_cast<std::uint8_t>((b + l) % plan.candidates.size());
    if (l <= 2) plan.level_blockwise[static_cast<std::size_t>(l - 1)] = 1;
  }
  roundtrip(f, plan, 1e-3, QPConfig{});
  roundtrip(f, plan, 1e-3, QPConfig::best_fit());
}

/// A plan whose levels other than 3 go block by block, each block taking
/// one of four candidates.
InterpPlan mixed_blockwise_plan(const Dims& dims, std::size_t block) {
  const int levels = interpolation_level_count(dims);
  InterpPlan plan = InterpPlan::uniform(levels, LevelPlan{});
  plan.block_size = block;
  LevelPlan md;
  md.md = true;
  LevelPlan rev;
  rev.order = {2, 1, 0, 3};
  LevelPlan lin;
  lin.kind = InterpKind::kLinear;
  plan.candidates = {LevelPlan{}, md, rev, lin};
  std::size_t nblocks = 1;
  for (int a = 0; a < dims.rank(); ++a)
    nblocks *= (dims.extent(a) + block - 1) / block;
  plan.level_blockwise.assign(static_cast<std::size_t>(levels), 0);
  plan.block_choice.resize(static_cast<std::size_t>(levels));
  for (int l = 1; l <= levels; ++l) {
    auto& bc = plan.block_choice[static_cast<std::size_t>(l - 1)];
    bc.resize(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b)
      bc[b] = static_cast<std::uint8_t>((b * 7 + l) % plan.candidates.size());
    if (l != 3) plan.level_blockwise[static_cast<std::size_t>(l - 1)] = 1;
  }
  return plan;
}

TEST(InterpEngine, BlockwisePreviewMatchesDecimatedDecode) {
  // Every stop level of a block-wise plan decodes on its lattice to the
  // decimated full reconstruction: the walk keeps the field's block grid
  // and maps each block onto the lattice points it holds. Level 6 has
  // lattice spacing 32, wider than both block edges, so some blocks hold
  // no lattice point at all and must still keep their candidate index.
  const double eb = 1e-3;
  for (const auto& [dims, block] :
       {std::pair{Dims{40, 40, 40}, std::size_t{16}},
        std::pair{Dims{33, 21, 40}, std::size_t{8}}}) {
    SCOPED_TRACE(dims.str());
    const auto f = waves(dims);
    const int levels = interpolation_level_count(dims);
    ASSERT_EQ(levels, 6);
    const InterpPlan plan = mixed_blockwise_plan(dims, block);
    for (const QPConfig& qp : {QPConfig{}, QPConfig::best_fit()}) {
      Field<float> recon = f.clone();
      LinearQuantizer<float> enc(eb);
      const auto res =
          InterpEngine<float>::encode(recon.data(), dims, plan, eb, enc, qp);
      ByteWriter w;
      enc.save(w);
      const auto buf = w.bytes();
      for (unsigned nw : {1u, 4u}) {
        ThreadPool pool(nw, /*cap_to_hardware=*/false);
        for (int stop = 1; stop <= levels; ++stop) {
          SCOPED_TRACE(::testing::Message() << "qp=" << qp.enabled
                                            << " workers=" << nw
                                            << " stop_level=" << stop);
          ByteReader r(buf);
          LinearQuantizer<float> dq(0.0);
          dq.load(r);
          const Field<float> want =
              decimate_to_level(recon.data(), dims, stop);
          Field<float> out(want.dims());
          InterpEngine<float>::decode(res.symbols, dims, plan, eb, dq, qp,
                                      out.data(), nullptr, stop, &pool);
          ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                want.size() * sizeof(float)),
                    0);
        }
      }
    }
  }
}

TEST(InterpEngine, QPIsTransparentToReconstruction) {
  const auto f = waves(Dims{32, 36, 28});
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(f.dims()), LevelPlan{});
  Field<float> w0 = f.clone(), w1 = f.clone();
  LinearQuantizer<float> q0(1e-3), q1(1e-3);
  (void)InterpEngine<float>::encode(w0.data(), f.dims(), plan, 1e-3, q0,
                                    QPConfig{});
  (void)InterpEngine<float>::encode(w1.data(), f.dims(), plan, 1e-3, q1,
                                    QPConfig::best_fit());
  for (std::size_t i = 0; i < f.size(); ++i)
    ASSERT_EQ(w0[i], w1[i]) << "QP changed the reconstruction @" << i;
}

TEST(InterpEngine, QPRoundtripAllConfigs) {
  const auto f = waves(Dims{24, 26, 28});
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(f.dims()), LevelPlan{});
  for (auto d : {QPDimension::k1DBack, QPDimension::k1DTop,
                 QPDimension::k1DLeft, QPDimension::k2D, QPDimension::k3D}) {
    for (auto c : {QPCondition::kCaseI, QPCondition::kCaseIII}) {
      QPConfig qp;
      qp.enabled = true;
      qp.dimension = d;
      qp.condition = c;
      qp.max_level = 99;
      roundtrip(f, plan, 1e-3, qp);
    }
  }
}

TEST(InterpEngine, SpatialArtifactsShapeAndContent) {
  const auto f = waves(Dims{16, 16, 16});
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(f.dims()), LevelPlan{});
  Field<float> w = f.clone();
  LinearQuantizer<float> q(1e-3);
  const auto res = InterpEngine<float>::encode(w.data(), f.dims(), plan, 1e-3,
                                               q, QPConfig{}, true);
  ASSERT_EQ(res.codes.size(), f.size());
  ASSERT_EQ(res.symbols_spatial.size(), f.size());
  // Without QP, the spatial symbols are a pure re-arrangement of the
  // stream: same multiset.
  auto a = res.symbols;
  auto b = res.symbols_spatial;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(InterpEngine, SampleCostRanksPredictorsSanely) {
  // On a smooth field, cubic should cost less than linear at level 1.
  const auto f = waves(Dims{48, 48, 48});
  LevelPlan cubic;
  LevelPlan linear;
  linear.kind = InterpKind::kLinear;
  const double cc = InterpEngine<float>::level_cost_sample(f.data(), f.dims(),
                                                           1, cubic, 1e-4, 3);
  const double cl = InterpEngine<float>::level_cost_sample(f.data(), f.dims(),
                                                           1, linear, 1e-4, 3);
  EXPECT_LT(cc, cl);
}

TEST(InterpEngine, ExtremeErrorBounds) {
  const auto f = waves(Dims{20, 20, 20});
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(f.dims()), LevelPlan{});
  roundtrip(f, plan, 10.0, QPConfig::best_fit());   // everything quantizes to 0
  roundtrip(f, plan, 1e-7, QPConfig::best_fit());   // outlier-heavy regime
}

}  // namespace
}  // namespace qip
