// Cross-module integration tests: full pipelines over the synthetic
// datasets, QP end-to-end invariants across all base compressors, and
// archive-format robustness.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "compressors/registry.hpp"
#include "core/characterize.hpp"
#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "util/stats.hpp"

namespace qip {
namespace {

TEST(Integration, EveryDatasetEveryBaseCompressorRoundtrips) {
  const Dims d3{24, 28, 32};
  for (const auto& spec : dataset_specs()) {
    if (spec.paper_dims.rank() == 4) continue;  // RTM covered in transfer tests
    const Field<float> f = make_field(spec.id, 0, d3, 1);
    const double eb =
        1e-3 * static_cast<double>(value_range(f.span()).width());
    if (eb == 0) continue;
    for (const auto* e : qp_base_compressors()) {
      GenericOptions opt;
      opt.error_bound = eb;
      opt.qp = QPConfig::best_fit();
      const auto arc = e->compress_f32(f.data(), d3, opt);
      const auto dec = e->decompress_f32(arc);
      EXPECT_LE(max_abs_error(f.span(), dec.span()), eb * (1 + 1e-9))
          << spec.name << "/" << e->name;
    }
  }
}

TEST(Integration, QPNeverChangesReconstructionAcrossDatasets) {
  const Dims d3{24, 24, 24};
  for (const auto id : {DatasetId::kMiranda, DatasetId::kSegSalt,
                        DatasetId::kCESM}) {
    const Field<float> f = make_field(id, 0, d3, 5);
    const double eb =
        1e-3 * static_cast<double>(value_range(f.span()).width());
    for (const auto* e : qp_base_compressors()) {
      GenericOptions base;
      base.error_bound = eb;
      GenericOptions qp = base;
      qp.qp = QPConfig::best_fit();
      const auto d0 = e->decompress_f32(e->compress_f32(f.data(), d3, base));
      const auto d1 = e->decompress_f32(e->compress_f32(f.data(), d3, qp));
      for (std::size_t i = 0; i < d0.size(); ++i)
        ASSERT_EQ(d0[i], d1[i]) << e->name << " @" << i;
    }
  }
}

TEST(Integration, ClusteringExistsWhereQPGains) {
  // Tie the characterization to the mechanism on the SegSalt stand-in:
  // the Case III gate must fire on a meaningful fraction of stage-grid
  // neighbor pairs (clustering exists), the *adaptively* transformed
  // symbol stream Q' must have lower entropy than Q (unconditional
  // Lorenzo on indices raises entropy — the adaptivity is the paper's
  // point), and the archive must shrink.
  const Dims dims{96, 96, 64};
  const Field<float> f = make_field(DatasetId::kSegSalt, 0, dims, 2000);
  const double eb = 1e-3 * static_cast<double>(value_range(f.span()).width());
  SZ3Config c0;
  c0.error_bound = eb;
  c0.auto_fallback = false;
  SZ3Artifacts art0;
  const auto arc0 = sz3_compress(f.data(), dims, c0, &art0);

  // Stage stride 2x2 isolates the level-1 z-direction stage, where the
  // paper's clustering lives.
  const auto st = cluster_stats(art0.codes, dims, 0, dims.extent(0) / 2, 2, 2);
  EXPECT_GT(st.same_sign_fraction, 0.10);

  SZ3Config c1 = c0;
  c1.qp = QPConfig::best_fit();
  SZ3Artifacts art1;
  const auto arc1 = sz3_compress(f.data(), dims, c1, &art1);
  EXPECT_LT(shannon_entropy(std::span<const std::uint32_t>(art1.symbols_spatial)),
            shannon_entropy(std::span<const std::uint32_t>(art0.symbols_spatial)));
  EXPECT_LT(arc1.size(), arc0.size());
}

TEST(Integration, ArchivesAreSelfDescribingAcrossCompressors) {
  // Decoding an archive with the wrong compressor must throw, not crash.
  const Field<float> f = make_field(DatasetId::kMiranda, 0, Dims{16, 16, 16}, 1);
  GenericOptions opt;
  opt.error_bound = 1e-2;
  const auto& sz3 = find_compressor("SZ3");
  const auto& qoz = find_compressor("QoZ");
  const auto arc = sz3.compress_f32(f.data(), f.dims(), opt);
  EXPECT_THROW(qoz.decompress_f32(arc), std::runtime_error);
}

TEST(Integration, WrongDtypeRejected) {
  const Field<float> f = make_field(DatasetId::kMiranda, 0, Dims{12, 12, 12}, 1);
  GenericOptions opt;
  opt.error_bound = 1e-2;
  const auto& sz3 = find_compressor("SZ3");
  const auto arc = sz3.compress_f32(f.data(), f.dims(), opt);
  EXPECT_THROW(sz3.decompress_f64(arc), std::runtime_error);
}

TEST(Integration, TruncatedArchivesThrowEverywhere) {
  const Field<float> f = make_field(DatasetId::kScale, 0, Dims{16, 20, 20}, 3);
  GenericOptions opt;
  opt.error_bound = 1e-2 * value_range(f.span()).width();
  for (const auto& e : compressor_registry()) {
    auto arc = e.compress_f32(f.data(), f.dims(), opt);
    arc.resize(arc.size() / 3);
    EXPECT_THROW(e.decompress_f32(arc), std::runtime_error) << e.name;
  }
}

// The codec name is a std::string, not a const char*: test names print
// the parameter, and a pointer prints as its (ASLR-dependent) address.
class EbSweepAllCompressors
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(EbSweepAllCompressors, BoundHolds) {
  const auto [name, rel] = GetParam();
  const Field<float> f = make_field(DatasetId::kMiranda, 2, Dims{20, 24, 28}, 9);
  const double eb = rel * static_cast<double>(value_range(f.span()).width());
  const auto& e = find_compressor(name);
  GenericOptions opt;
  opt.error_bound = eb;
  const auto dec = e.decompress_f32(e.compress_f32(f.data(), f.dims(), opt));
  EXPECT_LE(max_abs_error(f.span(), dec.span()), eb * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EbSweepAllCompressors,
    ::testing::Combine(::testing::Values("MGARD", "SZ3", "QoZ", "HPEZ", "ZFP",
                                         "TTHRESH", "SPERR"),
                       ::testing::Values(1e-2, 1e-4, 1e-6)));

}  // namespace
}  // namespace qip
