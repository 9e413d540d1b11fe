// Parameterized roundtrip matrix over every registered codec: dtype
// (f32/f64) × rank 1–4 × QP off/on, exercised through compress, the
// allocating decompress, and a full-request decode into a caller
// buffer. This one fixture replaces the near-identical generic roundtrip
// helpers the per-codec test files used to duplicate; those files keep
// only their codec-specific tests.

#include "compressors/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "util/stats.hpp"

namespace qip {
namespace {

// Dtype dispatch over the type-erased entry points.
std::vector<std::uint8_t> entry_compress(const CompressorEntry& e,
                                         const float* d, const Dims& dims,
                                         const GenericOptions& o) {
  return e.compress_f32(d, dims, o);
}
std::vector<std::uint8_t> entry_compress(const CompressorEntry& e,
                                         const double* d, const Dims& dims,
                                         const GenericOptions& o) {
  return e.compress_f64(d, dims, o);
}
Field<float> entry_decompress(const CompressorEntry& e,
                              std::span<const std::uint8_t> a, float) {
  return e.decompress_f32(a);
}
Field<double> entry_decompress(const CompressorEntry& e,
                               std::span<const std::uint8_t> a, double) {
  return e.decompress_f64(a);
}
void entry_decode_into(const CompressorEntry& e,
                       std::span<const std::uint8_t> a, float* dst,
                       const Dims& d) {
  e.decode_f32(a, {}, dst, d, nullptr, nullptr);
}
void entry_decode_into(const CompressorEntry& e,
                       std::span<const std::uint8_t> a, double* dst,
                       const Dims& d) {
  e.decode_f64(a, {}, dst, d, nullptr, nullptr);
}

template <class T>
Field<T> smooth_field(const Dims& dims) {
  Field<T> f(dims);
  for (std::size_t i = 0; i < f.size(); ++i) {
    const auto x = static_cast<T>(i);
    f[i] = std::sin(static_cast<T>(0.05) * x) +
           static_cast<T>(0.25) * std::cos(static_cast<T>(0.023) * x);
  }
  return f;
}

// One rank-1..4 shape each, sized so every codec's block/level machinery
// sees more than one unit of work without slowing the suite down.
const Dims kShapes[] = {Dims{96}, Dims{24, 18}, Dims{12, 10, 9},
                        Dims{6, 5, 4, 7}};

using CodecCase = std::tuple<std::string, bool>;  // codec name, QP on

class AllCodecs : public ::testing::TestWithParam<CodecCase> {
 protected:
  template <class T>
  void roundtrip_all_ranks() {
    const auto& [name, qp] = GetParam();
    const CompressorEntry& e = find_compressor(name);
    GenericOptions opt;
    opt.error_bound = 1e-3;
    if (qp) opt.qp = QPConfig::best_fit();
    for (const Dims& dims : kShapes) {
      SCOPED_TRACE(name + " rank " + std::to_string(dims.rank()));
      const Field<T> f = smooth_field<T>(dims);
      const auto arc = entry_compress(e, f.data(), dims, opt);

      const Field<T> dec = entry_decompress(e, arc, T{});
      ASSERT_EQ(dec.dims(), dims);
      EXPECT_LE(max_abs_error(f.span(), dec.span()),
                opt.error_bound * (1 + 1e-9));

      // Decoding into a caller buffer must produce the same bytes.
      std::vector<T> buf(f.size(), T{});
      entry_decode_into(e, arc, buf.data(), dims);
      for (std::size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i], dec[i]) << "element " << i;

      // ... and reject a destination of the wrong shape.
      Dims wrong = dims.rank() == 1 ? Dims{dims.extent(0) + 1}
                                    : Dims{dims.extent(0) + 1,
                                           dims.extent(1)};
      std::vector<T> sink(wrong.size());
      EXPECT_THROW(entry_decode_into(e, arc, sink.data(), wrong),
                   DecodeError);
    }
  }
};

TEST_P(AllCodecs, RoundtripF32) { roundtrip_all_ranks<float>(); }

TEST_P(AllCodecs, RoundtripF64) { roundtrip_all_ranks<double>(); }

std::vector<CodecCase> all_cases() {
  std::vector<CodecCase> cases;
  for (const auto& e : compressor_registry()) {
    cases.emplace_back(e.name, false);
    // QP-blind codecs ignore the hook by contract; exercising them with
    // QP requested pins that down instead of assuming it.
    cases.emplace_back(e.name, true);
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<CodecCase>& info) {
  return std::get<0>(info.param) + (std::get<1>(info.param) ? "_qp" : "");
}

INSTANTIATE_TEST_SUITE_P(Registry, AllCodecs,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace qip
