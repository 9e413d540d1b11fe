// Worker-count byte-identity for the parallel interpolation level walk.
//
// The contract under test: with a pool attached, InterpEngine's stage
// walk partitions each pass into contiguous blocks with precomputed
// symbol-cursor offsets, so the symbol stream, the outlier stream, the
// reconstruction, and therefore the archive bytes are identical at
// every worker count — and identical to the sequential walk that runs
// when no pool is attached. The matrix covers ranks 1-4, QP on/off,
// f32/f64, SIMD tiers, and worker counts {1, 2, 4, 7}; the pools are
// built with cap_to_hardware=false so the sweep is meaningful on
// single-CPU CI containers.

#include "compressors/interp_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <vector>

#include "compressors/hpez.hpp"
#include "compressors/qoz.hpp"
#include "compressors/registry.hpp"
#include "compressors/sz3.hpp"
#include "predict/multilevel.hpp"
#include "serve/service.hpp"
#include "simd/dispatch.hpp"
#include "util/field.hpp"
#include "util/thread_pool.hpp"

namespace qip {
namespace {

constexpr unsigned kWorkerSweep[] = {1, 2, 4, 7};

// Smooth multi-frequency field over any rank; deterministic.
template <class T>
Field<T> wave(const Dims& dims, unsigned seed = 11) {
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
          f[dims.index(c[0], c[1], c[2], c[3])] =
              static_cast<T>(std::sin(r + p) + 0.4 * std::cos(2.3 * r));
        }
  return f;
}

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

template <class T>
std::vector<std::uint8_t> quant_bytes(LinearQuantizer<T>& q) {
  ByteWriter w;
  q.save(w);
  return w.bytes();
}

template <class T>
void expect_same_scalars(const T* a, const T* b, std::size_t n,
                         const char* what) {
  ASSERT_EQ(std::memcmp(a, b, n * sizeof(T)), 0) << what;
}

/// One cell of the matrix: encode + decode the field with every worker
/// count and require bit-identity with the sequential (no-pool) oracle.
template <class T>
void engine_worker_invariance(const Dims& dims, const QPConfig& qp,
                              const LevelPlan& lp = LevelPlan{}) {
  const auto f = wave<T>(dims, 11 + static_cast<unsigned>(dims.rank()));
  const double eb = 1e-3;
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(dims), lp);

  // Oracle: the sequential walk, which runs when no pool is attached.
  Field<T> work_seq = f.clone();
  LinearQuantizer<T> quant_seq(eb);
  const std::vector<std::uint32_t> sym_seq =
      InterpEngine<T>::encode(work_seq.data(), dims, plan, eb, quant_seq, qp,
                              false, nullptr, nullptr, /*pool=*/nullptr)
          .symbols;
  const auto oq = quant_bytes(quant_seq);

  for (unsigned nw : kWorkerSweep) {
    SCOPED_TRACE(::testing::Message() << "rank=" << dims.rank()
                                      << " workers=" << nw
                                      << " qp=" << qp.enabled);
    ThreadPool pool(nw, /*cap_to_hardware=*/false);

    Field<T> wp = f.clone();
    LinearQuantizer<T> qpar(eb);
    const auto res = InterpEngine<T>::encode(wp.data(), dims, plan, eb, qpar,
                                             qp, false, nullptr, nullptr,
                                             &pool);
    ASSERT_EQ(res.symbols, sym_seq) << "parallel symbols diverged";
    ASSERT_EQ(quant_bytes(qpar), oq) << "parallel outliers diverged";
    expect_same_scalars(wp.data(), work_seq.data(), f.size(),
                        "parallel reconstruction");
    // Anti-vacuity: with >1 worker the stage walk must actually have
    // fanned out (md plans are the documented exception: their stages
    // take the generic walk, so the pool stays idle).
    if (nw > 1 && !lp.md) {
      EXPECT_GT(pool.scheduler_stats().pf_blocks, 0u)
          << "parallel path never engaged; byte-identity was vacuous";
    }

    // Decode fan-out: recover through the pool and compare bitwise
    // against the encoder's reconstruction.
    ByteReader r(oq);
    LinearQuantizer<T> dq(0.0);
    dq.load(r);
    Field<T> out(dims);
    InterpEngine<T>::decode(sym_seq, dims, plan, eb, dq, qp, out.data(),
                            nullptr, /*stop_level=*/1, &pool);
    expect_same_scalars(out.data(), work_seq.data(), f.size(),
                        "parallel decode");
  }
}

// Stage totals must clear kParMinPoints (32768) for the parallel path
// to engage, so every shape here carries >= 128k points.
TEST(InterpParallel, Rank1BytesWorkerInvariant) {
  engine_worker_invariance<float>(Dims{1u << 17}, QPConfig{});
  engine_worker_invariance<double>(Dims{1u << 17}, QPConfig::best_fit());
}

TEST(InterpParallel, Rank2BytesWorkerInvariant) {
  engine_worker_invariance<double>(Dims{384, 384}, QPConfig{});
  engine_worker_invariance<float>(Dims{384, 384}, QPConfig::best_fit());
}

TEST(InterpParallel, Rank3BytesWorkerInvariant) {
  engine_worker_invariance<float>(Dims{64, 64, 48}, QPConfig{});
  engine_worker_invariance<double>(Dims{64, 64, 48}, QPConfig::best_fit());
}

TEST(InterpParallel, Rank4BytesWorkerInvariant) {
  engine_worker_invariance<double>(Dims{16, 16, 24, 24}, QPConfig{});
  engine_worker_invariance<float>(Dims{16, 16, 24, 24}, QPConfig::best_fit());
}

TEST(InterpParallel, LinearKindAndMdPlansWorkerInvariant) {
  LevelPlan linear;
  linear.kind = InterpKind::kLinear;
  engine_worker_invariance<float>(Dims{64, 64, 48}, QPConfig::best_fit(),
                                  linear);
  // md stages take the generic walk (the gate requires md_mask == 0);
  // pool attachment must still be a no-op for the bytes.
  LevelPlan md;
  md.md = true;
  engine_worker_invariance<float>(Dims{64, 64, 48}, QPConfig::best_fit(), md);
}

TEST(InterpParallel, SimdTiersWorkerInvariant) {
  {
    ScalarGuard g;
    engine_worker_invariance<float>(Dims{64, 64, 48}, QPConfig::best_fit());
  }
  if (simd::tier_compiled(simd::Tier::kAVX2)) {
    TierGuard g(simd::Tier::kAVX2);
    engine_worker_invariance<float>(Dims{64, 64, 48}, QPConfig::best_fit());
  }
}

// ---------------------------------------------------------------------
// Codec-level: whole archives (symbols + outliers + entropy stage) are
// worker-invariant, tiled and untiled, and pooled decompression matches.

template <class Compress, class Decompress>
void archive_worker_invariance(Compress compress, Decompress decompress) {
  // Oracle: the sequential (no-pool) compress and decompress.
  const std::vector<std::uint8_t> oracle = compress(nullptr);
  const Field<float> ref = decompress(oracle, nullptr);
  for (unsigned nw : kWorkerSweep) {
    SCOPED_TRACE(::testing::Message() << "workers=" << nw);
    ThreadPool pool(nw, /*cap_to_hardware=*/false);
    EXPECT_EQ(compress(&pool), oracle) << "archive bytes diverged";
    const Field<float> dec = decompress(oracle, &pool);
    ASSERT_EQ(dec.dims(), ref.dims());
    expect_same_scalars(dec.data(), ref.data(), ref.size(),
                        "pooled decompression");
  }
}

TEST(InterpParallel, SZ3ArchiveWorkerInvariant) {
  const auto f = wave<float>(Dims{64, 64, 64}, 5);
  for (std::size_t tile : {std::size_t{0}, std::size_t{16}}) {
    SCOPED_TRACE(::testing::Message() << "tile=" << tile);
    SZ3Config cfg;
    cfg.error_bound = 1e-3;
    cfg.qp = QPConfig::best_fit();
    cfg.auto_fallback = false;  // pin the interpolation path
    cfg.tile_size = tile;
    archive_worker_invariance(
        [&](ThreadPool* pool) {
          SZ3Config c = cfg;
          c.pool = pool;
          return sz3_compress(f.data(), f.dims(), c);
        },
        [](std::span<const std::uint8_t> arc, ThreadPool* pool) {
          return sz3_decompress<float>(arc, pool);
        });
  }
}

TEST(InterpParallel, QoZArchiveWorkerInvariant) {
  const auto f = wave<float>(Dims{64, 64, 64}, 6);
  QoZConfig cfg;
  cfg.error_bound = 1e-3;
  cfg.qp = QPConfig::best_fit();
  archive_worker_invariance(
      [&](ThreadPool* pool) {
        QoZConfig c = cfg;
        c.pool = pool;
        return qoz_compress(f.data(), f.dims(), c);
      },
      [](std::span<const std::uint8_t> arc, ThreadPool* pool) {
        return qoz_decompress<float>(arc, pool);
      });
}

TEST(InterpParallel, HPEZArchiveWorkerInvariant) {
  const auto f = wave<float>(Dims{64, 64, 64}, 7);
  HPEZConfig cfg;
  cfg.error_bound = 1e-3;
  cfg.tile_size = 16;  // tiled: block tuning yields to the tile grid
  archive_worker_invariance(
      [&](ThreadPool* pool) {
        HPEZConfig c = cfg;
        c.pool = pool;
        return hpez_compress(f.data(), f.dims(), c);
      },
      [](std::span<const std::uint8_t> arc, ThreadPool* pool) {
        return hpez_decompress<float>(arc, pool);
      });
}

// Pooled preview/region closures must be bit-identical to the plain
// ones (the fan-out over per-chunk Huffman decodes and per-tile
// regions must not change a single scalar).
TEST(InterpParallel, PooledPartialDecodesMatchPlain) {
  const auto f = wave<float>(Dims{64, 64, 64}, 8);
  QoZConfig cfg;
  cfg.error_bound = 1e-3;
  cfg.qp = QPConfig::best_fit();
  cfg.tile_size = 16;
  const auto arc = qoz_compress(f.data(), f.dims(), cfg);
  const auto& e = find_compressor("QoZ");

  Box box = Box::whole(f.dims());
  for (int a = 0; a < 3; ++a) {
    box.lo[a] = static_cast<std::size_t>(8 + 3 * a);
    box.hi[a] = static_cast<std::size_t>(40 + 5 * a);
  }
  const Field<float> prev_plain = e.decompress_preview_f32(arc, 2, nullptr);
  const Field<float> reg_plain = e.decompress_region_f32(arc, box, nullptr);

  for (unsigned nw : kWorkerSweep) {
    SCOPED_TRACE(::testing::Message() << "workers=" << nw);
    ThreadPool pool(nw, /*cap_to_hardware=*/false);
    const Field<float> prev =
        e.decompress_preview_f32(arc, 2, nullptr, &pool);
    expect_same_scalars(prev.data(), prev_plain.data(), prev_plain.size(),
                        "pooled preview");
    const Field<float> reg =
        e.decompress_region_f32(arc, box, nullptr, &pool);
    expect_same_scalars(reg.data(), reg_plain.data(), reg_plain.size(),
                        "pooled region");
  }
}

// ---------------------------------------------------------------------
// Serving: concurrent large jobs all ride the parallel walk (this is
// the TSan stress for worker-shared engine state), and a lone large
// job must report intra-job fan-out.

TEST(InterpParallel, ServiceConcurrentParallelWalkJobs) {
  const auto f = wave<float>(Dims{64, 64, 64}, 21);
  SZ3Config cfg;
  cfg.error_bound = 1e-3;
  cfg.qp = QPConfig::best_fit();
  cfg.auto_fallback = false;
  const auto arc = sz3_compress(f.data(), f.dims(), cfg);
  const Field<float> ref = sz3_decompress<float>(arc);

  serve::ServeOptions so;
  so.workers = 4;
  so.cap_to_hardware = false;
  so.large_job_bytes = 1;  // every job fans out through the level walk
  serve::Service svc(so);

  std::vector<std::future<serve::JobResult>> futs;
  for (int i = 0; i < 8; ++i) {
    serve::JobSpec spec;
    spec.kind = serve::JobKind::kDecompress;
    spec.input = arc;
    auto fut = svc.submit(spec);
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
  }
  for (auto& fu : futs) {
    serve::JobResult r = fu.get();
    ASSERT_TRUE(r.metrics.ok) << r.metrics.error;
    ASSERT_EQ(r.dims, f.dims());
    ASSERT_EQ(r.bytes.size(), ref.size() * sizeof(float));
    EXPECT_EQ(std::memcmp(r.bytes.data(), ref.data(), r.bytes.size()), 0);
  }
  svc.drain();

  // Uncontended large job: the slab share is the whole pool, so the
  // walk must actually report multi-worker fan-out.
  serve::JobSpec spec;
  spec.kind = serve::JobKind::kDecompress;
  spec.input = arc;
  auto fut = svc.submit(spec);
  ASSERT_TRUE(fut.has_value());
  const serve::JobResult r = fut->get();
  ASSERT_TRUE(r.metrics.ok) << r.metrics.error;
  EXPECT_GT(r.metrics.intra_workers, 1u);
  EXPECT_EQ(std::memcmp(r.bytes.data(), ref.data(), r.bytes.size()), 0);
}

}  // namespace
}  // namespace qip
