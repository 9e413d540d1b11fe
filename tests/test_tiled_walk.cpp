// Tiled level walk: pinned bytes at every worker count, and partial
// decodes bit-identical to the full decode.
//
// A tiled level (levels <= TileLayout::max_level) runs its tiles through
// the row kernels, one tile per pool task, with each tile's symbols,
// outliers and QP codes kept tile-local. No second traversal produces
// those bytes any more, so the oracle is the format itself: the FNV-1a
// hashes below were recorded from the tile-by-tile per-point walk that
// wrote every tiled archive before the row kernels took the tiled
// levels over. A hash that moves is a format change, not a refactor.
//
// The matrix covers SZ3, QoZ and HPEZ archives and the engine directly
// (sequential and parity-class md plans, direction orders, cubic and
// linear, QP off/1D/2D/3D), ranks 1-4, f32/f64, tile 16 and 32, prime
// extents, and extents whose last tile holds no point of some tiled
// level (the archive then carries an empty tile chunk). Every cell runs
// at worker counts {1, 2, 4, 7} on uncapped pools, so the sweep means
// something on a single-CPU host.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "compressors/core/container.hpp"
#include "compressors/core/driver.hpp"
#include "compressors/core/tiles.hpp"
#include "compressors/hpez.hpp"
#include "compressors/interp_engine.hpp"
#include "compressors/qoz.hpp"
#include "compressors/sz3.hpp"
#include "predict/multilevel.hpp"
#include "util/field.hpp"
#include "util/thread_pool.hpp"

namespace qip {
namespace {

constexpr unsigned kWorkerSweep[] = {1, 2, 4, 7};

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

template <class V>
std::uint64_t fnv1a_pod(const V& v, std::uint64_t h) {
  return fnv1a(std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(&v), sizeof(v)),
               h);
}

// Smooth multi-frequency field with sparse spikes far outside the code
// radius, so every tiled level carries outliers to splice.
template <class T>
Field<T> spiky_wave(const Dims& dims, unsigned seed) {
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
              static_cast<T>(std::sin(r + p) + 0.4 * std::cos(2.7 * r) +
                             0.1 * std::sin(9.1 * r + p));
        }
  for (std::size_t i = seed % 89; i < f.size(); i += 613)
    f[i] += static_cast<T>((i / 613) % 2 ? 1e4 : -1e4);
  return f;
}

// Test-name form of a case label ("r3-qp2d" -> "r3_qp2d").
std::string case_name(const char* label) {
  std::string n(label);
  std::replace(n.begin(), n.end(), '-', '_');
  return n;
}

template <class T>
void expect_bitwise(const T* a, const T* b, std::size_t n, const char* what) {
  ASSERT_EQ(std::memcmp(a, b, n * sizeof(T)), 0) << what;
}

// ---------------------------------------------------------------------
// Engine level: symbols, outliers and chunk spans of one tiled encode.

struct EngineCase {
  const char* name;
  int rank;
  std::array<std::size_t, kMaxRank> ext;
  bool f64;
  InterpKind kind;
  bool md;
  std::array<std::int8_t, kMaxRank> order;
  QPDimension qp;  ///< kNone = QP off
  QPCondition cond;
  std::size_t tile;
  std::uint64_t fnv;
};

constexpr auto kC = InterpKind::kCubic;
constexpr auto kL = InterpKind::kLinear;
constexpr std::array<std::int8_t, kMaxRank> kId{0, 1, 2, 3};

const EngineCase kEngineCases[] = {
    {"r1-cubic-qp-off", 1, {1000, 1, 1, 1}, false, kC, false, kId,
     QPDimension::kNone, QPCondition::kCaseIII, 16, 0x7f49781be9466139},
    {"r1-linear-thin-129", 1, {129, 1, 1, 1}, true, kL, false, kId,
     QPDimension::k1DBack, QPCondition::kCaseIII, 16, 0xd705307dcd25add3},
    {"r2-qp1d-prime", 2, {97, 61, 1, 1}, false, kC, false, kId,
     QPDimension::k1DLeft, QPCondition::kCaseIII, 16, 0x9f2b13d5b621e89d},
    {"r2-qp2d-f64-t32", 2, {131, 70, 1, 1}, true, kC, false, {1, 0, 2, 3},
     QPDimension::k2D, QPCondition::kCaseIII, 32, 0xfc527f57a6981f7},
    {"r2-qp2d-caseI", 2, {80, 67, 1, 1}, false, kC, false, kId,
     QPDimension::k2D, QPCondition::kCaseI, 16, 0x85753511d26e8092},
    {"r3-qp2d-prime", 3, {45, 38, 29, 1}, false, kC, false, kId,
     QPDimension::k2D, QPCondition::kCaseIII, 16, 0xd16c34e90f921abf},
    {"r3-qp3d-order", 3, {37, 41, 33, 1}, true, kC, false, {2, 0, 1, 3},
     QPDimension::k3D, QPCondition::kCaseIV, 16, 0x33f4648bbccda04a},
    {"r3-linear-qp1d-top", 3, {34, 47, 40, 1}, false, kL, false, {1, 2, 0, 3},
     QPDimension::k1DTop, QPCondition::kCaseII, 16, 0x748c5a4801d2c3a6},
    {"r3-md-qp2d", 3, {35, 33, 37, 1}, false, kC, true, kId,
     QPDimension::k2D, QPCondition::kCaseIII, 16, 0x452e36daa2b50c5e},
    {"r3-thin-33-qp-off", 3, {33, 33, 33, 1}, true, kC, false, kId,
     QPDimension::kNone, QPCondition::kCaseIII, 16, 0xd4c1b764ef6ed153},
    {"r3-t32-qp2d", 3, {70, 66, 40, 1}, false, kC, false, kId,
     QPDimension::k2D, QPCondition::kCaseIII, 32, 0x63b5aa876a606a4f},
    {"r4-qp2d", 4, {18, 17, 20, 19}, false, kC, false, kId,
     QPDimension::k2D, QPCondition::kCaseIII, 16, 0x1db267ff9e7edbea},
    {"r4-md-f64", 4, {17, 19, 18, 17}, true, kL, true, {3, 2, 1, 0},
     QPDimension::k3D, QPCondition::kCaseIII, 16, 0xbdd252c3cf80c82d},
    // Tile 64: rows long enough for the SIMD row kernels, direct and
    // gathered, inside every tile.
    {"r1-t64", 1, {5000, 1, 1, 1}, false, kC, false, kId,
     QPDimension::kNone, QPCondition::kCaseIII, 64, 0xfc679fb8a98bf5ae},
    {"r2-t64-qp1d-back", 2, {300, 129, 1, 1}, false, kC, false, kId,
     QPDimension::k1DBack, QPCondition::kCaseIII, 64, 0x4ecf5777e1e4fcef},
    {"r3-t64-qp2d", 3, {130, 70, 66, 1}, false, kC, false, kId,
     QPDimension::k2D, QPCondition::kCaseIII, 64, 0x99b68679a7916d21},
    {"r3-t64-linear-qp3d", 3, {67, 129, 65, 1}, true, kL, false, {2, 1, 0, 3},
     QPDimension::k3D, QPCondition::kCaseIII, 64, 0x1a84026550a82870},
};

void PrintTo(const EngineCase& k, std::ostream* os) { *os << k.name; }

QPConfig engine_qp(const EngineCase& k) {
  QPConfig qp;
  qp.enabled = k.qp != QPDimension::kNone;
  if (qp.enabled) qp.dimension = k.qp;
  qp.condition = k.cond;
  qp.max_level = 4;  // QP on every tiled level
  return qp;
}

struct EngineRun {
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint8_t> outliers;  ///< saved quantizer
  std::vector<SymbolSpan> spans;
  std::uint64_t fnv = 0;
};

template <class T>
EngineRun engine_encode(const EngineCase& k, const Field<T>& f,
                        const InterpPlan& plan, const TileLayout& tiles,
                        ThreadPool* pool, Field<T>* recon) {
  const double eb = 1e-3;
  Field<T> work = f.clone();
  LinearQuantizer<T> quant(eb);
  EngineRun run;
  run.symbols = InterpEngine<T>::encode(work.data(), f.dims(), plan, eb, quant,
                                        engine_qp(k), false, &tiles,
                                        &run.spans, pool)
                    .symbols;
  ByteWriter w;
  quant.save(w);
  run.outliers = w.bytes();
  std::uint64_t h = fnv1a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(run.symbols.data()),
      run.symbols.size() * sizeof(std::uint32_t)));
  h = fnv1a(run.outliers, h);
  for (const SymbolSpan& s : run.spans) {
    h = fnv1a_pod(static_cast<std::int64_t>(s.level), h);
    h = fnv1a_pod(static_cast<std::uint64_t>(s.tile), h);
    h = fnv1a_pod(static_cast<std::uint64_t>(s.begin), h);
    h = fnv1a_pod(static_cast<std::uint64_t>(s.count), h);
    h = fnv1a_pod(static_cast<std::uint64_t>(s.outlier_begin), h);
    h = fnv1a_pod(static_cast<std::uint64_t>(s.outlier_count), h);
  }
  run.fnv = h;
  if (recon) *recon = std::move(work);
  return run;
}

template <class T>
void engine_case(const EngineCase& k) {
  SCOPED_TRACE(k.name);
  const Dims dims(k.rank, k.ext);
  const Field<T> f = spiky_wave<T>(dims, static_cast<unsigned>(k.rank) + 3);
  LevelPlan lp;
  lp.kind = k.kind;
  lp.md = k.md;
  lp.order = k.order;
  const int levels = interpolation_level_count(dims);
  const InterpPlan plan = InterpPlan::uniform(levels, lp);
  const TileLayout tiles = TileLayout::plan(k.tile, dims, levels);
  ASSERT_TRUE(tiles.active());

  Field<T> recon;
  const EngineRun ref = engine_encode(k, f, plan, tiles, nullptr, &recon);
  EXPECT_EQ(ref.fnv, k.fnv) << k.name << " pinned hash; actual 0x" << std::hex
                            << ref.fnv;

  // The untiled levels of these shapes are below the parallel walk's
  // stage threshold, so every pool block counted below comes from the
  // tile fan-out.
  for (unsigned nw : kWorkerSweep) {
    SCOPED_TRACE(::testing::Message() << "workers=" << nw);
    ThreadPool pool(nw, /*cap_to_hardware=*/false);
    Field<T> rp;
    const EngineRun run = engine_encode(k, f, plan, tiles, &pool, &rp);
    EXPECT_EQ(run.fnv, ref.fnv) << "pooled encode diverged";
    expect_bitwise(rp.data(), recon.data(), f.size(), "pooled reconstruction");
    if (nw > 1) {
      EXPECT_GT(pool.scheduler_stats().pf_blocks, 0u)
          << "tiled encode never fanned out";
    }

    pool.reset_scheduler_stats();
    ByteReader r(ref.outliers);
    LinearQuantizer<T> dq(0.0);
    dq.load(r);
    Field<T> out(dims);
    InterpEngine<T>::decode(ref.symbols, dims, plan, 1e-3, dq, engine_qp(k),
                            out.data(), &tiles, 1, &pool);
    expect_bitwise(out.data(), recon.data(), f.size(), "pooled decode");
    if (nw > 1) {
      EXPECT_GT(pool.scheduler_stats().pf_blocks, 0u)
          << "tiled decode never fanned out";
    }
  }

  // Unpooled decode, and every preview stop level: a stop-level-L
  // decode fills the level-L lattice, whose points are final — the same
  // points as decimating the full reconstruction.
  for (int stop = 1; stop <= levels; ++stop) {
    SCOPED_TRACE(::testing::Message() << "stop_level=" << stop);
    ByteReader r(ref.outliers);
    LinearQuantizer<T> dq(0.0);
    dq.load(r);
    const Field<T> want = decimate_to_level(recon.data(), dims, stop);
    Field<T> out(want.dims());
    InterpEngine<T>::decode(ref.symbols, dims, plan, 1e-3, dq, engine_qp(k),
                            out.data(), &tiles, stop, nullptr);
    expect_bitwise(out.data(), want.data(), want.size(), "lattice decode");
  }
}

class TiledEngine : public ::testing::TestWithParam<EngineCase> {};

TEST_P(TiledEngine, BytesPinnedAtEveryWorkerCount) {
  const EngineCase& k = GetParam();
  if (k.f64)
    engine_case<double>(k);
  else
    engine_case<float>(k);
}

INSTANTIATE_TEST_SUITE_P(TiledWalk, TiledEngine,
                         ::testing::ValuesIn(kEngineCases),
                         [](const auto& info) {
                           return case_name(info.param.name);
                         });

// ---------------------------------------------------------------------
// Archive level: whole SZ3 / QoZ / HPEZ archives, and every decode kind.

enum class Codec { kSZ3, kQoZ, kHPEZ };

struct ArchiveCase {
  const char* name;
  Codec codec;
  int rank;
  std::array<std::size_t, kMaxRank> ext;
  bool f64;
  bool qp;
  InterpKind kind;
  std::size_t tile;
  std::uint64_t fnv;
};

const ArchiveCase kArchiveCases[] = {
    {"sz3-r3-qp-t16", Codec::kSZ3, 3, {48, 40, 44, 1}, false, true, kC, 16,
     0xd3141481deab4fdc},
    {"sz3-r3-linear-f64", Codec::kSZ3, 3, {41, 37, 43, 1}, true, true, kL, 16,
     0xcd95c7d8f8836394},
    {"sz3-r2-qp-off-t32", Codec::kSZ3, 2, {131, 97, 1, 1}, false, false, kC,
     32, 0x61c56cd2816470d6},
    {"sz3-r4-qp", Codec::kSZ3, 4, {17, 18, 19, 20}, true, true, kC, 16,
     0xd54b24bd47e7a7d0},
    {"sz3-r1-prime", Codec::kSZ3, 1, {1009, 1, 1, 1}, false, true, kC, 16,
     0x234e7aa296e086fb},
    {"qoz-r3-qp", Codec::kQoZ, 3, {45, 38, 29, 1}, false, true, kC, 16,
     0x85b65c59ff54e01c},
    {"qoz-r2-f64-t32", Codec::kQoZ, 2, {100, 71, 1, 1}, true, true, kC, 32,
     0xee92b14559ae5255},
    {"hpez-r3-qp", Codec::kHPEZ, 3, {40, 36, 33, 1}, false, true, kC, 16,
     0xcae0e2eb3e9ce172},
    {"hpez-r2-f64", Codec::kHPEZ, 2, {90, 67, 1, 1}, true, false, kC, 16,
     0x63459359dbd5499d},
    {"sz3-r3-t64", Codec::kSZ3, 3, {96, 80, 70, 1}, false, true, kC, 64, 0xd0e3880936702358},
    {"qoz-r3-t64-f64", Codec::kQoZ, 3, {70, 65, 80, 1}, true, true, kC, 64,
     0xa6483e89139df470},
    // Thin last tiles: some tiled level has no point in the last tile
    // along an axis, so the archive carries empty tile chunks.
    {"thin-r3-33-t16", Codec::kSZ3, 3, {33, 33, 33, 1}, false, true, kC, 16,
     0xd2a079ba2a74a056},
    {"thin-r3-65-t32", Codec::kSZ3, 3, {65, 65, 65, 1}, false, true, kC, 32,
     0xa070097a8d0839f4},
    {"thin-r1-65-t16", Codec::kSZ3, 1, {65, 1, 1, 1}, false, true, kC, 16,
     0x1060b1b32feaca9e},
    {"thin-r1-66-t16", Codec::kSZ3, 1, {66, 1, 1, 1}, true, true, kC, 16,
     0x403aef41f9c4d70b},
    {"thin-r1-129-t16", Codec::kSZ3, 1, {129, 1, 1, 1}, false, true, kC, 16,
     0x583907d4574bfc00},
};

void PrintTo(const ArchiveCase& k, std::ostream* os) { *os << k.name; }

template <class T>
std::vector<std::uint8_t> compress(const ArchiveCase& k, const Field<T>& f,
                                   ThreadPool* pool) {
  QPConfig qp;
  if (k.qp) qp = QPConfig::best_fit();
  switch (k.codec) {
    case Codec::kSZ3: {
      SZ3Config c;
      c.error_bound = 1e-3;
      c.qp = qp;
      c.kind = k.kind;
      c.tile_size = k.tile;
      c.auto_fallback = false;
      c.pool = pool;
      return sz3_compress(f.data(), f.dims(), c);
    }
    case Codec::kQoZ: {
      QoZConfig c;
      c.error_bound = 1e-3;
      c.qp = qp;
      c.kind = k.kind;
      c.tile_size = k.tile;
      c.pool = pool;
      return qoz_compress(f.data(), f.dims(), c);
    }
    case Codec::kHPEZ: {
      HPEZConfig c;
      c.error_bound = 1e-3;
      c.qp = qp;
      c.kind = k.kind;
      c.tile_size = k.tile;
      c.pool = pool;
      return hpez_compress(f.data(), f.dims(), c);
    }
  }
  return {};
}

template <class T>
Field<T> decode_full(const ArchiveCase& k, std::span<const std::uint8_t> a,
                     ThreadPool* pool) {
  switch (k.codec) {
    case Codec::kSZ3: return sz3_decompress<T>(a, pool);
    case Codec::kQoZ: return qoz_decompress<T>(a, pool);
    case Codec::kHPEZ: return hpez_decompress<T>(a, pool);
  }
  return {};
}

template <class T>
Field<T> decode_preview(const ArchiveCase& k, std::span<const std::uint8_t> a,
                        int level, ThreadPool* pool) {
  switch (k.codec) {
    case Codec::kSZ3: return sz3_decompress_preview<T>(a, level, pool);
    case Codec::kQoZ: return qoz_decompress_preview<T>(a, level, pool);
    case Codec::kHPEZ: return hpez_decompress_preview<T>(a, level, pool);
  }
  return {};
}

template <class T>
Field<T> decode_region(const ArchiveCase& k, std::span<const std::uint8_t> a,
                       const Box& box, ThreadPool* pool) {
  switch (k.codec) {
    case Codec::kSZ3: return sz3_decompress_region<T>(a, box, pool);
    case Codec::kQoZ: return qoz_decompress_region<T>(a, box, pool);
    case Codec::kHPEZ: return hpez_decompress_region<T>(a, box, pool);
  }
  return {};
}

// Regions around the tile grid: single points at both corners, boxes
// straddling the first tile face, the thin last tile, an interior box
// and the whole domain.
std::vector<Box> region_sweep(const Dims& dims, std::size_t tile) {
  std::vector<Box> boxes;
  auto add = [&](auto lo_of, auto hi_of) {
    Box b = Box::whole(dims);
    for (int a = 0; a < dims.rank(); ++a) {
      const std::size_t n = dims.extent(a);
      b.lo[a] = std::min(lo_of(n), n - 1);
      b.hi[a] = std::clamp<std::size_t>(hi_of(n), b.lo[a] + 1, n);
    }
    boxes.push_back(b);
  };
  add([](std::size_t) { return std::size_t{0}; },
      [](std::size_t) { return std::size_t{1}; });
  add([](std::size_t n) { return n - 1; }, [](std::size_t n) { return n; });
  add([&](std::size_t) { return tile - 3; },
      [&](std::size_t) { return tile + 2; });
  add([&](std::size_t n) { return (n - 1) / tile * tile; },
      [](std::size_t n) { return n; });
  add([](std::size_t n) { return n / 5; },
      [](std::size_t n) { return n - n / 7; });
  add([](std::size_t) { return std::size_t{0}; },
      [](std::size_t n) { return n; });
  return boxes;
}

template <class T>
Field<T> cut(const Field<T>& f, const std::array<std::size_t, kMaxRank>& lo,
             std::size_t step, const Dims& out_dims) {
  Field<T> out(out_dims);
  copy_box(f.data(), f.dims(), lo, step, out.data(), out_dims);
  return out;
}

template <class T>
void archive_case(const ArchiveCase& k) {
  SCOPED_TRACE(k.name);
  const Dims dims(k.rank, k.ext);
  const Field<T> f = spiky_wave<T>(dims, static_cast<unsigned>(k.rank) + 7);
  const std::vector<std::uint8_t> arc = compress(k, f, nullptr);
  EXPECT_EQ(fnv1a(arc), k.fnv) << k.name << " pinned hash; actual 0x"
                               << std::hex << fnv1a(arc);

  const Field<T> full = decode_full<T>(k, arc, nullptr);
  ASSERT_EQ(full.dims(), dims);
  for (std::size_t i = 0; i < f.size(); ++i)
    ASSERT_LE(
        std::abs(static_cast<double>(full[i]) - static_cast<double>(f[i])),
        1e-3 * (1 + 1e-9))
        << i;

  const int levels = interpolation_level_count(dims);
  const std::vector<Box> boxes = region_sweep(dims, k.tile);
  for (unsigned nw : kWorkerSweep) {
    SCOPED_TRACE(::testing::Message() << "workers=" << nw);
    ThreadPool pool(nw, /*cap_to_hardware=*/false);
    EXPECT_EQ(compress(k, f, &pool), arc) << "pooled archive diverged";
    const Field<T> pf = decode_full<T>(k, arc, &pool);
    expect_bitwise(pf.data(), full.data(), full.size(), "pooled full decode");
    for (int level = 1; level <= levels; ++level) {
      SCOPED_TRACE(::testing::Message() << "preview level=" << level);
      const Field<T> p = decode_preview<T>(k, arc, level, &pool);
      const Field<T> want =
          cut(full, {}, std::size_t{1} << (level - 1),
              DecodeRequest::preview(level).output_dims(dims));
      ASSERT_EQ(p.dims(), want.dims());
      expect_bitwise(p.data(), want.data(), want.size(), "preview");
    }
    for (const Box& b : boxes) {
      SCOPED_TRACE(::testing::Message()
                   << "region lo=" << b.lo[0] << "," << b.lo[1] << ","
                   << b.lo[2] << " hi=" << b.hi[0] << "," << b.hi[1] << ","
                   << b.hi[2]);
      const Field<T> r = decode_region<T>(k, arc, b, &pool);
      const Field<T> want =
          cut(full, b.lo, 1, DecodeRequest::region(b).output_dims(dims));
      ASSERT_EQ(r.dims(), want.dims());
      expect_bitwise(r.data(), want.data(), want.size(), "region");
    }
  }
}

class TiledArchive : public ::testing::TestWithParam<ArchiveCase> {};

TEST_P(TiledArchive, BytesPinnedAndPartialDecodesExact) {
  const ArchiveCase& k = GetParam();
  if (k.f64)
    archive_case<double>(k);
  else
    archive_case<float>(k);
}

INSTANTIATE_TEST_SUITE_P(TiledWalk, TiledArchive,
                         ::testing::ValuesIn(kArchiveCases),
                         [](const auto& info) {
                           return case_name(info.param.name);
                         });

// An SZ3+QP archive tiled at 16.
std::vector<std::uint8_t> tiled_sz3_archive(const Dims& dims) {
  const Field<float> f = spiky_wave<float>(dims, 3);
  SZ3Config cfg;
  cfg.error_bound = 1e-3;
  cfg.qp = QPConfig::best_fit();
  cfg.tile_size = 16;
  cfg.auto_fallback = false;
  return sz3_compress(f.data(), dims, cfg);
}

// `arc` re-sealed through ContainerWriter chunk by chunk: with its
// kConfig stage replaced by `config` when non-empty, and without its
// level-1 chunk of tile 0 when `drop_tile` holds.
std::vector<std::uint8_t> reseal(const std::vector<std::uint8_t>& arc,
                                 const std::vector<std::uint8_t>& config,
                                 bool drop_tile) {
  const ContainerReader in(arc);
  ContainerWriter w(in.codec(), in.dtype(), in.dims());
  for (const StageSection& sec : in.sections())
    w.stage(sec.id).put_bytes(sec.id == StageId::kConfig && !config.empty()
                                  ? std::span<const std::uint8_t>(config)
                                  : in.stage_bytes(sec.id));
  w.set_tiling(in.directory().tiling);
  for (std::size_t i = 0; i < in.chunk_count(); ++i) {
    const ChunkEntry& c = in.directory().chunks[i];
    if (drop_tile && c.level == 1 && c.tile == 0) continue;
    w.add_chunk(c.level, c.tile, c.symbol_count, c.outlier_count,
                in.chunk_bytes(i));
  }
  return w.seal();
}

Box region_2_10(const Dims& dims) {
  Box box = Box::whole(dims);
  for (int a = 0; a < dims.rank(); ++a) {
    box.lo[a] = 2;
    box.hi[a] = 10;
  }
  return box;
}

// A tiled level must list every tile. Re-sealing a genuine archive
// without its level-1 chunk of tile 0 must make the full and the region
// decode refuse it, not leave the tile's points unreconstructed.
TEST(TiledWalk, DirectoryMissingTileRefused) {
  const Dims dims{64, 64, 64};
  const std::vector<std::uint8_t> arc = tiled_sz3_archive(dims);
  // The faithful re-seal is the archive itself.
  ASSERT_EQ(reseal(arc, {}, false), arc);
  const std::vector<std::uint8_t> holed = reseal(arc, {}, true);
  EXPECT_THROW((void)sz3_decompress<float>(holed), DecodeError);
  EXPECT_THROW((void)sz3_decompress_region<float>(holed, region_2_10(dims)),
               DecodeError);
  EXPECT_THROW((void)sz3_decompress_preview<float>(holed, 2), DecodeError);
}

// The encoder never tiles a plan with a block-wise level. Re-sealing a
// tiled archive with a plan that runs level 1 in 64^3 blocks, whose
// stages outgrow a tile's, must make every decode refuse it rather than
// walk the blocks through scratch sized for tiles.
TEST(TiledWalk, TiledArchiveWithBlockwisePlanRefused) {
  const Dims dims{64, 64, 64};
  const std::vector<std::uint8_t> arc = tiled_sz3_archive(dims);
  const ContainerReader in(arc);
  ASSERT_TRUE(in.directory().tiling.tiled(1));
  ByteReader h = in.stage(StageId::kConfig);
  const InterpCommon c = load_interp_common(h);
  const auto predictor = h.get<std::uint8_t>();
  InterpPlan plan = InterpPlan::load(h);
  const std::span<const std::uint8_t> quant = h.get_bytes(h.remaining());
  plan.block_size = 64;
  plan.candidates = {plan.levels[0]};
  plan.block_choice.assign(plan.levels.size(), {0});
  plan.level_blockwise.assign(plan.levels.size(), 0);
  plan.level_blockwise[0] = 1;
  ByteWriter cw;
  save_interp_common(cw, c.error_bound, c.radius, c.qp);
  cw.put(predictor);
  plan.save(cw);
  cw.put_bytes(quant);
  const std::vector<std::uint8_t> hostile = reseal(arc, cw.bytes(), false);
  ASSERT_NE(hostile, arc);
  EXPECT_THROW((void)sz3_decompress<float>(hostile), DecodeError);
  EXPECT_THROW(
      (void)sz3_decompress_region<float>(hostile, region_2_10(dims)),
      DecodeError);
  EXPECT_THROW((void)sz3_decompress_preview<float>(hostile, 2), DecodeError);
}

// A caller that hands the engine a tiled layout with a block-wise level
// anyway gets that level on the block walker, whose compact QP codes
// span a whole block stage: the walk must give it field-sized scratch,
// not tile-sized. QP runs on the tiled levels only, so no untiled level
// asks for the field size first, and each pass runs on a fresh thread,
// whose scratch starts empty: a short buffer would be overrun (which
// ASan builds report).
TEST(TiledWalk, EngineBlockwiseTiledLevelGetsFieldScratch) {
  const Dims dims{64, 64, 64};
  const Field<float> f = spiky_wave<float>(dims, 5);
  const int levels = interpolation_level_count(dims);
  InterpPlan plan = InterpPlan::uniform(levels, LevelPlan{});
  plan.block_size = 64;
  plan.candidates = {plan.levels[0]};
  plan.block_choice.assign(plan.levels.size(), {0});
  plan.level_blockwise.assign(plan.levels.size(), 0);
  plan.level_blockwise[0] = 1;
  const TileLayout tiles = TileLayout::plan(16, dims, levels);
  const QPConfig qp = QPConfig::best_fit();
  ASSERT_TRUE(tiles.tiled(qp.max_level));

  const double eb = 1e-3;
  Field<float> recon = f.clone();
  LinearQuantizer<float> quant(eb);
  std::vector<std::uint32_t> symbols;
  std::thread([&] {
    symbols = InterpEngine<float>::encode(recon.data(), dims, plan, eb, quant,
                                          qp, false, &tiles)
                  .symbols;
  }).join();
  ByteWriter w;
  quant.save(w);
  ByteReader r(w.bytes());
  LinearQuantizer<float> dq(0.0);
  dq.load(r);
  Field<float> out(dims);
  std::thread([&] {
    InterpEngine<float>::decode(symbols, dims, plan, eb, dq, qp, out.data(),
                                &tiles);
  }).join();
  expect_bitwise(out.data(), recon.data(), f.size(), "decode");
}

}  // namespace
}  // namespace qip
