#pragma once

// The templated compress/decompress driver every codec front-end runs on,
// plus the shared stage read/write helpers of the two codec families
// (interpolation pipelines and correction-list erasure pipelines).
//
// A codec supplies a policy struct:
//
//   struct FooCodec {
//     using Config = FooConfig;           // inherits CodecOptions
//     using Artifacts = IndexArtifacts;   // or NoArtifacts
//     static constexpr CompressorId kId = CompressorId::kFoo;
//     static constexpr const char* kName = "foo";
//     template <class T>
//     static void encode(const T* data, const Dims& dims, const Config&,
//                        ContainerWriter& out, Artifacts*);
//     template <class T>
//     static void decode(const ContainerReader& in, T* out, ThreadPool*);
//   };
//
// and the driver owns the container framing, output allocation, and
// dims/dtype validation for compress / decompress / decompress_into, so
// a new codec is one policy struct plus three one-line public wrappers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compressors/core/container.hpp"
#include "compressors/core/options.hpp"
#include "compressors/interp_engine.hpp"
#include "compressors/plan.hpp"
#include "core/qp.hpp"
#include "encode/huffman.hpp"
#include "quant/quantizer.hpp"
#include "util/field.hpp"
#include "util/thread_pool.hpp"

namespace qip {

/// Artifacts type for codecs that expose none.
struct NoArtifacts {};

/// Compress `data` through `Codec`'s encode policy into a sealed
/// container.
template <class Codec, class T>
[[nodiscard]] std::vector<std::uint8_t> codec_seal(
    const T* data, const Dims& dims, const typename Codec::Config& cfg,
    typename Codec::Artifacts* artifacts = nullptr) {
  ContainerWriter out(Codec::kId, dtype_tag<T>(), dims);
  Codec::template encode<T>(data, dims, cfg, out, artifacts);
  return out.seal(cfg.pool);
}

/// Decompress a `Codec` container into a freshly allocated field.
template <class Codec, class T>
[[nodiscard]] Field<T> codec_open(std::span<const std::uint8_t> archive,
                                  ThreadPool* pool = nullptr) {
  const ContainerReader in(archive, Codec::kId, dtype_tag<T>(),
                           ContainerReader::kNoBodyCap, pool);
  Field<T> out(in.dims());
  Codec::template decode<T>(in, out.data(), pool);
  return out;
}

/// Copy-free decompress into a caller-owned buffer of shape `expect`;
/// throws DecodeError when the archive's dims disagree.
template <class Codec, class T>
void codec_open_into(std::span<const std::uint8_t> archive, T* out,
                     const Dims& expect, ThreadPool* pool = nullptr) {
  const ContainerReader in(archive, Codec::kId, dtype_tag<T>(),
                           ContainerReader::kNoBodyCap, pool);
  if (in.dims() != expect)
    throw DecodeError(std::string(Codec::kName) +
                      ": archive dims mismatch for decompress_into");
  Codec::template decode<T>(in, out, pool);
}

/// Decompress only the interpolation levels coarser than or equal to
/// `level` and return the decimated level-`level` grid (extent
/// ceil(e / 2^(level-1)) per axis). Requires a codec policy with a
/// decode_preview member (the interpolation family).
template <class Codec, class T>
[[nodiscard]] Field<T> codec_open_preview(std::span<const std::uint8_t> archive,
                                          int level,
                                          ThreadPool* pool = nullptr,
                                          PartialDecodeStats* stats = nullptr) {
  const ContainerReader in(archive, Codec::kId, dtype_tag<T>(),
                           ContainerReader::kNoBodyCap, pool);
  return Codec::template decode_preview<T>(in, level, pool, stats);
}

/// Decompress only the sub-box [box.lo, box.hi) and return it as a field
/// of the box's extents, reading only the tile chunks that cover it.
/// Requires a codec policy with a decode_region member and an archive
/// sealed with an active tile directory.
template <class Codec, class T>
[[nodiscard]] Field<T> codec_open_region(std::span<const std::uint8_t> archive,
                                         const Box& box,
                                         ThreadPool* pool = nullptr,
                                         PartialDecodeStats* stats = nullptr) {
  const ContainerReader in(archive, Codec::kId, dtype_tag<T>(),
                           ContainerReader::kNoBodyCap, pool);
  return Codec::template decode_region<T>(in, box, pool, stats);
}

// ---------------------------------------------------------------------------
// Interpolation-family stage helpers (SZ3 / QoZ / HPEZ / MGARD).

/// The common prefix of every interpolation-family config section.
struct InterpCommon {
  double error_bound = 0.0;
  std::int32_t radius = 0;
  QPConfig qp;
};

inline void save_interp_common(ByteWriter& w, double error_bound,
                               std::int32_t radius, const QPConfig& qp) {
  w.put(error_bound);
  w.put(radius);
  qp.save(w);
}

[[nodiscard]] inline InterpCommon load_interp_common(ByteReader& r) {
  InterpCommon c;
  c.error_bound = r.get<double>();
  c.radius = r.get<std::int32_t>();
  c.qp = QPConfig::load(r);
  return c;
}

/// Huffman-code each recorded symbol span into its own payload chunk.
/// Spans are natural parallel units — each gets its own histogram and
/// frame — so the encode stage finally scales with workers (see
/// docs/PERFORMANCE.md); the bytes are worker-count-independent because
/// every span is encoded in isolation either way.
inline void write_symbol_chunks(ContainerWriter& out,
                                std::span<const std::uint32_t> symbols,
                                std::span<const SymbolSpan> spans,
                                ThreadPool* pool) {
  std::vector<std::vector<std::uint8_t>> frames(spans.size());
  if (pool && spans.size() > 1) {
    pool->parallel_for(spans.size(), [&](std::size_t i) {
      const SymbolSpan& s = spans[i];
      frames[i] = huffman_encode(symbols.subspan(s.begin, s.count), nullptr);
    });
  } else {
    for (std::size_t i = 0; i < spans.size(); ++i)
      frames[i] =
          huffman_encode(symbols.subspan(spans[i].begin, spans[i].count), pool);
  }
  for (std::size_t i = 0; i < spans.size(); ++i)
    out.add_chunk(spans[i].level, spans[i].tile, spans[i].count,
                  spans[i].outlier_count, std::move(frames[i]));
}

/// Length of the chunk-list prefix that holds the levels >= `level`.
/// Chunks are ordered coarse level first, so a decode that stops at
/// `level` reads exactly this prefix.
[[nodiscard]] inline std::size_t level_prefix(const ContainerReader& in,
                                              int level) {
  const std::vector<ChunkEntry>& chunks = in.directory().chunks;
  std::size_t n = 0;
  while (n < chunks.size() && chunks[n].level >= level) ++n;
  return n;
}

/// Decode payload chunks [0, n) and concatenate their symbols in
/// directory (= traversal) order: every chunk for a full decode, a
/// coarse prefix for a preview or a region's untiled band. The
/// directory declares each chunk's symbol count, so each chunk decodes
/// into a precomputed slot and the chunks fan out over `pool`. Each
/// must decode to exactly its declared count — the guard that keeps
/// hostile directories from shifting later chunks' symbols.
[[nodiscard]] inline std::vector<std::uint32_t> read_symbols_stage(
    const ContainerReader& in, std::size_t n, ThreadPool* pool) {
  const std::vector<ChunkEntry>& chunks = in.directory().chunks;
  std::vector<std::size_t> offsets(n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chunks[i].symbol_count == 0)
      throw DecodeError("raw payload chunk in a symbol-stream archive");
    offsets[i] = total;
    total += chunks[i].symbol_count;
  }
  std::vector<std::uint32_t> symbols(total);
  auto decode_one = [&](std::size_t i, ThreadPool* p) {
    const std::vector<std::uint32_t> syms =
        huffman_decode(in.chunk_bytes(i), p);
    if (syms.size() != chunks[i].symbol_count)
      throw DecodeError("payload chunk symbol count mismatch");
    std::copy(syms.begin(), syms.end(), symbols.begin() + offsets[i]);
  };
  if (pool && n > 1) {
    pool->parallel_for(n, [&](std::size_t i) { decode_one(i, nullptr); });
  } else {
    for (std::size_t i = 0; i < n; ++i) decode_one(i, pool);
  }
  return symbols;
}

/// Store a non-progressive codec's single opaque byte stream as the one
/// payload chunk of its v3 archive (level 1, whole domain, raw).
inline void write_raw_chunk(ContainerWriter& out,
                            std::vector<std::uint8_t> bytes) {
  out.add_chunk(1, kWholeDomainTile, 0, 0, std::move(bytes));
}

/// Counterpart of write_raw_chunk().
[[nodiscard]] inline std::vector<std::uint8_t> read_raw_chunk(
    const ContainerReader& in) {
  if (in.chunk_count() != 1 || in.directory().chunks[0].symbol_count != 0)
    throw DecodeError("expected a single raw payload chunk");
  return in.chunk_bytes(0);
}

/// One interpolation encode pass over a working copy of `data`.
template <class T>
struct InterpEncoding {
  std::vector<std::uint32_t> symbols;
  LinearQuantizer<T> quant;
};

template <class T>
[[nodiscard]] InterpEncoding<T> interp_encode(
    const T* data, const Dims& dims, const InterpPlan& plan,
    double error_bound, std::int32_t radius, const QPConfig& qp,
    IndexArtifacts* artifacts, const TileLayout* tiles = nullptr,
    std::vector<SymbolSpan>* spans = nullptr, ThreadPool* pool = nullptr) {
  Field<T> work(dims, std::vector<T>(data, data + dims.size()));
  InterpEncoding<T> enc{{}, LinearQuantizer<T>(error_bound, radius)};
  auto res = InterpEngine<T>::encode(work.data(), dims, plan, error_bound,
                                     enc.quant, qp, artifacts != nullptr,
                                     tiles, spans, pool);
  enc.symbols = std::move(res.symbols);
  if (artifacts) {
    artifacts->codes = std::move(res.codes);
    artifacts->symbols_spatial = std::move(res.symbols_spatial);
  }
  return enc;
}

/// The tile layout an interpolation encode will commit for a requested
/// tile edge. Block-wise levels already reorder the traversal; stacking
/// tile order on top would change their bytes for no random-access
/// gain. Only plans that actually commit a block-wise level stay
/// untiled — carrying a block candidate table with every level decided
/// globally (HPEZ when its block tuner declines, or when a tile grid
/// was requested) tiles like any other plan.
[[nodiscard]] inline TileLayout interp_tile_layout(std::size_t tile_size,
                                                   const Dims& dims,
                                                   const InterpPlan& plan) {
  for (std::size_t l = 1; l <= plan.levels.size(); ++l)
    if (plan.blockwise(static_cast<int>(l))) return TileLayout{};
  return TileLayout::plan(tile_size, dims,
                          static_cast<int>(plan.levels.size()));
}

/// Run the full interpolation pipeline and emit the standard layout:
/// kConfig = common prefix | plan | quantizer, plus one payload chunk
/// per level span (and per tile within tiled levels when `tile_size`
/// asks for a tile grid).
template <class T>
void interp_encode_stages(ContainerWriter& out, const T* data,
                          const Dims& dims, const InterpPlan& plan,
                          double error_bound, std::int32_t radius,
                          const QPConfig& qp, ThreadPool* pool,
                          IndexArtifacts* artifacts,
                          std::size_t tile_size = 0) {
  const TileLayout tiles = interp_tile_layout(tile_size, dims, plan);
  std::vector<SymbolSpan> spans;
  const InterpEncoding<T> enc =
      interp_encode(data, dims, plan, error_bound, radius, qp, artifacts,
                    tiles.active() ? &tiles : nullptr, &spans, pool);
  ByteWriter& h = out.stage(StageId::kConfig);
  save_interp_common(h, error_bound, radius, qp);
  plan.save(h);
  enc.quant.save(h);
  out.set_tiling(tiles);
  write_symbol_chunks(out, enc.symbols, spans, pool);
}

/// The tile layout a decode must replay: the one the archive's directory
/// committed, or nullptr for an untiled archive.
[[nodiscard]] inline const TileLayout* archive_tiles(
    const ContainerReader& in) {
  return in.directory().tiling.active() ? &in.directory().tiling : nullptr;
}

/// Decode counterpart of interp_encode_stages().
template <class T>
void interp_decode_stages(const ContainerReader& in, T* out,
                          ThreadPool* pool) {
  ByteReader h = in.stage(StageId::kConfig);
  const InterpCommon c = load_interp_common(h);
  const InterpPlan plan = InterpPlan::load(h);
  LinearQuantizer<T> quant(c.error_bound);
  quant.load(h);
  const std::vector<std::uint32_t> symbols =
      read_symbols_stage(in, in.chunk_count(), pool);
  InterpEngine<T>::decode(symbols, in.dims(), plan, c.error_bound, quant,
                          c.qp, out, archive_tiles(in), /*stop_level=*/1,
                          pool);
}

/// Seal a complete standard interpolation archive for a fixed plan. Used
/// directly by tuners that size-compare fully sealed candidates (HPEZ).
template <class T>
[[nodiscard]] std::vector<std::uint8_t> interp_seal(
    CompressorId id, const T* data, const Dims& dims, const InterpPlan& plan,
    double error_bound, std::int32_t radius, const QPConfig& qp,
    ThreadPool* pool, IndexArtifacts* artifacts,
    std::size_t tile_size = 0) {
  ContainerWriter out(id, dtype_tag<T>(), dims);
  interp_encode_stages(out, data, dims, plan, error_bound, radius, qp, pool,
                       artifacts, tile_size);
  return out.seal(pool);
}

/// Report how much of the declared payload a partial decode read.
inline void record_payload_read(const ContainerReader& in,
                                PartialDecodeStats* stats) {
  if (!stats) return;
  stats->payload_bytes_read = in.payload_bytes_read();
  stats->payload_bytes_total = in.payload_bytes_declared();
}

/// Extent of the level-`level` preview grid along an axis of extent `e`.
inline std::size_t preview_extent(std::size_t e, int level) {
  return (e - 1) / (std::size_t{1} << (level - 1)) + 1;
}

/// Decimate the level-`level` grid of a full-size reconstruction into
/// its own dense field: out[c] = data[c * 2^(level-1)].
template <class T>
[[nodiscard]] Field<T> decimate_to_level(const T* data, const Dims& dims,
                                         int level) {
  const std::size_t s = std::size_t{1} << (level - 1);
  std::size_t e[kMaxRank] = {1, 1, 1, 1};
  for (int a = 0; a < dims.rank(); ++a) e[a] = preview_extent(dims.extent(a), level);
  Dims pd;
  switch (dims.rank()) {
    case 1: pd = Dims{e[0]}; break;
    case 2: pd = Dims{e[0], e[1]}; break;
    case 3: pd = Dims{e[0], e[1], e[2]}; break;
    default: pd = Dims{e[0], e[1], e[2], e[3]}; break;
  }
  Field<T> out(pd);
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < e[0]; ++c[0])
    for (c[1] = 0; c[1] < e[1]; ++c[1])
      for (c[2] = 0; c[2] < e[2]; ++c[2])
        for (c[3] = 0; c[3] < e[3]; ++c[3])
          out.data()[pd.index(c[0], c[1], c[2], c[3])] =
              data[dims.index(c[0] * s, c[1] * s, c[2] * s, c[3] * s)];
  return out;
}

/// Progressive preview for the standard interpolation pipeline: decode
/// only the payload chunks of levels >= `level` (a prefix of the chunk
/// list) and return the decimated level-`level` grid. Bit-identical to
/// decimating a full decode, because every grid point's value is final
/// the moment its own level is processed.
template <class T>
[[nodiscard]] Field<T> interp_preview_core(const ContainerReader& in,
                                           int level, ThreadPool* pool,
                                           PartialDecodeStats* stats,
                                           const InterpPlan& plan,
                                           const InterpCommon& c,
                                           LinearQuantizer<T>& quant) {
  const int level_count = static_cast<int>(plan.levels.size());
  if (level < 1 || level > level_count)
    throw DecodeError("preview level outside the archive's level range");

  const std::vector<std::uint32_t> symbols =
      read_symbols_stage(in, level_prefix(in, level), pool);
  Field<T> full(in.dims());
  InterpEngine<T>::decode(symbols, in.dims(), plan, c.error_bound, quant,
                          c.qp, full.data(), archive_tiles(in), level, pool);
  record_payload_read(in, stats);
  return decimate_to_level(full.data(), in.dims(), level);
}

/// interp_preview_core for the standard kConfig layout
/// (common | plan | quantizer).
template <class T>
[[nodiscard]] Field<T> interp_preview_stages(const ContainerReader& in,
                                             int level, ThreadPool* pool,
                                             PartialDecodeStats* stats) {
  ByteReader h = in.stage(StageId::kConfig);
  const InterpCommon c = load_interp_common(h);
  const InterpPlan plan = InterpPlan::load(h);
  LinearQuantizer<T> quant(c.error_bound);
  quant.load(h);
  return interp_preview_core(in, level, pool, stats, plan, c, quant);
}

/// Clamp and validate a region request against the archive's dims: the
/// box must be non-empty and inside the domain on every rank axis; axes
/// beyond the rank are normalized to [0, 1).
[[nodiscard]] inline Box validate_region(const Box& box, const Dims& dims) {
  Box b = box;
  for (int a = 0; a < kMaxRank; ++a) {
    if (a >= dims.rank()) {
      b.lo[a] = 0;
      b.hi[a] = 1;
      continue;
    }
    if (b.lo[a] >= b.hi[a] || b.hi[a] > dims.extent(a))
      throw DecodeError("region outside the archive's domain");
  }
  return b;
}

/// Random-access region decode for the standard interpolation pipeline:
/// decode the untiled (coarse) levels globally, then only the tile
/// chunks that intersect `box`, and crop. Byte-identical to cropping a
/// full decode because encode ran the same tile traversal under the
/// same cross-tile stencil guard. Requires an active tile directory.
template <class T>
[[nodiscard]] Field<T> interp_region_core(const ContainerReader& in,
                                          const Box& box, ThreadPool* pool,
                                          PartialDecodeStats* stats,
                                          const InterpPlan& plan,
                                          const InterpCommon& c,
                                          LinearQuantizer<T>& quant) {
  const TileLayout* tiles = archive_tiles(in);
  if (!tiles)
    throw DecodeError(
        "archive has no tile directory; re-compress with a tile size to "
        "enable region decode");
  const Dims& dims = in.dims();
  const Box b = validate_region(box, dims);

  // Coarse pass: the untiled levels are the prefix of the chunk list
  // above the tiled band; decode them, then run the level walk globally.
  const std::vector<ChunkEntry>& chunks = in.directory().chunks;
  const std::size_t first_tiled = level_prefix(in, tiles->max_level + 1);
  const std::vector<std::uint32_t> symbols =
      read_symbols_stage(in, first_tiled, pool);
  Field<T> full(dims);
  InterpEngine<T>::decode(symbols, dims, plan, c.error_bound, quant, c.qp,
                          full.data(), tiles, tiles->max_level + 1, pool);

  // Tile pass: chunks stay in (level desc, tile asc) order — the same
  // traversal a full decode runs. Within one level band the
  // intersecting tiles write disjoint point sets and read only their
  // own region plus coarser levels (already final: encode ran under the
  // cross-tile stencil guard), so the band fans out over the pool, each
  // chunk decoding through its own quantizer view seeked from the
  // directory's outlier prefix sums. The barrier between bands keeps
  // the coarse-to-fine ordering; symbol counts are validated against
  // the tile geometry inside decode_tile.
  const TileGrid grid(dims, tiles->tile_size);
  std::size_t band = first_tiled;
  while (band < chunks.size()) {
    std::size_t band_end = band;
    while (band_end < chunks.size() &&
           chunks[band_end].level == chunks[band].level)
      ++band_end;
    std::vector<std::size_t> picked;
    for (std::size_t i = band; i < band_end; ++i) {
      const ChunkEntry& ce = chunks[i];
      if (ce.tile == kWholeDomainTile || ce.symbol_count == 0)
        throw DecodeError("untiled chunk inside the tiled band");
      const Box tb = grid.box(ce.tile, dims);
      bool overlaps = true;
      for (int a = 0; a < dims.rank(); ++a)
        overlaps = overlaps && tb.lo[a] < b.hi[a] && b.lo[a] < tb.hi[a];
      if (overlaps) picked.push_back(i);
    }
    auto decode_chunk = [&](std::size_t i, ThreadPool* p) {
      const ChunkEntry& ce = chunks[i];
      const std::vector<std::uint32_t> syms =
          huffman_decode(in.chunk_bytes(i), p);
      LinearQuantizer<T> vq = LinearQuantizer<T>::view_of(quant);
      vq.set_outlier_cursor(ce.outlier_start);
      InterpEngine<T>::decode_tile(syms, dims, plan, c.error_bound, vq,
                                   c.qp, full.data(), *tiles, ce.level,
                                   grid.box(ce.tile, dims));
    };
    if (pool && picked.size() > 1) {
      pool->parallel_for(picked.size(), [&](std::size_t k) {
        decode_chunk(picked[k], nullptr);
      });
    } else {
      for (std::size_t i : picked) decode_chunk(i, pool);
    }
    band = band_end;
  }

  record_payload_read(in, stats);

  // Crop.
  std::size_t e[kMaxRank] = {1, 1, 1, 1};
  for (int a = 0; a < dims.rank(); ++a) e[a] = b.hi[a] - b.lo[a];
  Dims rd;
  switch (dims.rank()) {
    case 1: rd = Dims{e[0]}; break;
    case 2: rd = Dims{e[0], e[1]}; break;
    case 3: rd = Dims{e[0], e[1], e[2]}; break;
    default: rd = Dims{e[0], e[1], e[2], e[3]}; break;
  }
  Field<T> out(rd);
  std::array<std::size_t, kMaxRank> c2{};
  for (c2[0] = 0; c2[0] < e[0]; ++c2[0])
    for (c2[1] = 0; c2[1] < e[1]; ++c2[1])
      for (c2[2] = 0; c2[2] < e[2]; ++c2[2])
        for (c2[3] = 0; c2[3] < e[3]; ++c2[3])
          out.data()[rd.index(c2[0], c2[1], c2[2], c2[3])] =
              full.data()[dims.index(b.lo[0] + c2[0], b.lo[1] + c2[1],
                                     b.lo[2] + c2[2], b.lo[3] + c2[3])];
  return out;
}

/// interp_region_core for the standard kConfig layout.
template <class T>
[[nodiscard]] Field<T> interp_region_stages(const ContainerReader& in,
                                            const Box& box, ThreadPool* pool,
                                            PartialDecodeStats* stats) {
  ByteReader h = in.stage(StageId::kConfig);
  const InterpCommon c = load_interp_common(h);
  const InterpPlan plan = InterpPlan::load(h);
  LinearQuantizer<T> quant(c.error_bound);
  quant.load(h);
  return interp_region_core(in, box, pool, stats, plan, c, quant);
}

// ---------------------------------------------------------------------------
// Correction-list helpers (MGARD / ZFP / SPERR / TTHRESH).
//
// A correction is a sparse patch applied after the main reconstruction:
// wherever the self-decoded value misses the bound, the residual is
// quantized at half-bin width ebc and stored as (delta-coded position,
// signed bin count).

struct Correction {
  std::uint64_t delta = 0;  ///< position delta to the previous correction
  std::int64_t bins = 0;    ///< residual in units of 2*ebc
};

/// Scan `n` values against the decoder's view `dec_at(i)` and collect
/// every point whose residual exceeds `eb`.
template <class T, class DecodedAt>
[[nodiscard]] std::vector<Correction> collect_corrections(const T* data,
                                                          std::size_t n,
                                                          double eb,
                                                          double ebc,
                                                          DecodedAt&& dec_at) {
  std::vector<Correction> corrections;
  std::size_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = static_cast<double>(data[i]) - dec_at(i);
    if (std::abs(r) > eb) {
      corrections.push_back(
          {static_cast<std::uint64_t>(i - prev), std::llround(r / (2.0 * ebc))});
      prev = i;
    }
  }
  return corrections;
}

inline void write_corrections_stage(ContainerWriter& out,
                                    std::span<const Correction> corrections) {
  ByteWriter& w = out.stage(StageId::kCorrections);
  w.put_varint(corrections.size());
  for (const Correction& c : corrections) {
    w.put_varint(c.delta);
    w.put_svarint(c.bins);
  }
}

/// Apply the kCorrections stage to `out[0..n)`. `what` names the codec in
/// the out-of-range DecodeError.
template <class T>
void apply_corrections_stage(const ContainerReader& in, T* out, std::size_t n,
                             double ebc, const char* what) {
  ByteReader r = in.stage(StageId::kCorrections);
  const std::uint64_t count = r.get_varint();
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    pos += static_cast<std::size_t>(r.get_varint());
    if (pos >= n)
      throw DecodeError(std::string(what) + ": correction index out of range");
    const std::int64_t bins = r.get_svarint();
    out[pos] = static_cast<T>(static_cast<double>(out[pos]) +
                              2.0 * ebc * static_cast<double>(bins));
  }
}

}  // namespace qip
