#pragma once

// The templated compress/decode driver every codec front-end runs on,
// plus the shared stage read/write helpers of the two codec families
// (interpolation pipelines and correction-list erasure pipelines).
//
// A codec supplies a policy struct:
//
//   struct FooCodec {
//     using Config = FooConfig;           // inherits CodecOptions
//     using Artifacts = IndexArtifacts;   // or NoArtifacts
//     static constexpr CompressorId kId = CompressorId::kFoo;
//     static constexpr const char* kName = "Foo";
//     static constexpr CodecTraits kTraits{.preview = true};
//     template <class T>
//     static void encode(const T* data, const Dims& dims, const Config&,
//                        ContainerWriter& out, Artifacts*);
//     template <class T>
//     static void decode(const ContainerReader& in, const DecodeRequest&,
//                        T* out, ThreadPool*, PartialDecodeStats*);
//   };
//
// and the driver owns the container framing, the request checks and the
// output shape for compress (codec_seal) and every decode (codec_decode),
// so a new codec is one policy struct, its one-line public wrappers, and
// codec_entry<FooCodec>() for the registry.

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
#include "compressors/registry.hpp"
#include "core/qp.hpp"
#include "encode/huffman.hpp"
#include "quant/quantizer.hpp"
#include "util/field.hpp"
#include "util/thread_pool.hpp"

namespace qip {

/// Artifacts type for codecs that expose none.
struct NoArtifacts {};

/// What a codec policy is, for its registry entry, and which request
/// kinds it serves beyond DecodeRequest::Kind::kFull.
struct CodecTraits {
  bool interpolation = false;  ///< member of the interpolation family
  bool qp = false;             ///< QP hook available
  bool preview = false;        ///< serves kPreview
  bool region = false;         ///< serves kRegion
};

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

/// Decode `req` from a `Codec` archive into the caller's `out`, which
/// must have shape req.output_dims(archive dims). A kind the policy does
/// not serve is refused with UnknownCodecError before the archive is
/// parsed; a wrong `out_dims` throws DecodeError.
template <class Codec, class T>
void codec_decode(std::span<const std::uint8_t> archive,
                  const DecodeRequest& req, T* out, const Dims& out_dims,
                  ThreadPool* pool = nullptr,
                  PartialDecodeStats* stats = nullptr) {
  require_served(req.kind, Codec::kName, Codec::kTraits.preview,
                 Codec::kTraits.region);
  const ContainerReader in(archive, Codec::kId, dtype_tag<T>(),
                           ContainerReader::kNoBodyCap, pool);
  if (req.output_dims(in.dims()) != out_dims)
    throw DecodeError(std::string(Codec::kName) +
                      ": output dims mismatch for the decode request");
  Codec::template decode<T>(in, req, out, pool, stats);
}

/// codec_decode into a freshly allocated field of the request's shape.
template <class Codec, class T>
[[nodiscard]] Field<T> codec_decode(std::span<const std::uint8_t> archive,
                                    const DecodeRequest& req,
                                    ThreadPool* pool = nullptr,
                                    PartialDecodeStats* stats = nullptr) {
  require_served(req.kind, Codec::kName, Codec::kTraits.preview,
                 Codec::kTraits.region);
  Field<T> out(req.output_dims(inspect_container(archive).dims));
  codec_decode<Codec, T>(archive, req, out.data(), out.dims(), pool, stats);
  return out;
}

/// The registry entry of a codec policy: its name, id and traits, and
/// its compress and decode per dtype. The native config starts from its
/// own defaults and adopts the caller's common CodecOptions wholesale;
/// codecs that ignore a field (ZFP and QP, say) never read it.
template <class Codec>
[[nodiscard]] CompressorEntry codec_entry() {
  CompressorEntry e;
  e.name = Codec::kName;
  e.id = Codec::kId;
  e.interpolation = Codec::kTraits.interpolation;
  e.supports_qp = Codec::kTraits.qp;
  e.supports_preview = Codec::kTraits.preview;
  e.supports_region = Codec::kTraits.region;
  auto compress = [](const auto* d, const Dims& dims,
                     const GenericOptions& o) {
    typename Codec::Config c;
    static_cast<CodecOptions&>(c) = o;
    return codec_seal<Codec>(d, dims, c);
  };
  e.compress_f32 = compress;
  e.compress_f64 = compress;
  e.decode_f32 = [](auto... a) { codec_decode<Codec, float>(a...); };
  e.decode_f64 = [](auto... a) { codec_decode<Codec, double>(a...); };
  return e;
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
/// hostile directories from shifting later chunks' symbols. A tile
/// chunk may declare 0: the directory parser admits that exactly for a
/// tile with no point at its level, whose empty frame decodes to no
/// symbols. A whole-domain chunk of count 0 is a raw chunk.
[[nodiscard]] inline std::vector<std::uint32_t> read_symbols_stage(
    const ContainerReader& in, std::size_t n, ThreadPool* pool) {
  const std::vector<ChunkEntry>& chunks = in.directory().chunks;
  std::vector<std::size_t> offsets(n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chunks[i].symbol_count == 0 && chunks[i].tile == kWholeDomainTile)
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
  if (plan.any_blockwise()) return TileLayout{};
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

/// Decimate the level-`level` grid of a full-size reconstruction into
/// its own dense field: out[c] = data[c * 2^(level-1)].
template <class T>
[[nodiscard]] Field<T> decimate_to_level(const T* data, const Dims& dims,
                                         int level) {
  Field<T> out(DecodeRequest::preview(level).output_dims(dims));
  copy_box(data, dims, {}, std::size_t{1} << (level - 1), out.data(),
           out.dims());
  return out;
}

/// Report a partial request's payload share and decode scratch in
/// `stats`; a full decode reports nothing.
inline void report_partial(const ContainerReader& in, const DecodeRequest& req,
                           PartialDecodeStats* stats,
                           std::size_t scratch_elems = 0) {
  if (!stats || req.kind == DecodeRequest::Kind::kFull) return;
  stats->payload_bytes_read = in.payload_bytes_read();
  stats->payload_bytes_total = in.payload_bytes_declared();
  stats->scratch_elems = scratch_elems;
}

/// A region's tile pass: decode the tile chunks from `first_tiled` on
/// that intersect `b` into `sub`, the sub-field `sub_box` of the archive
/// whose known grid is already in place. Chunks stay in (level desc,
/// tile asc) order — the same traversal a full decode runs. Within one
/// level band the intersecting tiles write disjoint point sets and read
/// only their own region plus the known grid (encode ran under the
/// cross-tile stencil guard), so the band fans out over the pool, each
/// chunk decoding through its own quantizer view seeked from the
/// directory's outlier prefix sums. The barrier between bands keeps the
/// coarse-to-fine ordering; symbol counts are validated against the
/// tile geometry inside decode_tile.
template <class T>
void decode_region_tiles(const ContainerReader& in, const Box& b,
                         const Box& sub_box, const Dims& sub_dims,
                         std::size_t first_tiled, ThreadPool* pool,
                         const InterpPlan& plan, const InterpCommon& c,
                         const LinearQuantizer<T>& quant, T* sub) {
  const Dims& dims = in.dims();
  const TileLayout& tiles = in.directory().tiling;
  const std::vector<ChunkEntry>& chunks = in.directory().chunks;
  const TileGrid grid(dims, tiles.tile_size);
  const std::size_t codes_need =
      InterpEngine<T>::tile_codes_needed(dims, plan, c.qp, tiles, 1);
  std::size_t band = first_tiled;
  while (band < chunks.size()) {
    std::size_t band_end = band;
    while (band_end < chunks.size() &&
           chunks[band_end].level == chunks[band].level)
      ++band_end;
    std::vector<std::size_t> picked;
    for (std::size_t i = band; i < band_end; ++i) {
      const ChunkEntry& ce = chunks[i];
      if (ce.tile == kWholeDomainTile)
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
      Box tb = grid.box(ce.tile, dims);
      for (int a = 0; a < dims.rank(); ++a) {
        tb.lo[a] -= sub_box.lo[a];
        tb.hi[a] -= sub_box.lo[a];
      }
      InterpEngine<T>::decode_tile(syms, sub_dims, plan, c.error_bound, vq,
                                   c.qp, sub, tiles, ce.level, tb, codes_need);
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
}

/// A region decode in buffers the size of the request, returning the
/// elements they hold. The untiled band decodes on its K-lattice (K =
/// the known stride; 1/K^rank of the field). Its points are copied into
/// the sub-field B: the hull of the tiles the box meets, widened by K
/// (K+1 on the high side) and clipped to the domain. The tile pass runs
/// in B, which is then cropped into `out`. B suffices: a tiled stencil
/// reaches at most 3 * 2^(max_level-1) = 1.5K and leaves its tile only
/// for known-grid points, so the farthest point it reads lies K outside
/// the tile. B.lo is a multiple of K, so every boundary and known-grid
/// test answers alike in B's coordinates and the field's, and
/// decode_tile runs unchanged on (B, tile box - B.lo).
template <class T>
[[nodiscard]] std::size_t decode_region(const ContainerReader& in,
                                        const Box& b, ThreadPool* pool,
                                        const InterpPlan& plan,
                                        const InterpCommon& c,
                                        LinearQuantizer<T>& quant, T* out) {
  const Dims& dims = in.dims();
  const TileLayout& tiles = in.directory().tiling;
  const int stop = tiles.max_level + 1;
  const std::size_t K = tiles.known_stride();
  const std::size_t prefix = level_prefix(in, stop);
  Field<T> known(DecodeRequest::preview(stop).output_dims(dims));
  InterpEngine<T>::decode(read_symbols_stage(in, prefix, pool), dims, plan,
                          c.error_bound, quant, c.qp, known.data(), &tiles,
                          stop, pool);

  const std::size_t t = tiles.tile_size;
  Box sub_box;
  std::array<std::size_t, kMaxRank> ext{1, 1, 1, 1};
  std::array<std::size_t, kMaxRank> klo{}, kn{1, 1, 1, 1};
  for (int a = 0; a < dims.rank(); ++a) {
    const std::size_t lo = b.lo[a] / t * t;
    const std::size_t hi = std::min((b.hi[a] + t - 1) / t * t, dims.extent(a));
    sub_box.lo[a] = lo - std::min(lo, K);
    sub_box.hi[a] = std::min(hi + K + 1, dims.extent(a));
    ext[a] = sub_box.hi[a] - sub_box.lo[a];
    klo[a] = sub_box.lo[a] / K;
    kn[a] = (sub_box.hi[a] - 1) / K - klo[a] + 1;
  }
  Field<T> sub(Dims(dims.rank(), ext));
  const Dims& sd = sub.dims();
  const Dims& kd = known.dims();
  std::array<std::size_t, kMaxRank> q{};
  for (q[0] = 0; q[0] < kn[0]; ++q[0])
    for (q[1] = 0; q[1] < kn[1]; ++q[1])
      for (q[2] = 0; q[2] < kn[2]; ++q[2])
        for (q[3] = 0; q[3] < kn[3]; ++q[3])
          sub[sd.index(q[0] * K, q[1] * K, q[2] * K, q[3] * K)] =
              known[kd.index(klo[0] + q[0], klo[1] + q[1], klo[2] + q[2],
                             klo[3] + q[3])];
  decode_region_tiles(in, b, sub_box, sd, prefix, pool, plan, c, quant,
                      sub.data());

  std::array<std::size_t, kMaxRank> at{};
  for (int a = 0; a < dims.rank(); ++a) at[a] = b.lo[a] - sub_box.lo[a];
  copy_box(sub.data(), sd, at, 1, out,
           DecodeRequest::region(b).output_dims(dims));
  return known.size() + sub.size();
}

/// The standard interpolation decode, for every request kind, each in
/// buffers the size of the request. A full decode walks every level
/// into `out`; a preview walks the levels down to its own on the
/// level-L lattice, which is `out` itself; a region runs decode_region.
/// Each reads only the coarse chunk prefix (and a region's tiles) it
/// needs. Preview and region are bit-identical to decimating or cropping
/// a full decode: a grid point is final once its own level is walked,
/// and encode ran the tile traversal under the same cross-tile stencil
/// guard.
template <class T>
void interp_decode(const ContainerReader& in, const DecodeRequest& req,
                   T* out, ThreadPool* pool, PartialDecodeStats* stats,
                   const InterpPlan& plan, const InterpCommon& c,
                   LinearQuantizer<T>& quant) {
  const TileLayout* tiles = archive_tiles(in);
  // The encoder tiles no block-wise plan (interp_tile_layout).
  if (tiles && plan.any_blockwise())
    throw DecodeError("tiled archive with a block-wise plan");
  std::size_t scratch = 0;
  if (req.kind == DecodeRequest::Kind::kRegion) {
    if (!tiles)
      throw DecodeError(
          "archive has no tile directory; re-compress with a tile size to "
          "enable region decode");
    scratch = decode_region(in, validate_region(req.box, in.dims()), pool,
                            plan, c, quant, out);
  } else {
    int stop = 1;
    if (req.kind == DecodeRequest::Kind::kPreview) {
      if (req.level > static_cast<int>(plan.levels.size()))
        throw DecodeError("preview level outside the archive's level range");
      stop = req.level;
    }
    InterpEngine<T>::decode(read_symbols_stage(in, level_prefix(in, stop), pool),
                            in.dims(), plan, c.error_bound, quant, c.qp, out,
                            tiles, stop, pool);
  }
  report_partial(in, req, stats, scratch);
}

/// interp_decode for the standard kConfig layout
/// (common | plan | quantizer) that interp_encode_stages() writes.
template <class T>
void interp_decode_stages(const ContainerReader& in, const DecodeRequest& req,
                          T* out, ThreadPool* pool,
                          PartialDecodeStats* stats) {
  ByteReader h = in.stage(StageId::kConfig);
  const InterpCommon c = load_interp_common(h);
  const InterpPlan plan = InterpPlan::load(h);
  LinearQuantizer<T> quant(c.error_bound);
  quant.load(h);
  interp_decode(in, req, out, pool, stats, plan, c, quant);
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
