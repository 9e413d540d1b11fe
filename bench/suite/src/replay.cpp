// The traced run's layer pass. It replays sz3_compress and sz3_decompress
// through the same public functions SZ3Codec and core/driver.hpp call,
// in the same order and with the same parallel_for fan-out, wrapping each
// layer call in a span. The replayed archive must equal sz3_compress's
// byte for byte and the replayed reconstruction sz3_decompress's bit for
// bit; a mismatch is a failed op.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "compressors/core/driver.hpp"
#include "compressors/sz3.hpp"
#include "predict/multilevel.hpp"
#include "suite.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace qip::suite {
namespace {

/// parallel_for blocks run by the level walk, and how many of them the
/// calling thread drained itself.
struct WalkBlocks {
  std::uint64_t blocks = 0;
  std::uint64_t caller = 0;

  template <class F>
  void around(ThreadPool* pool, F&& f) {
    if (!pool) return f();
    const ThreadPool::SchedulerStats a = pool->scheduler_stats();
    f();
    const ThreadPool::SchedulerStats b = pool->scheduler_stats();
    blocks += b.pf_blocks - a.pf_blocks;
    caller += b.pf_blocks_caller - a.pf_blocks_caller;
  }
};

struct Compressed {
  std::vector<std::uint8_t> archive;
  std::size_t chunks = 0;
  std::size_t frame_bytes = 0;  ///< Huffman frames before LZB framing
};

/// SZ3Codec::encode on the interpolation path, plus codec_seal.
Compressed replay_compress(const Field<float>& f, const SZ3Config& cfg,
                           WalkBlocks& wb, std::uint64_t req) {
  const Dims& dims = f.dims();
  ThreadPool* pool = cfg.pool;
  trace::Scope root("codec", "sz3_compress", 0, req, f.size() * 4);

  LevelPlan lp;
  lp.kind = cfg.kind;
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(dims), lp);
  const TileLayout tiles = interp_tile_layout(cfg.tile_size, dims, plan);
  std::vector<SymbolSpan> spans;

  Field<float> work;
  {
    trace::Scope s("codec", "input_copy", root.id(), req, f.size() * 4);
    work = Field<float>(dims, std::vector<float>(f.data(), f.data() + f.size()));
  }
  LinearQuantizer<float> quant(cfg.error_bound, cfg.radius);
  InterpEngine<float>::EncodeResult res;
  {
    trace::Scope s("interp", "encode", root.id(), req, f.size() * 4);
    wb.around(pool, [&] {
      res = InterpEngine<float>::encode(work.data(), dims, plan,
                                        cfg.error_bound, quant, cfg.qp, false,
                                        tiles.active() ? &tiles : nullptr,
                                        &spans, pool);
    });
  }

  ContainerWriter out(CompressorId::kSZ3, dtype_tag<float>(), dims);
  {
    trace::Scope s("container", "stage", root.id(), req);
    ByteWriter& h = out.stage(StageId::kConfig);
    save_interp_common(h, cfg.error_bound, cfg.radius, cfg.qp);
    h.put(static_cast<std::uint8_t>(SZ3Predictor::kInterpolation));
    plan.save(h);
    quant.save(h);
    out.set_tiling(tiles);
  }

  // write_symbol_chunks, one span per chunk.
  const std::span<const std::uint32_t> symbols = res.symbols;
  std::vector<std::vector<std::uint8_t>> frames(spans.size());
  const std::uint64_t parent = root.id();
  auto encode_one = [&](std::size_t i, ThreadPool* p) {
    const SymbolSpan& sp = spans[i];
    trace::Scope s("huffman", "encode", parent, req, sp.count * 4);
    frames[i] = huffman_encode(symbols.subspan(sp.begin, sp.count), p);
    s.bytes_out(frames[i].size());
  };
  if (pool && spans.size() > 1) {
    pool->parallel_for(spans.size(),
                       [&](std::size_t i) { encode_one(i, nullptr); });
  } else {
    for (std::size_t i = 0; i < spans.size(); ++i) encode_one(i, pool);
  }
  Compressed c;
  c.chunks = spans.size();
  {
    trace::Scope s("container", "add_chunk", root.id(), req);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      c.frame_bytes += frames[i].size();
      out.add_chunk(spans[i].level, spans[i].tile, spans[i].count,
                    spans[i].outlier_count, std::move(frames[i]));
    }
  }
  {
    trace::Scope s("container", "seal", root.id(), req, c.frame_bytes);
    c.archive = out.seal(pool);
    s.bytes_out(c.archive.size());
  }
  root.bytes_out(c.archive.size());
  return c;
}

/// codec_open + SZ3Codec::decode on the interpolation path.
Field<float> replay_decompress(std::span<const std::uint8_t> archive,
                               ThreadPool* pool, WalkBlocks& wb,
                               std::uint64_t req) {
  trace::Scope root("codec", "sz3_decompress", 0, req, archive.size());

  std::optional<ContainerReader> in;
  {
    trace::Scope s("container", "open", root.id(), req, archive.size());
    in.emplace(archive, CompressorId::kSZ3, dtype_tag<float>(),
               ContainerReader::kNoBodyCap, pool);
  }
  if (in->version() < 3)
    throw DecodeError("replay: only container v3 archives are replayed");
  Field<float> out;
  {
    trace::Scope s("codec", "output_alloc", root.id(), req);
    out = Field<float>(in->dims());
  }

  InterpCommon c;
  InterpPlan plan;
  LinearQuantizer<float> quant(1.0);
  {
    trace::Scope s("codec", "load_config", root.id(), req);
    ByteReader h = in->stage(StageId::kConfig);
    c = load_interp_common(h);
    if (static_cast<SZ3Predictor>(h.get<std::uint8_t>()) !=
        SZ3Predictor::kInterpolation)
      throw DecodeError("replay: archive took the Lorenzo fallback");
    plan = InterpPlan::load(h);
    quant.set_error_bound(c.error_bound);
    quant.load(h);
  }

  // read_symbols_stage, one lzb and one huffman span per chunk.
  const std::vector<ChunkEntry>& chunks = in->directory().chunks;
  std::vector<std::size_t> offsets(chunks.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].symbol_count == 0)
      throw DecodeError("raw payload chunk in a symbol-stream archive");
    offsets[i] = total;
    total += chunks[i].symbol_count;
  }
  std::vector<std::uint32_t> symbols;
  {
    trace::Scope s("codec", "symbols_alloc", root.id(), req);
    symbols.resize(total);
  }
  const std::uint64_t parent = root.id();
  auto decode_one = [&](std::size_t i, ThreadPool* p) {
    std::vector<std::uint8_t> frame;
    {
      trace::Scope s("lzb", "chunk_decode", parent, req, chunks[i].length);
      frame = in->chunk_bytes(i);
      s.bytes_out(frame.size());
    }
    std::vector<std::uint32_t> syms;
    {
      trace::Scope s("huffman", "decode", parent, req, frame.size());
      syms = huffman_decode(frame, p);
      s.bytes_out(syms.size() * 4);
    }
    if (syms.size() != chunks[i].symbol_count)
      throw DecodeError("payload chunk symbol count mismatch");
    trace::Scope s("codec", "symbols_copy", parent, req, syms.size() * 4);
    std::copy(syms.begin(), syms.end(), symbols.begin() + offsets[i]);
  };
  if (pool && chunks.size() > 1) {
    pool->parallel_for(chunks.size(),
                       [&](std::size_t i) { decode_one(i, nullptr); });
  } else {
    for (std::size_t i = 0; i < chunks.size(); ++i) decode_one(i, pool);
  }

  {
    trace::Scope s("interp", "decode", root.id(), req, total * 4);
    wb.around(pool, [&] {
      InterpEngine<float>::decode(symbols, in->dims(), plan, c.error_bound,
                                  quant, c.qp, out.data(), archive_tiles(*in),
                                  /*stop_level=*/1, pool);
    });
  }
  root.bytes_out(out.size() * 4);
  return out;
}

/// Case III gate pass rate on levels <= 2 and the entropies of Q and Q',
/// from one keep_codes encode.
struct QPStats {
  double gate_pass_rate = 0;
  double entropy_q = 0;
  double entropy_qprime = 0;
};

QPStats qp_stats(const Field<float>& f, const SZ3Config& cfg) {
  const Dims& dims = f.dims();
  LevelPlan lp;
  lp.kind = cfg.kind;
  const InterpPlan plan =
      InterpPlan::uniform(interpolation_level_count(dims), lp);
  const TileLayout tiles = interp_tile_layout(cfg.tile_size, dims, plan);
  Field<float> work = f.clone();
  LinearQuantizer<float> quant(cfg.error_bound, cfg.radius);
  const auto res = InterpEngine<float>::encode(
      work.data(), dims, plan, cfg.error_bound, quant, cfg.qp, true,
      tiles.active() ? &tiles : nullptr, nullptr, cfg.pool);

  // Level-1 and level-2 points are those off the stride-4 grid.
  std::size_t fine = 0, passed = 0, i = 0;
  for (std::size_t a = 0; a < dims.extent(0); ++a)
    for (std::size_t b = 0; b < dims.extent(1); ++b)
      for (std::size_t c = 0; c < dims.extent(2); ++c)
        for (std::size_t d = 0; d < dims.extent(3); ++d, ++i) {
          if (a % 4 == 0 && b % 4 == 0 && c % 4 == 0 && d % 4 == 0) continue;
          ++fine;
          const std::uint32_t code = res.codes[i];
          if (code != kUnpredictableCode &&
              res.symbols_spatial[i] !=
                  qp_encode_symbol(code, 0, quant.radius()))
            ++passed;
        }
  QPStats s;
  s.gate_pass_rate =
      fine ? static_cast<double>(passed) / static_cast<double>(fine) : 0;
  s.entropy_q = shannon_entropy(std::span<const std::uint32_t>(res.codes));
  s.entropy_qprime =
      shannon_entropy(std::span<const std::uint32_t>(res.symbols_spatial));
  return s;
}

/// Median of `field` over the given attributed requests.
template <class F>
double med(const std::vector<trace::Request>& rs, F&& field) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const trace::Request& r : rs) v.push_back(field(r));
  return median(std::move(v));
}

double layer(const trace::Request& r, const char* name) {
  const auto it = r.self_s.find(name);
  return it == r.self_s.end() ? 0.0 : it->second;
}

}  // namespace

void replay_layers(Run& run, const Field<float>& f, const SZ3Config& cfg) {
  ThreadPool* pool = cfg.pool;
  SZ3Config cfg_off = cfg;
  cfg_off.qp = QPConfig{};
  const double points = static_cast<double>(f.size());

  // Memory first, on a quiet heap: VmHWM of one real call of each kind.
  reset_peak_rss();
  const std::vector<std::uint8_t> arc_on = sz3_compress(f.data(), f.dims(), cfg);
  run.metric("mem.compress_peak_MB", peak_rss_mb(), "MB");
  reset_peak_rss();
  const Field<float> dec_on = sz3_decompress<float>(arc_on, pool);
  run.metric("mem.decompress_peak_MB", peak_rss_mb(), "MB");
  run.check(within_bound(f, dec_on, cfg.error_bound),
            "decode outside the error bound");
  const std::vector<std::uint8_t> arc_off =
      sz3_compress(f.data(), f.dims(), cfg_off);
  const Field<float> dec_off = sz3_decompress<float>(arc_off, pool);

  // Each round times the real calls, the traced replays with QP on, the
  // same replays with recording switched off (the tracing overhead's
  // base), and the traced replays with QP off. Every output is checked
  // and freed before the next step, so each step allocates alike.
  std::vector<double> real_c, real_d, traced_c, traced_d, plain_c, plain_d;
  std::vector<std::uint64_t> req_c_on, req_c_off, req_d_on, req_d_off;
  WalkBlocks wb, wb_off, wb_plain;
  std::size_t chunks = 0, frame_bytes = 0;
  auto timed_compress = [&](std::vector<double>* times, const char* what,
                            auto&& op, const std::vector<std::uint8_t>& want) {
    const auto t = std::chrono::steady_clock::now();
    const std::vector<std::uint8_t> arc = op();
    if (times) times->push_back(seconds_since(t));
    run.check(arc == want, what);
  };
  auto timed_decompress = [&](std::vector<double>* times, const char* what,
                              auto&& op, const Field<float>& want) {
    const auto t = std::chrono::steady_clock::now();
    const Field<float> dec = op();
    if (times) times->push_back(seconds_since(t));
    run.check(bit_equal(dec, want), what);
  };
  const double budget = run.opt.seconds - run.loop_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  while (real_c.size() < 3 || seconds_since(t0) < budget) {
    try {
      timed_compress(&real_c, "sz3_compress is not deterministic",
                     [&] { return sz3_compress(f.data(), f.dims(), cfg); },
                     arc_on);
      req_c_on.push_back(trace::new_request());
      timed_compress(&traced_c, "replayed archive differs from sz3_compress",
                     [&] {
                       Compressed c = replay_compress(f, cfg, wb, req_c_on.back());
                       chunks = c.chunks;
                       frame_bytes = c.frame_bytes;
                       return std::move(c.archive);
                     },
                     arc_on);
      trace::enable(false);
      timed_compress(&plain_c, "untraced replay differs from sz3_compress",
                     [&] { return replay_compress(f, cfg, wb_plain, 0).archive; },
                     arc_on);
      trace::enable(true);
      req_c_off.push_back(trace::new_request());
      timed_compress(nullptr, "QP-off replay differs from sz3_compress",
                     [&] {
                       return replay_compress(f, cfg_off, wb_off, req_c_off.back())
                           .archive;
                     },
                     arc_off);

      timed_decompress(&real_d, "sz3_decompress is not deterministic",
                       [&] { return sz3_decompress<float>(arc_on, pool); },
                       dec_on);
      req_d_on.push_back(trace::new_request());
      timed_decompress(
          &traced_d, "replayed reconstruction differs from sz3_decompress",
          [&] { return replay_decompress(arc_on, pool, wb, req_d_on.back()); },
          dec_on);
      trace::enable(false);
      timed_decompress(&plain_d, "untraced replay differs from sz3_decompress",
                       [&] { return replay_decompress(arc_on, pool, wb_plain, 0); },
                       dec_on);
      trace::enable(true);
      req_d_off.push_back(trace::new_request());
      timed_decompress(
          nullptr, "QP-off replay differs from sz3_decompress",
          [&] {
            return replay_decompress(arc_off, pool, wb_off, req_d_off.back());
          },
          dec_off);
    } catch (const std::exception& e) {
      trace::enable(true);
      run.fail(std::string("replay: ") + e.what());
      break;
    }
  }

  const std::vector<trace::Span> spans = trace::collect();
  std::filesystem::create_directories(run.opt.trace_dir);
  trace::write_jsonl(run.opt.trace_dir + "/" + run.opt.workload + "-seed" +
                         std::to_string(run.opt.seed) + ".jsonl",
                     spans);
  const auto attributed = trace::attribute(spans);
  auto pick = [&](const std::vector<std::uint64_t>& ids) {
    std::vector<trace::Request> rs;
    for (std::uint64_t id : ids) {
      const auto it = attributed.find(id);
      if (it != attributed.end()) rs.push_back(it->second);
    }
    return rs;
  };
  const auto c_on = pick(req_c_on), c_off = pick(req_c_off);
  const auto d_on = pick(req_d_on), d_off = pick(req_d_off);
  const std::size_t n = c_on.size();
  auto self = [](const char* l) {
    return [l](const trace::Request& r) { return layer(r, l); };
  };
  const auto covered = [](const trace::Request& r) { return r.attributed_s; };

  const double enc = med(c_on, self("interp"));
  const double dec = med(d_on, self("interp"));
  run.metric("interp.encode_s", enc, "s", n);
  run.metric("interp.decode_s", dec, "s", n);
  run.metric("interp.encode_ns_per_point", enc / points * 1e9, "ns", n);
  run.metric("interp.decode_ns_per_point", dec / points * 1e9, "ns", n);
  run.metric("interp.caller_drain_share",
             wb.blocks ? static_cast<double>(wb.caller) /
                             static_cast<double>(wb.blocks)
                       : 1.0,
             "fraction", wb.blocks);

  run.metric("qp.encode_extra_s", enc - med(c_off, self("interp")), "s", n);
  run.metric("qp.decode_extra_s", dec - med(d_off, self("interp")), "s", n);
  const QPStats qs = qp_stats(f, cfg);
  run.metric("qp.gate_pass_rate", qs.gate_pass_rate, "fraction");
  run.metric("qp.entropy_Q_bits", qs.entropy_q, "bits");
  run.metric("qp.entropy_Qprime_bits", qs.entropy_qprime, "bits");
  run.metric("qp.cr_gain_pct",
             (static_cast<double>(arc_off.size()) /
                  static_cast<double>(arc_on.size()) -
              1.0) * 100.0,
             "%");

  run.metric("huffman.encode_s", med(c_on, self("huffman")), "s", n);
  run.metric("huffman.decode_s", med(d_on, self("huffman")), "s", n);
  run.metric("huffman.chunks", static_cast<double>(chunks), "count");
  run.metric("huffman.bytes", static_cast<double>(frame_bytes), "bytes");

  run.metric("container.seal_s", med(c_on, self("container")), "s", n);
  run.metric("container.open_s", med(d_on, self("container")), "s", n);
  run.metric("lzb.chunk_decode_s", med(d_on, self("lzb")), "s", n);

  const double rc = median(real_c), rd = median(real_d);
  run.metric("codec.compress_residual_s", rc - med(c_on, covered), "s", n);
  run.metric("codec.decompress_residual_s", rd - med(d_on, covered), "s", n);
  run.metric("trace.coverage_compress", med(c_on, covered) / rc, "fraction",
             n);
  run.metric("trace.coverage_decompress", med(d_on, covered) / rd,
             "fraction", n);
  run.metric("trace.overhead_frac",
             (median(traced_c) + median(traced_d)) /
                     (median(plain_c) + median(plain_d)) -
                 1.0,
             "fraction", n);

  // Partial reads: payload share a region or preview touches on the tiled
  // form of the same field (the workload's own archive when it is tiled).
  SZ3Config tcfg = cfg;
  tcfg.tile_size = run.opt.smoke ? 16 : 64;
  tcfg.auto_fallback = false;
  const std::vector<std::uint8_t> tiled =
      tcfg.tile_size == cfg.tile_size && !cfg.auto_fallback
          ? arc_on
          : sz3_compress(f.data(), f.dims(), tcfg);
  std::mt19937_64 rng(run.opt.seed);
  double region = 0, preview = 0;
  constexpr std::size_t kRegions = 8;
  for (std::size_t k = 0; k < kRegions; ++k) {
    PartialDecodeStats st;
    (void)sz3_decompress_region<float>(tiled, region_box(rng, f.dims(), k),
                                       pool, &st);
    region += static_cast<double>(st.payload_bytes_read) /
              static_cast<double>(st.payload_bytes_total);
  }
  for (int level = 2; level <= 4; ++level) {
    PartialDecodeStats st;
    (void)sz3_decompress_preview<float>(tiled, level, pool, &st);
    preview += static_cast<double>(st.payload_bytes_read) /
               static_cast<double>(st.payload_bytes_total);
  }
  run.metric("container.region_payload_frac", region / kRegions, "fraction",
             kRegions);
  run.metric("container.preview_payload_frac", preview / 3, "fraction", 3);
}

}  // namespace qip::suite
