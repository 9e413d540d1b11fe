// The four workloads. Each runs in its own process, loads its cached
// inputs, sets up (timed, three times), then drives the library's public
// entry points in a closed or open loop for the run's measured time,
// checking every output.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "compressors/core/driver.hpp"
#include "compressors/registry.hpp"
#include "compressors/sz3.hpp"
#include "parallel/chunked.hpp"
#include "serve/service.hpp"
#include "suite.hpp"
#include "trace.hpp"
#include "util/field_io.hpp"

namespace qip::suite {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kRelEb = 1e-3;        // archive, tiled and serve workloads
constexpr double kMatrixRelEb = 1e-4;  // the Fig. 16/17 matrix

/// Field edge: the workload's own, or at most 48 in smoke runs (the
/// smallest Miranda edge on which SZ3's sampler keeps the interpolation
/// path at rel 1e-3, which the replay needs).
std::size_t edge(const Run& run, std::size_t n) {
  return run.opt.smoke ? std::min<std::size_t>(n, 48) : n;
}

/// Time one op at reference host speed, with a reference pass right
/// before it. An exception counts the op as failed and yields nullopt; a
/// returned time still needs its output checked with run.check().
template <class F>
std::optional<double> timed(Run& run, const char* name, F&& op) {
  const double slowdown = run.reference();
  trace::Scope span("request", name, 0, trace::new_request());
  const auto t0 = Clock::now();
  try {
    op();
  } catch (const std::exception& e) {
    run.fail(std::string(name) + ": " + e.what());
    return std::nullopt;
  }
  return at_reference_speed(seconds_since(t0), slowdown);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::vector<double> joined(std::vector<double> a, const std::vector<double>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// request_p50_ms and request_tail_ms (the workload's fixed tail
/// percentile, chosen so a full run has at least ten samples beyond it).
void report_requests(const Run& run, const std::vector<double>& lat_s,
                     double tail_pct) {
  run.metric("request_p50_ms", median(lat_s) * 1e3, "ms", lat_s.size());
  run.metric("request_tail_ms", percentile(lat_s, tail_pct) * 1e3, "ms",
             lat_s.size());
  run.metric("request_tail_pct", tail_pct, "%");
  run.metric("request_tail_beyond",
             static_cast<double>(samples_beyond(lat_s.size(), tail_pct)),
             "count");
}

void report_rss(const Run& run) {
  run.metric("peak_rss_MB", peak_rss_mb(), "MB");
}

/// The two SZ3 workloads' state: the cached field, a 4-worker pool, the
/// config, its archive and the archive's full decode.
struct SZ3State {
  Field<float> f;
  std::unique_ptr<ThreadPool> pool;
  SZ3Config cfg;
  std::vector<std::uint8_t> arc;
  Field<float> ref;  ///< full decode of `arc`
};

SZ3State sz3_setup(const std::string& path, std::size_t tile) {
  SZ3State st;
  st.f = read_qfld<float>(path);
  st.pool = std::make_unique<ThreadPool>(kWorkers);
  st.cfg.error_bound = abs_bound(st.f, kRelEb);
  st.cfg.qp = QPConfig::best_fit();
  st.cfg.pool = st.pool.get();
  if (tile) {
    st.cfg.tile_size = tile;
    st.cfg.auto_fallback = false;
  }
  st.arc = sz3_compress(st.f.data(), st.f.dims(), st.cfg);
  st.ref = sz3_decompress<float>(st.arc, st.pool.get());
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// archive-qp: SZ3 + best-fit QP on one large field, untiled, 4 workers;
// closed loop of compress -> decompress.

void run_archive_qp(Run& run) {
  run.wide_pass = true;  // the parallel level walk keeps the pool busy
  const std::size_t n = edge(run, 256);
  const std::string path =
      cached_input<float>(run, DatasetId::kMiranda, Dims{n, n, n});
  SZ3State s = timed_setup(run, [&] { return sz3_setup(path, 0); });
  run.check(within_bound(s.f, s.ref, s.cfg.error_bound),
            "setup decode outside the error bound");

  const double bytes = static_cast<double>(s.f.size() * sizeof(float));
  std::vector<double> tc, td;
  s.pool->reset_scheduler_stats();
  const auto t0 = Clock::now();
  while (run.keep_going(t0, tc.size(), 3)) {
    std::vector<std::uint8_t> arc;
    const auto c = timed(run, "sz3_compress", [&] {
      arc = sz3_compress(s.f.data(), s.f.dims(), s.cfg);
    });
    if (!c) continue;
    tc.push_back(*c);
    run.check(arc == s.arc, "archive differs from the setup archive");
    Field<float> dec;
    const auto d = timed(run, "sz3_decompress", [&] {
      dec = sz3_decompress<float>(arc, s.pool.get());
    });
    if (!d) continue;
    td.push_back(*d);
    run.check(within_bound(s.f, dec, s.cfg.error_bound),
              "decode outside the error bound");
  }

  if (run.traced()) {
    report_pool(run, s.pool->scheduler_stats(), tc.size() + td.size());
    replay_layers(run, s.f, s.cfg);
    return;
  }
  run.metric("compress_MBps", bytes / median(tc) / 1e6, "MB/s", tc.size());
  run.metric("decompress_MBps", bytes / median(td) / 1e6, "MB/s", td.size());
  const std::vector<double> all = joined(tc, td);
  report_requests(run, all, 85);
  run.metric("requests_per_s", static_cast<double>(all.size()) / sum(all),
             "1/s", all.size());
  run.metric("cr", bytes / static_cast<double>(s.arc.size()), "ratio");
  report_rss(run);
  run.text("archive_fnv", hex(fnv1a(s.arc)));
}

// ---------------------------------------------------------------------------
// tiled-region: the same field and codec with a tile directory; rounds of
// (tiled compress, full decompress, 12 region + 4 preview reads).

void run_tiled_region(Run& run) {
  // One-thread reference passes: tiled levels run on the per-point
  // walker and the reads are small, so the pool is mostly idle.
  const std::size_t n = edge(run, 256);
  const std::size_t tile = run.opt.smoke ? 16 : 64;
  const std::string path =
      cached_input<float>(run, DatasetId::kMiranda, Dims{n, n, n});
  SZ3State s = timed_setup(run, [&] {
    SZ3State st = sz3_setup(path, tile);
    (void)sz3_decompress_region<float>(st.arc, Box::whole(st.f.dims()),
                                       st.pool.get());
    (void)sz3_decompress_preview<float>(st.arc, 2, st.pool.get());
    return st;
  });
  run.check(within_bound(s.f, s.ref, s.cfg.error_bound),
            "setup decode outside the error bound");

  const double bytes = static_cast<double>(s.f.size() * sizeof(float));
  const Dims& dims = s.f.dims();
  ThreadPool* pool = s.pool.get();
  std::mt19937_64 rng(run.opt.seed);
  std::vector<double> tc, td, region, preview;
  std::size_t nregion = 0, npreview = 0;
  s.pool->reset_scheduler_stats();
  const auto t0 = Clock::now();
  while (run.keep_going(t0, tc.size(), 2)) {
    std::vector<std::uint8_t> arc;
    if (const auto c = timed(run, "sz3_compress", [&] {
          arc = sz3_compress(s.f.data(), dims, s.cfg);
        })) {
      tc.push_back(*c);
      run.check(arc == s.arc, "archive differs from the setup archive");
    }
    Field<float> dec;
    if (const auto d = timed(run, "sz3_decompress", [&] {
          dec = sz3_decompress<float>(s.arc, pool);
        })) {
      td.push_back(*d);
      run.check(bit_equal(dec, s.ref), "full decode differs from setup");
    }
    for (int k = 0; k < 16; ++k) {
      Field<float> out;
      if (k % 4 == 3) {
        const int level = preview_level(npreview++);
        if (const auto t = timed(run, "sz3_decompress_preview", [&] {
              out = sz3_decompress_preview<float>(s.arc, level, pool);
            })) {
          preview.push_back(*t);
          run.check(bit_equal(out, decimate_to_level(s.ref.data(), dims,
                                                     level)),
                    "preview differs from the decimated full decode");
        }
      } else {
        const Box box = region_box(rng, dims, nregion++);
        if (const auto t = timed(run, "sz3_decompress_region", [&] {
              out = sz3_decompress_region<float>(s.arc, box, pool);
            })) {
          region.push_back(*t);
          run.check(bit_equal(out, crop(s.ref, box)),
                    "region differs from the cropped full decode");
        }
      }
    }
  }

  if (run.traced()) {
    report_pool(run, s.pool->scheduler_stats(),
                tc.size() + td.size() + region.size() + preview.size());
    replay_layers(run, s.f, s.cfg);
    return;
  }
  run.metric("compress_MBps", bytes / median(tc) / 1e6, "MB/s", tc.size());
  run.metric("decompress_MBps", bytes / median(td) / 1e6, "MB/s", td.size());
  const std::vector<double> reads = joined(region, preview);
  report_requests(run, reads, 90);
  run.metric("requests_per_s", static_cast<double>(reads.size()) / sum(reads),
             "1/s", reads.size());
  run.metric("cr", bytes / static_cast<double>(s.arc.size()), "ratio");
  report_rss(run);
  run.metric("region_p50_ms", median(region) * 1e3, "ms", region.size());
  run.metric("region_p90_ms", percentile(region, 90) * 1e3, "ms",
             region.size());
  run.metric("preview_p50_ms", median(preview) * 1e3, "ms", preview.size());
  run.text("archive_fnv", hex(fnv1a(s.arc)));
}

// ---------------------------------------------------------------------------
// qp-matrix: {MGARD, SZ3, QoZ, HPEZ} x {QP off, on} x {Miranda f32, S3D
// f64} through the registry, 1 worker; rounds of all 16 configs in a
// seeded order.

namespace {

struct MatrixConfig {
  const CompressorEntry* codec = nullptr;
  bool qp = false;
  bool f64 = false;
  std::vector<double> tc, td;
  std::size_t archive_bytes = 0;
  std::uint64_t archive_fnv = 0;
};

struct MatrixState {
  Field<float> f32;
  Field<double> f64;
  double eb32 = 0, eb64 = 0;
};

}  // namespace

void run_qp_matrix(Run& run) {
  const std::size_t n32 = edge(run, 128), n64 = edge(run, 96);
  const std::string p32 =
      cached_input<float>(run, DatasetId::kMiranda, Dims{n32, n32, n32});
  const std::string p64 =
      cached_input<double>(run, DatasetId::kS3D, Dims{n64, n64, n64});
  const MatrixState s = timed_setup(run, [&] {
    MatrixState st;
    st.f32 = read_qfld<float>(p32);
    st.f64 = read_qfld<double>(p64);
    st.eb32 = abs_bound(st.f32, kMatrixRelEb);
    st.eb64 = abs_bound(st.f64, kMatrixRelEb);
    GenericOptions o;
    o.error_bound = st.eb32;
    const CompressorEntry& sz3 = find_compressor("SZ3");
    (void)sz3.decompress_f32(sz3.compress_f32(st.f32.data(), st.f32.dims(), o));
    return st;
  });

  std::vector<MatrixConfig> cfgs;
  for (const CompressorEntry* e : qp_base_compressors())
    for (bool qp : {false, true})
      for (bool f64 : {false, true}) cfgs.push_back({e, qp, f64, {}, {}, 0, 0});
  const double bytes32 = static_cast<double>(s.f32.size() * sizeof(float));
  const double bytes64 = static_cast<double>(s.f64.size() * sizeof(double));

  std::mt19937_64 rng(run.opt.seed);
  std::vector<std::size_t> order(cfgs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> calls, time_ratio;
  std::size_t rounds = 0;
  const auto t0 = Clock::now();
  while (run.keep_going(t0, rounds, 2)) {
    std::shuffle(order.begin(), order.end(), rng);
    double on = 0, off = 0;
    for (std::size_t i : order) {
      MatrixConfig& m = cfgs[i];
      GenericOptions o;
      o.error_bound = m.f64 ? s.eb64 : s.eb32;
      if (m.qp) o.qp = QPConfig::best_fit();
      std::vector<std::uint8_t> arc;
      const auto c = timed(run, "registry_compress", [&] {
        arc = m.f64 ? m.codec->compress_f64(s.f64.data(), s.f64.dims(), o)
                    : m.codec->compress_f32(s.f32.data(), s.f32.dims(), o);
      });
      if (!c) continue;
      m.tc.push_back(*c);
      const std::uint64_t h = fnv1a(arc);
      if (rounds == 0) {
        m.archive_bytes = arc.size();
        m.archive_fnv = h;
      }
      run.check(h == m.archive_fnv, m.codec->name + " archive differs by round");
      Field<float> d32;
      Field<double> d64;
      const auto d = timed(run, "registry_decompress", [&] {
        if (m.f64)
          d64 = m.codec->decompress_f64(arc);
        else
          d32 = m.codec->decompress_f32(arc);
      });
      if (!d) continue;
      m.td.push_back(*d);
      run.check(m.f64 ? within_bound(s.f64, d64, o.error_bound)
                      : within_bound(s.f32, d32, o.error_bound),
                m.codec->name + " decode outside the error bound");
      calls.push_back(*c);
      calls.push_back(*d);
      (m.qp ? on : off) += *c + *d;
    }
    if (off > 0) time_ratio.push_back(on / off);
    ++rounds;
  }

  if (run.traced()) {
    report_pool(run, {}, calls.size());
    // SZ3's sampler picks Lorenzo for this field at 1e-4, where QP does not
    // apply; the replay pins the interpolation path that QP lives in.
    SZ3Config cfg;
    cfg.error_bound = s.eb32;
    cfg.qp = QPConfig::best_fit();
    cfg.auto_fallback = false;
    replay_layers(run, s.f32, cfg);
    return;
  }

  double in = 0, sum_c = 0, sum_d = 0, arc_all = 0, arc_on = 0, arc_off = 0;
  for (const MatrixConfig& m : cfgs) {
    const double b = m.f64 ? bytes64 : bytes32;
    in += b;
    sum_c += median(m.tc);
    sum_d += median(m.td);
    arc_all += static_cast<double>(m.archive_bytes);
    (m.qp ? arc_on : arc_off) += static_cast<double>(m.archive_bytes);
  }
  run.metric("compress_MBps", in / sum_c / 1e6, "MB/s", rounds);
  run.metric("decompress_MBps", in / sum_d / 1e6, "MB/s", rounds);
  // The calls mix 32 configs; p95 falls inside the slowest ones, where
  // p90 would sit on the boundary between two of them.
  report_requests(run, calls, 95);
  run.metric("requests_per_s", static_cast<double>(calls.size()) / sum(calls),
             "1/s", calls.size());
  run.metric("cr", in / arc_all, "ratio");
  report_rss(run);
  run.metric("qp_cr_gain_pct", (arc_off / arc_on - 1.0) * 100.0, "%");
  run.metric("qp_time_ratio", median(time_ratio), "ratio", time_ratio.size());
  std::uint64_t h = 1469598103934665603ull;
  for (const MatrixConfig& m : cfgs) {
    const std::string key =
        "matrix." + m.codec->name + (m.qp ? ".qp." : ".base.");
    const std::string dt = m.f64 ? "f64." : "f32.";
    run.metric(key + dt + "compress_s", median(m.tc), "s", m.tc.size());
    run.metric(key + dt + "decompress_s", median(m.td), "s", m.td.size());
    h = (h ^ m.archive_fnv) * 1099511628211ull;
  }
  for (const CompressorEntry* e : qp_base_compressors()) {
    double off = 0, on = 0;
    for (const MatrixConfig& m : cfgs)
      if (m.codec == e) (m.qp ? on : off) += static_cast<double>(m.archive_bytes);
    run.metric("qp.cr_gain_pct." + e->name, (off / on - 1.0) * 100.0, "%");
  }
  run.text("archive_fnv", hex(h));
}

// ---------------------------------------------------------------------------
// serve-mix: serve::Service with 4 workers and a 32-job window. Phase A:
// closed-loop capacity with blocking admission. Phase B: open-loop
// Poisson arrivals at a fixed rate with reject admission.

namespace {

constexpr double kServeRate = 80.0;  // phase B offered load, jobs/s
constexpr std::size_t kLargeEvery = 20;

struct JobTemplate {
  serve::JobSpec spec;
  const char* kind = "";     ///< compress | decompress | chunked | preview | region
  double raw_bytes = 0;      ///< field bytes the job compresses or restores
  double archive_bytes = 0;  ///< compress jobs: size of the expected archive
  std::size_t field = 0;     ///< index of the source field
  std::uint64_t expect = 0;  ///< FNV of the serial direct call's output
};

struct ServeState {
  std::vector<Field<float>> fields;
  std::deque<std::vector<std::uint8_t>> blobs;  ///< stable storage for spans
  std::vector<JobTemplate> templates;
  std::size_t large = 0;  ///< the 128^3 SZ3+QP decompress template
  std::unique_ptr<serve::Service> svc;
};

serve::ServeOptions serve_options(serve::AdmitPolicy policy) {
  serve::ServeOptions so;
  so.workers = kWorkers;
  so.queue_capacity = 32;
  so.policy = policy;
  so.large_job_bytes = std::size_t{1} << 20;
  return so;
}

/// Job inputs are what a client holds: raw fields and the archives the
/// library made of them. Decode templates get their expected hash later,
/// from a serial direct call (the oracle), outside the setup time.
ServeState serve_setup(const std::vector<std::string>& paths) {
  ServeState s;
  for (const std::string& p : paths) s.fields.push_back(read_qfld<float>(p));
  auto keep = [&](std::vector<std::uint8_t> b) {
    s.blobs.push_back(std::move(b));
    return std::span<const std::uint8_t>(s.blobs.back());
  };
  // A compress template and the decompress template of its archive.
  auto add_pair = [&](serve::JobSpec c, const char* kind,
                      std::vector<std::uint8_t> archive, std::size_t fi) {
    const double nbytes = static_cast<double>(c.input.size());
    const auto arc = keep(std::move(archive));
    s.templates.push_back({std::move(c), kind, nbytes,
                           static_cast<double>(arc.size()), fi, fnv1a(arc)});
    serve::JobSpec d;
    d.kind = serve::JobKind::kDecompress;
    d.input = arc;
    s.templates.push_back(
        {std::move(d), std::string(kind) == "chunked" ? "chunked" : "decompress",
         nbytes, 0, fi, 0});
  };
  for (std::size_t fi = 0; fi + 1 < s.fields.size(); ++fi) {
    const Field<float>& f = s.fields[fi];
    serve::JobSpec c;
    c.kind = serve::JobKind::kCompress;
    c.input = keep(std::vector<std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(f.data()),
        reinterpret_cast<const std::uint8_t*>(f.data() + f.size())));
    c.dims = f.dims();
    c.options.error_bound = abs_bound(f, kRelEb);
    for (const char* codec : {"SZ3", "QoZ", "ZFP"}) {
      c.codec = codec;
      add_pair(c, "compress",
               find_compressor(codec).compress_f32(f.data(), f.dims(),
                                                   c.options),
               fi);
    }
    c.codec = "SZ3";
    c.chunked = true;
    ChunkedOptions co;
    co.options = c.options;
    add_pair(c, "chunked", chunked_compress(f.data(), f.dims(), co), fi);
  }
  {
    // Tiled progressive archive of the middle field for preview/region.
    // Pinned to the interpolation path: the Lorenzo fallback commits
    // neither coarse levels nor a tile directory.
    const std::size_t fi = 1;
    const Field<float>& f = s.fields[fi];
    SZ3Config o;
    o.error_bound = abs_bound(f, kRelEb);
    o.qp = QPConfig::best_fit();
    o.tile_size = 16;
    o.auto_fallback = false;
    const auto arc = keep(sz3_compress(f.data(), f.dims(), o));
    serve::JobSpec p;
    p.kind = serve::JobKind::kPreview;
    p.input = arc;
    p.level = 2;
    s.templates.push_back({p, "preview", 0, 0, fi, 0});
    serve::JobSpec r;
    r.kind = serve::JobKind::kRegion;
    r.input = arc;
    r.region = Box::whole(f.dims());
    for (int a = 0; a < 3; ++a) {
      r.region.lo[a] = f.dims().extent(a) / 6;
      r.region.hi[a] = f.dims().extent(a) / 2;
    }
    s.templates.push_back({r, "region", 0, 0, fi, 0});
  }
  {
    const std::size_t fi = s.fields.size() - 1;
    const Field<float>& f = s.fields[fi];
    SZ3Config o;
    o.error_bound = abs_bound(f, kRelEb);
    o.qp = QPConfig::best_fit();
    serve::JobSpec d;
    d.kind = serve::JobKind::kDecompress;
    d.input = keep(sz3_compress(f.data(), f.dims(), o));
    s.large = s.templates.size();
    s.templates.push_back(
        {d, "decompress", static_cast<double>(f.size() * sizeof(float)), 0,
         fi, 0});
  }
  s.svc = std::make_unique<serve::Service>(
      serve_options(serve::AdmitPolicy::kBlock));
  // One untimed warm-up job per kind.
  for (serve::JobKind k :
       {serve::JobKind::kCompress, serve::JobKind::kDecompress,
        serve::JobKind::kPreview, serve::JobKind::kRegion})
    for (const JobTemplate& t : s.templates)
      if (t.spec.kind == k) {
        auto fut = s.svc->submit(t.spec);
        if (fut) (void)fut->get();
        break;
      }
  return s;
}

/// The oracle's expected decode hashes: serial direct calls, checked
/// against the error bound (full decodes) or the full decode (preview,
/// region).
void expect_decodes(Run& run, ServeState& s) {
  for (JobTemplate& jt : s.templates) {
    const Field<float>& src = s.fields[jt.field];
    const auto in = jt.spec.input;
    try {
      if (jt.spec.kind == serve::JobKind::kDecompress) {
        const Field<float> dec =
            std::string(jt.kind) == "chunked"
                ? chunked_decompress<float>(in, 1)
                : find_compressor_for(in).decompress_f32(in);
        if (!within_bound(src, dec, abs_bound(src, kRelEb)))
          run.fail(std::string("direct ") + jt.kind + " outside the bound");
        jt.expect = fnv_field(dec);
      } else if (jt.spec.kind != serve::JobKind::kCompress) {
        const CompressorEntry& e = find_compressor_for(in);
        const Field<float> full = e.decompress_f32(in);
        const bool preview = jt.spec.kind == serve::JobKind::kPreview;
        const Field<float> part =
            preview ? e.decompress_preview_f32(in, jt.spec.level, nullptr)
                    : e.decompress_region_f32(in, jt.spec.region, nullptr);
        const Field<float> want =
            preview ? decimate_to_level(full.data(), full.dims(),
                                        jt.spec.level)
                    : crop(full, jt.spec.region);
        if (!bit_equal(part, want))
          run.fail(std::string("direct ") + jt.kind +
                   " differs from the full decode");
        jt.expect = fnv_field(part);
      }
    } catch (const std::exception& e) {
      run.fail(std::string("direct ") + jt.kind + ": " + e.what());
    }
  }
}

/// Seeded job stream: every 20th job (at a seeded offset) is the large
/// decompress; the others cycle through seeded shuffles of the remaining
/// templates, so every template is drawn equally often.
class JobStream {
 public:
  JobStream(const ServeState& s, std::uint64_t seed)
      : rng_(seed), large_(s.large), offset_(rng_() % kLargeEvery) {
    for (std::size_t t = 0; t < s.templates.size(); ++t)
      if (t != s.large) others_.push_back(t);
  }
  std::size_t next() {
    if (i_++ % kLargeEvery == offset_) return large_;
    if (bag_.empty()) {
      bag_ = others_;
      std::shuffle(bag_.begin(), bag_.end(), rng_);
    }
    const std::size_t t = bag_.back();
    bag_.pop_back();
    return t;
  }

 private:
  std::mt19937_64 rng_;
  std::size_t large_;
  std::size_t offset_;
  std::size_t i_ = 0;
  std::vector<std::size_t> others_, bag_;
};

struct Served {
  std::size_t tmpl = 0;
  std::optional<std::future<serve::JobResult>> fut;  ///< until settled
  double lag_s = 0;  ///< submit time minus due time (open loop)
  double slowdown = 1;  ///< from the latest idle pass before the due time
  std::optional<serve::JobMetrics> metrics;  ///< set for correct outputs
};

/// Check finished jobs, in submission order from `next`, against their
/// template's hash and drop their outputs. Waits for running jobs only
/// while more than `keep` jobs are unchecked, and stops at `deadline`.
void settle(Run& run, const ServeState& s, std::vector<Served>& jobs,
            std::size_t& next, std::size_t keep,
            Clock::time_point deadline = Clock::time_point::max()) {
  for (; next < jobs.size(); ++next) {
    Served& j = jobs[next];
    if (!j.fut) continue;
    if (Clock::now() >= deadline) return;
    if (jobs.size() - next <= keep) {
      if (j.fut->wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready)
        return;
    } else if (deadline != Clock::time_point::max() &&
               j.fut->wait_until(deadline) != std::future_status::ready) {
      return;
    }
    const serve::JobResult r = j.fut->get();
    j.fut.reset();
    const JobTemplate& t = s.templates[j.tmpl];
    if (!r.metrics.ok) {
      run.fail(std::string("served ") + t.kind + ": " + r.metrics.error);
      continue;
    }
    const bool ok = fnv1a(r.bytes) == t.expect;
    run.check(ok, std::string("served ") + t.kind +
                      " output differs from the direct call");
    if (ok) j.metrics = r.metrics;
  }
}

}  // namespace

void run_serve_mix(Run& run) {
  std::vector<std::string> paths;
  for (std::size_t e : {32, 48, 96, 128}) {
    const std::size_t n = edge(run, e);
    paths.push_back(
        cached_input<float>(run, DatasetId::kMiranda, Dims{n, n, n}));
  }
  ServeState s = timed_setup(run, [&] { return serve_setup(paths); });
  expect_decodes(run, s);
  const double budget = run.loop_seconds();

  // Phase A: closed-loop capacity; submit() blocks while 32 jobs are in
  // flight, and at most 64 finished jobs wait to be checked. It runs as
  // four bursts, each drained and scaled by reference passes right before
  // and after it: a pass during a burst would compete with the workers.
  // The bursts keep every worker busy, so the passes are wide.
  run.wide_pass = true;
  JobStream stream_a(s, run.opt.seed);
  std::vector<Served> a;
  std::size_t settled = 0;
  double wall_a = 0;  // at reference speed
  s.svc->pool().reset_scheduler_stats();
  for (int burst = 0; burst < 4; ++burst) {
    const double slow_before = run.reference();
    const std::size_t first = a.size();
    const auto ta = Clock::now();
    while (a.size() - first < 10 || seconds_since(ta) < budget / 16) {
      Served& j = a.emplace_back();
      j.tmpl = stream_a.next();
      j.fut = s.svc->submit(s.templates[j.tmpl].spec);
      settle(run, s, a, settled, 64);
    }
    s.svc->drain();
    const double wall = seconds_since(ta);
    wall_a += at_reference_speed(wall, 0.5 * (slow_before + run.reference()));
  }
  settle(run, s, a, settled, 0);
  const ThreadPool::SchedulerStats pool_a = s.svc->pool().scheduler_stats();
  const std::uint64_t large_a = s.svc->metrics().large_jobs;
  s.svc.reset();

  // Phase B: open loop at a fixed kServeRate jobs per second of wall
  // time. Latency runs from the due time, so a generator stall shows as
  // latency, and is reported as lag. Until 15 ms before the next arrival
  // the generator waits for the jobs in flight and checks them. When none
  // is left, it runs a reference pass, which scales the jobs due after
  // it. A pass while jobs run would compete with the workers, and its time
  // would then depend on the code under test. Most jobs run alone, at
  // width 1, so the passes are one-thread.
  run.wide_pass = false;
  serve::Service svc_b(serve_options(serve::AdmitPolicy::kReject));
  JobStream stream_b(s, run.opt.seed + 0x9E3779B97F4A7C15ull);
  std::mt19937_64 arrivals(run.opt.seed * 2 + 1);
  std::exponential_distribution<double> gap(kServeRate);
  const std::size_t nb = std::max<std::size_t>(
      40, static_cast<std::size_t>(kServeRate * 0.7 * budget + 0.5));
  std::vector<Served> b;
  b.reserve(nb);
  settled = 0;
  double slow_b = run.reference();
  const auto tb = Clock::now();
  double due = 0;
  while (b.size() < nb) {
    due += gap(arrivals);
    const auto due_at = tb + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due));
    const auto quiet_until = due_at - std::chrono::milliseconds(15);
    settle(run, s, b, settled, 0, quiet_until);
    if (settled == b.size() && Clock::now() < quiet_until)
      slow_b = run.reference();
    std::this_thread::sleep_until(due_at);
    Served& j = b.emplace_back();
    j.tmpl = stream_b.next();
    j.lag_s = seconds_since(due_at);
    j.slowdown = slow_b;
    j.fut = svc_b.submit(s.templates[j.tmpl].spec);
    if (!j.fut) run.refuse("phase B job refused by admission");
  }
  svc_b.drain();
  settle(run, s, b, settled, 0);
  const serve::ServiceMetrics metrics_b = svc_b.metrics();

  if (run.traced()) {
    report_pool(run, pool_a, a.size());
    SZ3Config cfg;
    cfg.error_bound = abs_bound(s.fields.back(), kRelEb);
    cfg.qp = QPConfig::best_fit();
    replay_layers(run, s.fields.back(), cfg);
    return;
  }

  // A refused or failed job misses every latency limit. Latencies are at
  // reference speed; the serve.* findings below are raw.
  std::vector<double> lat, lag, wait;
  std::map<std::string, std::vector<double>> service_by_kind;
  unsigned intra_max = 0;
  for (const Served& j : b) {
    lag.push_back(j.lag_s);
    if (!j.metrics) {
      lat.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    lat.push_back(at_reference_speed(
        j.lag_s + j.metrics->queue_wait_s + j.metrics->service_s,
        j.slowdown));
    wait.push_back(j.metrics->queue_wait_s);
    service_by_kind[s.templates[j.tmpl].kind].push_back(j.metrics->service_s);
    intra_max = std::max(intra_max, j.metrics->intra_workers);
  }

  // Per-template service time in phase B, where the pool is not
  // saturated and an idle reference pass runs every few arrivals.
  std::vector<std::vector<double>> service(s.templates.size());
  std::size_t done_a = 0;
  for (const Served& j : a)
    if (j.metrics) {
      ++done_a;
      intra_max = std::max(intra_max, j.metrics->intra_workers);
    }
  for (const Served& j : b)
    if (j.metrics)
      service[j.tmpl].push_back(
          at_reference_speed(j.metrics->service_s, j.slowdown));
  double c_bytes = 0, c_time = 0, d_bytes = 0, d_time = 0, raw = 0, arc = 0;
  for (std::size_t t = 0; t < s.templates.size(); ++t) {
    const JobTemplate& jt = s.templates[t];
    const bool compress = jt.spec.kind == serve::JobKind::kCompress;
    if (compress) {
      raw += jt.raw_bytes;
      arc += jt.archive_bytes;
    }
    if (service[t].empty() || jt.raw_bytes == 0) continue;
    (compress ? c_bytes : d_bytes) += jt.raw_bytes;
    (compress ? c_time : d_time) += median(service[t]);
  }
  run.metric("compress_MBps", c_bytes / c_time / 1e6, "MB/s", b.size());
  run.metric("decompress_MBps", d_bytes / d_time / 1e6, "MB/s", b.size());
  // p95: the top 5% are the 1-in-20 large decompress jobs, where p99
  // would rest on the 11 slowest of them.
  report_requests(run, lat, 95);
  run.metric("requests_per_s", static_cast<double>(done_a) / wall_a, "1/s",
             done_a);
  run.metric("cr", raw / arc, "ratio");
  report_rss(run);
  run.metric("serve.offered_jps", kServeRate, "1/s");
  run.metric("serve.p99_within_500ms", percentile(lat, 99) <= 0.5 ? 1.0 : 0.0,
             "bool", lat.size());
  run.metric("serve.queue_wait_p50_ms", median(wait) * 1e3, "ms", wait.size());
  run.metric("serve.queue_wait_p99_ms", percentile(wait, 99) * 1e3, "ms",
             wait.size());
  for (const auto& [kind, v] : service_by_kind)
    run.metric("serve.service_p50_ms." + kind, median(v) * 1e3, "ms",
               v.size());
  run.metric("serve.rejected", static_cast<double>(metrics_b.rejected),
             "count");
  run.metric("serve.large_jobs",
             static_cast<double>(large_a + metrics_b.large_jobs), "count");
  run.metric("serve.intra_workers_max", intra_max, "count");
  run.metric("serve.gen_lag_p99_ms", percentile(lag, 99) * 1e3, "ms",
             lag.size());
}

}  // namespace qip::suite
