// qipc — command-line front end for the qip compression library.
//
//   qipc compress   -i data.raw --dims 100x500x500 -o data.qip
//                   [-c SZ3|QoZ|HPEZ|MGARD|ZFP|TTHRESH|SPERR] [-e 1e-3]
//                   [--rel] [--qp] [--tiles N] [--double]
//                   [--chunked [--slab N]]
//   qipc decompress -i data.qip -o recon.qfld [--raw recon.raw]
//   qipc preview    -i data.qip --level L -o coarse.qfld [--stats]
//   qipc extract    -i data.qip --region 0:64,0:64,0:64 -o sub.qfld [--stats]
//   qipc gen        -d miranda [-f 0] [--dims 256x384x384] -o field.qfld
//   qipc eval       -a orig.qfld -b recon.qfld
//   qipc info       -i data.qip
//
// Raw inputs are bare little-endian scalars (SDRBench layout) and need
// --dims; .qfld files are self-describing. preview needs a progressive
// codec; extract needs an archive compressed with --tiles.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compressors/core/container.hpp"
#include "compressors/registry.hpp"
#include "data/synthetic.hpp"
#include "parallel/chunked.hpp"
#include "serve/service.hpp"
#include "simd/dispatch.hpp"
#include "util/field_io.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace qip;

[[noreturn]] void usage(const char* why = nullptr) {
  if (why) std::fprintf(stderr, "qipc: %s\n\n", why);
  std::fprintf(stderr,
               "usage:\n"
               "  qipc compress   -i IN [--dims ZxYxX] -o OUT [-c COMP] [-e EB]\n"
               "                  [--rel] [--qp] [--tiles N] [--double]\n"
               "                  [--chunked] [--slab N]\n"
               "  qipc decompress -i IN.qip -o OUT.qfld [--double] [--raw]\n"
               "  qipc preview    -i IN.qip --level L -o OUT.qfld [--double]\n"
               "                  [--raw] [--stats]\n"
               "  qipc extract    -i IN.qip --region A:B,A:B,... -o OUT.qfld\n"
               "                  [--double] [--raw] [--stats]\n"
               "  qipc gen        -d DATASET [-f IDX] [--dims ZxYxX] [--seed S] -o OUT.qfld\n"
               "  qipc eval       -a A.qfld -b B.qfld\n"
               "  qipc info       -i IN.qip\n"
               "  qipc serve      --jobs FILE|- [--workers N] [--queue N]\n"
               "                  [--policy block|reject] [--out-dir DIR]\n"
               "                  [--metrics FILE]\n"
               "  qipc cpu\n"
               "compressors: MGARD SZ3 QoZ HPEZ ZFP TTHRESH SPERR\n"
               "datasets: miranda hurricane segsalt scale s3d cesm rtm\n");
  std::exit(2);
}

Dims parse_dims(const std::string& s) {
  std::size_t e[kMaxRank] = {0, 0, 0, 0};
  int rank = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    if (rank == kMaxRank) usage("bad --dims: rank above 4");
    std::size_t next = s.find('x', pos);
    if (next == std::string::npos) next = s.size();
    e[rank++] = static_cast<std::size_t>(std::stoull(s.substr(pos, next - pos)));
    pos = next + 1;
  }
  if (rank == 0) usage("bad --dims");
  return Dims(rank, e);
}

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  std::string require(const std::string& k) const {
    if (!has(k)) usage(("missing " + k).c_str());
    return kv.at(k);
  }
};

Args parse_args(int argc, char** argv, int from) {
  Args a;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("-", 0) != 0) usage(("unexpected argument " + key).c_str());
    const bool flag = key == "--rel" || key == "--qp" || key == "--double" ||
                      key == "--chunked" || key == "--raw" || key == "--stats";
    if (flag) {
      a.kv[key] = std::string("1");
    } else {
      if (i + 1 >= argc) usage(("missing value for " + key).c_str());
      // std::string(p) rather than operator=(const char*): the latter
      // trips a GCC 12 -O3 -Wrestrict false positive under -Werror.
      a.kv[key] = std::string(argv[++i]);
    }
  }
  return a;
}

template <class T>
Field<T> load_input(const Args& a) {
  const std::string in = a.require("-i");
  if (in.size() > 5 && in.substr(in.size() - 5) == ".qfld")
    return read_qfld<T>(in);
  if (!a.has("--dims")) usage("raw input needs --dims");
  return read_raw<T>(in, parse_dims(a.get("--dims")));
}

template <class T>
int do_compress_t(const Args& a) {
  const Field<T> f = load_input<T>(a);
  const std::string comp = a.get("-c", "SZ3");
  double eb = std::stod(a.get("-e", "1e-3"));
  if (a.has("--rel"))
    eb *= static_cast<double>(value_range(f.span()).width());

  GenericOptions opt;
  opt.error_bound = eb;
  if (a.has("--qp")) opt.qp = QPConfig::best_fit();
  if (a.has("--tiles"))
    opt.tile_size = static_cast<std::size_t>(std::stoull(a.get("--tiles")));

  Timer t;
  std::vector<std::uint8_t> arc;
  if (a.has("--chunked")) {
    ChunkedOptions copt;
    copt.compressor = comp;
    copt.options = opt;
    if (a.has("--slab"))
      copt.slab = static_cast<std::size_t>(std::stoull(a.get("--slab")));
    arc = chunked_compress(f.data(), f.dims(), copt);
  } else {
    const auto& e = find_compressor(comp);
    if constexpr (std::is_same_v<T, float>)
      arc = e.compress_f32(f.data(), f.dims(), opt);
    else
      arc = e.compress_f64(f.data(), f.dims(), opt);
  }
  const double sec = t.seconds();
  write_bytes(a.require("-o"), arc);
  std::printf("%s %s  %zu -> %zu bytes  (CR %.2f)  %.2f MB/s  abs eb %.3e\n",
              comp.c_str(), f.dims().str().c_str(), f.size() * sizeof(T),
              arc.size(),
              static_cast<double>(f.size() * sizeof(T)) / arc.size(),
              f.size() * sizeof(T) / sec / 1e6, eb);
  return 0;
}

int do_compress(const Args& a) {
  return a.has("--double") ? do_compress_t<double>(a) : do_compress_t<float>(a);
}

void print_partial_stats(const PartialDecodeStats& st) {
  const double pct = st.payload_bytes_total
                         ? 100.0 * static_cast<double>(st.payload_bytes_read) /
                               static_cast<double>(st.payload_bytes_total)
                         : 100.0;
  std::printf("  payload read: %zu of %zu bytes (%.1f%%), decode scratch: %zu "
              "elements\n",
              st.payload_bytes_read, st.payload_bytes_total, pct,
              st.scratch_elems);
}

/// "A:B,A:B,..." per leading axis; unmentioned axes span the full
/// extent. Half-open, field coordinates.
Box parse_region(const std::string& s, const Dims& dims) {
  Box b = Box::whole(dims);
  int axis = 0;
  std::size_t pos = 0;
  while (pos < s.size() && axis < dims.rank()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    const std::string part = s.substr(pos, next - pos);
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) usage("bad --region (want A:B,A:B,...)");
    b.lo[axis] = static_cast<std::size_t>(std::stoull(part.substr(0, colon)));
    b.hi[axis] = static_cast<std::size_t>(std::stoull(part.substr(colon + 1)));
    ++axis;
    pos = next + 1;
  }
  return b;
}

/// decompress, preview and extract: one decode request each, through the
/// archive's registry entry. Chunked archives serve full decodes only.
template <class T>
int do_decode_t(const Args& a, const std::string& cmd) {
  const auto arc = read_bytes(a.require("-i"));
  DecodeRequest req;
  Dims field_dims;
  if (cmd == "preview") {
    req = DecodeRequest::preview(std::stoi(a.require("--level")));
  } else if (cmd == "extract") {
    field_dims = inspect_container(arc).dims;
    req = DecodeRequest::region(
        parse_region(a.require("--region"), field_dims));
  }
  PartialDecodeStats st;
  Timer t;
  const Field<T> out =
      req.kind == DecodeRequest::Kind::kFull && is_chunked(arc)
          ? chunked_decompress<T>(arc)
          : find_compressor_for(arc).decode<T>(arc, req, nullptr, &st);
  const double mbps = out.size() * sizeof(T) / t.seconds() / 1e6;
  const std::string out_path = a.require("-o");
  if (a.has("--raw"))
    write_raw(out_path, out);
  else
    write_qfld(out_path, out);
  const std::string dims = out.dims().str();
  if (cmd == "preview")
    std::printf("preview level %d: %s  %.2f MB/s\n", req.level, dims.c_str(),
                mbps);
  else if (cmd == "extract")
    std::printf("extracted %s of %s  %.2f MB/s\n", dims.c_str(),
                field_dims.str().c_str(), mbps);
  else
    std::printf("decompressed %s  %.2f MB/s -> %s\n", dims.c_str(), mbps,
                out_path.c_str());
  if (cmd != "decompress" && a.has("--stats")) print_partial_stats(st);
  return 0;
}

int do_gen(const Args& a) {
  const std::string want = a.require("-d");
  const DatasetSpec* spec = nullptr;
  for (const auto& s : dataset_specs()) {
    std::string n = s.name;
    for (auto& ch : n) ch = static_cast<char>(std::tolower(ch));
    if (n == want) spec = &s;
  }
  if (!spec) usage("unknown dataset");
  const Dims dims =
      a.has("--dims") ? parse_dims(a.get("--dims")) : spec->bench_dims;
  const int field = std::stoi(a.get("-f", "0"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(std::stoull(a.get("--seed", "1")));
  const Field<float> f = make_field(spec->id, field, dims, seed);
  write_qfld(a.require("-o"), f);
  std::printf("generated %s field %d at %s -> %s\n", spec->name, field,
              dims.str().c_str(), a.require("-o").c_str());
  return 0;
}

int do_eval(const Args& a) {
  const Field<float> x = read_qfld<float>(a.require("-a"));
  const Field<float> y = read_qfld<float>(a.require("-b"));
  if (x.dims() != y.dims()) {
    std::fprintf(stderr, "shape mismatch: %s vs %s\n", x.dims().str().c_str(),
                 y.dims().str().c_str());
    return 1;
  }
  std::printf("PSNR %.3f dB  max|err| %.6e  MSE %.6e\n", psnr(x.span(), y.span()),
              max_abs_error(x.span(), y.span()), mse(x.span(), y.span()));
  return 0;
}

// Dispatch report: which SIMD tiers this binary carries, what the CPU
// supports, and what the runtime gates resolve to right now.
int do_cpu() {
  using simd::Tier;
  const char* fs = std::getenv("QIP_SIMD_FORCE_SCALAR");
  const char* cap = std::getenv("QIP_SIMD_TIER");
  std::printf("cpu tier:      %s\n", simd::to_string(simd::cpu_tier()));
  std::printf("avx512:        %s\n",
              simd::cpu_has_avx512() ? "yes (f+bw+dq+vl)" : "no");
  std::printf("compiled:     ");
  for (Tier t : {Tier::kScalar, Tier::kSSE42, Tier::kAVX2, Tier::kAVX512})
    if (simd::tier_compiled(t)) std::printf(" %s", simd::to_string(t));
  std::printf("\n");
  std::printf("tier cap:      %s\n", simd::to_string(simd::tier_cap()));
  std::printf("active tier:   %s%s\n", simd::to_string(simd::active_tier()),
              simd::force_scalar() ? "  (forced scalar)" : "");
  std::printf("huffman fast:  %s\n", simd::huffman_fast_enabled() ? "on" : "off");
  std::printf("QIP_SIMD_FORCE_SCALAR=%s  QIP_SIMD_TIER=%s\n",
              fs ? fs : "<unset>", cap ? cap : "<unset>");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
  return 0;
}

const char* dtype_str(std::uint8_t tag) {
  return tag == 1 ? "f32" : tag == 2 ? "f64" : "unknown";
}

double pct_of(std::size_t part, std::size_t total) {
  return total ? 100.0 * static_cast<double>(part) /
                     static_cast<double>(total)
               : 0.0;
}

/// Per-level payload breakdown of one container directory, with tile
/// chunk counts on the tiled levels.
void print_payload_directory(const ContainerReader& in) {
  const PayloadDirectory& dir = in.directory();
  const std::size_t total = in.payload_bytes_declared();
  if (dir.tiling.active())
    std::printf("  tile directory: edge %zu, tiled levels 1..%d\n",
                dir.tiling.tile_size, dir.tiling.max_level);
  struct Agg {
    std::size_t chunks = 0, tiled = 0, bytes = 0, symbols = 0;
  };
  std::map<int, Agg, std::greater<int>> by_level;
  for (const ChunkEntry& c : dir.chunks) {
    Agg& g = by_level[c.level];
    ++g.chunks;
    if (c.tile != kWholeDomainTile) ++g.tiled;
    g.bytes += static_cast<std::size_t>(c.length);
    g.symbols += c.symbol_count;
  }
  for (const auto& [level, g] : by_level) {
    if (g.tiled)
      std::printf(
          "  level %-2d %8zu bytes (%5.1f%% of payload)  %zu tile chunks, "
          "%zu symbols\n",
          level, g.bytes, pct_of(g.bytes, total), g.tiled, g.symbols);
    else
      std::printf(
          "  level %-2d %8zu bytes (%5.1f%% of payload)  %zu chunk(s), "
          "%zu symbols\n",
          level, g.bytes, pct_of(g.bytes, total), g.chunks, g.symbols);
  }
}

/// What `qipc preview`/`qipc extract` will do with THIS archive, and —
/// when a capability is missing — why. Region decode needs both codec
/// support and a tile directory, so the reason names the missing one.
void print_partial_capabilities(const ContainerReader& in,
                                const CompressorEntry* entry) {
  const bool codec_preview = entry && entry->supports_preview;
  const bool codec_region = entry && entry->supports_region;
  const bool tiled = in.directory().tiling.active();

  if (codec_preview)
    std::printf("  preview: yes (per-level payload chunks)\n");
  else
    std::printf("  preview: no (codec has no progressive decoder)\n");

  if (codec_region && tiled) {
    std::printf("  region:  yes (tile directory present)\n");
  } else if (!codec_region) {
    std::printf("  region:  no (codec has no random-access region decoder)\n");
  } else {
    // The archive could have supported regions but was written untiled.
    // For HPEZ that is a deliberate trade: without --tiles the fine
    // levels go to block-wise plan refinement (better ratio) instead of
    // independently decodable tile chunks.
    std::printf(
        "  region:  no (archive is untiled; recompress with --tiles N%s)\n",
        entry->name == "HPEZ"
            ? " — untiled HPEZ spends the fine levels on block-wise plan "
              "refinement instead"
            : "");
  }
}

int do_info(const Args& a) {
  const auto arc = read_bytes(a.require("-i"));
  if (is_chunked(arc)) {
    const ChunkedInfo ci = inspect_chunked(arc);
    std::printf(
        "chunked qip archive: codec=%s  dtype=%s  dims=%s  %zu bytes\n"
        "  slab=%zu  chunks=%zu\n",
        ci.compressor.c_str(), dtype_str(ci.dtype), ci.dims.str().c_str(),
        arc.size(), ci.slab, ci.parts.size());
    // Aggregate the slabs' stage and payload-level breakdowns so a
    // chunked archive is as inspectable as a plain one.
    std::map<std::string, std::size_t> stage_bytes;
    std::map<int, std::size_t, std::greater<int>> level_bytes;
    std::size_t payload_total = 0;
    for (const auto part : ci.parts) {
      const ContainerReader in(part);
      for (const auto& s : in.sections())
        stage_bytes[stage_name(s.id)] += s.size;
      payload_total += in.payload_bytes_declared();
      for (const ChunkEntry& ce : in.directory().chunks)
        level_bytes[ce.level] += static_cast<std::size_t>(ce.length);
    }
    for (const auto& [sname, size] : stage_bytes)
      std::printf("  stage %-11s %zu bytes (all slabs)\n", sname.c_str(),
                  size);
    for (const auto& [level, size] : level_bytes)
      std::printf("  level %-2d %8zu bytes (%5.1f%% of payload, all slabs)\n",
                  level, size, pct_of(size, payload_total));
    return 0;
  }
  // inspect_container throws UnknownCodecError (with the offending
  // version) on a format this build cannot read; an unknown codec id is
  // still reported below from the registry miss.
  const ContainerInfo info = inspect_container(arc);
  std::string codec =
      "unknown id " + std::to_string(static_cast<unsigned>(info.codec));
  const CompressorEntry* entry = nullptr;
  for (const auto& e : compressor_registry())
    if (e.id == info.codec) {
      codec = e.name;
      entry = &e;
    }
  std::printf(
      "qip container v%u: codec=%s  dtype=%s  dims=%s\n"
      "  %zu bytes = %zu header + %zu compressed stage body\n",
      static_cast<unsigned>(info.version), codec.c_str(),
      dtype_str(info.dtype), info.dims.str().c_str(), arc.size(),
      info.header_bytes, info.body_bytes);
  const ContainerReader in(arc);
  for (const auto& s : in.sections())
    std::printf("  stage %-11s %zu bytes\n", stage_name(s.id).c_str(),
                s.size);
  print_payload_directory(in);
  print_partial_capabilities(in, entry);
  return 0;
}

const char* kind_str(serve::JobKind k) {
  switch (k) {
    case serve::JobKind::kCompress: return "compress";
    case serve::JobKind::kDecompress: return "decompress";
    case serve::JobKind::kPreview: return "preview";
    case serve::JobKind::kRegion: return "region";
  }
  return "?";
}

/// One job description per line, whitespace-separated:
///
///   compress   PATH ZxYxX CODEC [EB] [chunked] [double] [qp] [tiles=N]
///   decompress PATH
///   preview    PATH LEVEL
///   region     PATH A:B,A:B,...
///
/// PATH is mapped (zero-copy when the file is mappable) and served by
/// the qipd Service; decode-direction jobs detect dtype and format from
/// the archive header. Blank lines and #-comments are skipped.
bool parse_job_line(const std::string& line, serve::JobSpec& spec) {
  std::istringstream ss(line);
  std::string kind, path;
  if (!(ss >> kind) || kind[0] == '#') return false;
  if (!(ss >> path)) usage(("serve: job line needs a path: " + line).c_str());

  // Map the input; non-mappable files fall back to a buffered read.
  auto mf = std::make_shared<MappedFile>(MappedFile::map(path));
  if (mf->valid()) {
    spec.input = mf->bytes();
    spec.keepalive = std::move(mf);
  } else {
    auto buf = std::make_shared<std::vector<std::uint8_t>>(read_bytes(path));
    spec.input = *buf;
    spec.keepalive = std::move(buf);
  }

  if (kind == "compress") {
    spec.kind = serve::JobKind::kCompress;
    std::string dims, codec;
    if (!(ss >> dims >> codec))
      usage(("serve: compress line needs DIMS CODEC: " + line).c_str());
    spec.dims = parse_dims(dims);
    spec.codec = codec;
    std::string tok;
    while (ss >> tok) {
      if (tok == "chunked")
        spec.chunked = true;
      else if (tok == "double")
        spec.f64 = true;
      else if (tok == "qp")
        spec.options.qp = QPConfig::best_fit();
      else if (tok.rfind("tiles=", 0) == 0)
        spec.options.tile_size =
            static_cast<std::size_t>(std::stoull(tok.substr(6)));
      else
        spec.options.error_bound = std::stod(tok);
    }
  } else if (kind == "decompress") {
    spec.kind = serve::JobKind::kDecompress;
  } else if (kind == "preview") {
    spec.kind = serve::JobKind::kPreview;
    int level = 0;
    if (!(ss >> level)) usage(("serve: preview line needs LEVEL: " + line).c_str());
    spec.level = level;
  } else if (kind == "region") {
    spec.kind = serve::JobKind::kRegion;
    std::string region;
    if (!(ss >> region))
      usage(("serve: region line needs A:B,...: " + line).c_str());
    spec.region = parse_region(region, inspect_container(spec.input).dims);
  } else {
    usage(("serve: unknown job kind " + kind).c_str());
  }
  return true;
}

int do_serve(const Args& a) {
  serve::ServeOptions so;
  if (a.has("--workers"))
    so.workers = static_cast<unsigned>(std::stoul(a.get("--workers")));
  if (a.has("--queue"))
    so.queue_capacity = static_cast<std::size_t>(std::stoull(a.get("--queue")));
  if (a.get("--policy", "block") == "reject")
    so.policy = serve::AdmitPolicy::kReject;
  serve::Service svc(so);

  const std::string jobs_path = a.require("--jobs");
  std::FILE* jf = jobs_path == "-" ? stdin : std::fopen(jobs_path.c_str(), "r");
  if (!jf) usage(("serve: cannot open " + jobs_path).c_str());

  std::FILE* mf = nullptr;
  if (a.has("--metrics")) {
    mf = std::fopen(a.get("--metrics").c_str(), "w");
    if (!mf) usage("serve: cannot open --metrics file");
  }
  if (a.has("--out-dir"))
    std::filesystem::create_directories(a.get("--out-dir"));

  struct Pending {
    std::future<serve::JobResult> fut;
    serve::JobKind kind;
  };
  std::vector<Pending> pending;
  std::size_t rejected = 0;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), jf)) {
    const std::string line(buf);
    serve::JobSpec spec;
    if (!parse_job_line(line, spec)) continue;
    const serve::JobKind kind = spec.kind;
    auto fut = svc.submit(std::move(spec));
    if (!fut) {
      ++rejected;
      continue;
    }
    pending.push_back({std::move(*fut), kind});
  }
  if (jf != stdin) std::fclose(jf);

  std::size_t failed = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    serve::JobResult r = pending[i].fut.get();
    const auto& m = r.metrics;
    if (!m.ok) {
      ++failed;
      std::fprintf(stderr, "serve: job %zu (%s) failed: %s\n", i,
                   kind_str(pending[i].kind), m.error.c_str());
    }
    if (mf)
      std::fprintf(mf,
                   "{\"job\":%zu,\"kind\":\"%s\",\"ok\":%s,"
                   "\"queue_wait_s\":%.6f,\"service_s\":%.6f,"
                   "\"input_bytes\":%zu,\"output_bytes\":%zu,\"cr\":%.3f,"
                   "\"intra_workers\":%u}\n",
                   i, kind_str(pending[i].kind), m.ok ? "true" : "false",
                   m.queue_wait_s, m.service_s, m.input_bytes, m.output_bytes,
                   m.cr, m.intra_workers);
    if (m.ok && a.has("--out-dir")) {
      std::ostringstream name;
      name << a.get("--out-dir") << "/job-" << i
           << (pending[i].kind == serve::JobKind::kCompress ? ".qip" : ".raw");
      write_bytes(name.str(), r.bytes);
    }
  }
  if (mf) std::fclose(mf);

  const serve::ServiceMetrics sm = svc.metrics();
  std::printf(
      "served %zu jobs on %u workers: %llu ok, %zu failed, %zu rejected, "
      "%llu with intra-job fan-out\n",
      pending.size(), svc.workers(),
      static_cast<unsigned long long>(sm.completed), failed, rejected,
      static_cast<unsigned long long>(sm.large_jobs));
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    const Args a = parse_args(argc, argv, 2);
    if (cmd == "compress") return do_compress(a);
    if (cmd == "decompress" || cmd == "preview" || cmd == "extract")
      return a.has("--double") ? do_decode_t<double>(a, cmd)
                               : do_decode_t<float>(a, cmd);
    if (cmd == "gen") return do_gen(a);
    if (cmd == "eval") return do_eval(a);
    if (cmd == "info") return do_info(a);
    if (cmd == "serve") return do_serve(a);
    if (cmd == "cpu") return do_cpu();
    usage(("unknown command " + cmd).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qipc: %s\n", e.what());
    return 1;
  }
}
