#include "suite.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "util/field_io.hpp"
#include "util/stats.hpp"

namespace qip::suite {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// 0-based index of the nearest-rank p-th percentile of n sorted samples.
std::size_t rank_index(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const std::size_t k = r < 1 ? 1 : static_cast<std::size_t>(r);
  return std::min(n, k) - 1;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rank_index(v.size(), p)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - rank_index(n, p);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void Run::metric(const std::string& name, double value, const char* unit,
                 std::size_t n) const {
  std::printf("%s %s %.10g %s %zu\n", opt.workload.c_str(), name.c_str(),
              value, unit, n);
  std::fflush(stdout);
}

void Run::text(const std::string& name, const std::string& value) const {
  std::printf("%s %s %s text 1\n", opt.workload.c_str(), name.c_str(),
              value.c_str());
  std::fflush(stdout);
}

double reference_pass(unsigned threads) {
  constexpr std::size_t kPoints = std::size_t{1} << 20;
  struct Buffers {
    std::vector<float> in;
    std::vector<std::uint32_t> out;
  };
  // One pair per thread, made on first use; only the run's client thread
  // calls this.
  static std::vector<Buffers> bufs;
  while (bufs.size() < threads) {
    Buffers& b = bufs.emplace_back();
    b.in.resize(kPoints);
    b.out.resize(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i)
      b.in[i] = std::sin(0.001f * static_cast<float>(i)) +
                0.01f * static_cast<float>(i % 7);
  }
  // Independent iterations over 8 MB, like a compressor's quantize sweep:
  // the pass is bound by SIMD and cache throughput, the resources other
  // tenants take from this host's workloads.
  auto sweeps = [](Buffers& b) {
    for (int sweep = 0; sweep < 2; ++sweep)
      for (std::size_t i = 1; i < kPoints; ++i)
        b.out[i] = static_cast<std::uint32_t>(static_cast<std::int32_t>(
                       std::nearbyint((b.in[i] - b.in[i - 1]) * 500.0f) +
                       sweep)) +
                   32768u;
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t)
    helpers.emplace_back(sweeps, std::ref(bufs[t]));
  sweeps(bufs[0]);
  for (std::thread& h : helpers) h.join();
  return seconds_since(t0);
}

double Run::reference() {
  slowdown.push_back(wide_pass
                         ? reference_pass(kWorkers) / kWideReferencePassS
                         : reference_pass(1) / kReferencePassS);
  return slowdown.back();
}

void Run::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    ++wrong;
    std::fprintf(stderr, "%s: wrong output: %s\n", opt.workload.c_str(),
                 what.c_str());
  }
}

void Run::fail(const std::string& what) {
  ++attempted;
  ++failed;
  ++wrong;
  std::fprintf(stderr, "%s: failed: %s\n", opt.workload.c_str(), what.c_str());
}

void Run::refuse(const std::string& what) {
  ++attempted;
  ++failed;
  std::fprintf(stderr, "%s: refused: %s\n", opt.workload.c_str(),
               what.c_str());
}

template <class T>
std::string cached_input(Run& run, DatasetId id, const Dims& dims) {
  const std::string path = run.opt.cache_dir + "/" +
                           dataset_spec(id).name + "_" + dims.str() +
                           (sizeof(T) == 8 ? "_f64" : "_f32") + "_s" +
                           std::to_string(kFieldSeed) + ".qfld";
  if (std::filesystem::exists(path)) return path;
  std::filesystem::create_directories(run.opt.cache_dir);
  const auto t0 = std::chrono::steady_clock::now();
  // Written under a temporary name and renamed, so an interrupted run
  // never leaves a truncated cache entry behind.
  const std::string tmp = path + ".tmp";
  if constexpr (sizeof(T) == 8)
    write_qfld(tmp, make_field_f64(id, 0, dims, kFieldSeed));
  else
    write_qfld(tmp, make_field(id, 0, dims, kFieldSeed));
  std::filesystem::rename(tmp, path);
  run.gen_s += seconds_since(t0);
  return path;
}

template std::string cached_input<float>(Run&, DatasetId, const Dims&);
template std::string cached_input<double>(Run&, DatasetId, const Dims&);

Box region_box(std::mt19937_64& rng, const Dims& dims, std::size_t k) {
  Box b = Box::whole(dims);
  for (int a = 0; a < dims.rank(); ++a) {
    const std::size_t e = dims.extent(a);
    const std::size_t edge = std::min(e, std::max<std::size_t>(
                                             1, e / 16 * (1 + k % 4)));
    std::uniform_int_distribution<std::size_t> lo(0, e - edge);
    b.lo[a] = lo(rng);
    b.hi[a] = b.lo[a] + edge;
  }
  return b;
}

template <class T>
double abs_bound(const Field<T>& f, double rel) {
  return rel * static_cast<double>(value_range(f.span()).width());
}

template double abs_bound(const Field<float>&, double);
template double abs_bound(const Field<double>&, double);

std::uint64_t fnv1a(std::span<const std::uint8_t> b) {
  // FNV-1a over 64-bit words, then the tail bytes: the FNV-1a step at an
  // eighth of the iterations, so hashing a served 8 MB field takes about
  // a millisecond of the load generator's time.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, b.data() + i, sizeof(w));
    h = (h ^ w) * kPrime;
  }
  for (; i < b.size(); ++i) h = (h ^ b[i]) * kPrime;
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

template <class T>
bool within_bound(const Field<T>& orig, const Field<T>& dec, double eb) {
  if (orig.dims() != dec.dims()) return false;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const T o = orig[i];
    const T d = dec[i];
    if (std::isfinite(o)) {
      if (!(std::abs(static_cast<double>(d) - static_cast<double>(o)) <= eb))
        return false;
    } else if (std::memcmp(&o, &d, sizeof(T)) != 0) {
      return false;
    }
  }
  return true;
}

template bool within_bound(const Field<float>&, const Field<float>&, double);
template bool within_bound(const Field<double>&, const Field<double>&,
                           double);

template <class T>
Field<T> crop(const Field<T>& full, const Box& box) {
  const Dims& d = full.dims();
  std::size_t e[kMaxRank] = {1, 1, 1, 1};
  for (int a = 0; a < d.rank(); ++a) e[a] = box.hi[a] - box.lo[a];
  const Dims rd = d.rank() == 3 ? Dims{e[0], e[1], e[2]}
                  : d.rank() == 2 ? Dims{e[0], e[1]}
                  : d.rank() == 1 ? Dims{e[0]}
                                  : Dims{e[0], e[1], e[2], e[3]};
  Field<T> out(rd);
  std::size_t k = 0;
  for (std::size_t i0 = 0; i0 < e[0]; ++i0)
    for (std::size_t i1 = 0; i1 < e[1]; ++i1)
      for (std::size_t i2 = 0; i2 < e[2]; ++i2)
        for (std::size_t i3 = 0; i3 < e[3]; ++i3)
          out[k++] = full[d.index(box.lo[0] + i0, box.lo[1] + i1,
                                  box.lo[2] + i2, box.lo[3] + i3)];
  return out;
}

template Field<float> crop(const Field<float>&, const Box&);

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib * 1024.0 / 1e6;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

void report_pool(const Run& run, const ThreadPool::SchedulerStats& s,
                 std::size_t ops) {
  run.metric("pool.pf_blocks_per_op",
             ops ? static_cast<double>(s.pf_blocks) / static_cast<double>(ops)
                 : 0.0,
             "count", ops);
  run.metric("pool.caller_drain_share",
             s.pf_blocks ? static_cast<double>(s.pf_blocks_caller) /
                               static_cast<double>(s.pf_blocks)
                         : 1.0,
             "fraction", s.pf_blocks);
}

}  // namespace qip::suite
