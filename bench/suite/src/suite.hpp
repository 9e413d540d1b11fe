#pragma once

// Shared pieces of qip_bench: sample statistics, the metric report, the
// input cache, the output oracles, and the process-memory probes.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "compressors/core/tiles.hpp"
#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "util/field.hpp"
#include "util/thread_pool.hpp"

namespace qip::suite {

// ---------------------------------------------------------------------------
// Sample statistics.

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile: the smallest sample with at least p% of all
/// samples at or below it; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Samples ranked strictly above the nearest-rank p-th percentile of n
/// samples; printed next to each tail, which a full run keeps at >= 10.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0);

// ---------------------------------------------------------------------------
// Host speed. This host's speed drifts by tens of percent over minutes
// (other tenants share its cores and caches), so every end-to-end time is
// scaled to the reference host's speed by a reference pass timed next to
// it, on as many threads as the timed ops keep busy; README.md, "Host
// noise", gives the evidence.

/// Busy threads per workload process: pool and Service workers.
inline constexpr unsigned kWorkers = 4;

/// The reference pass's time on the reference host when undisturbed, on
/// one thread and on kWorkers threads at once.
inline constexpr double kReferencePassS = 0.0055;
inline constexpr double kWideReferencePassS = 0.0068;

/// Time one reference pass: on each of `threads` threads at once, two
/// quantize sweeps of bench-owned code over 1M floats, independent of the
/// library, so a change under test cannot move it.
[[nodiscard]] double reference_pass(unsigned threads);

/// `raw_s` at the reference host's speed, given the host's slowdown
/// measured next to it by Run::reference().
[[nodiscard]] inline double at_reference_speed(double raw_s,
                                               double slowdown) {
  return raw_s / slowdown;
}

// ---------------------------------------------------------------------------
// The run: options, metric lines, and the op/failure count.

/// Seed of the synthetic field content. Pinned: seeded fields would make
/// the run-to-run spread measure the data, not the code (README.md).
inline constexpr std::uint64_t kFieldSeed = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;        ///< drives the request streams
  double seconds = 20;           ///< measured time of one run
  bool smoke = false;            ///< fields of at most 48^3, for the smoke test
  std::string cache_dir = "bench-cache";
  std::string trace_dir;         ///< non-empty: the traced per-layer run
};

/// One workload process. Metric lines go to stdout as
/// `<workload> <metric> <value> <unit> <n>`; diagnostics go to stderr.
class Run {
 public:
  explicit Run(Options o) : opt(std::move(o)) {}

  void metric(const std::string& name, double value, const char* unit,
              std::size_t n = 1) const;
  void text(const std::string& name, const std::string& value) const;

  /// Run one reference pass, on kWorkers threads when `wide_pass`, and
  /// record the host's slowdown: the pass time over its undisturbed time
  /// (1 at reference speed). Returns the slowdown.
  double reference();

  /// Count one attempted op; `ok == false` counts a wrong output.
  void check(bool ok, const std::string& what);
  /// Count one attempted op that threw: a wrong output too.
  void fail(const std::string& what);
  /// Count one attempted op the system refused (failed, not wrong).
  void refuse(const std::string& what);

  /// Keep a measuring loop going: until the loop time is spent, and past
  /// it until `n` samples reach `min_n` unless ops are failing.
  [[nodiscard]] bool keep_going(std::chrono::steady_clock::time_point t0,
                                std::size_t n, std::size_t min_n) const {
    return seconds_since(t0) < loop_seconds() || (n < min_n && failed == 0);
  }

  [[nodiscard]] bool traced() const { return !opt.trace_dir.empty(); }
  /// Share of the run's measured time given to the workload loop; the
  /// traced run spends the rest on the layer replay.
  [[nodiscard]] double loop_seconds() const {
    return traced() ? 0.3 * opt.seconds : opt.seconds;
  }

  const Options opt;
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< refused, threw, or wrong output
  std::size_t wrong = 0;   ///< threw or wrong output
  double gen_s = 0;  ///< synthetic-field generation (cache misses only)
  /// Reference passes on kWorkers threads: set while the timed ops keep
  /// all workers busy, since a one-thread pass misses how much slower
  /// the host's other cores are.
  bool wide_pass = false;
  std::vector<double> slowdown;  ///< every reference pass of the run
};

/// Run `make` (which builds the workload's state) several times, keep the
/// last state, and report setup_s as the median at reference speed (once
/// in a traced run).
template <class F>
auto timed_setup(Run& run, F&& make) {
  const int reps = run.traced() ? 1 : 3;
  std::vector<double> t;
  std::optional<decltype(make())> state;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    const double slowdown = run.reference();
    const auto t0 = std::chrono::steady_clock::now();
    state.emplace(make());
    t.push_back(at_reference_speed(seconds_since(t0), slowdown));
  }
  if (!run.traced()) run.metric("setup_s", median(t), "s", t.size());
  return std::move(*state);
}

// ---------------------------------------------------------------------------
// Inputs.

/// Cached field path for (dataset, dims, kFieldSeed) under the cache dir.
/// A missing file is generated and written with write_qfld first; that
/// time goes to run.gen_s, never into setup_s.
template <class T>
[[nodiscard]] std::string cached_input(Run& run, DatasetId id,
                                       const Dims& dims);

/// Seeded region box: the edge cycles through 1..4 x (extent / 16) with
/// `k`, the corner is uniform inside the field.
[[nodiscard]] Box region_box(std::mt19937_64& rng, const Dims& dims,
                             std::size_t k);

/// Preview level of the k-th preview request: 2, 3, 4, 2, ...
[[nodiscard]] inline int preview_level(std::size_t k) {
  return 2 + static_cast<int>(k % 3);
}

/// rel * (max - min) of the field.
template <class T>
[[nodiscard]] double abs_bound(const Field<T>& f, double rel);

// ---------------------------------------------------------------------------
// Oracles.

[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> b);

template <class T>
[[nodiscard]] std::uint64_t fnv_field(const Field<T>& f) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(f.data()),
                f.size() * sizeof(T)});
}

[[nodiscard]] std::string hex(std::uint64_t v);

/// Every finite point of `orig` is within eb in `dec`; non-finite points
/// are restored bit-exactly.
template <class T>
[[nodiscard]] bool within_bound(const Field<T>& orig, const Field<T>& dec,
                                double eb);

template <class T>
[[nodiscard]] bool bit_equal(const Field<T>& a, const Field<T>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// [box.lo, box.hi) cut out of `full`.
template <class T>
[[nodiscard]] Field<T> crop(const Field<T>& full, const Box& box);

// ---------------------------------------------------------------------------
// Process memory.

/// VmHWM of this process in MB (1e6 bytes); 0 when /proc is unavailable.
[[nodiscard]] double peak_rss_mb();

/// Reset VmHWM to the current RSS (writes 5 to /proc/self/clear_refs).
void reset_peak_rss();

// ---------------------------------------------------------------------------
// Workloads and the traced replay.

void run_archive_qp(Run& run);
void run_tiled_region(Run& run);
void run_qp_matrix(Run& run);
void run_serve_mix(Run& run);

/// The traced run's layer pass: replays sz3_compress/sz3_decompress on
/// `f` under `cfg` for run.opt.seconds - run.loop_seconds() and prints
/// every per-layer metric except the pool's.
void replay_layers(Run& run, const Field<float>& f, const SZ3Config& cfg);

/// The pool metrics of the traced workload loop: parallel_for blocks per
/// op and the share the submitting thread drained itself (1 when the loop
/// ran no parallel_for blocks, e.g. without a pool).
void report_pool(const Run& run, const ThreadPool::SchedulerStats& s,
                 std::size_t ops);

}  // namespace qip::suite
