// qip_bench: one workload of the repo benchmark per process.
//
//   qip_bench --workload NAME [--seed N] [--seconds S] [--cache DIR]
//             [--trace-dir DIR] [--smoke]
//   qip_bench --self-test
//
// Prints one `<workload> <metric> <value> <unit> <n>` line per metric,
// ending with ops_attempted / ops_failed / ops_wrong. bench/suite/run.py
// builds this binary, runs it, and checks the lines against
// BENCHMARK.json; see bench/suite/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "simd/dispatch.hpp"
#include "suite.hpp"
#include "trace.hpp"

namespace {

using namespace qip::suite;

int self_test() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++bad;
    }
  };
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  expect(median(v) == 50.5, "median of 1..100");
  expect(median({3, 1, 2}) == 2, "median of odd count");
  expect(median({}) == 0, "median of nothing");
  expect(percentile(v, 50) == 50, "p50 of 1..100");
  expect(percentile(v, 90) == 90, "p90 of 1..100");
  expect(percentile(v, 99) == 99, "p99 of 1..100");
  expect(percentile(v, 100) == 100, "p100 of 1..100");
  expect(percentile({7}, 99) == 7, "p99 of one sample");
  expect(percentile({1, std::numeric_limits<double>::infinity()}, 50) == 1,
         "p50 with a refused request");
  expect(samples_beyond(100, 90) == 10, "10 samples beyond p90 of 100");
  expect(samples_beyond(99, 90) == 9, "9 samples beyond p90 of 99");
  expect(samples_beyond(1100, 99) == 11, "11 samples beyond p99 of 1100");
  expect(samples_beyond(0, 50) == 0, "nothing beyond an empty set");
  std::mt19937_64 rng(1);
  const qip::Dims d{256, 256, 256};
  for (std::size_t k = 0; k < 8; ++k) {
    const qip::Box b = region_box(rng, d, k);
    expect(b.hi[0] - b.lo[0] == 16 * (1 + k % 4) && b.hi[2] <= 256,
           "region edge cycles 16..64 inside the field");
  }
  std::printf("self-test: %s\n", bad ? "FAILED" : "ok");
  return bad ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: qip_bench --workload NAME [--seed N] [--seconds S] "
               "[--cache DIR] [--trace-dir DIR] [--smoke]\n"
               "       qip_bench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (!std::strcmp(a, "--self-test")) return self_test();
    if (!std::strcmp(a, "--smoke")) {
      opt.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (!std::strcmp(a, "--workload")) {
      opt.workload = argv[++i];
    } else if (!std::strcmp(a, "--seed")) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(a, "--seconds")) {
      opt.seconds = std::atof(argv[++i]);
    } else if (!std::strcmp(a, "--cache")) {
      opt.cache_dir = argv[++i];
    } else if (!std::strcmp(a, "--trace-dir")) {
      opt.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0)) return usage();

  void (*workload)(Run&) = nullptr;
  if (opt.workload == "archive-qp") workload = run_archive_qp;
  if (opt.workload == "tiled-region") workload = run_tiled_region;
  if (opt.workload == "qp-matrix") workload = run_qp_matrix;
  if (opt.workload == "serve-mix") workload = run_serve_mix;
  if (!workload) return usage();

  Run run(opt);
  if (run.traced()) trace::enable();
  try {
    workload(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: aborted: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  run.metric("gen_s", run.gen_s, "s");
  run.metric("host.slowdown", median(run.slowdown), "ratio",
             run.slowdown.size());
  run.metric("failed_frac",
             run.attempted ? static_cast<double>(run.failed) /
                                 static_cast<double>(run.attempted)
                           : 1.0,
             "fraction", run.attempted);
  run.metric("nproc", std::thread::hardware_concurrency(), "count");
  run.text("simd_tier", qip::simd::to_string(qip::simd::active_tier()));
  run.metric("ops_attempted", static_cast<double>(run.attempted), "count");
  run.metric("ops_failed", static_cast<double>(run.failed), "count");
  run.metric("ops_wrong", static_cast<double>(run.wrong), "count");
  return 0;
}
