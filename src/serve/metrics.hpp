#pragma once

// Metrics surfaces for the qipd serving layer: one record per job and
// one monotonic aggregate per service. Field meanings are documented in
// docs/SERVING.md; bench/suite's serve-mix workload reports them as its
// serve.* findings.

#include <cstddef>
#include <cstdint>
#include <string>

namespace qip::serve {

/// Per-job timings and sizes, filled in by the service and returned
/// with the job's result.
struct JobMetrics {
  double queue_wait_s = 0;  ///< admission -> first worker touch
  double service_s = 0;     ///< execution wall time on the pool
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
  /// Compression ratio: uncompressed / compressed bytes for both
  /// directions (so bigger is always better).
  double cr = 0;
  /// Fan-out width the scheduler granted this job (1 = whole job ran on
  /// a single worker; >1 = intra-job stage parallelism).
  unsigned intra_workers = 1;
  bool ok = false;
  std::string error;  ///< populated when !ok
};

/// Aggregate service counters. Monotonic; snapshot at any time via
/// Service::metrics().
struct ServiceMetrics {
  std::uint64_t submitted = 0;  ///< submit() calls, admitted or not
  std::uint64_t rejected = 0;   ///< refused by the kReject policy
  std::uint64_t completed = 0;  ///< finished with ok = true
  std::uint64_t failed = 0;     ///< finished with ok = false
  std::uint64_t large_jobs = 0; ///< jobs granted intra-job fan-out
};

}  // namespace qip::serve
