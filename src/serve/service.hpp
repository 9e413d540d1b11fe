#pragma once

// qipd: a concurrent compression service over the one shared ThreadPool.
//
// Service accepts many concurrent compress / decompress / preview /
// region jobs and schedules them with:
//
//  * a bounded admission window with backpressure — at most
//    queue_capacity jobs admitted-but-unfinished; submit() either
//    blocks for space or rejects, per AdmitPolicy;
//  * a per-job vs intra-job parallelism decision — jobs below
//    large_job_bytes run whole-job-per-worker (fan-out width 1, so a
//    worker carries the job end to end and the pool's other workers
//    stay free for other jobs); larger jobs fan out through the
//    codecs' existing stage parallelism, with the pool sharded across
//    concurrent large jobs (width = pool_size / active large jobs) so
//    two big jobs don't serialize on each other;
//  * per-job metrics (queue wait, service time, bytes, CR, width).
//
// Inputs are borrowed spans: pair them with a `keepalive` owner (e.g. a
// MappedFile, for zero-copy service straight from the page cache).
// Decode-direction jobs detect the archive's scalar type and top-level
// format (plain container vs chunked) from its header.
//
// The scheduling discipline and its measured effect live in
// docs/SERVING.md; bench/suite's serve-mix workload is the load
// generator.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compressors/registry.hpp"
#include "serve/metrics.hpp"
#include "util/dims.hpp"
#include "util/thread_pool.hpp"

namespace qip::serve {

enum class JobKind : std::uint8_t { kCompress, kDecompress, kPreview, kRegion };

/// What submit() does when the admission window is full.
enum class AdmitPolicy : std::uint8_t {
  kBlock,   ///< wait for space (closed-loop clients)
  kReject,  ///< return nullopt immediately (open-loop / load-shedding)
};

struct ServeOptions {
  /// Pool size when the service owns its pool; 0 = hardware concurrency.
  unsigned workers = 0;
  bool cap_to_hardware = true;
  /// Max jobs admitted but not yet finished; further submits block or
  /// reject per `policy`.
  std::size_t queue_capacity = 64;
  AdmitPolicy policy = AdmitPolicy::kBlock;
  /// Jobs with at least this many input bytes get intra-job fan-out.
  std::size_t large_job_bytes = std::size_t{4} << 20;
  /// Refuse decode jobs — full, chunked, preview or region — whose
  /// header-declared output exceeds this many bytes, before anything is
  /// allocated (allocation bomb guard for untrusted archives).
  std::size_t max_output_bytes = std::size_t{1} << 31;
  /// Borrowed pool; overrides `workers`. Must outlive the Service.
  ThreadPool* pool = nullptr;
};

struct JobSpec {
  JobKind kind = JobKind::kCompress;
  /// Compress only: codec name ("SZ3", "QoZ", ...). Decode-direction
  /// jobs identify the codec from the archive header.
  std::string codec = "SZ3";
  /// Raw scalars (compress) or archive bytes (decode direction).
  std::span<const std::uint8_t> input;
  /// Optional owner of `input`'s storage (e.g. a MappedFile); released
  /// when the job finishes.
  std::shared_ptr<const void> keepalive;
  Dims dims;        ///< compress only: field shape
  bool f64 = false; ///< compress only: scalar type of `input`
  GenericOptions options;  ///< compress only: codec knobs
  bool chunked = false;    ///< compress via the chunked slab pipeline
  int level = 0;           ///< preview only
  Box region;              ///< region only
};

struct JobResult {
  /// Archive bytes (compress) or the reconstruction's raw scalars
  /// (decode direction).
  std::vector<std::uint8_t> bytes;
  Dims dims;        ///< shape of the decoded output (decode direction)
  bool f64 = false; ///< scalar type of `bytes` (decode direction)
  JobMetrics metrics;
};

/// The qipd service front-end. Thread-safe: any thread may submit.
class Service {
 public:
  explicit Service(const ServeOptions& opt);
  ~Service();  ///< drains admitted jobs
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submit one job. Returns nullopt iff the admission window is full
  /// and the policy is kReject. The future always resolves with a
  /// JobResult; execution failures are reported in metrics.ok/error
  /// rather than as a thrown exception.
  [[nodiscard]] std::optional<std::future<JobResult>> submit(JobSpec spec);

  /// Block until every admitted job has finished.
  void drain();

  [[nodiscard]] ServiceMetrics metrics() const;
  [[nodiscard]] unsigned workers() const { return pool_->size(); }
  [[nodiscard]] ThreadPool& pool() { return *pool_; }

 private:
  struct Job;
  void run(const std::shared_ptr<Job>& job);
  template <class T>
  void execute(const JobSpec& spec, unsigned width, JobResult& res);

  const ServeOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_space_;  ///< admission waiters (kBlock)
  std::condition_variable cv_drain_;
  std::size_t in_flight_ = 0;  ///< admitted, not yet finished
  ServiceMetrics counters_;
  std::atomic<unsigned> active_large_{0};
  // The pool is declared last so it is destroyed first: joining the
  // workers before the mutex/counters die means no job can touch freed
  // service state (for borrowed pools, ~Service drains instead).
  std::optional<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace qip::serve
