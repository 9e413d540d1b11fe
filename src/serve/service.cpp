#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "compressors/core/container.hpp"
#include "parallel/chunked.hpp"
#include "util/field.hpp"

namespace qip::serve {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Copy a decoded field's scalars into the result's byte buffer.
template <class T>
void field_to_bytes(const Field<T>& f, JobResult& res) {
  res.dims = f.dims();
  res.f64 = sizeof(T) == 8;
  res.bytes.resize(f.size() * sizeof(T));
  std::memcpy(res.bytes.data(), f.data(), res.bytes.size());
}

/// Scalar-type tag of an archive, either format. Throws DecodeError on
/// malformed bytes.
std::uint8_t archive_dtype(std::span<const std::uint8_t> a) {
  return is_chunked(a) ? inspect_chunked(a).dtype : inspect_container(a).dtype;
}

/// The decode a decode-direction job asks for.
DecodeRequest request_of(const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kPreview: return DecodeRequest::preview(spec.level);
    case JobKind::kRegion: return DecodeRequest::region(spec.region);
    default: return {};
  }
}

}  // namespace

struct Service::Job {
  JobSpec spec;
  std::promise<JobResult> promise;
  double admit_time = 0;
};

Service::Service(const ServeOptions& opt) : opt_(opt) {
  if (opt.pool) {
    pool_ = opt.pool;
  } else {
    owned_pool_.emplace(opt.workers, opt.cap_to_hardware);
    pool_ = &*owned_pool_;
  }
}

Service::~Service() { drain(); }

std::optional<std::future<JobResult>> Service::submit(JobSpec spec) {
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++counters_.submitted;
    if (in_flight_ >= opt_.queue_capacity) {
      if (opt_.policy == AdmitPolicy::kReject) {
        ++counters_.rejected;
        return std::nullopt;
      }
      cv_space_.wait(lk, [&] { return in_flight_ < opt_.queue_capacity; });
    }
    ++in_flight_;
  }
  job->admit_time = now_s();
  std::future<JobResult> fut = job->promise.get_future();
  pool_->submit([this, job] { run(job); });
  return fut;
}

void Service::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_drain_.wait(lk, [&] { return in_flight_ == 0; });
}

ServiceMetrics Service::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

void Service::run(const std::shared_ptr<Job>& job) {
  const double start = now_s();
  JobResult res;
  res.metrics.queue_wait_s = start - job->admit_time;
  res.metrics.input_bytes = job->spec.input.size();

  // The scheduling decision: small jobs stay width-1 (the worker
  // carries the whole job; internal parallel_for calls run inline and
  // the other workers serve other jobs); large jobs get an equal share
  // of the pool per concurrently-running large job.
  const bool large =
      job->spec.input.size() >= opt_.large_job_bytes && pool_->size() > 1;
  unsigned width = 1;
  if (large) {
    const unsigned active =
        active_large_.fetch_add(1, std::memory_order_acq_rel) + 1;
    width = std::max(1u, pool_->size() / active);
  }
  res.metrics.intra_workers = width;

  try {
    ThreadPool::ScopedWidth cap(width);
    const bool f64 = job->spec.kind == JobKind::kCompress
                         ? job->spec.f64
                         : archive_dtype(job->spec.input) == dtype_tag<double>();
    if (f64)
      execute<double>(job->spec, width, res);
    else
      execute<float>(job->spec, width, res);
    res.metrics.ok = true;
  } catch (const std::exception& e) {
    res.metrics.error = e.what();
  } catch (...) {
    res.metrics.error = "unknown error";
  }
  if (large) active_large_.fetch_sub(1, std::memory_order_acq_rel);
  res.metrics.service_s = now_s() - start;
  res.metrics.output_bytes = res.bytes.size();
  if (res.metrics.input_bytes && res.metrics.output_bytes) {
    const double in = static_cast<double>(res.metrics.input_bytes);
    const double out = static_cast<double>(res.metrics.output_bytes);
    res.metrics.cr = job->spec.kind == JobKind::kCompress ? in / out : out / in;
  }

  const bool ok = res.metrics.ok;
  {
    // Counters first, then the future: a caller that has seen its
    // future resolve must observe this job in metrics() already.
    std::lock_guard<std::mutex> lk(mu_);
    ++(ok ? counters_.completed : counters_.failed);
    if (large) ++counters_.large_jobs;
  }
  job->promise.set_value(std::move(res));
  {
    // Notify under the lock: once drain() observes in_flight_ == 0 the
    // Service may be destroyed, so this block must be the last member
    // access this job makes.
    std::lock_guard<std::mutex> lk(mu_);
    --in_flight_;
    cv_space_.notify_one();
    cv_drain_.notify_all();
  }
}

template <class T>
void Service::execute(const JobSpec& spec, unsigned width, JobResult& res) {
  // Width 1 keeps the job strictly on this worker: no pool handed to
  // the codec stages, so nothing is enqueued behind other jobs. (The
  // ScopedWidth cap would force their parallel_for calls inline anyway;
  // skipping the pool also skips the queue-lock traffic.)
  ThreadPool* intra = width > 1 ? pool_ : nullptr;

  switch (spec.kind) {
    case JobKind::kCompress: {
      const std::size_t want = spec.dims.size() * sizeof(T);
      if (spec.input.size() < want)
        throw std::invalid_argument("serve: compress input is " +
                                    std::to_string(spec.input.size()) +
                                    " bytes, dims need " +
                                    std::to_string(want));
      const T* data = nullptr;
      std::vector<T> copy;
      if (reinterpret_cast<std::uintptr_t>(spec.input.data()) %  // qip-lint: allow(raw-cast) alignment probe on a borrowed buffer
              alignof(T) ==
          0) {
        // Raw scalar dumps served from MappedFile are page-aligned, so
        // the aliasing view is free; a misaligned span (e.g. a payload
        // inside a larger framed buffer) pays one copy.
        data = reinterpret_cast<const T*>(spec.input.data());  // qip-lint: allow(raw-cast) aligned little-endian scalar dump viewed in place
      } else {
        copy.resize(spec.dims.size());
        std::memcpy(copy.data(), spec.input.data(), want);
        data = copy.data();
      }
      if (spec.chunked) {
        ChunkedOptions co;
        co.compressor = spec.codec;
        co.options = spec.options;
        // Always hand the chunked pipeline the shared pool — it would
        // otherwise spin up a private one. The ScopedWidth cap still
        // governs how many workers its slab fan-out may claim (width 1
        // runs the slabs inline on this worker).
        co.options.pool = pool_;
        res.bytes = chunked_compress<T>(data, spec.dims, co);
      } else {
        const CompressorEntry& e = find_compressor(spec.codec);
        GenericOptions o = spec.options;
        o.pool = intra;
        if constexpr (sizeof(T) == 8)
          res.bytes = e.compress_f64(data, spec.dims, o);
        else
          res.bytes = e.compress_f32(data, spec.dims, o);
      }
      res.dims = spec.dims;
      res.f64 = spec.f64;
      return;
    }
    case JobKind::kDecompress:
    case JobKind::kPreview:
    case JobKind::kRegion: {
      // Every decode kind is held to the output cap by its header-declared
      // output size, before anything is allocated.
      const DecodeRequest req = request_of(spec);
      const bool chunked = is_chunked(spec.input);
      const Dims field_dims = chunked ? inspect_chunked(spec.input).dims
                                      : inspect_container(spec.input).dims;
      const Dims out_dims = req.output_dims(field_dims);
      if (out_dims.size() > opt_.max_output_bytes / sizeof(T))
        throw DecodeError("serve: archive output " + out_dims.str() +
                          " exceeds the configured output cap");
      if (chunked) {
        if (req.kind != DecodeRequest::Kind::kFull)
          throw DecodeError("serve: chunked archives serve full decodes only");
        field_to_bytes(chunked_decompress<T>(spec.input, 0, pool_), res);
        return;
      }
      const CompressorEntry& e = find_compressor_for(spec.input);
      PartialDecodeStats stats;
      Field<T> out(out_dims);
      if constexpr (sizeof(T) == 8)
        e.decode_f64(spec.input, req, out.data(), out_dims, intra, &stats);
      else
        e.decode_f32(spec.input, req, out.data(), out_dims, intra, &stats);
      field_to_bytes(out, res);
      // A partial decode's honest input cost is the payload it read.
      if (stats.payload_bytes_read)
        res.metrics.input_bytes = stats.payload_bytes_read;
      return;
    }
  }
  throw std::invalid_argument("serve: unknown job kind");
}

template void Service::execute<float>(const JobSpec&, unsigned, JobResult&);
template void Service::execute<double>(const JobSpec&, unsigned, JobResult&);

}  // namespace qip::serve
