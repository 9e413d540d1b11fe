// Unit tests for the qipd serving layer: job parity against the direct
// API, the bounded admission window (block and reject policies), the
// per-job/intra-job scheduling decision, and failure reporting.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "parallel/chunked.hpp"
#include "util/thread_pool.hpp"

namespace qip {
namespace {

Field<float> sample_field(std::size_t edge = 24) {
  return make_field(DatasetId::kMiranda, 0, Dims{edge, edge, edge}, 7);
}

std::vector<std::uint8_t> to_bytes(const float* p, std::size_t n) {
  std::vector<std::uint8_t> b(n * sizeof(float));
  std::memcpy(b.data(), p, b.size());
  return b;
}

serve::JobResult run_one(serve::Service& svc, serve::JobSpec spec) {
  auto fut = svc.submit(std::move(spec));
  EXPECT_TRUE(fut.has_value());
  return fut->get();
}

TEST(Serve, CompressMatchesDirectApi) {
  const Field<float> f = sample_field();
  const auto raw = to_bytes(f.data(), f.size());

  serve::ServeOptions so;
  so.workers = 2;
  serve::Service svc(so);

  serve::JobSpec spec;
  spec.kind = serve::JobKind::kCompress;
  spec.codec = "SZ3";
  spec.input = raw;
  spec.dims = f.dims();
  const serve::JobResult r = run_one(svc, spec);
  ASSERT_TRUE(r.metrics.ok) << r.metrics.error;

  const auto direct =
      find_compressor("SZ3").compress_f32(f.data(), f.dims(), {});
  EXPECT_EQ(r.bytes, direct);
  EXPECT_EQ(r.metrics.input_bytes, raw.size());
  EXPECT_EQ(r.metrics.output_bytes, direct.size());
  EXPECT_GT(r.metrics.cr, 1.0);
  EXPECT_GE(r.metrics.queue_wait_s, 0.0);
  EXPECT_GE(r.metrics.intra_workers, 1u);
}

TEST(Serve, DecompressMatchesDirectApiAndDetectsDtype) {
  const Field<float> f = sample_field();
  const auto& e = find_compressor("QoZ");
  const auto arc = e.compress_f32(f.data(), f.dims(), {});

  serve::Service svc({});
  serve::JobSpec spec;
  spec.kind = serve::JobKind::kDecompress;
  spec.input = arc;
  const serve::JobResult r = run_one(svc, spec);
  ASSERT_TRUE(r.metrics.ok) << r.metrics.error;
  EXPECT_FALSE(r.f64);
  EXPECT_EQ(r.dims, f.dims());

  const Field<float> direct = e.decompress_f32(arc);
  ASSERT_EQ(r.bytes.size(), direct.size() * sizeof(float));
  EXPECT_EQ(0, std::memcmp(r.bytes.data(), direct.data(), r.bytes.size()));
}

TEST(Serve, ChunkedArchivesAreDetectedAndServed) {
  const Field<float> f = sample_field(32);
  ChunkedOptions co;
  co.compressor = "SZ3";
  const auto arc = chunked_compress(f.data(), f.dims(), co);

  serve::ServeOptions so;
  so.workers = 2;
  so.cap_to_hardware = false;  // 1-core CI must still get 2 real workers
  so.large_job_bytes = 1;      // force the intra-job fan-out path
  serve::Service svc(so);
  serve::JobSpec spec;
  spec.kind = serve::JobKind::kDecompress;
  spec.input = arc;
  const serve::JobResult r = run_one(svc, spec);
  ASSERT_TRUE(r.metrics.ok) << r.metrics.error;

  const Field<float> direct = chunked_decompress<float>(arc);
  ASSERT_EQ(r.bytes.size(), direct.size() * sizeof(float));
  EXPECT_EQ(0, std::memcmp(r.bytes.data(), direct.data(), r.bytes.size()));
  EXPECT_EQ(svc.metrics().large_jobs, 1u);
}

TEST(Serve, PreviewAndRegionMatchDirectApi) {
  const Field<float> f = sample_field(32);
  SZ3Config cfg;
  cfg.qp = QPConfig::best_fit();
  cfg.tile_size = 16;
  cfg.auto_fallback = false;
  const auto arc = sz3_compress(f.data(), f.dims(), cfg);
  const auto& e = find_compressor("SZ3");

  serve::Service svc({});
  {
    serve::JobSpec spec;
    spec.kind = serve::JobKind::kPreview;
    spec.input = arc;
    spec.level = 1;
    const serve::JobResult r = run_one(svc, spec);
    ASSERT_TRUE(r.metrics.ok) << r.metrics.error;
    const Field<float> direct = e.decompress_preview_f32(arc, 1, nullptr);
    EXPECT_EQ(r.dims, direct.dims());
    ASSERT_EQ(r.bytes.size(), direct.size() * sizeof(float));
    EXPECT_EQ(0, std::memcmp(r.bytes.data(), direct.data(), r.bytes.size()));
    // A preview's input cost is the prefix it actually read.
    EXPECT_LT(r.metrics.input_bytes, arc.size());
  }
  {
    serve::JobSpec spec;
    spec.kind = serve::JobKind::kRegion;
    spec.input = arc;
    spec.region = Box::whole(f.dims());
    for (int a = 0; a < 3; ++a) {
      spec.region.lo[a] = 4;
      spec.region.hi[a] = 20;
    }
    const serve::JobResult r = run_one(svc, spec);
    ASSERT_TRUE(r.metrics.ok) << r.metrics.error;
    const Field<float> direct =
        e.decompress_region_f32(arc, spec.region, nullptr);
    EXPECT_EQ(r.dims, direct.dims());
    ASSERT_EQ(r.bytes.size(), direct.size() * sizeof(float));
    EXPECT_EQ(0, std::memcmp(r.bytes.data(), direct.data(), r.bytes.size()));
  }
}

TEST(Serve, F64RoundtripThroughService) {
  Field<double> f(Dims{16, 16, 16});
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = 0.25 * static_cast<double>(i % 97);
  std::vector<std::uint8_t> raw(f.size() * sizeof(double));
  std::memcpy(raw.data(), f.data(), raw.size());

  serve::Service svc({});
  serve::JobSpec c;
  c.kind = serve::JobKind::kCompress;
  c.codec = "SZ3";
  c.input = raw;
  c.dims = f.dims();
  c.f64 = true;
  const serve::JobResult arc = run_one(svc, c);
  ASSERT_TRUE(arc.metrics.ok) << arc.metrics.error;

  serve::JobSpec d;
  d.kind = serve::JobKind::kDecompress;
  d.input = arc.bytes;
  const serve::JobResult rec = run_one(svc, d);
  ASSERT_TRUE(rec.metrics.ok) << rec.metrics.error;
  EXPECT_TRUE(rec.f64);
  EXPECT_EQ(rec.dims, f.dims());
}

TEST(Serve, RejectPolicyShedsLoadWhenWindowIsFull) {
  // Deterministic saturation: the service borrows a single-worker pool
  // whose worker is parked on a promise, so the one admitted job can
  // never start until we release it.
  ThreadPool pool(1);
  std::promise<void> release;
  auto blocker = pool.submit([&] { release.get_future().wait(); });

  serve::ServeOptions so;
  so.pool = &pool;
  so.queue_capacity = 1;
  so.policy = serve::AdmitPolicy::kReject;
  serve::Service svc(so);

  const Field<float> f = sample_field(8);
  const auto raw = to_bytes(f.data(), f.size());
  serve::JobSpec spec;
  spec.kind = serve::JobKind::kCompress;
  spec.input = raw;
  spec.dims = f.dims();

  auto admitted = svc.submit(spec);
  ASSERT_TRUE(admitted.has_value());
  auto rejected = svc.submit(spec);
  EXPECT_FALSE(rejected.has_value());

  release.set_value();
  blocker.get();
  ASSERT_TRUE(admitted->get().metrics.ok);

  const serve::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.failed, 0u);
}

TEST(Serve, BlockPolicyWaitsForSpaceInsteadOfRejecting) {
  ThreadPool pool(1);
  std::promise<void> release;
  auto blocker = pool.submit([&] { release.get_future().wait(); });

  serve::ServeOptions so;
  so.pool = &pool;
  so.queue_capacity = 1;
  so.policy = serve::AdmitPolicy::kBlock;
  serve::Service svc(so);

  const Field<float> f = sample_field(8);
  const auto raw = to_bytes(f.data(), f.size());
  serve::JobSpec spec;
  spec.kind = serve::JobKind::kCompress;
  spec.input = raw;
  spec.dims = f.dims();

  auto first = svc.submit(spec);
  ASSERT_TRUE(first.has_value());

  std::atomic<bool> second_admitted{false};
  std::thread submitter([&] {
    auto second = svc.submit(spec);
    second_admitted.store(true);
    ASSERT_TRUE(second.has_value());
    ASSERT_TRUE(second->get().metrics.ok);
  });
  // The window is full, so the submitter must still be blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_admitted.load());

  release.set_value();
  blocker.get();
  submitter.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(svc.metrics().completed, 2u);
  EXPECT_EQ(svc.metrics().rejected, 0u);
}

TEST(Serve, FailuresResolveTheFutureWithErrorNotThrow) {
  serve::Service svc({});
  const std::vector<std::uint8_t> garbage = {9, 9, 9, 9, 9, 9, 9, 9};
  serve::JobSpec spec;
  spec.kind = serve::JobKind::kDecompress;
  spec.input = garbage;
  const serve::JobResult r = run_one(svc, spec);
  EXPECT_FALSE(r.metrics.ok);
  EXPECT_FALSE(r.metrics.error.empty());
  EXPECT_EQ(svc.metrics().failed, 1u);
}

TEST(Serve, OutputCapRefusesBombArchives) {
  // Every decode kind is held to the cap by its header-declared output.
  const Field<float> f = sample_field(32);
  SZ3Config cfg;
  cfg.tile_size = 16;
  cfg.auto_fallback = false;  // pin the interpolation path: tiled archive
  const auto arc = sz3_compress(f.data(), f.dims(), cfg);
  ChunkedOptions co;
  co.compressor = "SZ3";
  const auto chunked = chunked_compress(f.data(), f.dims(), co);
  serve::ServeOptions so;
  so.max_output_bytes = 64;  // way below the 32^3 output
  serve::Service svc(so);

  serve::JobSpec full;
  full.kind = serve::JobKind::kDecompress;
  full.input = arc;
  serve::JobSpec slabs = full;
  slabs.input = chunked;
  serve::JobSpec preview = full;
  preview.kind = serve::JobKind::kPreview;
  preview.level = 1;
  serve::JobSpec region = full;
  region.kind = serve::JobKind::kRegion;
  region.region = Box::whole(f.dims());
  for (const serve::JobSpec& spec : {full, slabs, preview, region}) {
    const serve::JobResult r = run_one(svc, spec);
    EXPECT_FALSE(r.metrics.ok) << static_cast<int>(spec.kind);
    EXPECT_TRUE(r.bytes.empty());
    EXPECT_NE(r.metrics.error.find("output cap"), std::string::npos)
        << r.metrics.error;
  }

  // The cap is on the request's output, not the archive's field: a 2^3
  // region (32 bytes) of the same archive is served.
  for (int a = 0; a < 3; ++a) region.region.hi[a] = 2;
  const serve::JobResult r = run_one(svc, region);
  ASSERT_TRUE(r.metrics.ok) << r.metrics.error;
  EXPECT_EQ(r.bytes.size(), 8 * sizeof(float));
}

TEST(Serve, SmallJobsStayWidthOneLargeJobsFanOut) {
  const Field<float> f = sample_field(32);
  const auto raw = to_bytes(f.data(), f.size());

  serve::ServeOptions so;
  so.workers = 2;
  so.cap_to_hardware = false;
  so.large_job_bytes = raw.size() + 1;  // everything is "small"
  serve::Service svc(so);
  serve::JobSpec spec;
  spec.kind = serve::JobKind::kCompress;
  spec.input = raw;
  spec.dims = f.dims();
  EXPECT_EQ(run_one(svc, spec).metrics.intra_workers, 1u);
  EXPECT_EQ(svc.metrics().large_jobs, 0u);

  serve::ServeOptions so2 = so;
  so2.large_job_bytes = 1;  // everything is "large"
  serve::Service svc2(so2);
  EXPECT_GT(run_one(svc2, spec).metrics.intra_workers, 1u);
  EXPECT_EQ(svc2.metrics().large_jobs, 1u);
}

TEST(Serve, DrainWaitsForAllAdmittedJobs) {
  const Field<float> f = sample_field(16);
  const auto raw = to_bytes(f.data(), f.size());
  serve::ServeOptions so;
  so.workers = 2;
  serve::Service svc(so);

  std::vector<std::future<serve::JobResult>> futs;
  for (int i = 0; i < 12; ++i) {
    serve::JobSpec spec;
    spec.kind = serve::JobKind::kCompress;
    spec.input = raw;
    spec.dims = f.dims();
    auto fut = svc.submit(std::move(spec));
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
  }
  svc.drain();
  for (auto& fut : futs)
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  EXPECT_EQ(svc.metrics().completed, 12u);
}

}  // namespace
}  // namespace qip
