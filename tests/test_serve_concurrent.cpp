// Satellite guard for the serving layer: many threads decoding the SAME
// archive bytes concurrently (full decode, preview, region) must all
// produce outputs bit-identical to a single-threaded reference. Decoders
// take const archive spans and must share no hidden mutable state; this
// test is the tripwire, and it is meant to run under tsan as well.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "compressors/registry.hpp"
#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "parallel/chunked.hpp"
#include "serve/service.hpp"
#include "util/thread_pool.hpp"

namespace qip {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 4;

bool same_bytes(const Field<float>& a, const Field<float>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Run `body` from kThreads threads at once (start barrier via shared
// future) and count how many iterations reported a mismatch.
template <class Body>
int hammer(Body&& body) {
  std::promise<void> go;
  std::shared_future<void> start = go.get_future().share();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.wait();
      for (int i = 0; i < kItersPerThread; ++i)
        if (!body(t, i)) mismatches.fetch_add(1);
    });
  }
  go.set_value();
  for (auto& th : threads) th.join();
  return mismatches.load();
}

TEST(ServeConcurrent, FullDecodeIsBitIdenticalAcrossThreads) {
  const Field<float> f = make_field(DatasetId::kMiranda, 0, Dims{24, 24, 24}, 5);
  const auto& e = find_compressor("SZ3");
  const auto arc = e.compress_f32(f.data(), f.dims(), {});
  const Field<float> ref = e.decompress_f32(arc);

  const int bad = hammer([&](int, int) {
    Field<float> out(ref.dims());
    e.decompress_into_f32(arc, out.data(), ref.dims(), nullptr);
    return same_bytes(out, ref);
  });
  EXPECT_EQ(bad, 0);
}

TEST(ServeConcurrent, PreviewAndRegionAreBitIdenticalAcrossThreads) {
  const Field<float> f = make_field(DatasetId::kMiranda, 1, Dims{32, 32, 32}, 5);
  SZ3Config cfg;
  cfg.qp = QPConfig::best_fit();
  cfg.tile_size = 16;
  cfg.auto_fallback = false;  // pin the interpolation path: tiled v3 archive
  const auto arc = sz3_compress(f.data(), f.dims(), cfg);
  const auto& e = find_compressor("SZ3");

  const Field<float> ref_preview = e.decompress_preview_f32(arc, 1, nullptr);
  Box box = Box::whole(f.dims());
  for (int a = 0; a < 3; ++a) {
    box.lo[a] = 8;
    box.hi[a] = 24;
  }
  const Field<float> ref_region = e.decompress_region_f32(arc, box, nullptr);

  const int bad = hammer([&](int t, int i) {
    if ((t + i) % 2 == 0) {
      const Field<float> p = e.decompress_preview_f32(arc, 1, nullptr);
      return same_bytes(p, ref_preview);
    }
    const Field<float> r = e.decompress_region_f32(arc, box, nullptr);
    return same_bytes(r, ref_region);
  });
  EXPECT_EQ(bad, 0);
}

TEST(ServeConcurrent, ChunkedDecodeIsBitIdenticalAcrossThreads) {
  const Field<float> f = make_field(DatasetId::kMiranda, 2, Dims{32, 32, 32}, 5);
  ChunkedOptions co;
  co.compressor = "SZ3";
  const auto arc = chunked_compress(f.data(), f.dims(), co);
  const Field<float> ref = chunked_decompress<float>(arc, 1);

  // Each thread decodes with its own single-worker pool, so chunk
  // scheduling overlaps across threads while staying deterministic.
  const int bad = hammer([&](int, int) {
    ThreadPool pool(1);
    const Field<float> out = chunked_decompress<float>(arc, 0, &pool);
    return same_bytes(out, ref);
  });
  EXPECT_EQ(bad, 0);
}

TEST(ServeConcurrent, ServiceHammeredWithMixedJobsStaysBitIdentical) {
  const Field<float> f = make_field(DatasetId::kMiranda, 0, Dims{32, 32, 32}, 9);
  SZ3Config cfg;
  cfg.qp = QPConfig::best_fit();
  cfg.tile_size = 16;
  cfg.auto_fallback = false;
  const auto arc = sz3_compress(f.data(), f.dims(), cfg);
  const auto& e = find_compressor("SZ3");

  const Field<float> ref_full = e.decompress_f32(arc);
  const Field<float> ref_preview = e.decompress_preview_f32(arc, 1, nullptr);
  Box box = Box::whole(f.dims());
  for (int a = 0; a < 3; ++a) {
    box.lo[a] = 8;
    box.hi[a] = 24;
  }
  const Field<float> ref_region = e.decompress_region_f32(arc, box, nullptr);

  serve::ServeOptions so;
  so.workers = 4;
  so.cap_to_hardware = false;
  so.queue_capacity = 16;
  so.large_job_bytes = 1;  // every job takes the fan-out decision path
  serve::Service svc(so);

  std::vector<std::future<serve::JobResult>> futs;
  std::vector<int> kinds;
  for (int i = 0; i < 24; ++i) {
    serve::JobSpec spec;
    spec.input = arc;
    const int kind = i % 3;
    if (kind == 0) {
      spec.kind = serve::JobKind::kDecompress;
    } else if (kind == 1) {
      spec.kind = serve::JobKind::kPreview;
      spec.level = 1;
    } else {
      spec.kind = serve::JobKind::kRegion;
      spec.region = box;
    }
    auto fut = svc.submit(std::move(spec));
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
    kinds.push_back(kind);
  }

  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::JobResult r = futs[i].get();
    ASSERT_TRUE(r.metrics.ok) << r.metrics.error;
    const Field<float>& ref = kinds[i] == 0   ? ref_full
                              : kinds[i] == 1 ? ref_preview
                                              : ref_region;
    EXPECT_EQ(r.dims, ref.dims());
    ASSERT_EQ(r.bytes.size(), ref.size() * sizeof(float));
    EXPECT_EQ(0, std::memcmp(r.bytes.data(), ref.data(), r.bytes.size()))
        << "job " << i << " kind " << kinds[i];
  }
  EXPECT_EQ(svc.metrics().failed, 0u);
}

}  // namespace
}  // namespace qip
