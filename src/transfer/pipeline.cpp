#include "transfer/pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qip {
namespace {

/// Dims of one slice (axis 0 removed if rank > 1).
Dims slice_dims(const Dims& d) {
  const std::array<std::size_t, kMaxRank> e{d.extent(1), d.extent(2),
                                            d.extent(3), 1};
  return Dims(std::max(1, d.rank() - 1), e);
}

}  // namespace

StageTimes TransferReport::modeled(unsigned cores) const {
  StageTimes t;
  const double P = std::max(1u, cores);
  t.compress = std::max(total_compress_cpu / P, max_slice_compress);
  t.decompress = std::max(total_decompress_cpu / P, max_slice_decompress);
  const double storage_bw =
      std::min(P * config.storage_per_core_mbps, config.storage_aggregate_mbps);
  t.write = compressed_bytes / 1e6 / storage_bw;
  t.read = t.write;
  t.transfer = compressed_bytes / 1e6 / config.link_mbps;
  return t;
}

double TransferReport::vanilla_transfer_seconds() const {
  return original_bytes / 1e6 / config.link_mbps;
}

TransferReport TransferReport::scaled(double k) const {
  TransferReport r = *this;
  r.original_bytes = static_cast<std::size_t>(original_bytes * k);
  r.compressed_bytes = static_cast<std::size_t>(compressed_bytes * k);
  r.slice_count = static_cast<std::size_t>(slice_count * k);
  r.total_compress_cpu = total_compress_cpu * k;
  r.total_decompress_cpu = total_decompress_cpu * k;
  // max per-slice costs are intensive quantities: unchanged.
  return r;
}

TransferReport run_transfer_pipeline(const Field<float>& data,
                                     const TransferConfig& cfg) {
  const Dims& d = data.dims();
  const std::size_t nslices = d.extent(0);
  const Dims sd = slice_dims(d);
  const std::size_t slice_elems = sd.size();

  const CompressorEntry& comp = find_compressor(cfg.compressor);
  GenericOptions opt;
  opt.error_bound = cfg.error_bound;
  opt.qp = cfg.qp;

  TransferReport rep;
  rep.config = cfg;
  rep.original_bytes = data.size() * sizeof(float);
  rep.slice_count = nslices;

  std::vector<std::vector<std::uint8_t>> archives(nslices);
  std::vector<double> ct(nslices, 0.0), dt(nslices, 0.0);
  Field<float> recon(d);

  // workers == 0 means one per hardware thread; explicit counts are
  // capped there too (ThreadPool's default policy) so a config tuned on
  // a big node does not oversubscribe a small one.
  ThreadPool pool(cfg.workers);

  // Compress every slice (measured individually).
  pool.parallel_for(nslices, [&](std::size_t s) {
    Timer t;
    archives[s] = comp.compress_f32(data.data() + s * slice_elems, sd, opt);
    ct[s] = t.seconds();
  });

  // Decompress every slice into the reconstruction (measured).
  pool.parallel_for(nslices, [&](std::size_t s) {
    Timer t;
    const Field<float> dec = comp.decompress_f32(archives[s]);
    dt[s] = t.seconds();
    if (dec.size() != slice_elems)
      throw DecodeError("transfer slice size mismatch");
    std::copy(dec.data(), dec.data() + slice_elems,
              recon.data() + s * slice_elems);
  });

  for (std::size_t s = 0; s < nslices; ++s) {
    rep.compressed_bytes += archives[s].size();
    rep.total_compress_cpu += ct[s];
    rep.max_slice_compress = std::max(rep.max_slice_compress, ct[s]);
    rep.total_decompress_cpu += dt[s];
    rep.max_slice_decompress = std::max(rep.max_slice_decompress, dt[s]);
  }
  rep.compression_ratio =
      static_cast<double>(rep.original_bytes) / rep.compressed_bytes;
  rep.psnr = psnr(data.span(), recon.span());
  rep.max_abs_err = max_abs_error(data.span(), recon.span());
  if (rep.max_abs_err > cfg.error_bound * (1 + 1e-9))
    throw std::runtime_error("qip: transfer pipeline violated error bound");
  return rep;
}

}  // namespace qip
