#include "parallel/chunked.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>

#include "compressors/core/container.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace qip {
namespace {

Dims slab_dims(const Dims& d, std::size_t thickness) {
  switch (d.rank()) {
    case 1: return Dims{thickness};
    case 2: return Dims{thickness, d.extent(1)};
    case 3: return Dims{thickness, d.extent(1), d.extent(2)};
    default: return Dims{thickness, d.extent(1), d.extent(2), d.extent(3)};
  }
}

template <class T>
const auto& compress_fn(const CompressorEntry& e) {
  if constexpr (std::is_same_v<T, float>)
    return e.compress_f32;
  else
    return e.compress_f64;
}

template <class T>
const auto& decompress_into_fn(const CompressorEntry& e) {
  if constexpr (std::is_same_v<T, float>)
    return e.decompress_into_f32;
  else
    return e.decompress_into_f64;
}

/// Resolve the pool to run on: the caller's shared pool when provided,
/// otherwise a locally owned one with `workers` threads.
ThreadPool* resolve_pool(ThreadPool* shared, unsigned workers,
                         std::optional<ThreadPool>& owned) {
  if (shared) return shared;
  owned.emplace(workers ? workers
                        : std::max(1u, std::thread::hardware_concurrency()));
  return &*owned;
}

}  // namespace

template <class T>
std::vector<std::uint8_t> chunked_compress(const T* data, const Dims& dims,
                                           const ChunkedOptions& opt) {
  const CompressorEntry& comp = find_compressor(opt.compressor);

  std::size_t slab = opt.slab;
  if (slab == 0) {
    // Fixed chunk-count target: the slab geometry (and therefore the
    // archive bytes) must never depend on how many workers happen to be
    // available, only on the field shape.
    constexpr std::size_t kTargetChunks = 16;
    slab = std::max<std::size_t>(
        8, (dims.extent(0) + kTargetChunks - 1) / kTargetChunks);
  }
  slab = std::min(slab, dims.extent(0));
  const std::size_t nchunks = (dims.extent(0) + slab - 1) / slab;
  const std::size_t plane = dims.size() / dims.extent(0);

  std::optional<ThreadPool> owned;
  ThreadPool* pool = resolve_pool(opt.options.pool, opt.workers, owned);
  GenericOptions slab_opt = opt.options;
  // Intra-slab stages reuse the same workers — but only when slabs alone
  // cannot saturate the pool. Once there is at least one slab per worker,
  // nested fan-out adds queue-lock traffic without exposing new
  // parallelism, and under serving load it would steal continuation
  // slots from other jobs sharing the pool.
  slab_opt.pool = nchunks >= pool->size() ? nullptr : pool;

  std::vector<std::vector<std::uint8_t>> parts(nchunks);
  pool->parallel_for(nchunks, [&](std::size_t c) {
    const std::size_t z0 = c * slab;
    const std::size_t thick = std::min(slab, dims.extent(0) - z0);
    parts[c] = compress_fn<T>(comp)(data + z0 * plane,
                                    slab_dims(dims, thick), slab_opt);
  });

  ByteWriter w;
  w.put(kChunkedMagic);
  w.put(dtype_tag<T>());
  write_dims(w, dims);
  w.put_varint(slab);
  w.put_varint(nchunks);
  // Name length-prefixed so future compressors with longer names fit.
  w.put_varint(opt.compressor.size());
  for (char c : opt.compressor) w.put(static_cast<std::uint8_t>(c));
  for (const auto& p : parts) w.put_block(p);
  return w.take();
}

template <class T>
Field<T> chunked_decompress(std::span<const std::uint8_t> archive,
                            unsigned workers, ThreadPool* shared_pool) {
  if (archive.size() < 5) throw DecodeError("chunked archive too short");
  ByteReader r(archive);
  if (r.get<std::uint32_t>() != kChunkedMagic)
    throw DecodeError("not a chunked archive");
  if (r.get<std::uint8_t>() != dtype_tag<T>())
    throw DecodeError("chunked archive dtype mismatch");
  const Dims dims = read_dims(r);
  const std::size_t slab = static_cast<std::size_t>(r.get_varint());
  const std::size_t nchunks = static_cast<std::size_t>(r.get_varint());
  // The chunk geometry must be internally consistent before any slab is
  // decoded: every chunk spans `slab` leading planes except a short tail.
  if (slab == 0 || slab > dims.extent(0))
    throw DecodeError("chunked archive bad slab size");
  if (nchunks != (dims.extent(0) + slab - 1) / slab)
    throw DecodeError("chunked archive chunk count mismatch");
  const std::size_t name_len = static_cast<std::size_t>(r.get_varint());
  if (name_len > r.remaining())
    throw DecodeError("chunked archive name overruns buffer");
  const auto name_bytes = r.get_bytes(name_len);
  const std::string name(name_bytes.begin(), name_bytes.end());
  const CompressorEntry& comp = find_compressor(name);

  std::vector<std::span<const std::uint8_t>> parts(nchunks);
  for (auto& p : parts) p = r.get_block();

  Field<T> out(dims);
  const std::size_t plane = dims.size() / dims.extent(0);
  std::optional<ThreadPool> owned;
  ThreadPool* pool = resolve_pool(shared_pool, workers, owned);
  const auto& dec_into = decompress_into_fn<T>(comp);
  // Same saturation rule as the compress side: with fewer slabs than
  // workers, let each slab's internal stages fan out over the leftover
  // workers; once slabs cover the pool, nested fan-out is pure overhead.
  ThreadPool* intra = nchunks >= pool->size() ? nullptr : pool;
  pool->parallel_for(nchunks, [&](std::size_t c) {
    const std::size_t z0 = c * slab;
    const std::size_t thick = std::min(slab, dims.extent(0) - z0);
    // Decode straight into the slab's final position: no per-slab
    // temporary field and no copy. A shape mismatch throws inside.
    dec_into(parts[c], out.data() + z0 * plane, slab_dims(dims, thick),
             intra);
  });
  return out;
}

template std::vector<std::uint8_t> chunked_compress<float>(
    const float*, const Dims&, const ChunkedOptions&);
template std::vector<std::uint8_t> chunked_compress<double>(
    const double*, const Dims&, const ChunkedOptions&);
template Field<float> chunked_decompress<float>(std::span<const std::uint8_t>,
                                                unsigned, ThreadPool*);
template Field<double> chunked_decompress<double>(std::span<const std::uint8_t>,
                                                  unsigned, ThreadPool*);

}  // namespace qip
