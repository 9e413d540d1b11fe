#pragma once

// Chunked parallel (de)compression.
//
// Splits a field into contiguous slabs along axis 0, compresses each
// slab independently with any registered compressor on a thread pool,
// and frames the results into one self-describing archive. This is the
// shared-memory analog of the paper's embarrassingly-parallel transfer
// setup (Sec. VI-E) and the standard way to push the single-threaded
// compressors to full-node throughput. Slab independence costs a little
// ratio (no cross-slab prediction) and buys linear scaling plus
// random-access decompression per slab.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compressors/registry.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

namespace qip {

struct ChunkedOptions {
  std::string compressor = "SZ3";
  GenericOptions options;  ///< error bound + QP config per chunk
  /// Target slab thickness along axis 0; 0 = auto. The auto choice is a
  /// pure function of the field shape (fixed chunk-count target), never
  /// of the worker count, so the archive bytes are identical no matter
  /// how many threads produced them.
  std::size_t slab = 0;
  /// Worker count when the shared pool in `options.pool` is not set;
  /// 0 = hardware concurrency. Ignored when `options.pool` is provided —
  /// that pool is reused for slab-level and intra-field parallelism.
  unsigned workers = 0;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> chunked_compress(
    const T* data, const Dims& dims, const ChunkedOptions& opt);

/// The header of a chunked archive and its per-slab archives.
struct ChunkedInfo {
  std::uint8_t dtype = 0;
  Dims dims;             ///< the whole field
  std::size_t slab = 0;  ///< leading planes per chunk (the tail may be short)
  std::string compressor;
  std::vector<std::span<const std::uint8_t>> parts;  ///< one per chunk
};

/// Does `archive` lead with the chunked magic (vs a plain container)?
[[nodiscard]] bool is_chunked(std::span<const std::uint8_t> archive);

/// Parse a chunked archive's header and slab framing without decoding
/// any slab. Throws DecodeError on bad magic, inconsistent chunk
/// geometry or truncated blocks.
[[nodiscard]] ChunkedInfo inspect_chunked(
    std::span<const std::uint8_t> archive);

/// Throws DecodeError on malformed archives (inspect_chunked's checks, or
/// a dtype mismatch). Each slab is decoded with a full request straight
/// into its final position in the output field (no per-slab temporary).
/// Pass `pool` to reuse a shared worker pool; otherwise a local pool with
/// `workers` threads (0 = hardware concurrency) is spun up.
template <class T>
[[nodiscard]] Field<T> chunked_decompress(std::span<const std::uint8_t> archive,
                                          unsigned workers = 0,
                                          ThreadPool* pool = nullptr);

extern template std::vector<std::uint8_t> chunked_compress<float>(
    const float*, const Dims&, const ChunkedOptions&);
extern template std::vector<std::uint8_t> chunked_compress<double>(
    const double*, const Dims&, const ChunkedOptions&);
extern template Field<float> chunked_decompress<float>(
    std::span<const std::uint8_t>, unsigned, ThreadPool*);
extern template Field<double> chunked_decompress<double>(
    std::span<const std::uint8_t>, unsigned, ThreadPool*);

}  // namespace qip
