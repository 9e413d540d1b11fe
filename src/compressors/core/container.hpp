#pragma once

// The unified, self-describing archive container shared by every codec.
//
// Outer layout (plaintext, inspectable without any decompression):
//
//   u32   magic            "QIPC" (little-endian 0x43504951)
//   u8    format version   (kContainerVersion)
//   u8    codec id         (CompressorId)
//   u8    dtype            (dtype_tag<T>())
//   dims  varint rank, then one varint extent per axis
//
// Version 3 body — three regions, in order:
//
//   meta      varint length | LZB block of the stage sections
//             (varint section count; per section u8 stage id |
//              varint length | payload bytes)
//   directory varint length | LZB block of the payload directory
//             (varint level count | varint tile size |
//              varint tiled-level count | varint chunk count;
//              per chunk, in payload order: varint level |
//              varint tile+1 (0 = whole domain) | varint length |
//              varint symbol count (0 = raw bytes) |
//              varint outlier count)
//   payload   concatenated chunk frames, each an independent LZB block
//
// Chunk offsets are implicit — each chunk starts where the previous one
// ends — so a hostile directory cannot alias or overlap chunks. Chunks
// are ordered coarse level first (levels strictly descending; within a
// tiled level, tile ids strictly ascending), which is what makes the
// format progressive: a reader holding only a prefix of the payload can
// still decode every chunk that fits, and the directory says exactly
// which ones those are. Chunk byte extents are validated lazily against
// the payload bytes actually present, so a truncated download fails only
// when a missing chunk is really asked for.
//
// Version 2 archives (a single LZB body holding the stage sections, with
// the whole entropy payload inside a kSymbols section) are refused with
// UnknownCodecError at the version gate, like any other unsupported
// version. find_compressor_for, `qipc info`, and the fuzz harness all
// parse exactly the v3 layout and nothing else.

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compressors/core/tiles.hpp"
#include "util/bytes.hpp"
#include "util/dims.hpp"
#include "util/status.hpp"

namespace qip {

class ThreadPool;

inline constexpr std::uint32_t kContainerMagic = 0x43504951;  // "QIPC"

/// Current container format version. Bumped whenever the layout above or
/// any stage payload changes incompatibly; readers reject unknown
/// versions with UnknownCodecError instead of misparsing.
inline constexpr std::uint8_t kContainerVersion = 3;

/// Oldest container version this build still opens.
inline constexpr std::uint8_t kContainerMinVersion = 3;

/// Magic of multi-chunk parallel archives (parallel/chunked.cpp). Listed
/// here so every tool can tell the two top-level formats apart from one
/// set of named constants.
inline constexpr std::uint32_t kChunkedMagic = 0x50504951;  // "QIPP"

/// Plaintext bytes before dims: magic(4) + version(1) + id(1) + dtype(1).
inline constexpr std::size_t kContainerPrefixBytes = 7;

/// Compressor identifiers stored in archives. Serialized; append-only.
enum class CompressorId : std::uint8_t {
  kSZ3 = 1,
  kQoZ = 2,
  kHPEZ = 3,
  kMGARD = 4,
  kZFP = 5,
  kSPERR = 6,
  kTTHRESH = 7,
};

/// Scalar type tag stored in archives.
template <class T>
constexpr std::uint8_t dtype_tag();
template <>
constexpr std::uint8_t dtype_tag<float>() { return 1; }
template <>
constexpr std::uint8_t dtype_tag<double>() { return 2; }

/// Stage sections a codec may store. Serialized; append-only.
enum class StageId : std::uint8_t {
  kConfig = 1,       ///< codec knobs + model state (plan, quantizer, factors)
  kSymbols = 2,      ///< v2's monolithic symbol stream; no codec writes it
  kCorrections = 3,  ///< sparse bound-enforcing patch list
};

/// Human-readable stage name for tools ("config", "symbols", ...).
[[nodiscard]] std::string stage_name(StageId id);

/// Typed decode failure for structurally recognizable containers this
/// build cannot open: an unknown codec id or an unsupported format
/// version. Carries both offending fields so callers (and `qipc`) can
/// report exactly what they met instead of a bare "unknown archive".
class UnknownCodecError : public DecodeError {
 public:
  UnknownCodecError(const std::string& what, std::uint8_t codec_id,
                    std::uint8_t version)
      : DecodeError(what), codec_id_(codec_id), version_(version) {}

  /// For lookups that never saw an archive header (find_compressor by
  /// name): there are no offending header fields to carry, so codec_id
  /// reports the 0xFF sentinel.
  explicit UnknownCodecError(const std::string& what)
      : UnknownCodecError(what, 0xFF, 0) {}

  std::uint8_t codec_id() const noexcept { return codec_id_; }
  std::uint8_t version() const noexcept { return version_; }

 private:
  std::uint8_t codec_id_;
  std::uint8_t version_;
};

/// Refuse, before the archive is read, a request kind that `codec` does
/// not serve; every codec serves kFull.
inline void require_served(DecodeRequest::Kind kind, const std::string& codec,
                           bool preview, bool region) {
  if (kind == DecodeRequest::Kind::kPreview && !preview)
    throw UnknownCodecError(codec + " does not support progressive preview");
  if (kind == DecodeRequest::Kind::kRegion && !region)
    throw UnknownCodecError(codec + " does not support region decode");
}

void write_dims(ByteWriter& w, const Dims& dims);

/// Parse dims written by write_dims(). Rejects rank outside [1, kMaxRank],
/// zero extents, and extent products that would wrap size_t (which would
/// defeat every downstream buffer-size check).
[[nodiscard]] Dims read_dims(ByteReader& r);

/// Everything the plaintext header says about an archive, without
/// touching the compressed stage body.
struct ContainerInfo {
  std::uint8_t version = 0;
  CompressorId codec{};
  std::uint8_t dtype = 0;
  Dims dims;
  std::size_t header_bytes = 0;  ///< plaintext header size
  std::size_t body_bytes = 0;    ///< bytes after the header
};

/// Parse the plaintext header only. Throws DecodeError on malformed
/// bytes and UnknownCodecError on an unsupported format version; does
/// not validate the codec id (that is the registry's call).
[[nodiscard]] ContainerInfo inspect_container(
    std::span<const std::uint8_t> bytes);

/// One stage section of an opened container.
struct StageSection {
  StageId id{};
  std::size_t offset = 0;  ///< into the decompressed meta body
  std::size_t size = 0;
};

/// One payload chunk declared by a v3 directory: the symbols (or raw
/// stream) of one interpolation level, or of one tile within a tiled
/// level. `offset` is implicit — the running sum of the preceding
/// lengths — so hostile directories cannot overlap chunks.
struct ChunkEntry {
  int level = 1;                         ///< interpolation level (1 = finest)
  std::uint64_t tile = kWholeDomainTile; ///< tile id, or whole-domain
  std::uint64_t offset = 0;              ///< into the payload region
  std::uint64_t length = 0;              ///< compressed frame bytes
  std::size_t symbol_count = 0;          ///< decoded u32 symbols; 0 = raw
  std::size_t outlier_count = 0;   ///< quantizer outliers consumed here
  std::size_t outlier_start = 0;   ///< running outlier total before this chunk
};

/// Parsed v3 payload directory. Empty (zero chunks, inactive tiling) for
/// archives that carry no payload chunks.
struct PayloadDirectory {
  int level_count = 0;
  TileLayout tiling;
  std::vector<ChunkEntry> chunks;
};

/// Assembles a container: per-stage byte writers for the metadata
/// sections plus an ordered list of payload chunks, sealed into the v3
/// layout above.
class ContainerWriter {
 public:
  ContainerWriter(CompressorId id, std::uint8_t dtype, const Dims& dims)
      : id_(id), dtype_(dtype), dims_(dims) {}

  /// Writer for the meta section `id`; sections are emitted in first-use
  /// order, and a repeated call appends to the same section.
  [[nodiscard]] ByteWriter& stage(StageId id);

  /// Record the tile layout the payload chunks were produced under.
  void set_tiling(const TileLayout& t) { tiling_ = t; }

  /// Append a payload chunk. Chunks must be added in traversal order:
  /// levels strictly descending, tiles strictly ascending within a tiled
  /// level. `raw` is the chunk's uncompressed frame content (Huffman
  /// bytes for symbol chunks, arbitrary bytes for raw chunks); seal()
  /// LZB-frames each chunk independently. `symbol_count` must be the
  /// number of u32 symbols the frame decodes to, or 0 for raw chunks;
  /// `outlier_count` the number of quantizer outliers the chunk's
  /// symbols consume.
  void add_chunk(int level, std::uint64_t tile, std::size_t symbol_count,
                 std::size_t outlier_count, std::vector<std::uint8_t> raw);

  /// Emit the full archive. `pool` parallelizes the per-chunk lossless
  /// framing and the meta/directory passes; the bytes do not depend on
  /// it.
  [[nodiscard]] std::vector<std::uint8_t> seal(ThreadPool* pool = nullptr);

 private:
  struct PendingChunk {
    int level;
    std::uint64_t tile;
    std::size_t symbol_count;
    std::size_t outlier_count;
    std::vector<std::uint8_t> raw;
  };

  CompressorId id_;
  std::uint8_t dtype_;
  Dims dims_;
  TileLayout tiling_;
  std::vector<std::pair<StageId, ByteWriter>> stages_;
  std::vector<PendingChunk> chunks_;
};

/// Validates and indexes a container: plaintext header checks first,
/// then the meta/directory LZB blocks (each capped at `max_body` to
/// bound what a hostile length header can make us materialize), then the
/// payload directory invariants. Chunk frames are decompressed lazily by
/// chunk_bytes(). Throws DecodeError on malformed input; never reads out
/// of bounds.
///
/// The reader borrows `bytes` for the payload region: the archive buffer
/// must outlive any chunk_bytes() call.
class ContainerReader {
 public:
  static constexpr std::uint64_t kNoBodyCap =
      std::numeric_limits<std::uint64_t>::max();

  /// Open for a specific codec: additionally rejects archives whose
  /// codec id or dtype disagree with the caller's expectation.
  ContainerReader(std::span<const std::uint8_t> bytes, CompressorId expect_id,
                  std::uint8_t expect_dtype,
                  std::uint64_t max_body = kNoBodyCap,
                  ThreadPool* pool = nullptr);

  /// Open without codec/dtype expectations (inspection tools, fuzzing).
  explicit ContainerReader(std::span<const std::uint8_t> bytes,
                           std::uint64_t max_body = kNoBodyCap,
                           ThreadPool* pool = nullptr);

  std::uint8_t version() const { return version_; }
  CompressorId codec() const { return codec_; }
  std::uint8_t dtype() const { return dtype_; }
  const Dims& dims() const { return dims_; }

  /// Stage directory, in on-disk order.
  const std::vector<StageSection>& sections() const { return sections_; }

  bool has_stage(StageId id) const;

  /// Raw payload of stage `id`; throws DecodeError when absent.
  [[nodiscard]] std::span<const std::uint8_t> stage_bytes(StageId id) const;

  /// Cursor over the payload of stage `id`; throws DecodeError when
  /// absent.
  [[nodiscard]] ByteReader stage(StageId id) const {
    return ByteReader(stage_bytes(id));
  }

  /// Payload directory; empty when the archive carries no chunks.
  const PayloadDirectory& directory() const { return dir_; }

  std::size_t chunk_count() const { return dir_.chunks.size(); }

  /// Decompress chunk `index`'s frame. Validates the chunk's byte extent
  /// against the payload actually present (so prefix-truncated archives
  /// fail here, not at parse), caps the decompressed size from the
  /// declared symbol count, and accounts the compressed bytes touched in
  /// payload_bytes_read(). Throws DecodeError on any violation.
  [[nodiscard]] std::vector<std::uint8_t> chunk_bytes(std::size_t index) const;

  /// Compressed payload bytes materialized by chunk_bytes() so far —
  /// the partial-decode efficiency figure surfaced by qipc and asserted
  /// by the progressive tests. Atomic because read_symbols_stage decodes
  /// chunks in parallel.
  std::size_t payload_bytes_read() const {
    return payload_bytes_read_.load(std::memory_order_relaxed);
  }

  /// Payload bytes present in the archive buffer (may be less than the
  /// directory declares for a truncated/streamed prefix).
  std::size_t payload_bytes_available() const { return payload_.size(); }

  /// Payload bytes the directory declares.
  std::size_t payload_bytes_declared() const { return payload_declared_; }

 private:
  void parse(std::span<const std::uint8_t> bytes, std::uint64_t max_body,
             ThreadPool* pool);
  void parse_directory(std::span<const std::uint8_t> dir_bytes);

  std::uint8_t version_ = 0;
  CompressorId codec_{};
  std::uint8_t dtype_ = 0;
  Dims dims_;
  std::vector<std::uint8_t> body_;  ///< decompressed meta sections
  std::vector<StageSection> sections_;
  PayloadDirectory dir_;
  std::span<const std::uint8_t> payload_;  ///< borrowed from the archive
  std::size_t payload_declared_ = 0;
  std::uint64_t max_body_ = kNoBodyCap;
  ThreadPool* pool_ = nullptr;
  mutable std::atomic<std::size_t> payload_bytes_read_{0};
};

}  // namespace qip
