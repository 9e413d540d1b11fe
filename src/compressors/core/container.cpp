#include "compressors/core/container.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "lossless/lzb.hpp"
#include "util/thread_pool.hpp"

namespace qip {

std::string stage_name(StageId id) {
  switch (id) {
    case StageId::kConfig: return "config";
    case StageId::kSymbols: return "symbols";
    case StageId::kCorrections: return "corrections";
  }
  return "stage-" + std::to_string(static_cast<unsigned>(id));
}

void write_dims(ByteWriter& w, const Dims& dims) {
  w.put_varint(static_cast<std::uint64_t>(dims.rank()));
  for (int a = 0; a < dims.rank(); ++a) w.put_varint(dims.extent(a));
}

Dims read_dims(ByteReader& r) {
  const std::uint64_t raw_rank = r.get_varint();
  if (raw_rank < 1 || raw_rank > static_cast<std::uint64_t>(kMaxRank))
    throw DecodeError("bad rank in archive");
  const int rank = static_cast<int>(raw_rank);
  std::size_t e[kMaxRank] = {1, 1, 1, 1};
  std::size_t total = 1;
  for (int a = 0; a < rank; ++a) {
    e[a] = static_cast<std::size_t>(r.get_varint());
    if (e[a] == 0) throw DecodeError("zero extent in archive");
    // Element count must stay representable; a product that wraps size_t
    // would defeat every downstream buffer-size check.
    if (e[a] > std::numeric_limits<std::size_t>::max() / total)
      throw DecodeError("extent product overflow in archive");
    total *= e[a];
  }
  return Dims(rank, e);
}

namespace {

struct ParsedHeader {
  ContainerInfo info;
  std::span<const std::uint8_t> body;
};

/// Shared plaintext-header parse for inspect_container / ContainerReader.
ParsedHeader parse_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kContainerPrefixBytes)
    throw DecodeError("archive shorter than header");
  ByteReader r(bytes);
  if (r.get<std::uint32_t>() != kContainerMagic)
    throw DecodeError("bad archive magic");
  ParsedHeader h;
  h.info.version = r.get<std::uint8_t>();
  const std::uint8_t raw_id = r.get<std::uint8_t>();
  h.info.codec = static_cast<CompressorId>(raw_id);
  // Gate the version before dims: a future layout may move or re-encode
  // every field after it, so nothing further is trustworthy.
  if (h.info.version < kContainerMinVersion ||
      h.info.version > kContainerVersion)
    throw UnknownCodecError("unsupported container format version " +
                                std::to_string(h.info.version),
                            raw_id, h.info.version);
  h.info.dtype = r.get<std::uint8_t>();
  h.info.dims = read_dims(r);
  h.info.header_bytes = r.position();
  h.info.body_bytes = r.remaining();
  h.body = r.get_bytes(r.remaining());
  return h;
}

/// Parse a stage-section body (already LZB-decompressed) into a section
/// index.
std::vector<StageSection> parse_sections(
    const std::vector<std::uint8_t>& body) {
  ByteReader b(body);
  const std::uint64_t count = b.get_varint();
  // Each section costs at least two body bytes (id + length), so a count
  // beyond that is unsatisfiable no matter what follows.
  if (count > body.size() / 2 + 1)
    throw DecodeError("stage count exceeds body");
  std::vector<StageSection> sections;
  sections.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto sid = static_cast<StageId>(b.get<std::uint8_t>());
    for (const auto& s : sections)
      if (s.id == sid) throw DecodeError("duplicate stage section");
    const auto blk = b.get_block();
    sections.push_back(
        {sid, static_cast<std::size_t>(blk.data() - body.data()),
         blk.size()});
  }
  if (b.remaining() != 0)
    throw DecodeError("trailing bytes after stage sections");
  return sections;
}

}  // namespace

ContainerInfo inspect_container(std::span<const std::uint8_t> bytes) {
  return parse_header(bytes).info;
}

ByteWriter& ContainerWriter::stage(StageId id) {
  for (auto& [sid, w] : stages_)
    if (sid == id) return w;
  return stages_.emplace_back(id, ByteWriter{}).second;
}

void ContainerWriter::add_chunk(int level, std::uint64_t tile,
                                std::size_t symbol_count,
                                std::size_t outlier_count,
                                std::vector<std::uint8_t> raw) {
  chunks_.push_back(
      {level, tile, symbol_count, outlier_count, std::move(raw)});
}

std::vector<std::uint8_t> ContainerWriter::seal(ThreadPool* pool) {
  ByteWriter meta;
  meta.put_varint(stages_.size());
  for (const auto& [sid, w] : stages_) {
    meta.put(static_cast<std::uint8_t>(sid));
    meta.put_block(w.bytes());
  }

  // Frame every chunk independently so readers can decompress exactly
  // the chunks a preview or region request needs. Chunks are natural
  // parallel units; LZB output is worker-count-independent, so the
  // archive bytes stay identical either way.
  std::vector<std::vector<std::uint8_t>> frames(chunks_.size());
  if (pool && chunks_.size() > 1) {
    pool->parallel_for(chunks_.size(), [&](std::size_t i) {
      frames[i] = lzb_compress(chunks_[i].raw, nullptr);
    });
  } else {
    for (std::size_t i = 0; i < chunks_.size(); ++i)
      frames[i] = lzb_compress(chunks_[i].raw, pool);
  }

  int level_count = 0;
  for (const auto& c : chunks_)
    if (c.level > level_count) level_count = c.level;

  ByteWriter dir;
  dir.put_varint(static_cast<std::uint64_t>(level_count));
  dir.put_varint(tiling_.tile_size);
  dir.put_varint(static_cast<std::uint64_t>(tiling_.max_level));
  dir.put_varint(chunks_.size());
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const auto& c = chunks_[i];
    dir.put_varint(static_cast<std::uint64_t>(c.level));
    dir.put_varint(c.tile == kWholeDomainTile ? 0 : c.tile + 1);
    dir.put_varint(frames[i].size());
    dir.put_varint(c.symbol_count);
    dir.put_varint(c.outlier_count);
  }

  ByteWriter out;
  out.put(kContainerMagic);
  out.put(kContainerVersion);
  out.put(static_cast<std::uint8_t>(id_));
  out.put(dtype_);
  write_dims(out, dims_);
  out.put_block(lzb_compress(meta.bytes(), pool));
  out.put_block(lzb_compress(dir.bytes(), pool));
  for (const auto& f : frames) out.put_bytes(f);
  return out.take();
}

ContainerReader::ContainerReader(std::span<const std::uint8_t> bytes,
                                 CompressorId expect_id,
                                 std::uint8_t expect_dtype,
                                 std::uint64_t max_body, ThreadPool* pool) {
  parse(bytes, max_body, pool);
  if (codec_ != expect_id) throw DecodeError("archive compressor mismatch");
  if (dtype_ != expect_dtype) throw DecodeError("archive dtype mismatch");
}

ContainerReader::ContainerReader(std::span<const std::uint8_t> bytes,
                                 std::uint64_t max_body, ThreadPool* pool) {
  parse(bytes, max_body, pool);
}

void ContainerReader::parse(std::span<const std::uint8_t> bytes,
                            std::uint64_t max_body, ThreadPool* pool) {
  ParsedHeader h = parse_header(bytes);
  version_ = h.info.version;
  codec_ = h.info.codec;
  dtype_ = h.info.dtype;
  dims_ = h.info.dims;
  max_body_ = max_body;
  pool_ = pool;

  ByteReader r(h.body);
  body_ = lzb_decompress(r.get_block(), max_body, pool);
  sections_ = parse_sections(body_);
  const auto dir_block = r.get_block();
  // The directory describes at most a handful of varints per chunk and a
  // chunk per level/tile; a multi-megabyte one is a bomb regardless of
  // max_body.
  const std::uint64_t dir_cap =
      std::min<std::uint64_t>(max_body, std::uint64_t{16} << 20);
  const std::vector<std::uint8_t> dir_bytes =
      lzb_decompress(dir_block, dir_cap, pool);
  parse_directory(dir_bytes);
  payload_ = r.get_bytes(r.remaining());
}

void ContainerReader::parse_directory(
    std::span<const std::uint8_t> dir_bytes) {
  ByteReader d(dir_bytes);
  const std::uint64_t level_count = d.get_varint();
  if (level_count > kMaxPayloadLevels)
    throw DecodeError("payload level count exceeds cap");
  dir_.level_count = static_cast<int>(level_count);

  const std::uint64_t tile_size = d.get_varint();
  if (tile_size != 0 &&
      (tile_size < 8 || tile_size > (std::uint64_t{1} << 30) ||
       (tile_size & (tile_size - 1)) != 0))
    throw DecodeError("bad tile size in payload directory");
  const std::uint64_t tile_levels = d.get_varint();
  if (tile_levels > level_count)
    throw DecodeError("tiled level count exceeds level count");
  if (tile_size == 0 && tile_levels != 0)
    throw DecodeError("tiled levels without a tile size");
  // TileLayout::plan gives every tiled level an edge of at least four
  // known-grid strides (4 * 2^tile_levels). A thinner tile would let a
  // stencil read a same-level point its neighbour writes, so the tile
  // fan-out would race.
  if (tile_levels != 0 &&
      static_cast<std::uint64_t>(std::bit_width(tile_size)) < tile_levels + 3)
    throw DecodeError("tile size too small for its tiled levels");
  dir_.tiling.tile_size = static_cast<std::size_t>(tile_size);
  dir_.tiling.max_level = static_cast<int>(tile_levels);
  const TileGrid grid =
      tile_size != 0 ? TileGrid(dims_, static_cast<std::size_t>(tile_size))
                     : TileGrid{};

  const std::uint64_t count = d.get_varint();
  // Each chunk entry costs at least five directory bytes (five varints),
  // so a count beyond that is unsatisfiable no matter what follows.
  if (count > d.remaining() / 5 + 1)
    throw DecodeError("chunk count exceeds directory");
  dir_.chunks.reserve(static_cast<std::size_t>(count));

  // Tile chunks seen per tiled level (index = level).
  std::array<std::uint64_t, kMaxPayloadLevels + 1> tiles_seen{};
  std::uint64_t offset = 0;
  std::size_t symbol_total = 0;
  std::size_t outlier_total = 0;
  int prev_level = std::numeric_limits<int>::max();
  std::uint64_t prev_tile = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ChunkEntry c;
    const std::uint64_t raw_level = d.get_varint();
    if (raw_level == 0 || raw_level > level_count)
      throw DecodeError("chunk level outside directory range");
    c.level = static_cast<int>(raw_level);
    const std::uint64_t tile_p1 = d.get_varint();
    c.tile = tile_p1 == 0 ? kWholeDomainTile : tile_p1 - 1;
    if (c.tile != kWholeDomainTile) {
      if (!dir_.tiling.tiled(c.level))
        throw DecodeError("tile chunk on an untiled level");
      if (c.tile >= grid.total)
        throw DecodeError("tile id outside tile grid");
      // Completeness: a tiled level lists tiles 0, 1, ... in order, so
      // each tile's symbols sit at a format-determined offset and a
      // region decode never meets a hole in the grid.
      if (c.tile != tiles_seen[static_cast<std::size_t>(c.level)]++)
        throw DecodeError("tiled level skips a tile");
    } else if (dir_.tiling.tiled(c.level)) {
      throw DecodeError("whole-domain chunk on a tiled level");
    }
    // Enforce traversal order: levels strictly descending between
    // groups; within a tiled level, tile ids strictly ascending. This
    // single rule also kills duplicate chunks.
    if (c.level < prev_level) {
      prev_level = c.level;
      prev_tile = c.tile;
    } else if (c.level == prev_level && c.tile != kWholeDomainTile &&
               prev_tile != kWholeDomainTile && c.tile > prev_tile) {
      prev_tile = c.tile;
    } else {
      throw DecodeError("duplicate or misordered payload chunk");
    }
    c.length = d.get_varint();
    if (c.length > std::numeric_limits<std::uint64_t>::max() - offset)
      throw DecodeError("payload length overflow in directory");
    c.offset = offset;
    offset += c.length;
    c.symbol_count = static_cast<std::size_t>(d.get_varint());
    if (c.symbol_count > dims_.size() - symbol_total)
      throw DecodeError("chunk symbol counts exceed field size");
    if (c.tile != kWholeDomainTile &&
        c.symbol_count != level_point_count(dims_, c.level,
                                            grid.box(c.tile, dims_)))
      throw DecodeError("tile chunk symbol count is not its point count");
    symbol_total += c.symbol_count;
    c.outlier_start = outlier_total;
    c.outlier_count = static_cast<std::size_t>(d.get_varint());
    if (c.outlier_count > dims_.size() - outlier_total)
      throw DecodeError("chunk outlier counts exceed field size");
    outlier_total += c.outlier_count;
    dir_.chunks.push_back(c);
  }
  if (d.remaining() != 0)
    throw DecodeError("trailing bytes after payload directory");
  for (int l = 1; l <= dir_.tiling.max_level; ++l)
    if (tiles_seen[static_cast<std::size_t>(l)] != grid.total)
      throw DecodeError("tiled level lacks a tile");
  payload_declared_ = static_cast<std::size_t>(offset);
}

std::vector<std::uint8_t> ContainerReader::chunk_bytes(
    std::size_t index) const {
  if (index >= dir_.chunks.size())
    throw DecodeError("payload chunk index out of range");
  const ChunkEntry& c = dir_.chunks[index];
  // Validated against the payload actually present, not the declared
  // total: a prefix-truncated archive serves every chunk it still holds
  // and fails only here, when a missing one is asked for.
  if (c.offset > payload_.size() || c.length > payload_.size() - c.offset)
    throw DecodeError("payload chunk extends past archive end");
  // Symbol chunks decode to symbol_count u32s; a valid Huffman frame for
  // them is bounded by a few bytes per symbol plus the code table, so
  // anything past that cap is a bomb. Raw chunks (whole-domain, count
  // 0) fall back to the caller's body cap, like the meta block.
  const std::uint64_t sym_cap =
      c.symbol_count < (std::numeric_limits<std::uint64_t>::max() - 65536) / 16
          ? std::uint64_t{16} * c.symbol_count + 65536
          : std::numeric_limits<std::uint64_t>::max();
  const bool symbol_chunk = c.symbol_count != 0 || c.tile != kWholeDomainTile;
  const std::uint64_t cap =
      symbol_chunk ? std::min<std::uint64_t>(max_body_, sym_cap) : max_body_;
  auto frame = payload_.subspan(static_cast<std::size_t>(c.offset),
                                static_cast<std::size_t>(c.length));
  std::vector<std::uint8_t> raw = lzb_decompress(frame, cap, pool_);
  payload_bytes_read_.fetch_add(static_cast<std::size_t>(c.length),
                                std::memory_order_relaxed);
  return raw;
}

bool ContainerReader::has_stage(StageId id) const {
  for (const auto& s : sections_)
    if (s.id == id) return true;
  return false;
}

std::span<const std::uint8_t> ContainerReader::stage_bytes(StageId id) const {
  for (const auto& s : sections_)
    if (s.id == id)
      return std::span<const std::uint8_t>(body_).subspan(s.offset, s.size);
  throw DecodeError("missing " + stage_name(id) + " stage section");
}

}  // namespace qip
