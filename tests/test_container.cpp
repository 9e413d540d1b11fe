// Unit tests for the unified archive container.

#include "compressors/core/container.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "lossless/lzb.hpp"

namespace qip {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(Container, SealOpenRoundtrip) {
  ContainerWriter w(CompressorId::kQoZ, dtype_tag<float>(), Dims{4, 5});
  w.stage(StageId::kConfig).put_bytes(bytes_of({1, 2, 3}));
  w.stage(StageId::kSymbols).put_bytes(bytes_of({4, 5, 6, 7}));
  const auto arc = w.seal();

  const ContainerReader in(arc, CompressorId::kQoZ, dtype_tag<float>());
  EXPECT_EQ(in.version(), kContainerVersion);
  EXPECT_EQ(in.codec(), CompressorId::kQoZ);
  EXPECT_EQ(in.dtype(), dtype_tag<float>());
  EXPECT_EQ(in.dims(), (Dims{4, 5}));
  ASSERT_EQ(in.sections().size(), 2u);
  const auto cfg = in.stage_bytes(StageId::kConfig);
  EXPECT_EQ(std::vector<std::uint8_t>(cfg.begin(), cfg.end()),
            bytes_of({1, 2, 3}));
  const auto sym = in.stage_bytes(StageId::kSymbols);
  EXPECT_EQ(std::vector<std::uint8_t>(sym.begin(), sym.end()),
            bytes_of({4, 5, 6, 7}));
}

TEST(Container, GoldenHeaderLayout) {
  // Pin the plaintext header byte-for-byte: "QIPC" little-endian, format
  // version, codec id, dtype, varint rank + extents. A failure here means
  // the on-disk format changed — bump kContainerVersion.
  ContainerWriter w(CompressorId::kHPEZ, dtype_tag<double>(), Dims{3, 300});
  w.stage(StageId::kConfig).put_bytes(bytes_of({9}));
  const auto arc = w.seal();
  ASSERT_GE(arc.size(), 11u);
  EXPECT_EQ(arc[0], 0x51);  // 'Q'
  EXPECT_EQ(arc[1], 0x49);  // 'I'
  EXPECT_EQ(arc[2], 0x50);  // 'P'
  EXPECT_EQ(arc[3], 0x43);  // 'C'
  EXPECT_EQ(arc[4], kContainerVersion);
  EXPECT_EQ(arc[5], static_cast<std::uint8_t>(CompressorId::kHPEZ));
  EXPECT_EQ(arc[6], dtype_tag<double>());
  EXPECT_EQ(arc[7], 2);     // rank
  EXPECT_EQ(arc[8], 3);     // extent 3
  EXPECT_EQ(arc[9], 0xAC);  // extent 300 = varint AC 02
  EXPECT_EQ(arc[10], 0x02);

  const ContainerInfo info = inspect_container(arc);
  EXPECT_EQ(info.header_bytes, 11u);
  EXPECT_EQ(info.body_bytes, arc.size() - 11u);
}

TEST(Container, InspectReadsHeaderOnly) {
  ContainerWriter w(CompressorId::kSPERR, dtype_tag<double>(), Dims{6, 7, 8});
  w.stage(StageId::kSymbols).put_bytes(bytes_of({1}));
  const auto arc = w.seal();
  const ContainerInfo info = inspect_container(arc);
  EXPECT_EQ(info.version, kContainerVersion);
  EXPECT_EQ(info.codec, CompressorId::kSPERR);
  EXPECT_EQ(info.dtype, dtype_tag<double>());
  EXPECT_EQ(info.dims, (Dims{6, 7, 8}));
}

TEST(Container, RepeatedStageCallAppends) {
  ContainerWriter w(CompressorId::kSZ3, dtype_tag<float>(), Dims{2});
  w.stage(StageId::kConfig).put_bytes(bytes_of({1, 2}));
  w.stage(StageId::kSymbols).put_bytes(bytes_of({9}));
  w.stage(StageId::kConfig).put_bytes(bytes_of({3}));
  const auto arc = w.seal();
  const ContainerReader in(arc, CompressorId::kSZ3, dtype_tag<float>());
  const auto cfg = in.stage_bytes(StageId::kConfig);
  EXPECT_EQ(std::vector<std::uint8_t>(cfg.begin(), cfg.end()),
            bytes_of({1, 2, 3}));
}

TEST(Container, MissingStageThrows) {
  ContainerWriter w(CompressorId::kSZ3, dtype_tag<float>(), Dims{2});
  w.stage(StageId::kConfig).put_bytes(bytes_of({1}));
  const auto arc = w.seal();
  const ContainerReader in(arc, CompressorId::kSZ3, dtype_tag<float>());
  EXPECT_TRUE(in.has_stage(StageId::kConfig));
  EXPECT_FALSE(in.has_stage(StageId::kCorrections));
  EXPECT_THROW((void)in.stage_bytes(StageId::kCorrections), DecodeError);
}

TEST(Container, WrongIdRejected) {
  ContainerWriter w(CompressorId::kSZ3, dtype_tag<float>(), Dims{2});
  const auto arc = w.seal();
  EXPECT_THROW(
      ContainerReader(arc, CompressorId::kHPEZ, dtype_tag<float>()),
      DecodeError);
}

TEST(Container, WrongDtypeRejected) {
  ContainerWriter w(CompressorId::kSZ3, dtype_tag<float>(), Dims{2});
  const auto arc = w.seal();
  EXPECT_THROW(
      ContainerReader(arc, CompressorId::kSZ3, dtype_tag<double>()),
      DecodeError);
}

TEST(Container, BadMagicRejected) {
  const auto junk = bytes_of({9, 9, 9, 9, 9, 9, 9, 9});
  EXPECT_THROW(ContainerReader(junk, CompressorId::kSZ3, dtype_tag<float>()),
               DecodeError);
  EXPECT_THROW((void)inspect_container(junk), DecodeError);
}

TEST(Container, UnknownVersionRejectedWithTypedError) {
  ContainerWriter w(CompressorId::kSZ3, dtype_tag<float>(), Dims{2});
  auto arc = w.seal();
  arc[4] = kContainerVersion + 1;
  try {
    (void)inspect_container(arc);
    FAIL() << "future version must not parse";
  } catch (const UnknownCodecError& e) {
    EXPECT_EQ(e.version(), kContainerVersion + 1);
    EXPECT_EQ(e.codec_id(), static_cast<std::uint8_t>(CompressorId::kSZ3));
  }
}

TEST(Container, DimsRoundtripAllRanks) {
  for (Dims d : {Dims{7}, Dims{3, 4}, Dims{100, 500, 500},
                 Dims{3600, 449, 449, 235}}) {
    ByteWriter w;
    write_dims(w, d);
    const auto buf = w.bytes();
    ByteReader r(buf);
    EXPECT_EQ(read_dims(r), d);
  }
}

TEST(Container, BadRankRejected) {
  ByteWriter w;
  w.put_varint(9);  // rank 9
  const auto buf = w.bytes();
  ByteReader r(buf);
  EXPECT_THROW((void)read_dims(r), DecodeError);
}

// Regression tests distilled from the fuzz corpus (tests/fuzz/corpus/
// fuzz_archive): hostile framing must raise DecodeError, never UB.

TEST(Container, TruncatedHeaderRejected) {
  ContainerWriter w(CompressorId::kSZ3, dtype_tag<float>(), Dims{3});
  w.stage(StageId::kConfig).put_bytes(bytes_of({1, 2, 3}));
  const auto arc = w.seal();
  for (std::size_t cut = 0; cut < kContainerPrefixBytes + 2; ++cut) {
    std::span<const std::uint8_t> prefix(arc.data(), cut);
    EXPECT_THROW(
        ContainerReader(prefix, CompressorId::kSZ3, dtype_tag<float>()),
        DecodeError)
        << "cut=" << cut;
    EXPECT_THROW((void)inspect_container(prefix), DecodeError);
  }
}

TEST(Container, TruncatedBodyRejected) {
  ContainerWriter w(CompressorId::kSZ3, dtype_tag<float>(), Dims{300});
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i);
  w.stage(StageId::kSymbols).put_bytes(payload);
  const auto arc = w.seal();
  for (std::size_t cut = kContainerPrefixBytes + 2; cut + 1 < arc.size();
       cut += 7) {
    std::span<const std::uint8_t> prefix(arc.data(), cut);
    EXPECT_THROW(
        ContainerReader(prefix, CompressorId::kSZ3, dtype_tag<float>()),
        DecodeError)
        << "cut=" << cut;
  }
}

/// v3 archive around a caller-built meta block (written as the block's
/// bytes, not LZB-framed here) and an empty, valid directory, so a test
/// reaches exactly the meta-block guards.
std::vector<std::uint8_t> v3_with_meta(CompressorId id, std::uint8_t dtype,
                                       std::span<const std::uint8_t> meta) {
  ByteWriter dir;
  for (int i = 0; i < 4; ++i) dir.put_varint(0);  // no levels, no chunks
  ByteWriter w;
  w.put(kContainerMagic);
  w.put(kContainerVersion);
  w.put(static_cast<std::uint8_t>(id));
  w.put(dtype);
  write_dims(w, Dims{16});
  w.put_block(meta);
  w.put_block(lzb_compress(dir.bytes()));
  return w.take();
}

/// Require `open` to throw a DecodeError naming `what`: a test pinned
/// to one guard must not pass on an earlier one.
template <class F>
void expect_decode_error(F&& open, const std::string& what) {
  try {
    open();
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "threw \"" << e.what() << "\", expected \"" << what << "\"";
    return;
  }
  ADD_FAILURE() << "no DecodeError; expected \"" << what << "\"";
}

TEST(Container, BodyBombCappedByMaxBody) {
  // A meta block whose LZB header declares a 1 PiB stage body must die
  // on the caller's body cap, not materialize the bomb.
  ByteWriter bomb;
  bomb.put_varint(std::uint64_t{1} << 50);
  bomb.put_varint(0);
  const auto arc =
      v3_with_meta(CompressorId::kSZ3, dtype_tag<float>(), bomb.bytes());
  expect_decode_error(
      [&] {
        (void)ContainerReader(arc, CompressorId::kSZ3, dtype_tag<float>(),
                              /*max_body=*/1 << 20);
      },
      "lzb output exceeds limit");
}

TEST(Container, DuplicateStageRejected) {
  ByteWriter meta;
  meta.put_varint(2);
  meta.put(static_cast<std::uint8_t>(StageId::kConfig));
  meta.put_block(bytes_of({1, 2, 3, 4}));
  meta.put(static_cast<std::uint8_t>(StageId::kConfig));
  meta.put_block(bytes_of({5, 6, 7, 8}));
  const auto arc = v3_with_meta(CompressorId::kQoZ, dtype_tag<double>(),
                                lzb_compress(meta.bytes()));
  expect_decode_error(
      [&] {
        (void)ContainerReader(arc, CompressorId::kQoZ, dtype_tag<double>());
      },
      "duplicate stage section");
}

TEST(Container, TrailingBodyBytesRejected) {
  ByteWriter meta;
  meta.put_varint(1);
  meta.put(static_cast<std::uint8_t>(StageId::kConfig));
  meta.put_block(bytes_of({1, 2}));
  meta.put(0xEE);  // junk after the last section
  const auto arc = v3_with_meta(CompressorId::kQoZ, dtype_tag<double>(),
                                lzb_compress(meta.bytes()));
  expect_decode_error(
      [&] {
        (void)ContainerReader(arc, CompressorId::kQoZ, dtype_tag<double>());
      },
      "trailing bytes after stage sections");
}

TEST(Container, ZeroExtentRejected) {
  ByteWriter w;
  w.put_varint(3);
  w.put_varint(16);
  w.put_varint(0);
  w.put_varint(16);
  const auto buf = w.bytes();
  ByteReader r(buf);
  EXPECT_THROW((void)read_dims(r), DecodeError);
}

TEST(Container, ExtentProductOverflowRejected) {
  ByteWriter w;
  w.put_varint(4);
  for (int a = 0; a < 4; ++a) w.put_varint(std::uint64_t{1} << 48);
  const auto buf = w.bytes();
  ByteReader r(buf);
  EXPECT_THROW((void)read_dims(r), DecodeError);
}

TEST(Container, BitFlippedArchiveNeverCrashes) {
  ContainerWriter w(CompressorId::kQoZ, dtype_tag<double>(), Dims{25});
  w.stage(StageId::kConfig).put_bytes(std::vector<std::uint8_t>(40, 0x5A));
  w.stage(StageId::kSymbols).put_bytes(std::vector<std::uint8_t>(160, 0xA5));
  const auto arc = w.seal();
  for (std::size_t bit = 0; bit < arc.size() * 8; bit += 5) {
    auto mutated = arc;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      const ContainerReader in(mutated, CompressorId::kQoZ,
                               dtype_tag<double>(), 1 << 20);
      // Flips in the compressed body may still parse; that is fine as
      // long as no error other than DecodeError can surface.
      (void)in.sections();
    } catch (const DecodeError&) {
    }
  }
}

// ---------------------------------------------------------------------
// Version 3: payload directory + per-chunk frames.

/// Minimal v3 archive: empty meta sections, caller-supplied raw
/// directory bytes (LZB-framed here) and raw payload region.
std::vector<std::uint8_t> v3_archive(const Dims& dims,
                                     const std::vector<std::uint8_t>& dir_raw,
                                     const std::vector<std::uint8_t>& payload) {
  ByteWriter meta;
  meta.put_varint(0);  // no stage sections
  ByteWriter w;
  w.put(kContainerMagic);
  w.put(kContainerVersion);
  w.put(static_cast<std::uint8_t>(CompressorId::kQoZ));
  w.put(dtype_tag<float>());
  write_dims(w, dims);
  w.put_block(lzb_compress(meta.bytes()));
  w.put_block(lzb_compress(dir_raw));
  w.put_bytes(payload);
  return w.take();
}

ContainerReader open_v3(const std::vector<std::uint8_t>& arc) {
  return ContainerReader(arc, CompressorId::kQoZ, dtype_tag<float>());
}

TEST(Container, V3GoldenBodyLayout) {
  // Pin the v3 body byte-for-byte: LZB(meta) block, LZB(directory)
  // block, then the chunk frames back to back with no per-chunk framing
  // beyond their own LZB streams. A failure here means the on-disk
  // layout changed — bump kContainerVersion.
  ContainerWriter w(CompressorId::kQoZ, dtype_tag<float>(), Dims{8, 8});
  w.stage(StageId::kConfig).put_bytes(bytes_of({7, 7}));
  const auto raw0 = bytes_of({1, 2, 3});
  const auto raw1 = bytes_of({4, 5});
  w.add_chunk(2, kWholeDomainTile, 4, 0, raw0);
  w.add_chunk(1, kWholeDomainTile, 12, 2, raw1);
  const auto arc = w.seal();

  const auto frame0 = lzb_compress(raw0);
  const auto frame1 = lzb_compress(raw1);

  // Expected directory plaintext: level count, tile size, tiled-level
  // count, chunk count, then per chunk level | tile+1 | length |
  // symbol count | outlier count.
  ByteWriter dir;
  dir.put_varint(2);  // level count = max chunk level
  dir.put_varint(0);  // tile size: untiled
  dir.put_varint(0);  // tiled levels
  dir.put_varint(2);  // chunk count
  dir.put_varint(2);  // chunk 0: level
  dir.put_varint(0);  //          whole-domain
  dir.put_varint(frame0.size());
  dir.put_varint(4);  //          symbol count
  dir.put_varint(0);  //          outlier count
  dir.put_varint(1);  // chunk 1: level
  dir.put_varint(0);
  dir.put_varint(frame1.size());
  dir.put_varint(12);
  dir.put_varint(2);

  // Walk the body exactly as a reader would and compare each region.
  ByteReader r(arc);
  (void)r.get_bytes(10);  // magic(4) version(1) id(1) dtype(1) dims(2,8,8)
  (void)lzb_decompress(r.get_block(), ContainerReader::kNoBodyCap);  // meta
  const auto dir_bytes =
      lzb_decompress(r.get_block(), ContainerReader::kNoBodyCap);
  const auto want_dir = dir.bytes();
  EXPECT_EQ(dir_bytes,
            std::vector<std::uint8_t>(want_dir.begin(), want_dir.end()));
  std::vector<std::uint8_t> want_payload = frame0;
  want_payload.insert(want_payload.end(), frame1.begin(), frame1.end());
  const auto payload = r.get_bytes(r.remaining());
  EXPECT_EQ(std::vector<std::uint8_t>(payload.begin(), payload.end()),
            want_payload);
}

TEST(Container, V3ChunkRoundtripAndByteAccounting) {
  ContainerWriter w(CompressorId::kQoZ, dtype_tag<float>(), Dims{32, 32});
  w.set_tiling(TileLayout{16, 1});
  const auto coarse = bytes_of({9, 9, 9, 9});
  w.add_chunk(2, kWholeDomainTile, 8, 1, coarse);
  std::vector<std::vector<std::uint8_t>> tiles;
  for (std::uint64_t t = 0; t < 4; ++t) {
    tiles.push_back(std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(t)));
    w.add_chunk(1, t, 192, 0, tiles.back());  // 16^2 - 8^2 level-1 points
  }
  const auto arc = w.seal();

  const auto in = open_v3(arc);
  EXPECT_EQ(in.version(), 3);
  ASSERT_EQ(in.chunk_count(), 5u);
  const PayloadDirectory& d = in.directory();
  EXPECT_EQ(d.level_count, 2);
  EXPECT_EQ(d.tiling.tile_size, 16u);
  EXPECT_EQ(d.tiling.max_level, 1);
  EXPECT_EQ(d.chunks[0].level, 2);
  EXPECT_EQ(d.chunks[0].tile, kWholeDomainTile);
  EXPECT_EQ(d.chunks[0].outlier_count, 1u);
  EXPECT_EQ(d.chunks[0].outlier_start, 0u);
  EXPECT_EQ(d.chunks[1].outlier_start, 1u);
  EXPECT_EQ(in.payload_bytes_read(), 0u);

  EXPECT_EQ(in.chunk_bytes(0), coarse);
  EXPECT_EQ(in.payload_bytes_read(), d.chunks[0].length);
  std::size_t want_read = d.chunks[0].length;
  for (std::uint64_t t = 0; t < 4; ++t) {
    EXPECT_EQ(in.chunk_bytes(1 + t), tiles[t]);
    EXPECT_EQ(d.chunks[1 + t].tile, t);
    want_read += d.chunks[1 + t].length;
  }
  EXPECT_EQ(in.payload_bytes_read(), want_read);
  EXPECT_EQ(in.payload_bytes_declared(), want_read);
  EXPECT_EQ(in.payload_bytes_available(), want_read);
  EXPECT_THROW((void)in.chunk_bytes(5), DecodeError);
}

TEST(Container, V3TruncatedPayloadServesThePrefix) {
  // The progressive contract: a prefix-truncated archive still parses
  // and serves every chunk whose bytes are present; only the missing
  // ones throw.
  ContainerWriter w(CompressorId::kQoZ, dtype_tag<float>(), Dims{64});
  w.add_chunk(3, kWholeDomainTile, 4, 0, std::vector<std::uint8_t>(40, 1));
  w.add_chunk(2, kWholeDomainTile, 8, 0, std::vector<std::uint8_t>(80, 2));
  w.add_chunk(1, kWholeDomainTile, 16, 0, std::vector<std::uint8_t>(160, 3));
  const auto arc = w.seal();
  const auto full = open_v3(arc);
  ASSERT_EQ(full.chunk_count(), 3u);
  const std::size_t tail =
      full.directory().chunks[1].length + full.directory().chunks[2].length;

  const std::vector<std::uint8_t> cut(arc.begin(),
                                      arc.end() - static_cast<long>(tail));
  const auto in = open_v3(cut);
  ASSERT_EQ(in.chunk_count(), 3u);
  EXPECT_LT(in.payload_bytes_available(), in.payload_bytes_declared());
  EXPECT_EQ(in.chunk_bytes(0), std::vector<std::uint8_t>(40, 1));
  EXPECT_THROW((void)in.chunk_bytes(1), DecodeError);
  EXPECT_THROW((void)in.chunk_bytes(2), DecodeError);
}

TEST(Container, V3HostileDirectoriesRejected) {
  const Dims dims{32, 32};
  const auto reject = [&](const ByteWriter& dir, const char* what) {
    const auto wd = dir.bytes();
    const auto arc = v3_archive(
        dims, std::vector<std::uint8_t>(wd.begin(), wd.end()), {});
    EXPECT_THROW((void)open_v3(arc), DecodeError) << what;
  };

  {
    ByteWriter d;
    d.put_varint(65);  // > kMaxPayloadLevels
    reject(d, "level-count bomb");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(24);  // tile size not a power of two
    d.put_varint(1);
    d.put_varint(0);
    reject(d, "bad tile size");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(16);
    d.put_varint(2);  // tiled levels > level count
    d.put_varint(0);
    reject(d, "tiled levels exceed level count");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(1);  // tiled levels without a tile size
    d.put_varint(0);
    reject(d, "tiled levels without tile size");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(std::uint64_t{1} << 40);  // chunk-count bomb
    reject(d, "chunk-count bomb");
  }
  const auto chunk = [](ByteWriter& d, std::uint64_t level,
                        std::uint64_t tile_p1, std::uint64_t len,
                        std::uint64_t syms, std::uint64_t outs) {
    d.put_varint(level);
    d.put_varint(tile_p1);
    d.put_varint(len);
    d.put_varint(syms);
    d.put_varint(outs);
  };
  {
    ByteWriter d;
    d.put_varint(2);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(1);
    chunk(d, 3, 0, 0, 1, 0);  // level above the declared count
    reject(d, "chunk level out of range");
  }
  {
    ByteWriter d;
    d.put_varint(2);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(2);
    chunk(d, 1, 0, 0, 1, 0);
    chunk(d, 2, 0, 0, 1, 0);  // levels must descend
    reject(d, "ascending levels");
  }
  {
    ByteWriter d;
    d.put_varint(2);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(2);
    chunk(d, 2, 0, 0, 1, 0);
    chunk(d, 2, 0, 0, 1, 0);  // duplicate whole-domain chunk
    reject(d, "duplicate chunk");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(1);
    chunk(d, 1, 1, 0, 1, 0);  // tile chunk but nothing is tiled
    reject(d, "tile chunk on untiled level");
  }
  {
    ByteWriter d;
    d.put_varint(2);
    d.put_varint(16);
    d.put_varint(1);
    d.put_varint(1);
    chunk(d, 1, 0, 0, 1, 0);  // whole-domain chunk on the tiled level
    reject(d, "whole-domain chunk on tiled level");
  }
  {
    ByteWriter d;
    d.put_varint(2);
    d.put_varint(16);
    d.put_varint(1);
    d.put_varint(1);
    chunk(d, 1, 100, 0, 1, 0);  // tile id beyond the 2x2 grid
    reject(d, "tile id outside grid");
  }
  {
    ByteWriter d;
    d.put_varint(2);
    d.put_varint(16);
    d.put_varint(1);
    d.put_varint(2);
    chunk(d, 1, 2, 0, 1, 0);
    chunk(d, 1, 1, 0, 1, 0);  // tiles must ascend
    reject(d, "misordered tiles");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(1);
    chunk(d, 1, 0, 0, std::uint64_t{32 * 32} + 1, 0);  // symbol bomb
    reject(d, "symbol count exceeds field");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(1);
    chunk(d, 1, 0, 0, 0, std::uint64_t{32 * 32} + 1);  // outlier bomb
    reject(d, "outlier count exceeds field");
  }
  {
    ByteWriter d;
    d.put_varint(2);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(2);
    chunk(d, 2, 0, ~std::uint64_t{0}, 1, 0);
    chunk(d, 1, 0, 1, 1, 0);  // offset + length wraps
    reject(d, "payload length overflow");
  }
  {
    ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(0);
    d.put(0xEE);  // trailing junk
    reject(d, "trailing directory bytes");
  }
  // A complete three-level directory whose finest `tiled` levels list
  // every tile of a 16-edge grid with its exact point count. Only a
  // tiling TileLayout::plan can produce (edge >= 4 * 2^tiled) opens.
  const auto complete = [&](std::uint64_t tiled) {
    const TileGrid grid(dims, 16);
    ByteWriter d;
    d.put_varint(3);
    d.put_varint(16);
    d.put_varint(tiled);
    d.put_varint((3 - tiled) + tiled * grid.total);
    for (int l = 3; l >= 1; --l) {
      if (static_cast<std::uint64_t>(l) > tiled) {
        chunk(d, l, 0, 0, level_point_count(dims, l, Box::whole(dims)), 0);
        continue;
      }
      for (std::uint64_t t = 0; t < grid.total; ++t)
        chunk(d, l, t + 1, 0, level_point_count(dims, l, grid.box(t, dims)),
              0);
    }
    return d;
  };
  EXPECT_NO_THROW((void)open_v3(v3_archive(dims, complete(2).bytes(), {})));
  expect_decode_error(
      [&] { (void)open_v3(v3_archive(dims, complete(3).bytes(), {})); },
      "tile size too small for its tiled levels");
}

TEST(Container, V3ChunkExtentCheckedAgainstPresentPayload) {
  // A directory may declare more payload than the buffer holds (that is
  // what makes prefix downloads usable); the extent check fires only
  // when the missing chunk is actually requested.
  ByteWriter d;
  d.put_varint(1);
  d.put_varint(0);
  d.put_varint(0);
  d.put_varint(1);
  d.put_varint(1);    // level
  d.put_varint(0);    // whole-domain
  d.put_varint(100);  // declared length
  d.put_varint(4);    // symbols
  d.put_varint(0);
  const auto wd = d.bytes();
  const auto arc =
      v3_archive(Dims{32, 32}, std::vector<std::uint8_t>(wd.begin(), wd.end()),
                 std::vector<std::uint8_t>(10, 0xAB));  // only 10 bytes present
  const auto in = open_v3(arc);
  EXPECT_EQ(in.payload_bytes_declared(), 100u);
  EXPECT_EQ(in.payload_bytes_available(), 10u);
  EXPECT_THROW((void)in.chunk_bytes(0), DecodeError);
}

TEST(Container, V3SymbolChunkBombCapped) {
  // A chunk declaring 1 symbol whose LZB frame claims a 10 MiB raw size
  // must die on the symbol-derived cap, not materialize the bomb.
  ByteWriter bomb;
  bomb.put_varint(std::uint64_t{10} << 20);  // LZB raw size
  bomb.put_varint(1);                        // one literal
  bomb.put(0x55);
  bomb.put_varint(std::uint64_t{10} << 20);  // match covering the rest
  bomb.put_varint(1);
  const auto frame_w = bomb.bytes();
  const std::vector<std::uint8_t> frame(frame_w.begin(), frame_w.end());

  ByteWriter d;
  d.put_varint(1);
  d.put_varint(0);
  d.put_varint(0);
  d.put_varint(1);
  d.put_varint(1);  // level
  d.put_varint(0);  // whole-domain
  d.put_varint(frame.size());
  d.put_varint(1);  // one symbol: cap = 16 + 65536 bytes
  d.put_varint(0);
  const auto wd = d.bytes();
  const auto arc = v3_archive(
      Dims{32, 32}, std::vector<std::uint8_t>(wd.begin(), wd.end()), frame);
  const auto in = open_v3(arc);
  EXPECT_THROW((void)in.chunk_bytes(0), DecodeError);
}

TEST(Container, StagePayloadIsLosslesslyFramed) {
  // 1 MiB of structured data must come back exactly through the LZB
  // wrapping.
  std::vector<std::uint8_t> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>((i * i) >> 3);
  ContainerWriter w(CompressorId::kMGARD, dtype_tag<float>(), Dims{1 << 18});
  w.stage(StageId::kSymbols).put_bytes(payload);
  const auto arc = w.seal();
  const ContainerReader in(arc, CompressorId::kMGARD, dtype_tag<float>());
  const auto back = in.stage_bytes(StageId::kSymbols);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), back.begin(),
                         back.end()));
  EXPECT_LT(arc.size(), payload.size());  // structured payload compresses
}

}  // namespace
}  // namespace qip
