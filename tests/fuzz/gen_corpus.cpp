// Seed-corpus generator for the fuzz targets (run manually; the output
// under tests/fuzz/corpus/ is checked in).
//
//   ./gen_corpus <path-to-tests/fuzz/corpus>
//
// Emits, per target: well-formed inputs produced by the real encoders,
// systematically truncated and bit-flipped variants of them, and
// hand-crafted hostile headers (over-subscribed Huffman code lengths,
// decompression-bomb length fields, out-of-window LZ offsets, bad magic).
// Everything is deterministic so regeneration is reproducible.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "compressors/core/container.hpp"
#include "compressors/qoz.hpp"
#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "encode/huffman.hpp"
#include "lossless/lzb.hpp"
#include "util/bytes.hpp"

namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;

namespace {

void dump(const fs::path& dir, const std::string& name, const Bytes& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Write `base`, plus three truncations and two deterministic bit flips.
void dump_with_mutants(const fs::path& dir, const std::string& stem,
                       const Bytes& base) {
  dump(dir, stem + ".bin", base);
  const std::size_t cuts[] = {base.size() / 4, base.size() / 2,
                              base.size() - std::min<std::size_t>(
                                                1, base.size())};
  int i = 0;
  for (std::size_t cut : cuts) {
    Bytes t(base.begin(), base.begin() + static_cast<long>(cut));
    dump(dir, stem + "_trunc" + std::to_string(i++) + ".bin", t);
  }
  if (!base.empty()) {
    Bytes f1 = base;
    f1[0] ^= 0x40;  // header flip
    dump(dir, stem + "_flip_header.bin", f1);
    Bytes f2 = base;
    f2[base.size() / 2] ^= 0x08;  // payload flip
    dump(dir, stem + "_flip_payload.bin", f2);
  }
}

Bytes pattern_bytes(std::size_t n, std::uint32_t seed) {
  Bytes b(n);
  std::uint32_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    // Mix of structure (runs) and noise so LZ and Huffman paths both fire.
    b[i] = (i / 7 % 3 == 0) ? static_cast<std::uint8_t>(i & 0xF)
                            : static_cast<std::uint8_t>(s >> 24);
  }
  return b;
}

void gen_bitstream(const fs::path& root) {
  const fs::path dir = root / "fuzz_bitstream";
  dump(dir, "empty.bin", {});
  dump(dir, "ones.bin", Bytes(64, 0xFF));
  dump(dir, "zeros.bin", Bytes(64, 0x00));
  dump_with_mutants(dir, "mixed", pattern_bytes(256, 7));
  dump_with_mutants(dir, "long", pattern_bytes(1024, 99));
}

// Max canonical code length of a legacy-layout Huffman block (varint
// n_symbols | varint n_distinct | n_distinct x (symbol, length) pairs).
// Returns -1 for the ranged layout (leading 0 sentinel).
int huffman_max_code_length(const Bytes& enc) {
  qip::ByteReader r(enc);
  if (r.get_varint() == 0) return -1;
  const std::uint64_t distinct = r.get_varint();
  int max_len = 0;
  for (std::uint64_t i = 0; i < distinct; ++i) {
    (void)r.get_varint();
    max_len = std::max(max_len, static_cast<int>(r.get_varint()));
  }
  return max_len;
}

// The table-driven Huffman decoder resolves codes up to kFastBits (12)
// via its primary table; anything longer takes the overflow slow path.
// Seeds tagged "deep" must keep exercising that path, so regeneration
// fails loudly if the encoded table ever flattens below 13 bits.
void require_deep_table(const Bytes& enc, const char* what) {
  const int max_len = huffman_max_code_length(enc);
  if (max_len <= 12) {
    std::cerr << "gen_corpus: " << what << " max code length " << max_len
              << " no longer exceeds the 12-bit fast-table width; retune "
                 "the generator so the overflow slow path stays covered\n";
    std::exit(1);
  }
}

void gen_huffman(const fs::path& root) {
  const fs::path dir = root / "fuzz_huffman";
  // Well-formed streams of different shapes.
  {
    std::vector<std::uint32_t> syms;
    for (int i = 0; i < 600; ++i)
      syms.push_back(static_cast<std::uint32_t>(i * i % 17));
    dump_with_mutants(dir, "skewed17", qip::huffman_encode(syms));
  }
  {
    std::vector<std::uint32_t> syms(400, 42);  // single-symbol stream
    dump_with_mutants(dir, "single", qip::huffman_encode(syms));
  }
  {
    std::vector<std::uint32_t> syms;
    for (std::uint32_t i = 0; i < 300; ++i) syms.push_back(i * 7919u);
    dump_with_mutants(dir, "wide_alphabet", qip::huffman_encode(syms));
  }
  // Fibonacci-weighted alphabet: symbol s occurs fib(s+1) times, which
  // forces a maximally skewed canonical tree (max code length ~ alphabet
  // size, here ~23 bits), so the decoder's >12-bit overflow slow path
  // runs on this seed and all of its mutants.
  {
    std::vector<std::uint32_t> syms;
    std::uint64_t a = 1, b = 1;
    for (std::uint32_t s = 0; s < 24; ++s) {
      syms.insert(syms.end(), static_cast<std::size_t>(a), s);
      const std::uint64_t next = a + b;
      a = b;
      b = next;
    }
    // Interleave so long codes are scattered through the bitstream
    // rather than clustered at the front.
    std::vector<std::uint32_t> mixed;
    mixed.reserve(syms.size());
    const std::size_t stride = 7919;  // prime, coprime to syms.size()
    std::size_t pos = 0;
    for (std::size_t i = 0; i < syms.size(); ++i) {
      mixed.push_back(syms[pos]);
      pos = (pos + stride) % syms.size();
    }
    const Bytes enc = qip::huffman_encode(mixed);
    require_deep_table(enc, "fuzz_huffman/deep_fibonacci");
    dump_with_mutants(dir, "deep_fibonacci", enc);
  }
  // Hostile: over-subscribed code lengths (three symbols, all length 1).
  {
    qip::ByteWriter w;
    w.put_varint(10);  // n
    w.put_varint(3);   // distinct
    for (std::uint32_t s = 0; s < 3; ++s) {
      w.put_varint(s);
      w.put_varint(1);  // length 1 for all three: Kraft sum = 1.5
    }
    w.put_varint(4);  // payload block length
    w.put_bytes(Bytes{0xAA, 0xBB, 0xCC, 0xDD});
    dump(dir, "hostile_oversubscribed.bin", w.take());
  }
  // Hostile: symbol count far beyond what the payload can hold.
  {
    qip::ByteWriter w;
    w.put_varint(1u << 30);  // n = 1Gi symbols
    w.put_varint(2);
    w.put_varint(0);
    w.put_varint(1);
    w.put_varint(1);
    w.put_varint(1);
    w.put_varint(2);  // 2-byte payload
    w.put_bytes(Bytes{0x00, 0x00});
    dump(dir, "hostile_huge_count.bin", w.take());
  }
  // Hostile: length 0 and length 200 entries.
  {
    qip::ByteWriter w;
    w.put_varint(4);
    w.put_varint(2);
    w.put_varint(0);
    w.put_varint(0);  // zero-length code
    w.put_varint(1);
    w.put_varint(200);  // absurd length
    w.put_varint(1);
    w.put_bytes(Bytes{0xFF});
    dump(dir, "hostile_bad_lengths.bin", w.take());
  }
}

void gen_lzb(const fs::path& root) {
  const fs::path dir = root / "fuzz_lzb";
  dump_with_mutants(dir, "text",
                    qip::lzb_compress(pattern_bytes(2048, 3)));
  dump_with_mutants(dir, "runs", qip::lzb_compress(Bytes(4096, 9)));
  // Hostile: declared size is a 1 TiB bomb with a tiny body.
  {
    qip::ByteWriter w;
    w.put_varint(std::uint64_t{1} << 40);
    w.put_varint(1);  // one literal
    w.put_bytes(Bytes{0x55});
    w.put_varint(std::uint64_t{1} << 40);  // match covering the rest
    w.put_varint(1);
    dump(dir, "hostile_bomb.bin", w.take());
  }
  // Hostile: match offset pointing before the start of the output.
  {
    qip::ByteWriter w;
    w.put_varint(16);  // raw size
    w.put_varint(2);   // two literals
    w.put_bytes(Bytes{1, 2});
    w.put_varint(8);   // match length
    w.put_varint(50);  // offset > produced bytes
    dump(dir, "hostile_bad_offset.bin", w.take());
  }
  // Hostile: terminator before the declared size is reached.
  {
    qip::ByteWriter w;
    w.put_varint(100);
    w.put_varint(3);
    w.put_bytes(Bytes{7, 7, 7});
    w.put_varint(0);  // terminator at 3/100 bytes
    dump(dir, "hostile_premature_end.bin", w.take());
  }
}

void gen_archive(const fs::path& root) {
  const fs::path dir = root / "fuzz_archive";
  // Well-formed containers with realistic stage layouts.
  {
    qip::ContainerWriter w(qip::CompressorId::kSZ3, qip::dtype_tag<float>(),
                           qip::Dims{8, 8, 8});
    w.stage(qip::StageId::kConfig).put_bytes(pattern_bytes(64, 21));
    w.stage(qip::StageId::kSymbols).put_bytes(pattern_bytes(512, 22));
    dump_with_mutants(dir, "sz3_f32", w.seal());
  }
  {
    qip::ContainerWriter w(qip::CompressorId::kQoZ, qip::dtype_tag<double>(),
                           qip::Dims{32});
    w.stage(qip::StageId::kConfig).put_bytes(pattern_bytes(48, 5));
    w.stage(qip::StageId::kSymbols).put_bytes(pattern_bytes(96, 6));
    w.stage(qip::StageId::kCorrections).put_bytes(pattern_bytes(16, 7));
    dump_with_mutants(dir, "qoz_f64", w.seal());
  }
  // A genuine SZ3 archive on a field/bound pair whose sampling selector
  // commits to the Lorenzo path, so the replay battery's truncations and
  // bit flips exercise the full decode stack: Huffman, the quantizer
  // outlier table and the traversal walk.
  {
    const qip::Dims dims{32, 40, 48};
    const qip::Field<float> field =
        qip::make_field(qip::DatasetId::kMiranda, 0, dims, 7);
    qip::SZ3Config cfg;
    cfg.error_bound = 1e-3;
    const auto arc = qip::sz3_compress(field.data(), dims, cfg);
    dump_with_mutants(dir, "sz3_real", arc);
    // The dims-header flip that uncovered the unguarded symbol cursor:
    // the claimed point count grows past the stored symbol stream.
    Bytes dflip = arc;
    dflip[8] ^= 0x01;
    dump(dir, "hostile_dims_flip.bin", dflip);
  }
  // A genuine tiled QoZ archive: v3 per-level chunks plus a tile
  // directory, so the replay battery's truncations and bit flips hit
  // the chunk directory parser and the preview/region decode legs of
  // the fuzz target. Verified tiled so the seed cannot silently stop
  // covering the directory.
  {
    const qip::Dims dims{64, 64};
    const qip::Field<float> field =
        qip::make_field(qip::DatasetId::kCESM, 0, dims, 11);
    qip::QoZConfig cfg;
    cfg.error_bound = 1e-3;
    cfg.tile_size = 16;
    const auto arc = qip::qoz_compress(field.data(), dims, cfg);
    const qip::ContainerReader reader(arc);
    if (!reader.directory().tiling.active()) {
      std::cerr << "gen_corpus: qoz_tiled seed lost its tile directory; "
                   "retune dims/tile_size\n";
      std::exit(1);
    }
    dump_with_mutants(dir, "qoz_tiled_real", arc);
  }
  // A genuine SZ3 archive over a heavy-tailed field: a flat background
  // plus spikes whose per-magnitude counts decay Fibonacci-fashion, so
  // the quantization-code histogram is skewed enough that the Huffman
  // table goes deeper than the decoder's 12-bit fast table and archive
  // decode hits the overflow slow path. Verified below by parsing the
  // largest payload chunk, so the seed cannot silently stop covering it.
  {
    const qip::Dims dims{24, 30, 36};
    const std::size_t n = 24 * 30 * 36;
    std::vector<float> field(n);
    for (std::size_t i = 0; i < n; ++i)
      field[i] = 0.05f * std::sin(0.01 * static_cast<double>(i));
    const double eb = 1e-3;
    std::uint64_t fa = 1, fb = 1;
    std::uint32_t lcg = 12345;
    for (int k = 18; k >= 1; --k) {  // fib(1)=1 spike of the largest k
      for (std::uint64_t c = 0; c < fa; ++c) {
        lcg = lcg * 1664525u + 1013904223u;
        field[lcg % n] = static_cast<float>(2.0 * eb * (900.0 + 40.0 * k));
      }
      const std::uint64_t next = fa + fb;
      fa = fb;
      fb = next;
    }
    qip::SZ3Config cfg;
    cfg.error_bound = eb;
    const auto arc = qip::sz3_compress(field.data(), dims, cfg);
    const qip::ContainerReader reader(arc);
    std::size_t deepest = 0;
    for (std::size_t i = 1; i < reader.chunk_count(); ++i)
      if (reader.directory().chunks[i].symbol_count >
          reader.directory().chunks[deepest].symbol_count)
        deepest = i;
    require_deep_table(reader.chunk_bytes(deepest),
                       "fuzz_archive/sz3_deep_huffman");
    dump_with_mutants(dir, "sz3_deep_huffman", arc);
  }
  // Hostile: a bomb-sized v3 meta-block length declaration.
  {
    qip::ByteWriter w;
    w.put(qip::kContainerMagic);
    w.put(qip::kContainerVersion);
    w.put(static_cast<std::uint8_t>(1));
    w.put(static_cast<std::uint8_t>(1));
    w.put_varint(3);
    for (int a = 0; a < 3; ++a) w.put_varint(8);
    w.put_varint(std::uint64_t{1} << 50);  // meta block length: 1 PiB
    dump(dir, "hostile_v3_meta_bomb.bin", w.take());
  }
  // Hostile: wrong magic entirely.
  dump(dir, "hostile_bad_magic.bin",
       Bytes{0xDE, 0xAD, 0xBE, 0xEF, 2, 1, 1, 1, 4});
  // Hostile: a future format version this build must refuse to parse.
  {
    qip::ByteWriter w;
    w.put(qip::kContainerMagic);
    w.put(static_cast<std::uint8_t>(qip::kContainerVersion + 1));
    w.put(static_cast<std::uint8_t>(1));
    w.put(static_cast<std::uint8_t>(1));
    w.put_varint(1);
    w.put_varint(4);
    dump(dir, "hostile_bad_version.bin", w.take());
  }
  // Hostile: header cut off before dims.
  {
    qip::ByteWriter w;
    w.put(qip::kContainerMagic);
    w.put(qip::kContainerVersion);
    w.put(static_cast<std::uint8_t>(3));
    dump(dir, "hostile_header_only.bin", w.take());
  }
  // Hostile: duplicate stage sections inside a v3 meta block, followed
  // by a valid empty directory.
  {
    qip::ByteWriter meta;
    meta.put_varint(2);
    meta.put(static_cast<std::uint8_t>(qip::StageId::kConfig));
    meta.put_block(Bytes{1, 2, 3, 4});
    meta.put(static_cast<std::uint8_t>(qip::StageId::kConfig));
    meta.put_block(Bytes{5, 6, 7, 8});
    qip::ByteWriter dir_w;
    for (int i = 0; i < 4; ++i) dir_w.put_varint(0);
    qip::ByteWriter w;
    w.put(qip::kContainerMagic);
    w.put(qip::kContainerVersion);
    w.put(static_cast<std::uint8_t>(2));  // kQoZ
    w.put(static_cast<std::uint8_t>(2));  // double
    w.put_varint(1);
    w.put_varint(16);
    w.put_block(qip::lzb_compress(meta.bytes()));
    w.put_block(qip::lzb_compress(dir_w.bytes()));
    dump(dir, "hostile_dup_stage.bin", w.take());
  }
  // A well-formed v2 archive (empty-config + symbols). v2 is no longer
  // read, so it and its mutants are refusal cases: every one must stop
  // at the version gate (or earlier) with a typed error.
  {
    qip::ByteWriter body;
    body.put_varint(2);
    body.put(static_cast<std::uint8_t>(qip::StageId::kConfig));
    body.put_block(pattern_bytes(64, 31));
    body.put(static_cast<std::uint8_t>(qip::StageId::kSymbols));
    body.put_block(pattern_bytes(512, 32));
    qip::ByteWriter w;
    w.put(qip::kContainerMagic);
    w.put(std::uint8_t{2});
    w.put(static_cast<std::uint8_t>(1));  // kSZ3
    w.put(static_cast<std::uint8_t>(1));  // float
    w.put_varint(3);
    for (int a = 0; a < 3; ++a) w.put_varint(8);
    w.put_bytes(qip::lzb_compress(body.bytes()));
    dump_with_mutants(dir, "v2_sz3_f32", w.take());
  }
  // Hostile v3 payload directories. Shared scaffold: valid header +
  // empty meta sections, then a hand-written directory block.
  const auto v3_with_dir = [](const qip::ByteWriter& dir_w,
                              const Bytes& payload) {
    qip::ByteWriter meta;
    meta.put_varint(0);
    qip::ByteWriter w;
    w.put(qip::kContainerMagic);
    w.put(qip::kContainerVersion);
    w.put(static_cast<std::uint8_t>(2));  // kQoZ
    w.put(static_cast<std::uint8_t>(1));  // float
    w.put_varint(2);                      // dims 32x32
    w.put_varint(32);
    w.put_varint(32);
    w.put_block(qip::lzb_compress(meta.bytes()));
    w.put_block(qip::lzb_compress(dir_w.bytes()));
    w.put_bytes(payload);
    return w.take();
  };
  {
    qip::ByteWriter d;
    d.put_varint(65);  // level-count bomb (> kMaxPayloadLevels)
    dump(dir, "hostile_v3_level_bomb.bin", v3_with_dir(d, {}));
  }
  {
    qip::ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(std::uint64_t{1} << 40);  // chunk-count bomb
    dump(dir, "hostile_v3_chunk_count_bomb.bin", v3_with_dir(d, {}));
  }
  {
    qip::ByteWriter d;
    d.put_varint(2);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(2);
    for (std::uint64_t level : {std::uint64_t{1}, std::uint64_t{2}}) {
      d.put_varint(level);  // ascending levels: misordered
      d.put_varint(0);
      d.put_varint(0);
      d.put_varint(1);
      d.put_varint(0);
    }
    dump(dir, "hostile_v3_misordered_chunks.bin", v3_with_dir(d, {}));
  }
  {
    qip::ByteWriter d;
    d.put_varint(2);
    d.put_varint(16);  // 2x2 tile grid over 32x32
    d.put_varint(1);
    d.put_varint(1);
    d.put_varint(1);    // level
    d.put_varint(100);  // tile id far outside the grid
    d.put_varint(0);
    d.put_varint(1);
    d.put_varint(0);
    dump(dir, "hostile_v3_tile_outside_grid.bin", v3_with_dir(d, {}));
  }
  {
    qip::ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(1);
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint((std::uint64_t{32} * 32) + 1);  // symbol bomb
    d.put_varint(0);
    dump(dir, "hostile_v3_symbol_bomb.bin", v3_with_dir(d, {}));
  }
  {
    // Directory declares a 100-byte chunk; only 10 payload bytes exist.
    // Parses fine (lazy extents); the chunk_bytes leg must throw.
    qip::ByteWriter d;
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(0);
    d.put_varint(1);
    d.put_varint(1);
    d.put_varint(0);
    d.put_varint(100);
    d.put_varint(4);
    d.put_varint(0);
    dump(dir, "hostile_v3_chunk_past_end.bin",
         v3_with_dir(d, Bytes(10, 0xAB)));
  }
  // Hostile dims headers (consumed by the read_dims leg of the target):
  // rank 200, a zero extent, and an extent product overflowing size_t.
  {
    qip::ByteWriter w;
    w.put_varint(200);
    dump(dir, "hostile_dims_rank.bin", w.take());
  }
  {
    qip::ByteWriter w;
    w.put_varint(3);
    w.put_varint(16);
    w.put_varint(0);
    w.put_varint(16);
    dump(dir, "hostile_dims_zero_extent.bin", w.take());
  }
  {
    qip::ByteWriter w;
    w.put_varint(4);
    for (int a = 0; a < 4; ++a) w.put_varint(std::uint64_t{1} << 48);
    dump(dir, "hostile_dims_overflow.bin", w.take());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: gen_corpus <corpus-root-dir>\n";
    return 2;
  }
  const fs::path root = argv[1];
  gen_bitstream(root);
  gen_huffman(root);
  gen_lzb(root);
  gen_archive(root);
  std::cout << "corpus written under " << root << "\n";
  return 0;
}
