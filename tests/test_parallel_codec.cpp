// Determinism and correctness tests for the parallel entropy/lossless
// paths added with the shared ThreadPool plumbing:
//
//  - huffman_encode / lzb_compress / full-compressor / chunked archives
//    must be byte-identical whether produced serially or on pools of any
//    worker count (the ranged/blocked split is a format constant);
//  - the ranged Huffman and blocked LZB layouts must round-trip at sizes
//    past their thresholds, and reject truncated streams cleanly;
//  - the decompress_into path must match the allocating path exactly and
//    reject shape mismatches with DecodeError.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "encode/huffman.hpp"
#include "lossless/lzb.hpp"
#include "parallel/chunked.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace qip {
namespace {

// Worker counts exercised everywhere: serial, two, and whatever the host
// reports (possibly 1 again; the duplicate case is still a valid probe).
std::vector<unsigned> worker_counts() {
  return {1u, 2u, std::max(1u, std::thread::hardware_concurrency())};
}

// Deterministic quantization-index-shaped symbols: mostly small values
// around a center, occasional outliers, long enough to trigger the
// ranged layout (threshold is a couple of 64Ki-symbol ranges).
std::vector<std::uint32_t> make_symbols(std::size_t n) {
  std::vector<std::uint32_t> s(n);
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint32_t r = static_cast<std::uint32_t>(x >> 33);
    s[i] = (r % 97 == 0) ? (r % 4096) : 32768 + (r % 31) - 15;
  }
  return s;
}

// Semi-compressible byte stream long enough for the blocked LZB layout
// (threshold 2 MiB): repeating structure with a drifting phase.
std::vector<std::uint8_t> make_bytes(std::size_t n) {
  std::vector<std::uint8_t> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>((i * 131) >> (i % 7) & 0xFF);
  return b;
}

TEST(ParallelCodec, HuffmanBytesIdenticalAcrossWorkers) {
  const auto symbols = make_symbols(300000);
  const auto serial = huffman_encode(symbols);
  for (unsigned w : worker_counts()) {
    ThreadPool pool(w);
    const auto enc = huffman_encode(symbols, &pool);
    ASSERT_EQ(enc, serial) << "workers=" << w;
    // Decode with and without the pool; both must reproduce the input.
    ASSERT_EQ(huffman_decode(enc, &pool), symbols) << "workers=" << w;
  }
  EXPECT_EQ(huffman_decode(serial), symbols);
}

TEST(ParallelCodec, LzbBytesIdenticalAcrossWorkers) {
  const auto input = make_bytes(3u << 20);
  const auto serial = lzb_compress(input);
  EXPECT_LT(serial.size(), input.size());
  for (unsigned w : worker_counts()) {
    ThreadPool pool(w);
    const auto enc = lzb_compress(input, &pool);
    ASSERT_EQ(enc, serial) << "workers=" << w;
    ASSERT_EQ(lzb_decompress(enc, input.size(), &pool), input)
        << "workers=" << w;
  }
  EXPECT_EQ(lzb_decompress(serial, input.size()), input);
}

TEST(ParallelCodec, Sz3ArchiveIdenticalAcrossWorkers) {
  const auto f = make_field(DatasetId::kMiranda, 0, Dims{48, 40, 40}, 7);
  SZ3Config cfg;
  cfg.error_bound = 1e-3;
  cfg.qp = QPConfig::best_fit();
  const auto serial = sz3_compress(f.data(), f.dims(), cfg);
  for (unsigned w : worker_counts()) {
    ThreadPool pool(w);
    SZ3Config pcfg = cfg;
    pcfg.pool = &pool;
    ASSERT_EQ(sz3_compress(f.data(), f.dims(), pcfg), serial)
        << "workers=" << w;
    const auto dec = sz3_decompress<float>(serial, &pool);
    ASSERT_EQ(dec.dims(), f.dims());
    ASSERT_LE(max_abs_error(f.span(), dec.span()), 1e-3 * (1 + 1e-9));
  }
}

TEST(ParallelCodec, ChunkedArchiveIdenticalAcrossWorkers) {
  const auto f = make_field(DatasetId::kHurricane, 0, Dims{40, 32, 32}, 11);
  ChunkedOptions base;
  base.options.error_bound = 1e-3;
  base.slab = 12;  // tail slab: 12, 12, 12, 4
  base.workers = 1;
  const auto serial = chunked_compress(f.data(), f.dims(), base);
  for (unsigned w : worker_counts()) {
    ChunkedOptions opt = base;
    opt.workers = w;
    ASSERT_EQ(chunked_compress(f.data(), f.dims(), opt), serial)
        << "workers=" << w;
    // A caller-shared pool must also leave the bytes unchanged.
    ThreadPool pool(w);
    ChunkedOptions shared = base;
    shared.options.pool = &pool;
    ASSERT_EQ(chunked_compress(f.data(), f.dims(), shared), serial)
        << "shared pool workers=" << w;
    const auto dec = chunked_decompress<float>(serial, w, &pool);
    ASSERT_EQ(dec.dims(), f.dims());
    ASSERT_LE(max_abs_error(f.span(), dec.span()), 1e-3 * (1 + 1e-9));
  }
}

TEST(ParallelCodec, RangedHuffmanTruncationRejected) {
  const auto symbols = make_symbols(200000);
  const auto enc = huffman_encode(symbols);
  for (std::size_t cut = 0; cut < enc.size(); cut += enc.size() / 97 + 1) {
    const std::span<const std::uint8_t> prefix(enc.data(), cut);
    EXPECT_THROW((void)huffman_decode(prefix), DecodeError) << "cut=" << cut;
  }
}

TEST(ParallelCodec, BlockedLzbTruncationRejected) {
  const auto input = make_bytes(3u << 20);
  const auto enc = lzb_compress(input);
  // cut == 1 is skipped: a lone 0x00 is the valid legacy encoding of an
  // empty stream (that is what makes 0 usable as the blocked sentinel).
  for (std::size_t cut = 2; cut < enc.size(); cut += enc.size() / 97 + 1) {
    const std::span<const std::uint8_t> prefix(enc.data(), cut);
    EXPECT_THROW((void)lzb_decompress(prefix, input.size()), DecodeError)
        << "cut=" << cut;
  }
}

TEST(ParallelCodec, DecompressIntoMatchesAllocatingPath) {
  const auto f = make_field(DatasetId::kSegSalt, 0, Dims{24, 20, 16}, 13);
  for (const auto& e : compressor_registry()) {
    GenericOptions opt;
    opt.error_bound = 1e-2;
    const auto arc = e.compress_f32(f.data(), f.dims(), opt);
    const Field<float> alloc = e.decompress_f32(arc);
    Field<float> direct(f.dims());
    ASSERT_TRUE(static_cast<bool>(e.decompress_into_f32)) << e.name;
    e.decompress_into_f32(arc, direct.data(), f.dims(), nullptr);
    for (std::size_t i = 0; i < alloc.size(); ++i)
      ASSERT_EQ(direct[i], alloc[i]) << e.name << " index " << i;
  }
}

TEST(ParallelCodec, DecompressIntoRejectsShapeMismatch) {
  const auto f = make_field(DatasetId::kMiranda, 0, Dims{16, 16, 16}, 17);
  for (const auto& e : compressor_registry()) {
    GenericOptions opt;
    opt.error_bound = 1e-2;
    const auto arc = e.compress_f32(f.data(), f.dims(), opt);
    std::vector<float> buf(f.size());
    EXPECT_THROW(
        e.decompress_into_f32(arc, buf.data(), Dims{16, 16, 8}, nullptr),
        DecodeError)
        << e.name;
    EXPECT_THROW(
        e.decompress_into_f32(arc, buf.data(), Dims{16, 16}, nullptr),
        DecodeError)
        << e.name;
  }
}

}  // namespace
}  // namespace qip
