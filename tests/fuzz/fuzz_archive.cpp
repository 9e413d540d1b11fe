// Fuzz target: unified container framing + dims headers on arbitrary
// bytes, plus the full registry decode path on anything that parses.
//
// Contract under test: inspect_container()/ContainerReader/read_dims()
// and every compressor's decompress either succeed or throw DecodeError.
// The stage-body cap bounds what a hostile LZB length header can make us
// materialize; read_dims() must reject zero extents and element counts
// that would overflow size_t.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "compressors/core/container.hpp"
#include "compressors/registry.hpp"
#include "util/status.hpp"

namespace {
constexpr std::uint64_t kMaxBody = 1u << 22;  // 4 MiB stage-body cap
// Full decodes only for fields small enough that a flipped dims header
// cannot turn the replay into a multi-gigabyte allocation.
constexpr std::size_t kMaxDecodeElems = 1u << 20;
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  try {
    (void)qip::inspect_container(bytes);
  } catch (const qip::DecodeError&) {
  }

  // Full parse: header, meta/directory LZB passes, stage + chunk
  // directories — no expectations.
  try {
    const qip::ContainerReader in(bytes, kMaxBody);
    // Every declared payload chunk either decompresses or throws
    // DecodeError (truncated payloads, extent lies, frame bombs).
    std::vector<std::vector<std::uint8_t>> raw(in.chunk_count());
    bool all_chunks_ok = true;
    for (std::size_t i = 0; i < in.chunk_count(); ++i) {
      try {
        raw[i] = in.chunk_bytes(i);
      } catch (const qip::DecodeError&) {
        all_chunks_ok = false;
      }
    }
    // A successfully parsed container must reseal and reopen to the same
    // stage directory, payloads, and (when every chunk is present)
    // payload directory.
    qip::ContainerWriter w(in.codec(), in.dtype(), in.dims());
    for (const auto& s : in.sections())
      w.stage(s.id).put_bytes(in.stage_bytes(s.id));
    if (all_chunks_ok) {
      w.set_tiling(in.directory().tiling);
      for (std::size_t i = 0; i < in.chunk_count(); ++i) {
        const auto& c = in.directory().chunks[i];
        w.add_chunk(c.level, c.tile, c.symbol_count, c.outlier_count,
                    std::move(raw[i]));
      }
    }
    const auto resealed = w.seal();
    const qip::ContainerReader in2(resealed, kMaxBody);
    if (in2.dims() != in.dims()) __builtin_trap();
    if (in2.sections().size() != in.sections().size()) __builtin_trap();
    for (std::size_t i = 0; i < in.sections().size(); ++i) {
      const auto& a = in.sections()[i];
      const auto& b = in2.sections()[i];
      if (a.id != b.id || a.size != b.size) __builtin_trap();
      const auto pa = in.stage_bytes(a.id);
      const auto pb = in2.stage_bytes(b.id);
      if (!std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        __builtin_trap();
    }
    if (all_chunks_ok) {
      if (in2.chunk_count() != in.chunk_count()) __builtin_trap();
      for (std::size_t i = 0; i < in.chunk_count(); ++i) {
        const auto& a = in.directory().chunks[i];
        const auto& b = in2.directory().chunks[i];
        if (a.level != b.level || a.tile != b.tile ||
            a.symbol_count != b.symbol_count ||
            a.outlier_count != b.outlier_count)
          __builtin_trap();
      }
    }
  } catch (const qip::DecodeError&) {
  }

  // Codec/dtype expectation branches, selected by the first input byte.
  const auto id = static_cast<qip::CompressorId>(size ? data[0] % 8 : 1);
  const std::uint8_t dtype = size ? 1 + (data[0] >> 7) : 1;
  try {
    const qip::ContainerReader in(bytes, id, dtype, kMaxBody);
    (void)in.has_stage(qip::StageId::kConfig);
  } catch (const qip::DecodeError&) {
  }

  // Dims header parser over the raw bytes.
  try {
    qip::ByteReader r(bytes);
    (void)qip::read_dims(r);
  } catch (const qip::DecodeError&) {
  }

  // Full decode through the registry: exercises Huffman/RLE symbol
  // streams, quantizer outlier tables and the traversal engines against
  // the same hostile input. Anything that fails must throw DecodeError.
  // The preview/region entry points take the same battering — they walk
  // the v3 chunk directory with partial symbol streams and tile halos,
  // exactly the paths a hostile progressive download reaches first.
  try {
    const auto& entry = qip::find_compressor_for(bytes);
    const qip::Dims dims = qip::inspect_container(bytes).dims;
    if (dims.size() <= kMaxDecodeElems) {
      const int level = 1 + (size > 1 ? data[1] % 6 : 0);
      qip::Box box = qip::Box::whole(dims);
      for (int a = 0; a < dims.rank(); ++a) {
        box.lo[a] = dims.extent(a) / 4;
        box.hi[a] = box.lo[a] + (dims.extent(a) + 1) / 2;
      }
      for (const qip::DecodeRequest& req :
           {qip::DecodeRequest{}, qip::DecodeRequest::preview(level),
            qip::DecodeRequest::region(box)}) {
        try {
          (void)entry.decode<float>(bytes, req);
        } catch (const qip::DecodeError&) {
        }
        try {
          (void)entry.decode<double>(bytes, req);
        } catch (const qip::DecodeError&) {
        }
      }
    }
  } catch (const qip::DecodeError&) {
  }
  return 0;
}
