#pragma once

// Field <-> file I/O.
//
// Two on-disk forms are supported:
//  * raw SDRBench-style dumps: bare little-endian scalars, shape supplied
//    out of band (the convention of the paper's datasets);
//  * the self-describing ".qfld" container: a small header (magic, dtype,
//    dims) followed by the raw payload, so tools can round-trip fields
//    without remembering shapes.
//
// Reads go through a memory-mapped fast path (with a sequential-access
// madvise) whenever the input is a regular mappable file, falling back
// to buffered stdio otherwise — pipes, special files, platforms without
// mmap, or QIP_IO_BUFFERED=1 (the test hook that pins the two paths to
// identical results). The MappedFile/MappedField types below expose the
// mapping itself for zero-copy consumers (the qipd serving layer feeds
// compressors straight from the page cache).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/dims.hpp"
#include "util/field.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define QIP_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace qip {

inline constexpr std::uint32_t kFieldMagic = 0x444C4651;  // "QFLD"

namespace detail {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

inline FilePtr open_file(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("qip: cannot open " + path);
  return f;
}

/// Test hook: QIP_IO_BUFFERED=1 forces every read through the buffered
/// stdio path so the mapped and buffered implementations can be pinned
/// to identical results.
inline bool io_buffered_forced() {
  const char* v = std::getenv("QIP_IO_BUFFERED");
  return v && *v && *v != '0';
}

}  // namespace detail

/// Read-only memory mapping of a whole regular file. Move-only RAII;
/// an invalid (default) instance means "use the buffered fallback".
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& o) noexcept : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  MappedFile& operator=(MappedFile&& o) noexcept {
    if (this != &o) {
      reset();
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() { reset(); }

  /// Maps `path` read-only and advises the kernel of sequential access.
  /// Returns an invalid MappedFile when the input cannot be mapped (not
  /// a regular file, empty, or no mmap on this platform) — callers fall
  /// back to buffered reads. Throws only when the file cannot be opened
  /// at all, matching the buffered path's error.
  static MappedFile map(const std::string& path) {
#if defined(QIP_HAS_MMAP)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error("qip: cannot open " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
      ::close(fd);
      return {};
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) return {};
    // Advisory only; a failure just means default readahead.
    (void)::posix_madvise(p, size, POSIX_MADV_SEQUENTIAL);
    MappedFile m;
    m.data_ = p;
    m.size_ = size;
    return m;
#else
    detail::open_file(path, "rb");  // same not-openable error as buffered
    return {};
#endif
  }

  bool valid() const { return data_ != nullptr; }
  std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t*>(data_), size_};
  }

 private:
  void reset() {
#if defined(QIP_HAS_MMAP)
    if (data_) ::munmap(data_, size_);
#endif
    data_ = nullptr;
    size_ = 0;
  }

  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Write bare scalars (SDRBench layout).
template <class T>
void write_raw(const std::string& path, const Field<T>& field) {
  auto f = detail::open_file(path, "wb");
  if (std::fwrite(field.data(), sizeof(T), field.size(), f.get()) !=
      field.size())
    throw std::runtime_error("qip: short write to " + path);
}

/// Read bare scalars with a caller-supplied shape.
template <class T>
Field<T> read_raw(const std::string& path, const Dims& dims) {
  if (!detail::io_buffered_forced()) {
    const MappedFile m = MappedFile::map(path);
    if (m.valid()) {
      const auto b = m.bytes();
      Field<T> out(dims);
      if (b.size() < out.size() * sizeof(T))
        throw std::runtime_error("qip: short read from " + path +
                                 " (expected " + dims.str() + ")");
      std::memcpy(out.data(), b.data(), out.size() * sizeof(T));
      return out;
    }
  }
  auto f = detail::open_file(path, "rb");
  Field<T> out(dims);
  if (std::fread(out.data(), sizeof(T), out.size(), f.get()) != out.size())
    throw std::runtime_error("qip: short read from " + path +
                             " (expected " + dims.str() + ")");
  return out;
}

/// Write the self-describing container.
template <class T>
void write_qfld(const std::string& path, const Field<T>& field) {
  ByteWriter header;
  header.put(kFieldMagic);
  header.put<std::uint8_t>(sizeof(T) == 4 ? 1 : 2);
  header.put_varint(static_cast<std::uint64_t>(field.dims().rank()));
  for (int a = 0; a < field.dims().rank(); ++a)
    header.put_varint(field.dims().extent(a));
  auto f = detail::open_file(path, "wb");
  const auto& hb = header.bytes();
  if (std::fwrite(hb.data(), 1, hb.size(), f.get()) != hb.size() ||
      std::fwrite(field.data(), sizeof(T), field.size(), f.get()) !=
          field.size())
    throw std::runtime_error("qip: short write to " + path);
}

namespace detail {

struct QfldHeader {
  Dims dims;
  std::size_t payload_offset = 0;  ///< header bytes actually consumed
};

/// Parse the .qfld header from the file's first bytes. Throws on magic,
/// dtype, or rank problems (same operator-facing errors as before).
template <class T>
QfldHeader parse_qfld_header(std::span<const std::uint8_t> head,
                             const std::string& path) {
  ByteReader r(head);
  if (r.get<std::uint32_t>() != kFieldMagic)
    throw std::runtime_error("qip: " + path + " is not a .qfld file");
  const std::uint8_t dt = r.get<std::uint8_t>();
  if (dt != (sizeof(T) == 4 ? 1 : 2))
    throw std::runtime_error("qip: dtype mismatch reading " + path);
  const int rank = static_cast<int>(r.get_varint());
  if (rank < 1 || rank > kMaxRank)
    throw std::runtime_error("qip: bad rank in " + path);
  std::size_t e[kMaxRank] = {1, 1, 1, 1};
  for (int a = 0; a < rank; ++a) e[a] = static_cast<std::size_t>(r.get_varint());
  QfldHeader h;
  h.dims = Dims(rank, e);
  h.payload_offset = r.position();
  return h;
}

}  // namespace detail

/// Read a self-describing container written by write_qfld<T>. Throws on
/// magic/dtype mismatch.
template <class T>
Field<T> read_qfld(const std::string& path) {
  if (!detail::io_buffered_forced()) {
    const MappedFile m = MappedFile::map(path);
    if (m.valid()) {
      const auto b = m.bytes();
      const detail::QfldHeader h = detail::parse_qfld_header<T>(
          b.first(std::min<std::size_t>(b.size(), 64)), path);
      Field<T> out(h.dims);
      if (b.size() < h.payload_offset + out.size() * sizeof(T))
        throw std::runtime_error("qip: short read from " + path);
      std::memcpy(out.data(), b.data() + h.payload_offset,
                  out.size() * sizeof(T));
      return out;
    }
  }
  auto f = detail::open_file(path, "rb");
  std::uint8_t hdr[64];
  const std::size_t got = std::fread(hdr, 1, sizeof(hdr), f.get());
  const detail::QfldHeader h = detail::parse_qfld_header<T>({hdr, got}, path);
  // Seek to the end of the header we actually consumed.
  if (std::fseek(f.get(), static_cast<long>(h.payload_offset), SEEK_SET) != 0)
    throw std::runtime_error("qip: seek failed on " + path);
  Field<T> out(h.dims);
  if (std::fread(out.data(), sizeof(T), out.size(), f.get()) != out.size())
    throw std::runtime_error("qip: short read from " + path);
  return out;
}

/// Write an arbitrary byte buffer (e.g. a compressed archive).
inline void write_bytes(const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  auto f = detail::open_file(path, "wb");
  // fwrite with a null data() (empty span) is UB even for size 0.
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size())
    throw std::runtime_error("qip: short write to " + path);
}

/// Read a whole file into a byte buffer.
inline std::vector<std::uint8_t> read_bytes(const std::string& path) {
  if (!detail::io_buffered_forced()) {
    const MappedFile m = MappedFile::map(path);
    if (m.valid()) {
      const auto b = m.bytes();
      return std::vector<std::uint8_t>(b.begin(), b.end());
    }
  }
  auto f = detail::open_file(path, "rb");
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  if (size < 0) throw std::runtime_error("qip: cannot stat " + path);
  std::fseek(f.get(), 0, SEEK_SET);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(size));
  if (!out.empty() &&
      std::fread(out.data(), 1, out.size(), f.get()) != out.size())
    throw std::runtime_error("qip: short read from " + path);
  return out;
}

}  // namespace qip
