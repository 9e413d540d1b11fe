#pragma once

// Shape/stride bookkeeping for up-to-4-dimensional scientific fields.
//
// All arrays in this library are dense row-major: the *last* dimension is
// fastest-varying. A 3-D field of shape (nz, ny, nx) therefore stores the
// point (z, y, x) at linear offset z*ny*nx + y*nx + x, matching the layout
// of SDRBench binary dumps and of SZ3/QoZ/HPEZ internals.

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <ostream>
#include <span>
#include <string>

namespace qip {

/// Maximum tensor rank supported by the library (RTM data is 4-D).
inline constexpr int kMaxRank = 4;

/// Shape of a dense row-major field, rank 1..4.
///
/// Unused trailing dimensions are held at extent 1 so that linear-offset
/// arithmetic can always run over all kMaxRank axes.
class Dims {
 public:
  Dims() = default;

  /// Construct from explicit extents, e.g. Dims{100, 500, 500}.
  Dims(std::initializer_list<std::size_t> extents) {
    assert(extents.size() >= 1 && extents.size() <= kMaxRank);
    rank_ = static_cast<int>(extents.size());
    int i = 0;
    for (std::size_t e : extents) d_[i++] = e;
    compute_strides();
  }

  /// Construct from a rank and per-axis extents; entries past `rank` are
  /// ignored. The form for shapes derived axis by axis, e.g. Dims(d.rank(), e).
  Dims(int rank, std::span<const std::size_t, kMaxRank> extents) : rank_(rank) {
    assert(rank >= 1 && rank <= kMaxRank);
    for (int a = 0; a < rank; ++a) d_[a] = extents[a];
    compute_strides();
  }

  /// Number of meaningful dimensions (1..4).
  int rank() const { return rank_; }

  /// Extent along axis `a` (0 = slowest varying).
  std::size_t extent(int a) const {
    assert(a >= 0 && a < kMaxRank);
    return d_[a];
  }

  /// Row-major element stride along axis `a`.
  std::size_t stride(int a) const {
    assert(a >= 0 && a < kMaxRank);
    return s_[a];
  }

  /// Total number of elements.
  std::size_t size() const {
    return d_[0] * d_[1] * d_[2] * d_[3];
  }

  /// Linear offset of a (up to) 4-D coordinate.
  std::size_t index(std::size_t i0, std::size_t i1 = 0, std::size_t i2 = 0,
                    std::size_t i3 = 0) const {
    return i0 * s_[0] + i1 * s_[1] + i2 * s_[2] + i3 * s_[3];
  }

  /// Largest extent over the meaningful axes; defines the number of
  /// interpolation levels in the multilevel compressors.
  std::size_t max_extent() const {
    std::size_t m = 0;
    for (int a = 0; a < rank_; ++a) m = std::max(m, d_[a]);
    return m;
  }

  bool operator==(const Dims& o) const {
    return rank_ == o.rank_ && d_ == o.d_;
  }
  bool operator!=(const Dims& o) const { return !(*this == o); }

  /// Human-readable "100x500x500".
  std::string str() const {
    std::string out;
    for (int a = 0; a < rank_; ++a) {
      if (a) out += 'x';
      out += std::to_string(d_[a]);
    }
    return out;
  }

 private:
  void compute_strides() {
    s_[kMaxRank - 1] = 1;
    for (int a = kMaxRank - 2; a >= 0; --a) s_[a] = s_[a + 1] * d_[a + 1];
  }

  std::array<std::size_t, kMaxRank> d_{1, 1, 1, 1};
  std::array<std::size_t, kMaxRank> s_{1, 1, 1, 1};
  int rank_ = 1;
};

inline std::ostream& operator<<(std::ostream& os, const Dims& d) {
  return os << d.str();
}

}  // namespace qip
