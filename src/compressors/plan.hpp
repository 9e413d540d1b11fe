#pragma once

// Interpolation plans: the per-level (and, for HPEZ-like, per-block)
// decisions an interpolation compressor commits to. Plans are serialized
// into the archive header so decompression replays the identical
// traversal.

#include <array>
#include <cstdint>
#include <vector>

#include "predict/interpolation.hpp"
#include "util/bytes.hpp"
#include "util/dims.hpp"
#include "util/status.hpp"

namespace qip {

/// Configuration of one interpolation level.
struct LevelPlan {
  InterpKind kind = InterpKind::kCubic;
  /// Direction order over axes (first entry interpolated first). Only the
  /// first `rank` entries are meaningful. Ignored when `md` is set.
  std::array<std::int8_t, kMaxRank> order{0, 1, 2, 3};
  /// Multi-dimensional (parity-class) interpolation, HPEZ-style: points
  /// are processed by the set of axes on which their coordinate is an odd
  /// multiple of the stride, and predicted by averaging the 1-D
  /// interpolations along each such axis.
  bool md = false;
  /// Error-bound multiplier for this level (QoZ-style level-wise bounds).
  double eb_scale = 1.0;

  void save(ByteWriter& w) const {
    w.put(static_cast<std::uint8_t>(kind));
    for (auto o : order) w.put(o);
    w.put<std::uint8_t>(md ? 1 : 0);
    w.put(eb_scale);
  }
  static LevelPlan load(ByteReader& r) {
    LevelPlan p;
    const std::uint8_t kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(InterpKind::kCubic))
      throw DecodeError("plan: unknown interpolation kind");
    p.kind = static_cast<InterpKind>(kind);
    // `order` must be a permutation of the axis ids: the traversal
    // indexes stride/extent tables by these values directly.
    std::uint32_t seen = 0;
    for (auto& o : p.order) {
      o = r.get<std::int8_t>();
      if (o < 0 || o >= kMaxRank || (seen & (1u << o)))
        throw DecodeError("plan: axis order is not a permutation");
      seen |= 1u << o;
    }
    p.md = r.get<std::uint8_t>() != 0;
    p.eb_scale = r.get<double>();
    return p;
  }
};

/// A full traversal plan. With `block_size == 0`, `levels[l-1]` governs
/// level l globally. With `block_size > 0` (HPEZ-like), each level is
/// processed block by block and `block_choice[l-1][b]` selects the
/// governing plan from `candidates` for block b (lexicographic block
/// order); `levels[l-1].eb_scale` still applies level-wide.
struct InterpPlan {
  std::vector<LevelPlan> levels;  ///< index l-1 = level l (1 = finest)
  std::size_t block_size = 0;
  std::vector<LevelPlan> candidates;
  std::vector<std::vector<std::uint8_t>> block_choice;
  /// Per-level switch: levels with 0 here run globally under levels[l-1]
  /// even when block_size > 0 (coarse levels hold too few points per
  /// block for per-block adaptivity to pay for its stencil guards).
  std::vector<std::uint8_t> level_blockwise;

  bool blockwise(int level) const {
    return block_size > 0 &&
           static_cast<std::size_t>(level - 1) < level_blockwise.size() &&
           level_blockwise[static_cast<std::size_t>(level - 1)] != 0;
  }

  /// Whether any level runs block-wise. Such a plan is never tiled: its
  /// blocks already reorder the traversal (see interp_tile_layout).
  bool any_blockwise() const {
    for (std::size_t l = 1; l <= levels.size(); ++l)
      if (blockwise(static_cast<int>(l))) return true;
    return false;
  }

  /// Uniform plan: same LevelPlan at every level.
  static InterpPlan uniform(int level_count, const LevelPlan& lp) {
    InterpPlan p;
    p.levels.assign(static_cast<std::size_t>(level_count), lp);
    return p;
  }

  void save(ByteWriter& w) const {
    w.put_varint(levels.size());
    for (const auto& l : levels) l.save(w);
    w.put_varint(block_size);
    w.put_varint(candidates.size());
    for (const auto& c : candidates) c.save(w);
    w.put_varint(block_choice.size());
    for (const auto& bc : block_choice) {
      w.put_varint(bc.size());
      w.put_bytes(bc);
    }
    w.put_varint(level_blockwise.size());
    w.put_bytes(level_blockwise);
  }
  static InterpPlan load(ByteReader& r) {
    InterpPlan p;
    // Every list entry consumes at least one stream byte (a LevelPlan
    // costs 14, a block-choice row at least its length varint), so
    // r.remaining() caps any truthful count; larger values are
    // allocation bombs from a hostile header.
    const std::uint64_t nlevels = r.get_varint();
    if (nlevels > r.remaining())
      throw DecodeError("plan: level count exceeds stream");
    p.levels.resize(static_cast<std::size_t>(nlevels));
    for (auto& l : p.levels) l = LevelPlan::load(r);
    p.block_size = static_cast<std::size_t>(r.get_varint());
    const std::uint64_t ncand = r.get_varint();
    if (ncand > r.remaining())
      throw DecodeError("plan: candidate count exceeds stream");
    p.candidates.resize(static_cast<std::size_t>(ncand));
    for (auto& c : p.candidates) c = LevelPlan::load(r);
    const std::uint64_t nchoice = r.get_varint();
    if (nchoice > r.remaining())
      throw DecodeError("plan: block-choice count exceeds stream");
    p.block_choice.resize(static_cast<std::size_t>(nchoice));
    for (auto& bc : p.block_choice) {
      const std::size_t n = static_cast<std::size_t>(r.get_varint());
      auto bytes = r.get_bytes(n);
      bc.assign(bytes.begin(), bytes.end());
    }
    {
      const std::size_t n = static_cast<std::size_t>(r.get_varint());
      auto bytes = r.get_bytes(n);
      p.level_blockwise.assign(bytes.begin(), bytes.end());
    }
    return p;
  }
};

}  // namespace qip
