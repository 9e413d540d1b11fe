#pragma once

// Runtime-dispatched SIMD kernel layer.
//
// The hot inner loops of the pipeline — the LinearQuantizer encode and
// recover paths, the row kernels of InterpEngine::run_stage_seq (stride-1
// directly; strided cross-axis rows through a cache-blocked gather into
// contiguous scratch), the 2-D stage-grid Lorenzo QP transform, and the
// byte/symbol loops of the entropy stages (Huffman histogram + max scan,
// LZB match scan) — are data-parallel. This module provides explicitly
// vectorized variants of those loops, selected at runtime by CPU
// capability (cpuid) so one binary stays portable:
//
//   scalar  — reference loops over the public quantizer/QP API; always
//             available, always bit-identical to the engine's own loops.
//   sse42   — 128-bit kernels (4 x f32 / 2 x f64 per step).
//   avx2    — 256-bit kernels (8 x f32 / 4 x f64 per step).
//   avx512  — 512-bit kernels (16 x f32 / 8 x f64 per step); requires
//             avx512f+bw+dq+vl (Skylake-SP and later, Zen 4 and later).
//
// Vector translation units are compiled with per-TU ISA flags
// (src/CMakeLists.txt) and are only *called* after a cpuid check here,
// so the baseline build never executes an unsupported instruction.
//
// Bit-identity contract: every kernel produces exactly the codes,
// symbols, reconstructions and outlier streams of the scalar path, for
// every input including NaN/Inf fields and hostile decode symbol
// streams. AVX-512 adds no rounding hazards over avx2: the kernels use
// the same no-FMA double arithmetic, MXCSR-governed cvtpd rounding, and
// i32-lane zigzag envelope (docs/PERFORMANCE.md, "exactness envelope").
// The environment gate QIP_SIMD_FORCE_SCALAR=1 disables dispatch at
// runtime; QIP_SIMD_TIER=scalar|sse42|avx2|avx512 caps the tier for
// triage.
// Archives must be byte-identical either way — tests/test_simd.cpp
// enforces it.
//
// Intrinsics live only in the vec_*.hpp headers under this directory
// (the tools/analyze `simd-confined` rule keeps it that way; the
// tu_avx512.cpp TU is covered like its sse42/avx2 siblings).

#include <cstddef>
#include <cstdint>

#include "core/qp.hpp"
#include "predict/interpolation.hpp"
#include "quant/quantizer.hpp"

namespace qip::simd {

/// Kernel instruction-set tier, in increasing capability order.
enum class Tier : int {
  kScalar = 0,
  kSSE42 = 1,
  kAVX2 = 2,
  kAVX512 = 3,
};

const char* to_string(Tier t);

/// Best tier this CPU supports (independent of what was compiled in or
/// any runtime gate).
Tier cpu_tier();

/// Fine-grained CPU probe for the `qipc cpu` report: true when the CPU
/// has the full AVX-512 feature set the kAVX512 tier requires
/// (avx512f + avx512bw + avx512dq + avx512vl).
bool cpu_has_avx512();

/// The QIP_SIMD_TIER / test-override cap by itself (kAVX512 when no cap
/// is set). active_tier() clamps cpu_tier() against this and the
/// compiled tiers, then applies force_scalar().
Tier tier_cap();

/// True when this binary contains kernels for `t` (vector TUs are only
/// built when the compiler supports the ISA flags on this target).
bool tier_compiled(Tier t);

/// True when QIP_SIMD_FORCE_SCALAR is set (to anything but "0"), or a
/// test override is active. Forces every dispatch site to the scalar
/// reference path.
bool force_scalar();

/// The tier dispatch actually uses: min(cpu_tier, compiled tiers,
/// QIP_SIMD_TIER cap), or kScalar under force_scalar().
Tier active_tier();

/// True when the table-driven Huffman decoder (encode/huffman.cpp) may
/// run; false under force_scalar() so the A/B gate covers it too.
bool huffman_fast_enabled();

/// Test hooks: override the force-scalar gate / cap the tier without
/// touching the environment. -1 clears the override.
void set_force_scalar_override(int v);
void set_tier_cap_override(int tier);

/// Below this many points a row segment is not worth a kernel call.
inline constexpr std::size_t kMinKernelPoints = 16;

/// One stage-row work item handed from InterpEngine::run_stage_seq to a
/// row kernel. Describes `count` stage points starting at linear element
/// index `i0`, spaced `estep` elements apart, all sharing one PredKind
/// stencil with arm `st` and one QP neighborhood `nb`. The engine
/// guarantees: every per-point stencil read (backward and forward) is in
/// bounds, and radius is in (0, 2^20]. estep 1 and 2 run the direct
/// stride-1/stride-2 pipeline; estep > 2 (cross-axis stages of levels
/// >= 2) runs the cache-blocked gather path, which tile-transposes the
/// stencil operand rows into contiguous scratch first. (encode) symbols
/// commit to syms_out in row order; (decode) syms_in holds at least
/// `count` symbols. `codes` may be null when the spatial code array is
/// dead for the stage (QP inactive and no characterization pass): the
/// kernels then skip the code stores entirely.
template <class T>
struct RowArgs {
  T* data = nullptr;              ///< full field; reconstruction in place
  std::uint32_t* codes = nullptr; ///< QP code array (nullable; see ci0)
  std::size_t total = 0;          ///< element count of the field
  std::size_t i0 = 0;             ///< linear index of the first point
  std::size_t count = 0;          ///< points in this segment
  std::size_t estep = 1;          ///< element step between points
  /// Codes-space counterparts of i0/estep. QP compensation only ever
  /// reads same-stage neighbors (multilevel.hpp assigns every offset as
  /// one stage-grid step), so the engine stores codes in a compact
  /// stage-local array indexed by grid coordinate — unit-stride rows,
  /// cache-sized working set — rather than scattering them across the
  /// spatial array. In that mode nb holds codes-space offsets too. The
  /// spatial layout (characterization tools) sets ci0 == i0 and
  /// cestep == estep.
  std::size_t ci0 = 0;
  std::size_t cestep = 1;
  std::ptrdiff_t st = 0;          ///< stencil arm, in elements
  PredKind kind = PredKind::kCopy;
  LinearQuantizer<T>* quant = nullptr;
  const QPConfig* qp = nullptr;   ///< valid when qp_active
  QPNeighborhood nb{};            ///< availability constant over the row
  int level = 0;
  std::int32_t radius = 0;
  bool qp_active = false;
  /// Decode only: a QP-used axis runs along the row, so compensation at
  /// point j reads codes this segment itself decodes (j-1 and earlier).
  /// The symbol->code chain must then run serially; prediction and value
  /// recovery still vectorize.
  bool qp_serial = false;
  /// Parallel level walk: lanes outside this segment's own points may be
  /// written concurrently by the worker owning a neighboring segment, so
  /// full-width chunk loads (whose contiguous footprint exceeds the
  /// lanes the stencil actually reads) must not touch them. shared_lo
  /// guards the backward overread of the first chunk into the preceding
  /// j-slice's last predicted lane; shared_hi clamps the vector prefix
  /// so no chunk's footprint reaches past the segment's last own point.
  /// Scalar fallback points are bit-identical, so bytes are unchanged.
  bool shared_lo = false;
  bool shared_hi = false;
  std::uint32_t* syms_out = nullptr;       ///< encode destination
  const std::uint32_t* syms_in = nullptr;  ///< decode source
};

/// Dispatch table of one tier's kernels for element type T. Function
/// pointers so call sites stay ABI-stable across TUs compiled with
/// different ISA flags.
template <class T>
struct Kernels {
  Tier tier = Tier::kScalar;

  /// One row segment, encode direction (pipeline in kernels_interp.hpp).
  void (*encode_row)(const RowArgs<T>&) = nullptr;
  /// One row segment, decode direction.
  void (*decode_row)(const RowArgs<T>&) = nullptr;
  /// Recompute one row segment's symbols from already-committed codes:
  /// syms_out[j] = qp_encode_symbol(codes[ci0 + j], comp_j) with the
  /// row's QP neighborhood. The block-ranged fix-up entry of the
  /// parallel level walk (InterpEngine::fix_boundary_layers): pass 2
  /// re-derives the speculation-boundary rows' symbols after every
  /// partition's codes are final. Uses codes/ci0/cestep/count/nb/qp/
  /// level/radius only — data and quant may be null.
  void (*sym_fix_row)(const RowArgs<T>&) = nullptr;

  /// Contiguous LinearQuantizer::quantize over n points: codes[i]/
  /// recon[i] from vals[i] vs preds[i]; outliers append to q's list in
  /// ascending i order exactly like the scalar loop.
  void (*quant_encode_block)(const T* vals, const T* preds, std::size_t n,
                             LinearQuantizer<T>* q, std::uint32_t* codes,
                             T* recon) = nullptr;
  /// Contiguous LinearQuantizer::recover over n points; code 0 consumes
  /// outliers in ascending i order (and throws when exhausted) exactly
  /// like the scalar loop.
  void (*quant_recover_block)(const std::uint32_t* codes, const T* preds,
                              std::size_t n, LinearQuantizer<T>* q,
                              T* out) = nullptr;

  /// Contiguous form of qp2d_comp_batch (see core/qp.hpp for the low-32
  /// compensation contract).
  void (*qp2d_comp_block)(const std::uint32_t* left, const std::uint32_t* top,
                          const std::uint32_t* diag, std::size_t n,
                          QPCondition cond, std::int32_t radius,
                          std::int32_t* comp) = nullptr;
  /// Contiguous qp_encode_symbol with per-point compensation. Exact when
  /// |(code - radius) - comp| < 2^31 (the zigzag runs in 32-bit lanes);
  /// the engine's radius <= 2^20 eligibility gate implies this for every
  /// code/compensation pair the pipeline can produce.
  void (*qp_sym_encode_block)(const std::uint32_t* codes,
                              const std::int32_t* comp, std::size_t n,
                              std::int32_t radius,
                              std::uint32_t* syms) = nullptr;
  /// Contiguous qp_decode_symbol with per-point compensation.
  /// Unconditionally exact for arbitrary (hostile) u32 symbols: decode
  /// consumes the compensation mod 2^32 only.
  void (*qp_sym_decode_block)(const std::uint32_t* syms,
                              const std::int32_t* comp, std::size_t n,
                              std::int32_t radius,
                              std::uint32_t* codes) = nullptr;
  /// Fused qp_sym_decode_block + quant_recover_block: symbols go to
  /// reconstructed values in ONE pass instead of materializing the full
  /// code block and re-reading it. `codes` (nullable) receives the
  /// decoded codes when the caller still needs them; code-0 lanes
  /// consume outliers in ascending i order (and throw when exhausted)
  /// exactly like the scalar chain.
  void (*sym_recover_block)(const std::uint32_t* syms,
                            const std::int32_t* comp, const T* preds,
                            std::size_t n, std::int32_t radius,
                            LinearQuantizer<T>* q, std::uint32_t* codes,
                            T* out) = nullptr;
};

/// Kernels for the active tier, or nullptr when the scalar path should
/// run (scalar tier, or force_scalar()). Engine call sites treat null as
/// "use your own loops", which keeps the scalar baseline the engine's
/// original code rather than a copy of it.
template <class T>
const Kernels<T>* kernels();
template <>
const Kernels<float>* kernels<float>();
template <>
const Kernels<double>* kernels<double>();

/// The scalar reference table — always available regardless of tier or
/// gates. Benches and A/B tests use it as ground truth.
template <class T>
const Kernels<T>& scalar_kernels();
template <>
const Kernels<float>& scalar_kernels<float>();
template <>
const Kernels<double>& scalar_kernels<double>();

/// Kernels for a specific tier, or nullptr when that tier is not
/// compiled in. Used by the tier-forcing dispatch tests.
template <class T>
const Kernels<T>* tier_kernels(Tier t);
template <>
const Kernels<float>* tier_kernels<float>(Tier t);
template <>
const Kernels<double>* tier_kernels<double>(Tier t);

/// Tier table for the element-type-independent byte/symbol kernels of
/// the entropy stages. All three compute exact integer results, so any
/// tier is trivially byte-identical; they still dispatch through the
/// same tier/force-scalar gates so the A/B story stays one flag.
struct ByteKernels {
  Tier tier = Tier::kScalar;

  /// Max of v[0..n) (0 when n == 0). Huffman alphabet sizing.
  std::uint32_t (*max_u32)(const std::uint32_t* v, std::size_t n) = nullptr;
  /// Add the symbol counts of v[0..n) into hist[0..alphabet). Caller
  /// guarantees every value < alphabet. Wide tiers split the counting
  /// across per-lane sub-histograms to break the store-to-load
  /// forwarding chain that serializes skewed streams.
  void (*hist_u32)(const std::uint32_t* v, std::size_t n,
                   std::uint64_t* hist, std::size_t alphabet) = nullptr;
  /// Length of the common prefix of a and b, reading b up to `end`
  /// (exclusive). Caller guarantees a < b, so a never reads past the
  /// bytes b itself may touch. LZB match scan.
  std::size_t (*match_len)(const std::uint8_t* a, const std::uint8_t* b,
                           const std::uint8_t* end) = nullptr;
};

/// Byte kernels for the active tier, or nullptr when the scalar path
/// should run. Same null convention as kernels<T>().
const ByteKernels* byte_kernels();

/// The scalar byte-kernel reference table — always available.
const ByteKernels& scalar_byte_kernels();

/// Byte kernels for a specific tier, or nullptr when not compiled in.
const ByteKernels* tier_byte_kernels(Tier t);

}  // namespace qip::simd
