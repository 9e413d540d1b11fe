#pragma once

// Vectorized stage-row kernels for InterpEngine::run_stage_slice,
// templated over a vector trait V. Include only from the vector TUs in
// this directory.
//
// A row segment (RowArgs) is processed in blocks of kRowBlock points
// through fixed passes over contiguous scratch, so all strided traffic
// is isolated in cheap commit loops:
//
//   encode: predict -> quantize -> commit recon+codes -> compensation
//           -> symbols
//   decode: predict -> compensation -> fused symbols-to-recon (codes as
//           a side product when live) -> commit
//   decode (qp_serial): predict -> scalar per-point comp/symbol chain
//           -> recover -> commit recon
//
// Pass order is what makes the encode side order-independent: every
// code of a block is committed before any compensation of that block is
// read, and compensation offsets only ever point backwards. The decode
// side flips to the serial chain when a QP axis runs along the row,
// because compensation at point j then reads codes this very segment
// decodes at j-1 and earlier.
//
// Prediction stencils never touch same-stage row points (stencil arms
// are odd multiples of the stride, row points even), so a whole block
// can be predicted before any of it is reconstructed — on both sides.
//
// estep 1 and 2 feed the stencil straight into stride-aware vector
// loads (vload/vload2). estep > 2 — the cross-axis stages of levels
// >= 2, whose strides make direct vector loads useless — instead runs
// the cache-blocked gather path: each stencil operand row of a
// kRowBlock tile is transposed into contiguous scratch with one strided
// walk, the identical stride-1 chunk arithmetic runs over the scratch,
// and results scatter back in the commit loops. Every gathered element
// is a read the per-point scalar code performs at the same index, so
// the engine's row segmentation is the bounds proof.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/qp.hpp"
#include "predict/interpolation.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels_lorenzo.hpp"
#include "simd/kernels_quant.hpp"

namespace qip::simd {

/// Block length of the row pipelines; a multiple of every lane count.
inline constexpr std::size_t kRowBlock = 256;

/// Forward-most element offset a PredKind stencil reads (0 for pure
/// backward stencils). Backward reads need no bound: the engine
/// guarantees every backward stencil point exists.
inline std::size_t pred_fwd(PredKind k, std::ptrdiff_t st) {
  const std::size_t s = static_cast<std::size_t>(st);
  switch (k) {
    case PredKind::kCopy: return 0;
    case PredKind::kLinear: return s;
    case PredKind::kCubic: return 3 * s;
    case PredKind::kQuadA: return s;
    case PredKind::kQuadD: return 3 * s;
  }
  return 3 * s;
}

/// Scalar stencil application, exactly the engine's per-kind lambdas.
template <class T>
inline T predict_scalar(const T* data, std::size_t i, std::ptrdiff_t st,
                        PredKind k) {
  switch (k) {
    case PredKind::kCopy: return data[i - st];
    case PredKind::kLinear:
      return interp_linear(data[i - st], data[i + st]);
    case PredKind::kCubic:
      return interp_cubic(data[i - 3 * st], data[i - st], data[i + st],
                          data[i + 3 * st]);
    case PredKind::kQuadA:
      return interp_quad(data[i + st], data[i - st], data[i - 3 * st]);
    case PredKind::kQuadD:
      return interp_quad(data[i - st], data[i + st], data[i + 3 * st]);
  }
  return data[i - st];
}

template <class V>
inline typename V::VT vload_e(const typename V::T* p, std::size_t estep) {
  return estep == 1 ? V::vload(p) : V::vload2(p);
}

/// One vector of predictions for the chunk whose lane-0 point sits at
/// `pb`. Association orders replay interp_linear/quad/cubic exactly
/// (power-of-two divisions become multiplications, which round
/// identically; 9*b - a is IEEE-commutative with -a + 9*b).
template <class V>
inline typename V::VT predict_chunk(const typename V::T* pb, std::size_t estep,
                                    std::ptrdiff_t st, PredKind kind) {
  using T = typename V::T;
  switch (kind) {
    case PredKind::kCopy:
      return vload_e<V>(pb - st, estep);
    case PredKind::kLinear: {
      const auto b = vload_e<V>(pb - st, estep);
      const auto c = vload_e<V>(pb + st, estep);
      return V::vmul(V::vadd(b, c), V::vsplat(T(0.5)));
    }
    case PredKind::kCubic: {
      const auto a = vload_e<V>(pb - 3 * st, estep);
      const auto b = vload_e<V>(pb - st, estep);
      const auto c = vload_e<V>(pb + st, estep);
      const auto d = vload_e<V>(pb + 3 * st, estep);
      const auto nine = V::vsplat(T(9));
      const auto t1 = V::vsub(V::vmul(nine, b), a);
      const auto t2 = V::vadd(t1, V::vmul(nine, c));
      return V::vmul(V::vsub(t2, d), V::vsplat(T(1) / T(16)));
    }
    case PredKind::kQuadA:
    case PredKind::kQuadD: {
      const std::ptrdiff_t oa = kind == PredKind::kQuadA ? st : -st;
      const auto a = vload_e<V>(pb + oa, estep);
      const auto b = vload_e<V>(pb - oa, estep);
      const auto c = vload_e<V>(pb + 3 * (kind == PredKind::kQuadA ? -st : st),
                                estep);
      const auto t = V::vsub(
          V::vadd(V::vmul(V::vsplat(T(3)), a), V::vmul(V::vsplat(T(6)), b)),
          c);
      return V::vmul(t, V::vsplat(T(1) / T(8)));
    }
  }
  return vload_e<V>(pb - st, estep);
}

/// One vector of predictions from gathered (contiguous) stencil operand
/// rows. Same association orders as predict_chunk — the scratch rows
/// hold exactly the values the strided loads would have produced, so
/// the results are bit-identical.
template <class V>
inline typename V::VT predict_rows_chunk(const typename V::T* m3,
                                         const typename V::T* m1,
                                         const typename V::T* p1,
                                         const typename V::T* p3,
                                         PredKind kind) {
  using T = typename V::T;
  switch (kind) {
    case PredKind::kCopy:
      return V::vload(m1);
    case PredKind::kLinear:
      return V::vmul(V::vadd(V::vload(m1), V::vload(p1)), V::vsplat(T(0.5)));
    case PredKind::kCubic: {
      const auto a = V::vload(m3);
      const auto b = V::vload(m1);
      const auto c = V::vload(p1);
      const auto d = V::vload(p3);
      const auto nine = V::vsplat(T(9));
      const auto t1 = V::vsub(V::vmul(nine, b), a);
      const auto t2 = V::vadd(t1, V::vmul(nine, c));
      return V::vmul(V::vsub(t2, d), V::vsplat(T(1) / T(16)));
    }
    case PredKind::kQuadA:
    case PredKind::kQuadD: {
      const auto a = V::vload(kind == PredKind::kQuadA ? p1 : m1);
      const auto b = V::vload(kind == PredKind::kQuadA ? m1 : p1);
      const auto c = V::vload(kind == PredKind::kQuadA ? m3 : p3);
      const auto t = V::vsub(
          V::vadd(V::vmul(V::vsplat(T(3)), a), V::vmul(V::vsplat(T(6)), b)),
          c);
      return V::vmul(t, V::vsplat(T(1) / T(8)));
    }
  }
  return V::vload(m1);
}

/// Fused qp_sym_decode_block_v + quant_recover_block_v (dispatch-table
/// `sym_recover_block`): symbols go to reconstructed values in one pass
/// instead of materializing the code block and re-reading it. The
/// symbol->code lanes are the exact qp_sym_decode_block_v chunk; code-0
/// lanes — symbol 0, or a hostile symbol whose code wraps to 0 — then
/// take the public recover() in ascending lane order, so outlier
/// consumption (and the exhaustion throw) matches the scalar chain.
template <class V>
void sym_recover_block_v(const std::uint32_t* syms, const std::int32_t* comp,
                         const typename V::T* preds, std::size_t n,
                         std::int32_t radius,
                         LinearQuantizer<typename V::T>* q,
                         std::uint32_t* codes, typename V::T* out) {
  constexpr int K = V::K;
  const auto vrad = V::isplat(radius);
  const auto zero = V::isplat(0);
  const auto one = V::isplat(1);
  const auto teb = V::dsplat(q->two_eb());
  std::size_t i = 0;
  for (; i + K <= n; i += K) {
    const auto vs = V::iload(syms + i);
    const auto ms = V::icmpeq(vs, zero);
    const auto zz = V::isub(vs, one);
    const auto r = V::ixor(V::ishr1(zz), V::isub(zero, V::iand(zz, one)));
    const auto code =
        V::iandnot(ms, V::iadd(V::iadd(r, iload_s32<V>(comp + i)), vrad));
    if (codes) V::istore(codes + i, code);
    const auto qi = V::isub(code, vrad);
    const auto vp = V::widen(V::vload(preds + i));
    V::vstore(out + i, V::narrow(V::dadd(vp, V::dmul(teb, V::dfromi(qi)))));
    const unsigned m0 = V::imask(V::icmpeq(code, zero));
    if (m0) {
      for (int k = 0; k < K; ++k) {
        if (m0 >> k & 1u) out[i + k] = q->recover(0, preds[i + k]);
      }
    }
  }
  for (; i < n; ++i) {
    const std::uint32_t code = qp_decode_symbol(syms[i], comp[i], radius);
    if (codes) codes[i] = code;
    out[i] = q->recover(code, preds[i]);
  }
}

namespace rowdetail {

/// Tile-transpose one strided operand row into contiguous scratch.
template <class T>
inline void gather_row(const T* src, std::size_t estep, std::size_t n,
                       T* dst) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = src[j * estep];
}

/// Leading points that must stay scalar: when the preceding j-slice of
/// this row belongs to a concurrent worker (shared_lo) and the stencil
/// runs along the row (st < estep), the first chunk's backward
/// deinterleaving load — based at e - 3*st — would cover the
/// neighbor's last predicted lane two elements below i0. From point 1
/// on, every byte below the chunk base that a load touches is either
/// an operand lane or this segment's own.
template <class T>
inline std::size_t vector_head(const RowArgs<T>& a) {
  return a.shared_lo && a.estep == 2 &&
                 a.st < static_cast<std::ptrdiff_t>(a.estep)
             ? 1
             : 0;
}

/// Number of leading segment points that full-width chunk loads may
/// cover: a chunk based at element e touches [e - back, e + fwd +
/// estep*K - 1], and only the forward end needs checking. With
/// shared_hi the forward check also stops at the segment itself: the
/// first foreign predicted lane past the segment sits at own-last +
/// estep, so the chunk footprint must stay <= own-last + 1. Only the
/// loads whose stencil leg runs along the row extend the hazard by
/// fwd; cross-axis legs land in operand planes, which no worker writes
/// during the pass. estep == 1 needs no clamp (its only same-row load
/// is the base load, confined to the segment by the chunk loop);
/// estep > 2 takes the gather path.
template <class V, class T>
inline std::size_t vector_prefix(const RowArgs<T>& a) {
  const std::size_t fwd = pred_fwd(a.kind, a.st);
  const std::size_t span = a.estep * V::K - 1 + fwd;
  if (a.total <= span || a.total - 1 - span < a.i0) return 0;
  std::size_t max_b = (a.total - 1 - span - a.i0) / a.estep;
  if (a.shared_hi && a.estep == 2) {
    const std::size_t hz_fwd =
        a.st < static_cast<std::ptrdiff_t>(a.estep) ? fwd : 0;
    const std::size_t need = hz_fwd + 2 * V::K;
    if (2 * a.count < need) return 0;
    max_b = std::min(max_b, (2 * a.count - need) / 2);
  }
  const std::size_t h = vector_head(a);
  if (max_b < h || a.count < h + V::K) return 0;
  const std::size_t nc =
      std::min((a.count - h) / V::K, (max_b - h) / V::K + 1);
  return nc == 0 ? 0 : h + nc * V::K;
}

/// Predict block points [0, nb) into predb; points [h, nv) may use
/// vector chunks (h is the shared_lo scalar head, nonzero only in a
/// segment's first block). Also copies the current values to dcur.
template <class V, class T>
inline void predict_block(const RowArgs<T>& a, std::size_t e0, std::size_t nb,
                          std::size_t nv, std::size_t h, T* predb, T* dcur) {
  constexpr int K = V::K;
  std::size_t j = 0;
  for (; j < h && j < nb; ++j) {
    const std::size_t i = e0 + j * a.estep;
    if (dcur) dcur[j] = a.data[i];
    predb[j] = predict_scalar(a.data, i, a.st, a.kind);
  }
  for (; j + K <= nv; j += K) {
    const T* pb = a.data + e0 + j * a.estep;
    if (dcur) V::vstore(dcur + j, vload_e<V>(pb, a.estep));
    V::vstore(predb + j, predict_chunk<V>(pb, a.estep, a.st, a.kind));
  }
  for (; j < nb; ++j) {
    const std::size_t i = e0 + j * a.estep;
    if (dcur) dcur[j] = a.data[i];
    predb[j] = predict_scalar(a.data, i, a.st, a.kind);
  }
}

/// Gathered (estep > 2) predict: transpose the stencil operand rows the
/// PredKind actually reads into contiguous scratch, then run the
/// stride-1 chunk arithmetic over the whole block (the scratch has no
/// footprint hazard, so there is no nv split — only a lane-count tail,
/// which replays the authoritative interp_* stencils on the scratch).
template <class V, class T>
inline void predict_block_gather(const RowArgs<T>& a, std::size_t e0,
                                 std::size_t nb, T* predb, T* dcur, T* m3,
                                 T* m1, T* p1, T* p3) {
  constexpr int K = V::K;
  const T* base = a.data + e0;
  gather_row(base - a.st, a.estep, nb, m1);
  if (a.kind != PredKind::kCopy) gather_row(base + a.st, a.estep, nb, p1);
  if (a.kind == PredKind::kCubic || a.kind == PredKind::kQuadA)
    gather_row(base - 3 * a.st, a.estep, nb, m3);
  if (a.kind == PredKind::kCubic || a.kind == PredKind::kQuadD)
    gather_row(base + 3 * a.st, a.estep, nb, p3);
  if (dcur) gather_row(base, a.estep, nb, dcur);

  std::size_t j = 0;
  for (; j + K <= nb; j += K)
    V::vstore(predb + j,
              predict_rows_chunk<V>(m3 + j, m1 + j, p1 + j, p3 + j, a.kind));
  for (; j < nb; ++j) {
    switch (a.kind) {
      case PredKind::kCopy: predb[j] = m1[j]; break;
      case PredKind::kLinear: predb[j] = interp_linear(m1[j], p1[j]); break;
      case PredKind::kCubic:
        predb[j] = interp_cubic(m3[j], m1[j], p1[j], p3[j]);
        break;
      case PredKind::kQuadA: predb[j] = interp_quad(p1[j], m1[j], m3[j]); break;
      case PredKind::kQuadD: predb[j] = interp_quad(m1[j], p1[j], p3[j]); break;
    }
  }
}

/// Compensation for block points [0, nb) into compb, reading codes at
/// codes-space base ce0 (stride a.cestep). Vectorizes the dominant 2-D
/// Lorenzo configuration; other dimensions and partial neighborhoods go
/// through the authoritative per-point path.
template <class V, class T>
inline void comp_block(const RowArgs<T>& a, std::size_t ce0, std::size_t nb,
                       std::size_t nv, std::int32_t* compb) {
  if (!a.qp_active) {
    std::memset(compb, 0, nb * sizeof(std::int32_t));
    return;
  }
  if (a.qp->dimension == QPDimension::k2D && a.nb.avail_left &&
      a.nb.avail_top) {
    if (a.cestep == 1) {
      // Compact codes: every neighbor row is contiguous and in bounds,
      // so the comp kernel vectorizes the whole block.
      qp2d_comp_row_v<V>(a.codes + ce0 - a.nb.left, a.codes + ce0 - a.nb.top,
                         a.codes + ce0 - a.nb.left - a.nb.top, nb, nb, 1,
                         a.qp->condition, a.radius, compb);
      return;
    }
    if (a.cestep == 2) {
      qp2d_comp_row_v<V>(a.codes + ce0 - a.nb.left, a.codes + ce0 - a.nb.top,
                         a.codes + ce0 - a.nb.left - a.nb.top, nb, nv,
                         a.cestep, a.qp->condition, a.radius, compb);
      return;
    }
    // Gathered path: transpose the three neighbor-code rows, then the
    // stride-1 comp kernel covers the full block (integer-exact, and
    // the scratch rows carry no load-footprint hazard).
    std::uint32_t gl[kRowBlock], gt[kRowBlock], gd[kRowBlock];
    gather_row(a.codes + ce0 - a.nb.left, a.cestep, nb, gl);
    gather_row(a.codes + ce0 - a.nb.top, a.cestep, nb, gt);
    gather_row(a.codes + ce0 - a.nb.left - a.nb.top, a.cestep, nb, gd);
    qp2d_comp_row_v<V>(gl, gt, gd, nb, nb, 1, a.qp->condition, a.radius,
                       compb);
    return;
  }
  for (std::size_t j = 0; j < nb; ++j) {
    compb[j] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(qp_compensation(
            a.codes, ce0 + j * a.cestep, a.nb, *a.qp, a.level, a.radius)));
  }
}

/// Zigzag-plus-radius term of qp_decode_symbol, modulo 2^32. Truncation
/// to u32 is a ring homomorphism, so qp_decode_symbol(sym, c, radius)
/// == (spec_code(sym, radius) + (uint32)c) & -(sym != 0) exactly, for
/// every input (hostile streams included).
inline std::uint32_t spec_code(std::uint32_t sym, std::int32_t radius) {
  const std::uint64_t zz = static_cast<std::uint64_t>(sym) - 1;
  const std::uint32_t rpre = static_cast<std::uint32_t>(
      ((zz >> 1) ^ (~(zz & 1) + 1)) +
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(radius)));
  return rpre & (std::uint32_t{0} - static_cast<std::uint32_t>(sym != 0));
}

/// One full decode step of the 2-D serial chain, branchless (mask
/// selects instead of data-dependent branches). Exact replay of
/// qp_compensation + qp_decode_symbol per the spec_code identity.
template <QPCondition C>
inline std::uint32_t qp2d_chain_step(std::uint32_t sym, std::uint32_t cl,
                                     std::uint32_t ct, std::uint32_t cd,
                                     std::int32_t radius) {
  const std::int64_t ql = static_cast<std::int64_t>(cl) - radius;
  const std::int64_t qt = static_cast<std::int64_t>(ct) - radius;
  const std::int64_t qd = static_cast<std::int64_t>(cd) - radius;
  bool ok = true;
  if constexpr (C != QPCondition::kCaseI)
    ok = (cl != kUnpredictableCode) & (ct != kUnpredictableCode) &
         (cd != kUnpredictableCode);
  if constexpr (C == QPCondition::kCaseIII)
    ok = ok & (((ql > 0) & (qt > 0)) | ((ql < 0) & (qt < 0)));
  if constexpr (C == QPCondition::kCaseIV)
    ok = ok & (((ql > 0) & (qt > 0)) | ((ql < 0) & (qt < 0))) &
         (((ql > 0) & (qd > 0)) | ((ql < 0) & (qd < 0)));
  const std::uint32_t m_ok = std::uint32_t{0} - static_cast<std::uint32_t>(ok);
  const std::uint32_t comp32 = static_cast<std::uint32_t>(ql + qt - qd) & m_ok;
  const std::uint32_t m_sym =
      std::uint32_t{0} - static_cast<std::uint32_t>(sym != 0);
  return (spec_code(sym, radius) + (comp32 & m_sym)) & m_sym;
}

/// One block of the 2-D serial decode chain. The diagonal neighbor row
/// is the top row shifted by one point (left offset == the row step),
/// so only the top row is gathered; cd0 seeds lane 0.
///
/// The chain itself is speculate-then-fix: compensation is provably 0
/// wherever the gate fails on inputs that do not involve the carried
/// left code — top/diagonal unpredictable (II, III, IV), top index 0
/// (III), diagonal index 0 (IV) — so those points decode in a
/// dependency-free pass, and only the surviving points (few, on smooth
/// fields) run the carried chain, in ascending order against
/// already-final predecessors. Case I gates on nothing, so every point
/// chains.
template <QPCondition C>
inline std::uint32_t qp2d_chain(const std::uint32_t* syms,
                                const std::uint32_t* ctb, std::uint32_t cd0,
                                std::size_t n, std::int32_t radius,
                                std::uint32_t cl0, std::uint32_t* codeb) {
  if constexpr (C == QPCondition::kCaseI) {
    std::uint32_t cl = cl0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t cd = j ? ctb[j - 1] : cd0;
      cl = qp2d_chain_step<C>(syms[j], cl, ctb[j], cd, radius);
      codeb[j] = cl;
    }
    return cl;
  } else {
    const std::uint32_t r32 = static_cast<std::uint32_t>(radius);
    std::uint16_t idxs[kRowBlock];
    std::size_t k = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t ct = ctb[j];
      const std::uint32_t cd = j ? ctb[j - 1] : cd0;
      codeb[j] = spec_code(syms[j], radius);
      bool need = (ct != kUnpredictableCode) & (cd != kUnpredictableCode);
      if constexpr (C == QPCondition::kCaseIII) need = need & (ct != r32);
      if constexpr (C == QPCondition::kCaseIV)
        need = need & (ct != r32) & (cd != r32);
      idxs[k] = static_cast<std::uint16_t>(j);
      k += need;
    }
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t j = idxs[t];
      const std::uint32_t cl = j ? codeb[j - 1] : cl0;
      const std::uint32_t cd = j ? ctb[j - 1] : cd0;
      codeb[j] = qp2d_chain_step<C>(syms[j], cl, ctb[j], cd, radius);
    }
    return codeb[n - 1];
  }
}

}  // namespace rowdetail

/// Encode one row segment (see file comment for the pass structure).
template <class V>
void encode_row_v(const RowArgs<typename V::T>& a) {
  using T = typename V::T;
  constexpr std::size_t B = kRowBlock;
  const bool gath = a.estep > 2;
  // The gather path has no load-footprint hazard, so every point is
  // vector-eligible; the direct path limits full-width loads to the
  // checked prefix.
  const std::size_t vec_pts = gath ? a.count : rowdetail::vector_prefix<V>(a);
  const std::size_t head = gath ? 0 : rowdetail::vector_head(a);

  T dcur[B], predb[B], recon[B];
  T m3[B], m1[B], p1[B], p3[B];  // gather scratch (estep > 2 only)
  std::uint32_t codeb[B];
  std::int32_t compb[B];

  std::size_t done = 0;
  while (done < a.count) {
    const std::size_t nb = std::min(B, a.count - done);
    const std::size_t nv = vec_pts > done ? std::min(nb, vec_pts - done) : 0;
    const std::size_t e0 = a.i0 + done * a.estep;
    const std::size_t ce0 = a.ci0 + done * a.cestep;

    if (gath)
      rowdetail::predict_block_gather<V>(a, e0, nb, predb, dcur, m3, m1, p1,
                                         p3);
    else
      rowdetail::predict_block<V>(a, e0, nb, nv, done == 0 ? head : 0, predb,
                                  dcur);
    quant_encode_block_v<V>(dcur, predb, nb, a.quant, codeb, recon);
    if (a.estep == 1) {
      std::memcpy(a.data + e0, recon, nb * sizeof(T));
    } else {
      for (std::size_t j = 0; j < nb; ++j) a.data[e0 + j * a.estep] = recon[j];
    }
    if (a.codes) {
      if (a.cestep == 1) {
        std::memcpy(a.codes + ce0, codeb, nb * sizeof(std::uint32_t));
      } else {
        for (std::size_t j = 0; j < nb; ++j)
          a.codes[ce0 + j * a.cestep] = codeb[j];
      }
    }
    rowdetail::comp_block<V>(a, ce0, nb, nv, compb);
    qp_sym_encode_block_v<V>(codeb, compb, nb, a.radius, a.syms_out + done);
    done += nb;
  }
}

/// Decode one row segment (see file comment for the pass structure).
template <class V>
void decode_row_v(const RowArgs<typename V::T>& a) {
  using T = typename V::T;
  constexpr std::size_t B = kRowBlock;
  const bool gath = a.estep > 2;
  const std::size_t vec_pts = gath ? a.count : rowdetail::vector_prefix<V>(a);
  const std::size_t head = gath ? 0 : rowdetail::vector_head(a);

  T predb[B], recon[B];
  T m3[B], m1[B], p1[B], p3[B];  // gather scratch (estep > 2 only)
  std::uint32_t codeb[B];
  std::int32_t compb[B];

  std::size_t done = 0;
  while (done < a.count) {
    const std::size_t nb = std::min(B, a.count - done);
    const std::size_t nv = vec_pts > done ? std::min(nb, vec_pts - done) : 0;
    const std::size_t e0 = a.i0 + done * a.estep;
    const std::size_t ce0 = a.ci0 + done * a.cestep;

    if (gath)
      rowdetail::predict_block_gather<V>(a, e0, nb, predb,
                                         static_cast<T*>(nullptr), m3, m1, p1,
                                         p3);
    else
      rowdetail::predict_block<V>(a, e0, nb, nv, done == 0 ? head : 0, predb,
                                  static_cast<T*>(nullptr));

    if (a.qp_serial) {
      // qp_serial implies qp_active, so a.codes is live here.
      if (a.qp->dimension == QPDimension::k2D && a.nb.left == a.cestep) {
        // 2-D chain with the left axis along the row: the chained
        // neighbor is simply the previous block point, while the top
        // and diagonal stencil codes live in rows decoded before this
        // one. Preload those two rows and carry the left code in a
        // register, so the per-point dependency costs a handful of ALU
        // ops instead of a store-to-load round trip through the codes
        // array plus the full qp_compensation dispatch.
        if (!a.nb.avail_left || !a.nb.avail_top) {
          for (std::size_t j = 0; j < nb; ++j)
            codeb[j] = qp_decode_symbol(a.syms_in[done + j], 0, a.radius);
        } else {
          // The diagonal row is the top row shifted one point left
          // (diag offset == left + top and left == the row step), so a
          // single row load serves both stencil legs; cd0 seeds lane 0.
          std::uint32_t ctb[B];
          rowdetail::gather_row(a.codes + ce0 - a.nb.top, a.cestep, nb, ctb);
          const std::uint32_t cd0 = a.codes[ce0 - a.nb.left - a.nb.top];
          const std::uint32_t cl = a.codes[ce0 - a.nb.left];
          const std::uint32_t* sy = a.syms_in + done;
          switch (a.qp->condition) {
            case QPCondition::kCaseI:
              rowdetail::qp2d_chain<QPCondition::kCaseI>(sy, ctb, cd0, nb,
                                                         a.radius, cl, codeb);
              break;
            case QPCondition::kCaseII:
              rowdetail::qp2d_chain<QPCondition::kCaseII>(sy, ctb, cd0, nb,
                                                          a.radius, cl, codeb);
              break;
            case QPCondition::kCaseIII:
              rowdetail::qp2d_chain<QPCondition::kCaseIII>(sy, ctb, cd0, nb,
                                                           a.radius, cl, codeb);
              break;
            case QPCondition::kCaseIV:
              rowdetail::qp2d_chain<QPCondition::kCaseIV>(sy, ctb, cd0, nb,
                                                          a.radius, cl, codeb);
              break;
          }
        }
        if (a.cestep == 1) {
          std::memcpy(a.codes + ce0, codeb, nb * sizeof(std::uint32_t));
        } else {
          for (std::size_t j = 0; j < nb; ++j)
            a.codes[ce0 + j * a.cestep] = codeb[j];
        }
      } else {
        for (std::size_t j = 0; j < nb; ++j) {
          const std::size_t ci = ce0 + j * a.cestep;
          const std::int64_t comp =
              qp_compensation(a.codes, ci, a.nb, *a.qp, a.level, a.radius);
          const std::uint32_t code =
              qp_decode_symbol(a.syms_in[done + j], comp, a.radius);
          a.codes[ci] = code;
          codeb[j] = code;
        }
      }
      quant_recover_block_v<V>(codeb, predb, nb, a.quant, recon);
    } else {
      rowdetail::comp_block<V>(a, ce0, nb, nv, compb);
      // Fused symbols->recon pass; unit-stride code rows write live
      // codes straight to their destination, strided rows stage in
      // codeb and scatter below, dead code arrays skip the stores
      // entirely.
      std::uint32_t* const cdst =
          a.codes ? (a.cestep == 1 ? a.codes + ce0 : codeb) : nullptr;
      sym_recover_block_v<V>(a.syms_in + done, compb, predb, nb, a.radius,
                             a.quant, cdst, recon);
      if (a.codes && a.cestep != 1) {
        for (std::size_t j = 0; j < nb; ++j)
          a.codes[ce0 + j * a.cestep] = codeb[j];
      }
    }

    if (a.estep == 1) {
      std::memcpy(a.data + e0, recon, nb * sizeof(T));
    } else {
      for (std::size_t j = 0; j < nb; ++j) a.data[e0 + j * a.estep] = recon[j];
    }
    done += nb;
  }
}

/// Recompute one row segment's symbols from already-committed codes
/// (dispatch-table `sym_fix_row`): the block-ranged pass-2 entry of the
/// parallel level walk's encode speculation. Every code this reads —
/// the row's own and its QP neighbors' — is final, so the pass is pure
/// comp_block + qp_sym_encode_block per kRowBlock chunk, with no
/// prediction, quantization or data traffic at all.
template <class V>
void sym_fix_row_v(const RowArgs<typename V::T>& a) {
  constexpr std::size_t B = kRowBlock;
  std::uint32_t codeb[B];
  std::int32_t compb[B];
  std::size_t done = 0;
  while (done < a.count) {
    const std::size_t nb = std::min(B, a.count - done);
    const std::size_t ce0 = a.ci0 + done * a.cestep;
    rowdetail::comp_block<V>(a, ce0, nb, nb, compb);
    const std::uint32_t* cb = a.codes + ce0;
    if (a.cestep != 1) {
      rowdetail::gather_row(a.codes + ce0, a.cestep, nb, codeb);
      cb = codeb;
    }
    qp_sym_encode_block_v<V>(cb, compb, nb, a.radius, a.syms_out + done);
    done += nb;
  }
}

/// Assemble one tier's dispatch table from the templates above.
template <class V>
Kernels<typename V::T> make_kernels(Tier t) {
  Kernels<typename V::T> k;
  k.tier = t;
  k.encode_row = &encode_row_v<V>;
  k.decode_row = &decode_row_v<V>;
  k.sym_fix_row = &sym_fix_row_v<V>;
  k.quant_encode_block = &quant_encode_block_v<V>;
  k.quant_recover_block = &quant_recover_block_v<V>;
  k.qp2d_comp_block = &qp2d_comp_block_v<V>;
  k.qp_sym_encode_block = &qp_sym_encode_block_v<V>;
  k.qp_sym_decode_block = &qp_sym_decode_block_v<V>;
  k.sym_recover_block = &sym_recover_block_v<V>;
  return k;
}

}  // namespace qip::simd
