#pragma once

// Shared harness for the paper-reproduction benches: timed compression
// runs through the registry, PSNR-aligned error-bound search (Table II
// aligns all compressors at PSNR ~75), and plain-text table printing.
//
// Every bench prints the same rows/series as its paper counterpart; see
// DESIGN.md Sec. 3 for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "compressors/registry.hpp"
#include "data/synthetic.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace qip::bench {

/// One timed compression + decompression run.
struct RunResult {
  double cr = 0;          ///< compression ratio
  double bit_rate = 0;    ///< bits per scalar
  double psnr = 0;
  double max_rel_err = 0; ///< vs value range
  double compress_mbps = 0;
  double decompress_mbps = 0;
  std::size_t bytes = 0;
};

template <class T>
RunResult run_once(const CompressorEntry& e, const Field<T>& f,
                   const GenericOptions& opt) {
  RunResult r;
  Timer tc;
  std::vector<std::uint8_t> arc;
  Field<T> dec;
  if constexpr (std::is_same_v<T, float>) {
    arc = e.compress_f32(f.data(), f.dims(), opt);
    const double sec_c = tc.seconds();
    Timer td;
    dec = e.decompress_f32(arc);
    const double sec_d = td.seconds();
    r.compress_mbps = f.size() * sizeof(T) / sec_c / 1e6;
    r.decompress_mbps = f.size() * sizeof(T) / sec_d / 1e6;
  } else {
    arc = e.compress_f64(f.data(), f.dims(), opt);
    const double sec_c = tc.seconds();
    Timer td;
    dec = e.decompress_f64(arc);
    const double sec_d = td.seconds();
    r.compress_mbps = f.size() * sizeof(T) / sec_c / 1e6;
    r.decompress_mbps = f.size() * sizeof(T) / sec_d / 1e6;
  }
  r.bytes = arc.size();
  r.cr = static_cast<double>(f.size() * sizeof(T)) / arc.size();
  r.bit_rate = 8.0 * sizeof(T) / r.cr;
  r.psnr = psnr(f.span(), dec.span());
  const auto vr = value_range(f.span());
  r.max_rel_err = vr.width() > 0
                      ? max_abs_error(f.span(), dec.span()) / vr.width()
                      : 0.0;
  return r;
}

/// Bisection search for the absolute error bound that lands the
/// compressor at `target_psnr` (within `tol_db`). Used by the Table II
/// reproduction, which aligns all compressors at the same PSNR.
template <class T>
double find_eb_for_psnr(const CompressorEntry& e, const Field<T>& f,
                        double target_psnr, double tol_db = 0.75,
                        int max_iters = 12) {
  const auto vr = value_range(f.span());
  double lo = 1e-8 * vr.width(), hi = 0.3 * vr.width();
  double eb = std::sqrt(lo * hi);
  for (int i = 0; i < max_iters; ++i) {
    GenericOptions opt;
    opt.error_bound = eb;
    const RunResult r = run_once(e, f, opt);
    if (std::abs(r.psnr - target_psnr) <= tol_db) return eb;
    if (r.psnr > target_psnr)
      lo = eb;  // too accurate -> loosen
    else
      hi = eb;
    eb = std::sqrt(lo * hi);
  }
  return eb;
}

/// Print a horizontal rule + header line.
inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Relative error bounds are scaled by the field's value range so that
/// sweeps are comparable across datasets (SDRBench convention).
template <class T>
double abs_eb(const Field<T>& f, double rel) {
  return rel * static_cast<double>(value_range(f.span()).width());
}

/// Rate-distortion sweep of the four QP-capable base compressors, with
/// and without QP, printed as the paper's Figs. 10-15 series. Returns
/// the maximum observed CR increase (annotated in the paper's plots).
template <class T>
double rd_figure(const std::string& dataset_name, const Field<T>& f) {
  header("Rate-distortion on " + dataset_name + " (" + f.dims().str() +
         ")  [paper Figs. 10-15 format]");
  std::printf("%-7s %-7s | %9s %9s %9s | %9s %9s %9s | %7s\n", "comp",
              "rel_eb", "CR", "bitrate", "PSNR", "CR+QP", "bitrate", "PSNR",
              "dCR%");
  double best_gain = 0;
  std::string best_at;
  for (const auto* e : qp_base_compressors()) {
    for (double rel : {1e-2, 3e-3, 1e-3, 3e-4, 1e-4}) {
      GenericOptions base;
      base.error_bound = abs_eb(f, rel);
      GenericOptions withqp = base;
      withqp.qp = QPConfig::best_fit();
      const RunResult r0 = run_once(*e, f, base);
      const RunResult r1 = run_once(*e, f, withqp);
      const double gain = 100.0 * (r1.cr / r0.cr - 1.0);
      if (gain > best_gain) {
        best_gain = gain;
        best_at = e->name + " @ PSNR " + std::to_string(r0.psnr);
      }
      std::printf("%-7s %-7.0e | %9.2f %9.4f %9.2f | %9.2f %9.4f %9.2f | %+6.1f%%\n",
                  e->name.c_str(), rel, r0.cr, r0.bit_rate, r0.psnr, r1.cr,
                  r1.bit_rate, r1.psnr, gain);
    }
  }
  std::printf("max CR increase: %.1f%%  (%s)\n", best_gain, best_at.c_str());
  return best_gain;
}

}  // namespace qip::bench
