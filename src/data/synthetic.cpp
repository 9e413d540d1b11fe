#include "data/synthetic.hpp"

#include <cmath>
#include <cstdlib>
#include <random>

#include "util/thread_pool.hpp"

namespace qip {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Random-phase spectral field: sum of cosine modes with power-law
/// amplitudes A ~ |k|^-alpha. The workhorse for every smooth component.
struct SpectralModes {
  struct Mode {
    double kz, ky, kx, amp, phase;
  };
  std::vector<Mode> modes;

  SpectralModes(std::mt19937_64& rng, int count, double alpha,
                double kmin = 1.0, double kmax = 24.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    modes.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      const double mag = kmin * std::pow(kmax / kmin, u(rng));
      // Random direction on the sphere.
      const double cz = 2 * u(rng) - 1;
      const double az = 2 * kPi * u(rng);
      const double s = std::sqrt(std::max(0.0, 1 - cz * cz));
      modes.push_back({mag * cz, mag * s * std::cos(az),
                       mag * s * std::sin(az), std::pow(mag, -alpha),
                       2 * kPi * u(rng)});
    }
  }

  /// Evaluate at normalized coordinates in [0, 1].
  double operator()(double z, double y, double x) const {
    double v = 0.0;
    for (const auto& m : modes)
      v += m.amp * std::cos(2 * kPi * (m.kz * z + m.ky * y + m.kx * x) +
                            m.phase);
    return v;
  }
};

std::uint64_t mix_seed(DatasetId id, int field, std::uint64_t seed) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(id) + 1);
  h ^= 0xBF58476D1CE4E5B9ull * static_cast<std::uint64_t>(field + 1);
  h ^= seed + 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

/// Run body(i) for every outer-axis index i < n on a pool of one worker
/// per hardware thread. Each point is a pure function of its
/// coordinates, so the field is the same whatever the worker count.
template <class F>
void for_each_outer(std::size_t n, F&& body) {
  ThreadPool pool(0);
  pool.parallel_for(n, body);
}

/// Fill a field from a pointwise generator of normalized coords (z, y,
/// x) over its last three axes. A rank-4 field's first two axes span z
/// together: it is the rank-3 field of extents (e0 * e1, e2, e3) with
/// that long axis split in two, so every point gets a value.
template <class T, class F>
void fill3(Field<T>& f, F&& fn) {
  const Dims& d = f.dims();
  const int a = d.rank() == 4 ? 1 : 0;  // first of the three (z, y, x) axes
  const std::size_t ez = a ? d.extent(0) * d.extent(1) : d.extent(0);
  const std::size_t ey = d.extent(a + 1);
  const std::size_t ex = d.extent(a + 2);
  const double nz = static_cast<double>(std::max<std::size_t>(ez - 1, 1));
  const double ny = static_cast<double>(std::max<std::size_t>(ey - 1, 1));
  const double nx = static_cast<double>(std::max<std::size_t>(ex - 1, 1));
  T* const out = f.data();
  for_each_outer(ez, [&](std::size_t zi) {
    const double z = zi / nz;
    T* const slab = out + zi * ey * ex;
    for (std::size_t yi = 0; yi < ey; ++yi) {
      const double y = yi / ny;
      for (std::size_t xi = 0; xi < ex; ++xi) {
        const double x = xi / nx;
        slab[yi * ex + xi] = static_cast<T>(fn(z, y, x));
      }
    }
  });
}

/// Ricker wavelet (seismic source signature).
double ricker(double t, double f0) {
  const double a = kPi * f0 * t;
  const double a2 = a * a;
  return (1 - 2 * a2) * std::exp(-a2);
}

// ---------------------------------------------------------------------
// Per-dataset generators. Each returns values as double; the public
// wrappers cast to float/double.
// ---------------------------------------------------------------------

template <class T>
void gen_miranda(Field<T>& f, int field, std::uint64_t seed) {
  // Rayleigh–Taylor-style turbulence: Kolmogorov-ish spectrum plus one or
  // two density interfaces perturbed by large-scale modes.
  std::mt19937_64 rng(mix_seed(DatasetId::kMiranda, field, seed));
  SpectralModes turb(rng, 40, 1.7, 1.5, 32.0);
  SpectralModes pert(rng, 8, 1.2, 1.0, 4.0);
  const double interface_z = 0.45 + 0.1 * (field % 3) * 0.1;
  const bool density_like = field % 3 == 0;
  fill3(f, [&](double z, double y, double x) {
    const double t = turb(z, y, x);
    if (!density_like) return 0.8 * t;
    const double front =
        std::tanh((z - interface_z - 0.05 * pert(0.0, y, x)) * 18.0);
    return front + 0.35 * t;
  });
}

template <class T>
void gen_hurricane(Field<T>& f, int field, std::uint64_t seed) {
  // Rankine-style vortex with an eye, vertical decay, background shear
  // and mesoscale noise. Different fields rotate the role of the
  // tangential/radial/thermal components.
  std::mt19937_64 rng(mix_seed(DatasetId::kHurricane, field, seed));
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double cy = 0.4 + 0.2 * u(rng), cx = 0.4 + 0.2 * u(rng);
  const double rm = 0.06 + 0.04 * u(rng);  // radius of max wind
  SpectralModes noise(rng, 24, 1.5, 2.0, 20.0);
  const int kind = field % 3;
  fill3(f, [&](double z, double y, double x) {
    const double dy = y - cy, dx = x - cx;
    const double r = std::sqrt(dy * dy + dx * dx) + 1e-9;
    const double v = (r / rm) * std::exp(1.0 - r / rm);  // tangential speed
    const double vert = std::exp(-1.8 * z);
    double base;
    if (kind == 0)
      base = v * vert * (-dy / r);  // u-wind
    else if (kind == 1)
      base = v * vert * (dx / r);  // v-wind
    else
      base = -v * v * vert + 0.3 * (1 - z);  // pressure/temperature-ish
    return base + 0.06 * noise(z, y, x) + 0.15 * (0.5 - z) * y;
  });
}

template <class T>
void gen_segsalt(Field<T>& f, int field, std::uint64_t seed) {
  // SEG/EAGE-style model: depth-layered medium with lateral undulation,
  // an ellipsoidal salt body, and (for the Pressure field) a propagating
  // wavefront — the structure behind the paper's Fig. 3 clustering.
  std::mt19937_64 rng(mix_seed(DatasetId::kSegSalt, field, seed));
  std::uniform_real_distribution<double> u(0.0, 1.0);
  SpectralModes lateral(rng, 10, 1.3, 1.0, 6.0);
  SpectralModes fine(rng, 24, 1.8, 4.0, 28.0);
  const double scz = 0.45 + 0.1 * u(rng), scy = 0.4 + 0.2 * u(rng),
               scx = 0.4 + 0.2 * u(rng);
  const bool pressure_like = field % 3 != 1;
  const double tphase = 0.55 + 0.15 * (field % 3);
  fill3(f, [&](double z, double y, double x) {
    // Layer structure: velocity steps with depth.
    const double warp = 0.04 * lateral(0.0, y, x);
    const double depth = z + warp;
    double vel = 1.5 + 2.5 * depth + 0.4 * std::floor(depth * 8.0) / 8.0;
    const double ez = (z - scz) / 0.22, ey = (y - scy) / 0.30,
                 ex = (x - scx) / 0.28;
    const double salt = ez * ez + ey * ey + ex * ex;
    if (salt < 1.0) vel = 4.5;  // salt body
    if (!pressure_like) return vel + 0.02 * fine(z, y, x);
    // Wavefield snapshot: ricker front expanding from a near-surface
    // source, refracting brighter outside the salt.
    const double dz = z - 0.02, dy2 = y - 0.5, dx2 = x - 0.5;
    const double r = std::sqrt(dz * dz + dy2 * dy2 + dx2 * dx2);
    const double front = ricker((r - tphase) * 14.0, 1.0) / (1.0 + 6.0 * r);
    const double reflect =
        0.4 * ricker((r - tphase * 0.6) * 18.0, 1.0) / (1.0 + 8.0 * r);
    return (front + reflect) * (salt < 1.0 ? 0.35 : 1.0) +
           0.003 * fine(z, y, x);
  });
}

template <class T>
void gen_scale(Field<T>& f, int field, std::uint64_t seed) {
  // SCALE-RM-like cloud microphysics: exponentiated spectral noise,
  // thresholded to produce the large zero regions + patchy positive
  // values typical of QC/QR/QS fields; every third field is a smooth
  // thermodynamic field instead.
  std::mt19937_64 rng(mix_seed(DatasetId::kScale, field, seed));
  SpectralModes coarse(rng, 16, 1.4, 1.0, 8.0);
  SpectralModes detail(rng, 24, 1.6, 6.0, 40.0);
  const int kind = field % 3;
  fill3(f, [&](double z, double y, double x) {
    if (kind == 2) {  // temperature/pressure-like: smooth + lapse rate
      return 300.0 - 60.0 * z + 3.0 * coarse(z, y, x) +
             0.3 * detail(z, y, x);
    }
    const double c = coarse(z, y, x) + 0.35 * detail(z, y, x);
    const double cloud = std::exp(1.6 * c) - 2.2 + (kind == 1 ? -0.4 : 0.0);
    return cloud > 0 ? cloud * std::exp(-2.0 * z) : 0.0;
  });
}

template <class T>
void gen_s3d(Field<T>& f, int field, std::uint64_t seed) {
  // Turbulent jet flame: wrinkled mixing layers (tanh fronts), species
  // mass fractions peaking inside the flame, strong small-scale
  // turbulence in the shear layers.
  std::mt19937_64 rng(mix_seed(DatasetId::kS3D, field, seed));
  SpectralModes wrinkle(rng, 12, 1.2, 1.0, 6.0);
  SpectralModes turb(rng, 36, 1.7, 3.0, 30.0);
  const int kind = field % 3;
  fill3(f, [&](double z, double y, double x) {
    const double jet = y - 0.5 + 0.06 * wrinkle(z, 0.0, x);
    const double layer = std::exp(-jet * jet / 0.02);
    if (kind == 0)  // temperature-like
      return 300.0 + 1500.0 * layer + 40.0 * layer * turb(z, y, x);
    if (kind == 1)  // species-like (bounded, peaks in flame)
      return std::max(0.0, layer * (0.2 + 0.05 * turb(z, y, x)));
    return layer * turb(z, y, x) * 8.0 + 0.5 * wrinkle(z, y, x);  // velocity
  });
}

template <class T>
void gen_cesm(Field<T>& f, int field, std::uint64_t seed) {
  // CESM-ATM-like: thin vertical extent, strong zonal (latitude) bands,
  // continent-scale low-frequency structure, storm-track noise.
  std::mt19937_64 rng(mix_seed(DatasetId::kCESM, field, seed));
  SpectralModes continents(rng, 8, 1.1, 0.8, 3.0);
  SpectralModes synoptic(rng, 24, 1.5, 4.0, 24.0);
  const int kind = field % 4;
  fill3(f, [&](double z, double y, double x) {
    const double lat = y - 0.5;  // axis 1 = latitude
    const double band = std::cos(lat * kPi) + 0.4 * std::cos(3 * lat * kPi);
    const double land = continents(0.2, y, x);
    const double storm = synoptic(z, y, x);
    switch (kind) {
      case 0:  // temperature-like
        return 250.0 + 40.0 * band + 6.0 * land + 1.5 * storm - 8.0 * z;
      case 1:  // humidity-like (positive, equator-heavy)
        return std::max(0.0, band * 0.02 + 0.004 * storm) *
               std::exp(-3.0 * z);
      case 2:  // zonal wind: jet streams at mid-latitudes
        return 30.0 * std::sin(2 * kPi * lat) * std::exp(-0.5 * z) +
               2.0 * storm;
      default:  // surface-pressure-like with orography
        return 1000.0 - 25.0 * land + 4.0 * storm + 10.0 * band;
    }
  });
}

template <class T>
void gen_rtm_4d(Field<T>& f, int field, std::uint64_t seed) {
  // 4-D reverse-time-migration wavefield: dim0 = time steps of a
  // spherical Ricker front expanding through a layered medium.
  std::mt19937_64 rng(mix_seed(DatasetId::kRTM, field, seed));
  SpectralModes lateral(rng, 8, 1.3, 1.0, 5.0);
  const Dims& d = f.dims();
  const double nt = static_cast<double>(std::max<std::size_t>(d.extent(0) - 1, 1));
  const double n1 = static_cast<double>(std::max<std::size_t>(d.extent(1) - 1, 1));
  const double n2 = static_cast<double>(std::max<std::size_t>(d.extent(2) - 1, 1));
  const double n3 = static_cast<double>(std::max<std::size_t>(d.extent(3) - 1, 1));
  for_each_outer(d.extent(0), [&](std::size_t ti) {
    const double t = 0.1 + 0.9 * (ti / nt);
    for (std::size_t zi = 0; zi < d.extent(1); ++zi) {
      const double z = zi / n1;
      for (std::size_t yi = 0; yi < d.extent(2); ++yi) {
        const double y = yi / n2;
        for (std::size_t xi = 0; xi < d.extent(3); ++xi) {
          const double x = xi / n3;
          const double dz = z - 0.05, dy = y - 0.5, dx = x - 0.5;
          const double r = std::sqrt(dz * dz + dy * dy + dx * dx);
          const double warp = 1.0 + 0.08 * lateral(0.0, y, x);
          // Front widths are kept at >= ~10 grid cells of the reduced
          // bench dims so the wavefield is oversampled relative to its
          // features, as the production-resolution RTM snapshots are.
          const double front = ricker((r * warp - t * 0.9) * 6.0, 1.0) /
                               (1.0 + 5.0 * r);
          const double ghost =
              0.3 * ricker((r * warp - t * 0.55) * 9.0, 1.0) /
              (1.0 + 7.0 * r);
          f.at(ti, zi, yi, xi) = static_cast<T>(front + ghost);
        }
      }
    }
  });
}

template <class T>
Field<T> generate(DatasetId id, int field_index, const Dims& dims,
                  std::uint64_t seed) {
  Field<T> f(dims);
  const int fc = dataset_spec(id).field_count;
  const int field = ((field_index % fc) + fc) % fc;
  switch (id) {
    case DatasetId::kMiranda: gen_miranda(f, field, seed); break;
    case DatasetId::kHurricane: gen_hurricane(f, field, seed); break;
    case DatasetId::kSegSalt: gen_segsalt(f, field, seed); break;
    case DatasetId::kScale: gen_scale(f, field, seed); break;
    case DatasetId::kS3D: gen_s3d(f, field, seed); break;
    case DatasetId::kCESM: gen_cesm(f, field, seed); break;
    case DatasetId::kRTM: gen_rtm_4d(f, field, seed); break;
  }
  return f;
}

}  // namespace

const std::vector<DatasetSpec>& dataset_specs() {
  static const std::vector<DatasetSpec> specs = {
      {DatasetId::kMiranda, "Miranda", 7, Dims{256, 384, 384},
       Dims{128, 192, 192}, false},
      {DatasetId::kHurricane, "Hurricane", 13, Dims{100, 500, 500},
       Dims{64, 256, 256}, false},
      {DatasetId::kSegSalt, "SegSalt", 3, Dims{1008, 1008, 352},
       Dims{256, 256, 128}, false},
      {DatasetId::kScale, "SCALE", 12, Dims{98, 1200, 1200},
       Dims{64, 320, 320}, false},
      {DatasetId::kS3D, "S3D", 11, Dims{500, 500, 500}, Dims{128, 128, 128},
       true},
      {DatasetId::kCESM, "CESM", 33, Dims{26, 1800, 3600}, Dims{26, 480, 960},
       false},
      {DatasetId::kRTM, "RTM", 1, Dims{3600, 449, 449, 235},
       Dims{48, 96, 96, 64}, false},
  };
  return specs;
}

const DatasetSpec& dataset_spec(DatasetId id) {
  for (const auto& s : dataset_specs())
    if (s.id == id) return s;
  return dataset_specs().front();
}

Field<float> make_field(DatasetId id, int field_index, const Dims& dims,
                        std::uint64_t seed) {
  return generate<float>(id, field_index, dims, seed);
}

Field<double> make_field_f64(DatasetId id, int field_index, const Dims& dims,
                             std::uint64_t seed) {
  return generate<double>(id, field_index, dims, seed);
}

Dims bench_dims(const DatasetSpec& spec) {
  const char* scale = std::getenv("QIP_BENCH_SCALE");
  if (scale && std::string(scale) == "full") return spec.paper_dims;
  return spec.bench_dims;
}

}  // namespace qip
