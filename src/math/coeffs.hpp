#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace amtfmm {

using cdouble = std::complex<double>;
using CoeffVec = std::vector<cdouble>;
/// Read-only view of expansion coefficients: what operators take as input,
/// so an expansion can live in a vector or in a slice of a larger block.
using CoeffSpan = std::span<const cdouble>;

/// Expansion coefficients c_n^m for 0 <= n <= p, -n <= m <= n are stored in
/// a dense "square" layout of (p+1)^2 complex values:
///   index(n, m) = n*(n+1) + m.
/// Full-m storage keeps every translation operator a plain convolution with
/// no conjugate-symmetry case analysis.  For real-valued kernels the
/// coefficients obey c_n^{-m} = (-1)^m conj(c_n^m), which the wire format
/// (see wire_count) exploits, matching DASHMM's triangular storage.
inline std::size_t sq_index(int n, int m) {
  return static_cast<std::size_t>(n * (n + 1) + m);
}

/// Number of complex values in the square (full-m) storage for order p.
inline std::size_t sq_count(int p) {
  return static_cast<std::size_t>((p + 1) * (p + 1));
}

/// Number of complex values actually transferred for a conjugate-symmetric
/// expansion of order p (m >= 0 only): (p+1)(p+2)/2.  At p = 9 this is 55
/// complex doubles = 880 bytes, the M/L node size in the paper's Table I.
inline std::size_t wire_count(int p) {
  return static_cast<std::size_t>((p + 1) * (p + 2) / 2);
}

inline std::size_t wire_bytes(int p) { return wire_count(p) * sizeof(cdouble); }

/// Packs the m >= 0 half of a square-layout expansion (the wire format).
inline void pack_wire(int p, CoeffSpan full, CoeffVec& wire) {
  wire.resize(wire_count(p));
  std::size_t w = 0;
  for (int n = 0; n <= p; ++n)
    for (int m = 0; m <= n; ++m) wire[w++] = full[sq_index(n, m)];
}

/// Reconstructs full-m storage from the wire format using conjugate
/// symmetry.  `condon_phase` selects the symmetry convention:
///  - true:  c_n^{-m} = (-1)^m conj(c_n^m)   (solid-harmonic bases; Laplace)
///  - false: c_n^{-m} =        conj(c_n^m)   (gamma-weighted angular bases;
///                                            Yukawa)
inline void unpack_wire(int p, const CoeffVec& wire, CoeffVec& full,
                        bool condon_phase = true) {
  full.assign(sq_count(p), cdouble{});
  std::size_t w = 0;
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) {
      const cdouble v = wire[w++];
      full[sq_index(n, m)] = v;
      if (m > 0) {
        const double sign = (condon_phase && (m & 1)) ? -1.0 : 1.0;
        full[sq_index(n, -m)] = sign * std::conj(v);
      }
    }
  }
}

}  // namespace amtfmm
