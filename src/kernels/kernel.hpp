#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "geom/vec3.hpp"
#include "kernels/simd/simd.hpp"
#include "math/coeffs.hpp"
#include "math/rotation.hpp"

namespace amtfmm {

/// The eleven FMM operators of the paper's Figure 1c: eight basic (solid
/// lines) plus the three intermediate-expansion operators of the advanced,
/// merge-and-shift FMM (dashed lines).
enum class Operator : std::uint8_t {
  kS2T,
  kS2M,
  kS2L,
  kM2M,
  kM2L,
  kM2T,
  kL2L,
  kL2T,
  kM2I,
  kI2I,
  kI2L,
};

inline constexpr int kNumOperators = 11;
const char* to_string(Operator op);

/// M2L evaluation strategy.  kRotation is the default: rotate the multipole
/// so the translation vector lies along +z, apply the O(p^2) axial
/// translation (the inner azimuthal sum collapses), rotate back — O(p^3)
/// total instead of the O(p^4) dense double loop.  kNaive keeps the dense
/// path for A/B validation.  Rotation mode covers every M2L offset an FMM
/// DAG emits and dies on any other (M2LRotationSet::find).
enum class M2LMode { kRotation, kNaive };

/// Interaction kernel: expansion storage sizes plus the operator set.
///
/// A kernel instance is configured once via setup() for a given domain and
/// accuracy, after which all operator methods are const and thread-safe
/// (they are invoked concurrently from runtime tasks).
///
/// Conventions shared by all kernels:
///  - expansions are arrays of complex<double> (CoeffVec),
///  - "level" is the tree level of the box owning the expansion; kernels
///    that are scale-variant (Yukawa) key their per-level tables on it,
///  - intermediate (exponential/plane-wave) expansions are per-direction
///    arrays; directions are the six axes of rotation.hpp,
///  - all *_acc operators accumulate into their output.
class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual std::string name() const = 0;

  /// Prepares per-level tables.  `domain_size` is the edge length of the
  /// root cube; levels run 0..max_level.  `accuracy_digits` selects the
  /// expansion order (3 digits -> p = 9, the paper's configuration);
  /// digits outside the kernel's supported range throw config_error.
  virtual void setup(double domain_size, int max_level,
                     int accuracy_digits) = 0;

  /// Expansion lengths in complex doubles.
  virtual std::size_t m_count(int level) const = 0;
  virtual std::size_t l_count(int level) const = 0;
  /// Per-direction intermediate expansion length (0 if unsupported).
  virtual std::size_t x_count(int level) const = 0;

  /// Bytes actually transferred for each expansion kind (kernels exploiting
  /// conjugate symmetry report the packed size, as DASHMM does).
  virtual std::size_t m_wire_bytes(int level) const;
  virtual std::size_t l_wire_bytes(int level) const;
  virtual std::size_t x_wire_bytes(int level) const;

  // --- Wire serialization --------------------------------------------------
  /// Serializes an expansion into exactly *_wire_bytes(level) bytes at
  /// `out` / reconstructs full square-layout storage from the wire bytes.
  /// The defaults copy the raw coefficients; kernels exploiting conjugate
  /// symmetry (Laplace, Yukawa) override with the packed m >= 0 format.
  /// These are the hooks the engine's parcels use, so wire accounting and
  /// wire content agree by construction.
  virtual void pack_m(CoeffSpan full, int level, std::byte* out) const;
  virtual void unpack_m(std::span<const std::byte> wire, int level,
                        CoeffVec& out) const;
  virtual void pack_l(CoeffSpan full, int level, std::byte* out) const;
  virtual void unpack_l(std::span<const std::byte> wire, int level,
                        CoeffVec& out) const;
  virtual void pack_x(CoeffSpan full, int level, std::byte* out) const;
  virtual void unpack_x(std::span<const std::byte> wire, int level,
                        CoeffVec& out) const;

  /// Whether the advanced (M->I -> I->I -> I->L) path is implemented.
  virtual bool supports_merge_and_shift() const { return false; }

  /// M2L strategy switch.  Configuration, not per-call state: set it before
  /// operators run concurrently.  Kernels without a rotation path ignore it.
  M2LMode m2l_mode() const { return m2l_mode_; }
  void set_m2l_mode(M2LMode mode) { m2l_mode_ = mode; }

  /// Potential at `t` due to a unit charge at `s` (the exact kernel).
  virtual double direct(const Vec3& t, const Vec3& s) const = 0;

  /// Gradient support (forces); kernels may return false.
  virtual bool supports_gradient() const { return false; }
  virtual Vec3 direct_grad(const Vec3& t, const Vec3& s) const;

  /// Batched S->T near field over an SoA batch:
  ///   b.phi[i] += sum_j b.sq[j] * direct(t_i, s_j)
  /// (plus accelerations when b.ax/ay/az are set — only meaningful for
  /// kernels with supports_gradient()).  The default loops over direct();
  /// Laplace and Yukawa override with the runtime-dispatched SIMD batch
  /// kernels, which agree with the default to ~1e-12 (tests/kernels).
  virtual void s2t_batch(const simd::P2PBatch& b) const;

  // --- Basic operators -----------------------------------------------------
  virtual void s2m(std::span<const Vec3> pts, std::span<const double> q,
                   const Vec3& center, int level, CoeffVec& out) const = 0;
  virtual void m2m_acc(CoeffSpan in, const Vec3& from, const Vec3& to,
                       int from_level, CoeffVec& inout) const = 0;
  virtual void m2l_acc(CoeffSpan in, const Vec3& from, const Vec3& to,
                       int level, CoeffVec& inout) const = 0;
  virtual void s2l_acc(std::span<const Vec3> pts, std::span<const double> q,
                       const Vec3& center, int level, CoeffVec& inout) const = 0;
  virtual double m2t(CoeffSpan in, const Vec3& center, int level,
                     const Vec3& t) const = 0;
  virtual void l2l_acc(CoeffSpan in, const Vec3& from, const Vec3& to,
                       int to_level, CoeffVec& inout) const = 0;
  virtual double l2t(CoeffSpan in, const Vec3& center, int level,
                     const Vec3& t) const = 0;
  virtual Vec3 l2t_grad(CoeffSpan in, const Vec3& center, int level,
                        const Vec3& t) const;

  // --- Advanced (intermediate-expansion) operators -------------------------
  /// Outgoing plane-wave expansion of a multipole, for one direction.
  virtual void m2i(CoeffSpan m, int level, Axis d, CoeffVec& out) const;
  /// Diagonal translation of an X expansion by the physical offset
  /// to_center - from_center, accumulated into the receiver.  `level` keys
  /// the quadrature (the target child level for merge/shift chains).
  virtual void i2i_acc(CoeffSpan in, Axis d, const Vec3& offset,
                       int level, CoeffVec& inout) const;
  /// Conversion of an accumulated incoming X expansion into the box's local
  /// expansion.
  virtual void i2l_acc(CoeffSpan in, Axis d, int level,
                       CoeffVec& inout) const;

 protected:
  /// setup()'s digit check: throws config_error unless
  /// 1 <= digits <= max_digits.
  void require_digits(int digits, int max_digits) const;

  /// Packed conjugate-symmetric wire codec shared by the Laplace and Yukawa
  /// overrides (wire_count(p) complex values; see math/coeffs.hpp).
  static void pack_symmetric(int p, CoeffSpan full, std::byte* out);
  static void unpack_symmetric(int p, bool condon_phase,
                               std::span<const std::byte> wire, CoeffVec& out);

 private:
  M2LMode m2l_mode_ = M2LMode::kRotation;
};

/// Factory: "laplace", "yukawa" (with screening parameter), or "counting".
std::unique_ptr<Kernel> make_kernel(const std::string& name,
                                    double yukawa_lambda = 1.0);

}  // namespace amtfmm
