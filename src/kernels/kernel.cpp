#include "kernels/kernel.hpp"

#include <cstring>

#include "kernels/counting.hpp"
#include "kernels/laplace.hpp"
#include "kernels/yukawa.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {

const char* to_string(Operator op) {
  switch (op) {
    case Operator::kS2T: return "S->T";
    case Operator::kS2M: return "S->M";
    case Operator::kS2L: return "S->L";
    case Operator::kM2M: return "M->M";
    case Operator::kM2L: return "M->L";
    case Operator::kM2T: return "M->T";
    case Operator::kL2L: return "L->L";
    case Operator::kL2T: return "L->T";
    case Operator::kM2I: return "M->I";
    case Operator::kI2I: return "I->I";
    case Operator::kI2L: return "I->L";
  }
  return "?";
}

void Kernel::require_digits(int digits, int max_digits) const {
  if (digits < 1 || digits > max_digits) {
    throw config_error(name() + " kernel supports 1 to " +
                       std::to_string(max_digits) + " digits, not " +
                       std::to_string(digits));
  }
}

std::size_t Kernel::m_wire_bytes(int level) const {
  return m_count(level) * sizeof(cdouble);
}
std::size_t Kernel::l_wire_bytes(int level) const {
  return l_count(level) * sizeof(cdouble);
}
std::size_t Kernel::x_wire_bytes(int level) const {
  return x_count(level) * sizeof(cdouble);
}

namespace {

// Default codec: coefficients travel raw (wire bytes == count * 16).
void copy_raw_out(CoeffSpan full, std::size_t count, std::byte* out) {
  AMTFMM_ASSERT(full.size() >= count);
  std::memcpy(out, full.data(), count * sizeof(cdouble));
}

void copy_raw_in(std::span<const std::byte> wire, std::size_t count,
                 CoeffVec& out) {
  AMTFMM_ASSERT(wire.size() == count * sizeof(cdouble));
  out.resize(count);
  std::memcpy(out.data(), wire.data(), wire.size());
}

}  // namespace

void Kernel::s2t_batch(const simd::P2PBatch& b) const {
  const bool grad = b.ax != nullptr && supports_gradient();
  for (std::size_t i = 0; i < b.nt; ++i) {
    const Vec3 t{b.tx[i], b.ty[i], b.tz[i]};
    double phi = 0.0;
    Vec3 acc{};
    for (std::size_t j = 0; j < b.ns; ++j) {
      const Vec3 s{b.sx[j], b.sy[j], b.sz[j]};
      phi += b.sq[j] * direct(t, s);
      if (grad) acc = acc + direct_grad(t, s) * b.sq[j];
    }
    b.phi[i] += phi;
    if (b.ax != nullptr) {
      b.ax[i] += acc.x;
      b.ay[i] += acc.y;
      b.az[i] += acc.z;
    }
  }
}

void Kernel::pack_m(CoeffSpan full, int level, std::byte* out) const {
  copy_raw_out(full, m_count(level), out);
}
void Kernel::unpack_m(std::span<const std::byte> wire, int level,
                      CoeffVec& out) const {
  copy_raw_in(wire, m_count(level), out);
}
void Kernel::pack_l(CoeffSpan full, int level, std::byte* out) const {
  copy_raw_out(full, l_count(level), out);
}
void Kernel::unpack_l(std::span<const std::byte> wire, int level,
                      CoeffVec& out) const {
  copy_raw_in(wire, l_count(level), out);
}
void Kernel::pack_x(CoeffSpan full, int level, std::byte* out) const {
  copy_raw_out(full, x_count(level), out);
}
void Kernel::unpack_x(std::span<const std::byte> wire, int level,
                      CoeffVec& out) const {
  copy_raw_in(wire, x_count(level), out);
}

void Kernel::pack_symmetric(int p, CoeffSpan full, std::byte* out) {
  auto scratch = ScratchArena::local().coeffs();
  pack_wire(p, full, *scratch);
  std::memcpy(out, scratch->data(), wire_bytes(p));
}

void Kernel::unpack_symmetric(int p, bool condon_phase,
                              std::span<const std::byte> wire, CoeffVec& out) {
  AMTFMM_ASSERT(wire.size() == wire_bytes(p));
  auto scratch = ScratchArena::local().coeffs();
  scratch->resize(wire_count(p));
  std::memcpy(scratch->data(), wire.data(), wire.size());
  unpack_wire(p, *scratch, out, condon_phase);
}

Vec3 Kernel::direct_grad(const Vec3&, const Vec3&) const {
  AMTFMM_ASSERT_MSG(false, "kernel does not support gradients");
  return {};
}

Vec3 Kernel::l2t_grad(CoeffSpan, const Vec3&, int, const Vec3&) const {
  AMTFMM_ASSERT_MSG(false, "kernel does not support gradients");
  return {};
}

void Kernel::m2i(CoeffSpan, int, Axis, CoeffVec&) const {
  AMTFMM_ASSERT_MSG(false, "kernel does not support merge-and-shift");
}
void Kernel::i2i_acc(CoeffSpan, Axis, const Vec3&, int,
                     CoeffVec&) const {
  AMTFMM_ASSERT_MSG(false, "kernel does not support merge-and-shift");
}
void Kernel::i2l_acc(CoeffSpan, Axis, int, CoeffVec&) const {
  AMTFMM_ASSERT_MSG(false, "kernel does not support merge-and-shift");
}

std::unique_ptr<Kernel> make_kernel(const std::string& name,
                                    double yukawa_lambda) {
  if (name == "laplace") return std::make_unique<LaplaceKernel>();
  if (name == "yukawa") return std::make_unique<YukawaKernel>(yukawa_lambda);
  if (name == "counting") return std::make_unique<CountingKernel>();
  throw config_error("unknown kernel: " + name +
                     " (expected laplace|yukawa|counting)");
}

}  // namespace amtfmm
