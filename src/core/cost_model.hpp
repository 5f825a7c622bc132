#pragma once

#include <array>
#include <memory>
#include <string>

#include "kernels/kernel.hpp"

namespace amtfmm {

/// Per-operator task-cost model for the sim executor:
///   cost(op, metric) = base[op] + per_unit[op] * metric
/// where metric is the edge's work measure (point pairs for S->T, source
/// points for S->M, expansion elements for I->I, ...; see core/dag.cpp).
///
/// Two calibrations ship with the library:
///  - paper():    the average per-edge execution times of the paper's
///                Table II (Big Red II, 128-core run) — used to reproduce
///                the published scaling shape with their operator costs;
///  - measured(): micro-measured on this host for a given kernel, the
///                profile to use when predicting this machine.
struct CostModel {
  std::array<double, kNumOperators> base{};
  std::array<double, kNumOperators> per_unit{};

  double cost(Operator op, double metric) const {
    const auto i = static_cast<std::size_t>(op);
    return base[i] + per_unit[i] * metric;
  }

  static CostModel paper(const std::string& kernel_name);
  /// `domain_size` must be the one the kernel was set up with: the timed
  /// boxes have edge domain_size / 2^level, so every offset lies on the
  /// kernel's box grid.
  static CostModel measured(const Kernel& kernel, int level = 3,
                            int points_per_box = 60,
                            double domain_size = 1.0);
};

}  // namespace amtfmm
