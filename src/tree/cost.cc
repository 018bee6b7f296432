#include "tree/cost.h"

#include <algorithm>

namespace ksum::tree {
namespace {

// Flop accounting per (row, far box) term: 2K for the d² expansion, ~8 for
// the exponential (the timing model's SFU convention), plus the series
// combine; the dipole adds a K-length dot product and the 1/h² scale.
constexpr double kOrder0FlopsPerK = 2.0;
constexpr double kOrder0FlopsFixed = 10.0;
constexpr double kOrder1FlopsPerK = 4.0;
constexpr double kOrder1FlopsFixed = 14.0;

}  // namespace

double roofline_seconds(double flops, double bytes,
                        const config::DeviceSpec& device) {
  const double compute = flops / device.peak_sp_flops();
  const double memory = bytes / (device.dram_bandwidth_gb_s * 1e9);
  return std::max(compute, memory);
}

double far_field_flops(const TreePlan& plan) {
  const double k = static_cast<double>(plan.column_part.order.empty()
                                           ? 0
                                           : plan.boxes.front().center.size());
  double flops = 0;
  for (std::size_t rc = 0; rc < plan.rows.size(); ++rc) {
    const double rows = static_cast<double>(plan.rows[rc].range.size());
    for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
      switch (plan.at(rc, bx)) {
        case PairKind::kNear:
          break;
        case PairKind::kFarOrder0:
          flops += rows * (kOrder0FlopsPerK * k + kOrder0FlopsFixed);
          break;
        case PairKind::kFarOrder1:
          flops += rows * (kOrder1FlopsPerK * k + kOrder1FlopsFixed);
          break;
      }
    }
  }
  return flops;
}

double far_field_bytes(const TreePlan& plan) {
  const double k = static_cast<double>(plan.column_part.order.empty()
                                           ? 0
                                           : plan.boxes.front().center.size());
  double bytes = 0;
  for (std::size_t rc = 0; rc < plan.rows.size(); ++rc) {
    const double rows = static_cast<double>(plan.rows[rc].range.size());
    for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
      const PairKind kind = plan.at(rc, bx);
      if (kind == PairKind::kNear) continue;
      // Row coordinates stream once per pair; the box summary (center, and
      // the moment for order 1) is a handful of doubles; the accumulator
      // updates in registers and writes back once per pair.
      bytes += rows * k * 4.0 + k * 8.0 + rows * 4.0;
      if (kind == PairKind::kFarOrder1) bytes += k * 8.0;
    }
  }
  return bytes;
}

double far_field_seconds(const TreePlan& plan,
                         const config::DeviceSpec& device) {
  return roofline_seconds(far_field_flops(plan), far_field_bytes(plan),
                          device);
}

double tree_seconds_estimate(const TreePlan& plan, std::size_t k,
                             const DenseCostModel& dense,
                             const config::DeviceSpec& device) {
  double seconds = far_field_seconds(plan, device);
  // Each row cluster's near field runs as one fused sub-problem over its
  // gathered columns; the dense model prices the padding.
  for (std::size_t rc = 0; rc < plan.rows.size(); ++rc) {
    std::size_t near_cols = 0;
    for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
      if (plan.at(rc, bx) == PairKind::kNear) {
        near_cols += plan.boxes[bx].range.size();
      }
    }
    if (near_cols == 0) continue;
    seconds += dense.dense_seconds(plan.rows[rc].range.size(), near_cols, k);
  }
  return seconds;
}

}  // namespace ksum::tree
