// Cost model for the treecode's TreeMode::kAuto decision: would the
// modelled device spend less time on the dense fused pipeline or on the
// tree's near-field sub-kernels plus the far-field series?
//
// Every dense shape — the full problem and each row cluster's near block —
// is priced by the one DenseCostModel in TreeSpec::cost_model (the analytic
// pipeline model, analytic/dense_cost.h). The far-field series runs on the
// host in this reproduction and has no kernel to model, so it alone is
// priced as a roofline against the active device profile:
// seconds = max(flops / peak, bytes / bandwidth).
#pragma once

#include "config/device_spec.h"
#include "tree/plan.h"

namespace ksum::tree {

/// max(flops / peak_sp_flops, bytes / dram_bandwidth).
double roofline_seconds(double flops, double bytes,
                        const config::DeviceSpec& device);

/// Work of the far-field series evaluation: per (row, far box) the order-0
/// term costs the d² expansion plus the exponential, the order-1 term adds
/// the moment dot product.
double far_field_flops(const TreePlan& plan);
double far_field_bytes(const TreePlan& plan);
double far_field_seconds(const TreePlan& plan,
                         const config::DeviceSpec& device);

/// Predicted treecode seconds: each row cluster's near block priced by
/// `dense` as one fused sub-problem, plus the far-field series. Host-side
/// plan construction is excluded — it is not device work.
double tree_seconds_estimate(const TreePlan& plan, std::size_t k,
                             const DenseCostModel& dense,
                             const config::DeviceSpec& device);

}  // namespace ksum::tree
