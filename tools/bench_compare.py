#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json records and fail on regressions.

The CI bench-regression gate runs this against the previous main build's
artifact. Every record the repo emits is a *modelled* quantity (simulated
seconds, modelled joules, transaction counts), so runs are deterministic and
a change beyond tolerance is a real model/code change, not runner noise.

Schemas understood (see src/profile/profile_json.h and bench/bench_common.cc):

  ksum-bench-v1        points[].pipelines.<name>.{seconds, energy_j.total,
                       l2_transactions, dram_transactions}
  ksum-prof-v1         totals.{seconds, energy_j.total} and per-launch seconds
  ksum-prof-batch-v1   totals.{seconds, energy_j_total} plus every embedded
                       ksum-prof-v1 program record
  ksum-prof-tree-v1    model.{dense_seconds, tree_seconds} and the plan's
                       near_interactions — the treecode planner's modelled
                       split (src/tools/ksum_prof.cc), priced exactly as
                       --tree=auto prices it: dense_seconds is the analytic
                       pipeline model on the padded shape, tree_seconds the
                       same model on every near block plus the far-field
                       roofline (src/analytic/dense_cost.h, src/tree/cost.h)
  ksum-serve-v1        latency_ms.modelled.{p50, p99} only — the modelled
                       serving latencies are deterministic; wall-clock
                       latencies and gauge fields are reported by the bench
                       but never gated

A metric regresses when current > baseline * (1 + tolerance); lower is
always better for the tracked quantities. Records present only on one side
are reported but do not fail the gate (benches come and go with PRs).

Baselines are keyed by device profile: with --profile NAME every metric key
is namespaced under the profile, and records that belong to a *different*
built-in profile (by their embedded device name or a _<profile> filename
suffix) are excluded — a gtx970 baseline can never be compared against a
titanx-maxwell run, even if the artifact directories get mixed up. The CI
bench-regression matrix passes the active profile and stores one artifact
per profile.

Exit codes: 0 clean (improvements allowed), 1 regression(s), 2 usage error.
"""

import argparse
import json
import sys
from pathlib import Path


def fmt(value):
    return f"{value:.6g}"


def bench_v1_metrics(record, out, prefix):
    for point in record.get("points", []):
        shape = f"{point.get('m')}x{point.get('n')}x{point.get('k')}"
        for pipe, data in sorted(point.get("pipelines", {}).items()):
            base = f"{prefix}/point[{shape}]/{pipe}"
            if "seconds" in data:
                out[f"{base}/seconds"] = data["seconds"]
            total = data.get("energy_j", {}).get("total")
            if total is not None:
                out[f"{base}/energy_j"] = total
            for key in ("l2_transactions", "dram_transactions"):
                if key in data:
                    out[f"{base}/{key}"] = data[key]


def prof_v1_metrics(record, out, prefix):
    totals = record.get("totals", {})
    if "seconds" in totals:
        out[f"{prefix}/totals/seconds"] = totals["seconds"]
    total_energy = totals.get("energy_j", {}).get("total")
    if total_energy is not None:
        out[f"{prefix}/totals/energy_j"] = total_energy
    for i, launch in enumerate(record.get("launches", [])):
        kernel = launch.get("kernel", f"launch{i}")
        if "seconds" in launch:
            out[f"{prefix}/launch[{i}:{kernel}]/seconds"] = launch["seconds"]
        energy = launch.get("energy_j", {}).get("total")
        if energy is not None:
            out[f"{prefix}/launch[{i}:{kernel}]/energy_j"] = energy


def prof_tree_v1_metrics(record, out, prefix):
    model = record.get("model", {})
    for key in ("dense_seconds", "tree_seconds"):
        if key in model:
            out[f"{prefix}/model/{key}"] = model[key]
    near = record.get("plan", {}).get("near_interactions")
    if near is not None:
        out[f"{prefix}/plan/near_interactions"] = near


def serve_v1_metrics(record, out, prefix):
    modelled = record.get("latency_ms", {}).get("modelled", {})
    for key in ("p50", "p99"):
        if key in modelled:
            out[f"{prefix}/latency_ms/modelled/{key}"] = modelled[key]


def extract_metrics(record, out, prefix=""):
    schema = record.get("schema", "")
    if schema == "ksum-bench-v1":
        bench_v1_metrics(record, out, prefix or record.get("bench", "bench"))
    elif schema == "ksum-prof-v1":
        prof_v1_metrics(record, out, prefix or record.get("program", "prof"))
    elif schema == "ksum-prof-batch-v1":
        totals = record.get("totals", {})
        if "seconds" in totals:
            out[f"{prefix}/totals/seconds"] = totals["seconds"]
        if "energy_j_total" in totals:
            out[f"{prefix}/totals/energy_j"] = totals["energy_j_total"]
        for program in record.get("programs", []):
            name = program.get("program", "?")
            prof_v1_metrics(program, out, f"{prefix}/{name}")
    elif schema == "ksum-prof-tree-v1":
        prof_tree_v1_metrics(record, out, prefix or "tree")
    elif schema == "ksum-serve-v1":
        serve_v1_metrics(record, out, prefix or "serve")
    else:
        print(f"note: {prefix}: unknown schema '{schema}', skipped")


# The built-in device profiles (src/config/profiles/) the CI matrix runs.
BUILTIN_PROFILES = ("gtx970", "titanx-maxwell", "modern")


def record_profile(record, stem):
    """The profile a record was produced under, or None when unmarked.

    ksum-prof-v1 records carry the device name; other records are matched
    by the BENCH_<name>_<profile>.json naming convention. Unmarked records
    (the analytic paper benches) belong to the default gtx970 profile.
    """
    device = record.get("device")
    if isinstance(device, dict) and isinstance(device.get("name"), str):
        return device["name"]
    for profile in BUILTIN_PROFILES:
        if stem.endswith("_" + profile):
            return profile
    return None


def load_dir(path, profile=None):
    metrics = {}
    files = sorted(path.glob("BENCH_*.json"))
    loaded = 0
    for f in files:
        try:
            record = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read {f}: {e}", file=sys.stderr)
            sys.exit(2)
        if profile is not None:
            marked = record_profile(record, f.stem) or "gtx970"
            if marked != profile:
                print(f"note: {f.name} belongs to profile '{marked}', "
                      f"skipped in the {profile} comparison")
                continue
        prefix = f.stem if profile is None else f"{profile}/{f.stem}"
        extract_metrics(record, metrics, prefix)
        loaded += 1
    return metrics, loaded


def main():
    parser = argparse.ArgumentParser(
        description="fail when current bench records regress past tolerance")
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--current", required=True, type=Path)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative increase (default 0.10 = 10%%)")
    parser.add_argument("--profile", default=None,
                        help="device profile this comparison is keyed under; "
                             "records marked for another profile are skipped")
    args = parser.parse_args()

    for d in (args.baseline, args.current):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2

    baseline, n_base = load_dir(args.baseline, args.profile)
    current, n_cur = load_dir(args.current, args.profile)
    if n_base == 0:
        print("no baseline BENCH_*.json records: nothing to compare "
              "(seeding baseline)")
        return 0
    if n_cur == 0:
        print("error: current run produced no BENCH_*.json records",
              file=sys.stderr)
        return 1

    regressions, improvements, compared = [], [], 0
    for key in sorted(baseline):
        if key not in current:
            print(f"note: metric gone (renamed bench?): {key}")
            continue
        old, new = baseline[key], current[key]
        if not (isinstance(old, (int, float)) and isinstance(new, (int, float))):
            continue
        compared += 1
        if old == 0:
            if new != 0:
                regressions.append((key, old, new, float("inf")))
            continue
        ratio = new / old - 1.0
        if ratio > args.tolerance:
            regressions.append((key, old, new, ratio))
        elif ratio < -args.tolerance:
            improvements.append((key, old, new, ratio))
    for key in sorted(set(current) - set(baseline)):
        print(f"note: new metric (no baseline): {key}")

    for key, old, new, ratio in improvements:
        print(f"improved {ratio:+.1%}: {key}  {fmt(old)} -> {fmt(new)}")
    for key, old, new, ratio in regressions:
        print(f"REGRESSED {ratio:+.1%}: {key}  {fmt(old)} -> {fmt(new)}")

    scope = f" [profile {args.profile}]" if args.profile else ""
    print(f"\ncompared {compared} metrics across {n_cur} record file(s)"
          f"{scope}: {len(regressions)} regression(s), {len(improvements)} "
          f"improvement(s), tolerance {args.tolerance:.0%}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
