#!/usr/bin/env python3
"""Gate benchmark regressions against the committed baseline JSON.

Compares a freshly produced BENCH_throughput.json against the baseline
committed at the repo root and fails (exit 1) if any gated speedup dropped
by more than the threshold (default 20%). Used by the `bench` CI job; run it
locally the same way:

    cmake -B build -S . && cmake --build build -j --target bench_throughput
    (cd build && ./bench_throughput)
    python3 tools/check_bench.py --baseline BENCH_throughput.json \
        --current build/BENCH_throughput.json

Only ratio metrics (speedups) are gated: absolute rates vary wildly across
runner hardware, but "the incremental rebuild is N times faster than the
seed cost model", "the warm status cache is N times faster than proving",
and "snapshot+WAL restart is N times faster than full feed replay" should
hold anywhere, so a big drop means a real regression, not a slow VM. A small
FLOORS list additionally gates same-run ratios against absolute minimums
(no baseline needed), and CEILINGS gates same-run ratios against absolute
maximums (e.g. digest gossip must move <= 0.2x the bytes of full-list
exchange). Guard-skipped entries print an explicit `SKIPPED (guard: ...)`
line so bench logs are auditable.

A gated metric missing from the *baseline* is reported as new and skipped
(the gate starts holding once the refreshed baseline is committed); a gated
metric missing from the *current* run fails — the bench stopped emitting
something the gate depends on.
"""

import argparse
import json
import sys

# (dotted path, human label).
GATED = [
    ("dict_update.speedup", "incremental dictionary rebuild speedup"),
    ("status_cache.speedup", "warm status-cache speedup"),
    ("recovery.speedup", "snapshot+WAL restart vs full feed replay"),
    ("svc_status.batch_speedup", "batched vs single status RPS over TCP"),
]

# Reported for trend visibility but not gated: on scalar-only runners the
# engine speedup is legitimately 1.0.
INFORMATIONAL = [
    ("sha256_engine.batch64_speedup", "SHA-256 batch engine speedup"),
    ("sha256_engine.full_rebuild_speedup", "SHA-256 engine full-rebuild speedup"),
]

# Absolute floors, gated against the *current* run only (no baseline
# comparison): these are already ratios of two rates measured in the same
# process on the same hardware, so the floor is portable. Each entry may
# carry a guard (path, minimum): the floor is enforced only when the
# current run's value at the guard path clears the minimum, and reported
# as skipped otherwise. The multi-reactor scaling factor is guarded by
# core count — factor_at_4 measures real parallelism, which a 1- or
# 2-core runner physically cannot produce, so the floor only binds on
# machines with >= 8 hardware threads (the bench records the count in
# svc_status.multicore_scaling.cores).
FLOORS = [
    ("svc_resilience.goodput_ratio", 0.70,
     "compliant goodput under flood vs quiet baseline (quotas on)", None),
    ("svc_status.multicore_scaling.factor_at_4", 2.5,
     "4-reactor aggregate RPS vs 1 reactor",
     ("svc_status.multicore_scaling.cores", 8)),
    ("recovery.mmap_speedup", 3.0,
     "mmap snapshot restore vs cold-start decode+rehash restore", None),
    # Zipf-shaped status traffic must keep the per-root status cache warm;
    # measured 0.57-0.62 on the smoke and heartbleed presets.
    ("scenario.cache_hit_rate", 0.50,
     "status-cache hit rate under scenario Zipf traffic", None),
]

# Absolute ceilings, the mirror image of FLOORS: same-run ratios that must
# stay *below* a portable bound. Digest gossip must move a fraction of the
# full-list bytes at mesh scale, and the mesh must converge in a bounded
# number of rounds — both are hardware-independent properties of the
# reconciliation protocol, measured on the same schedule in one process.
CEILINGS = [
    ("gossip_mesh.bytes_ratio", 0.20,
     "digest-gossip bytes vs full-list bytes at 100 RAs", None),
    ("gossip_mesh.rounds_to_convergence", 12,
     "gossip rounds until every RA holds the full root set", None),
    ("checkpoint.stall_us", 5000,
     "mean freeze stall a background checkpoint imposes on mutators", None),
    # The paper's §V bound: a revocation reaches every client within 2∆
    # (∆ = 10 s in the scenario presets) plus publication margin. Measured
    # p99 ≈ 6.7 s on the heartbleed preset; 25 s means dissemination broke.
    ("scenario.attack_window_p99_s", 25.0,
     "virtual seconds from revocation to first client rejection (p99)", None),
    # The harness proved every verdict against the ground-truth plan; any
    # nonzero count is a correctness bug in the serving plane.
    ("scenario.wrong_verdict", 0,
     "scenario flows answered with the wrong revocation verdict", None),
]


def lookup(doc, path):
    """Float at a dotted path, or None when any component is absent."""
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_throughput.json")
    parser.add_argument("--current", required=True,
                        help="freshly benchmarked BENCH_throughput.json")
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="allowed fractional drop per gated metric "
                             "(default: 0.20)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    failed = False
    print(f"{'metric':<45} {'baseline':>10} {'current':>10} {'change':>8}")
    for path, label in GATED:
        base = lookup(baseline, path)
        cur = lookup(current, path)
        if cur is None:
            print(f"{path:<45} {'-':>10} {'-':>10} {'':>8}  "
                  f"FAIL (missing from current run)")
            failed = True
            continue
        if base is None:
            print(f"{path:<45} {'-':>10} {cur:>10.2f} {'':>8}  "
                  f"new metric (no baseline yet)")
            continue
        change = (cur - base) / base
        ok = change >= -args.max_drop
        flag = "ok" if ok else f"FAIL (> {args.max_drop:.0%} drop)"
        print(f"{path:<45} {base:>10.2f} {cur:>10.2f} {change:>+7.1%}  {flag}")
        if not ok:
            failed = True

    for path, label in INFORMATIONAL:
        base = lookup(baseline, path)
        cur = lookup(current, path)
        if base is None or cur is None:
            continue
        change = (cur - base) / base
        print(f"{path:<45} {base:>10.2f} {cur:>10.2f} {change:>+7.1%}  info")

    for path, floor, label, guard in FLOORS:
        cur = lookup(current, path)
        if cur is None:
            print(f"{path:<45} {'-':>10} {'-':>10} {'':>8}  "
                  f"FAIL (missing from current run)")
            failed = True
            continue
        if guard is not None:
            guard_path, guard_min = guard
            guard_val = lookup(current, guard_path)
            if guard_val is None or guard_val < guard_min:
                shown = "-" if guard_val is None else f"{guard_val:.0f}"
                print(f"{path:<45} {floor:>10.2f} {cur:>10.2f} {'':>8}  "
                      f"SKIPPED (guard: {guard_path}={shown} < {guard_min})")
                continue
        ok = cur >= floor
        flag = "ok" if ok else f"FAIL (< floor {floor:.2f})"
        print(f"{path:<45} {floor:>10.2f} {cur:>10.2f} {'':>8}  {flag}")
        if not ok:
            failed = True

    for path, ceiling, label, guard in CEILINGS:
        cur = lookup(current, path)
        if cur is None:
            print(f"{path:<45} {'-':>10} {'-':>10} {'':>8}  "
                  f"FAIL (missing from current run)")
            failed = True
            continue
        if guard is not None:
            guard_path, guard_min = guard
            guard_val = lookup(current, guard_path)
            if guard_val is None or guard_val < guard_min:
                shown = "-" if guard_val is None else f"{guard_val:.0f}"
                print(f"{path:<45} {ceiling:>10.2f} {cur:>10.2f} {'':>8}  "
                      f"SKIPPED (guard: {guard_path}={shown} < {guard_min})")
                continue
        ok = cur <= ceiling
        flag = "ok" if ok else f"FAIL (> ceiling {ceiling:.2f})"
        print(f"{path:<45} {ceiling:>10.2f} {cur:>10.2f} {'':>8}  {flag}")
        if not ok:
            failed = True

    if failed:
        print("\nbenchmark regression detected", file=sys.stderr)
        return 1
    print("\nall gated metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
