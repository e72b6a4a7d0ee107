#!/usr/bin/env python3
"""Perf-regression gate over the cryowire-bench/1 JSON files.

Compares a freshly measured benchmark run against the committed
baseline (BENCH_micro_models.json / BENCH_micro_netsim.json) and fails
when any kernel's ns/op regressed by more than the threshold:

    tools/bench_gate.py BENCH_micro_models.json current.json
    tools/bench_gate.py --threshold 0.25 baseline.json current.json
    tools/bench_gate.py --update baseline.json current.json   # refresh

Rules:
  - every baseline kernel must still exist in the current run;
  - scalar_ns_op and batch_ns_op are gated independently, each
    failing when current > baseline * (1 + threshold);
  - a kernel that *gained* a batch variant or got faster never fails;
    new kernels absent from the baseline are reported as hints to
    refresh with --update.

Timings are wall-clock minimums over the benchmark's reps (see
bench/micro_common.hh), and they still move between hosts and
between runs, so the default threshold is a deliberately loose 15% -
the gate is for order-of-magnitude regressions (a hoisted invariant
sliding back into a hot loop), not for single-digit noise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

SCHEMA = "cryowire-bench/1"
GATED_FIELDS = ("scalar_ns_op", "batch_ns_op")


def load(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_gate: cannot read {path}: {err}")
    if doc.get("schema") != SCHEMA:
        sys.exit(
            f"bench_gate: {path}: schema {doc.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    if not isinstance(doc.get("kernels"), list):
        sys.exit(f"bench_gate: {path}: missing kernels array")
    return doc


def kernel_map(doc: dict, path: Path) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for k in doc["kernels"]:
        name = k.get("name")
        if not isinstance(name, str):
            sys.exit(f"bench_gate: {path}: kernel without a name")
        if name in out:
            sys.exit(f"bench_gate: {path}: duplicate kernel {name!r}")
        out[name] = k
    return out


def main() -> int:
    ap = argparse.ArgumentParser(
        description="fail when benchmark timings regress vs a baseline"
    )
    ap.add_argument("baseline", type=Path, help="committed BENCH_*.json")
    ap.add_argument("current", type=Path, help="freshly measured run")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional slowdown per timing (default 0.15)",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="overwrite the baseline with the current run and exit",
    )
    args = ap.parse_args()

    current_doc = load(args.current)
    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"bench_gate: baseline {args.baseline} refreshed")
        return 0

    baseline_doc = load(args.baseline)
    if baseline_doc.get("suite") != current_doc.get("suite"):
        sys.exit(
            f"bench_gate: suite mismatch: baseline "
            f"{baseline_doc.get('suite')!r} vs current "
            f"{current_doc.get('suite')!r}"
        )

    baseline = kernel_map(baseline_doc, args.baseline)
    current = kernel_map(current_doc, args.current)

    failures: list[str] = []
    for name, base in baseline.items():
        cur = current.get(name)
        if cur is None:
            failures.append(f"kernel {name!r} disappeared from the run")
            continue
        for field in GATED_FIELDS:
            base_v = base.get(field)
            cur_v = cur.get(field)
            if base_v is None:
                continue  # kernel gained a variant: never a failure
            if cur_v is None:
                failures.append(f"{name}: {field} is no longer measured")
                continue
            limit = base_v * (1.0 + args.threshold)
            if cur_v > limit:
                failures.append(
                    f"{name}: {field} regressed "
                    f"{base_v:.2f} -> {cur_v:.2f} ns/op "
                    f"(+{(cur_v / base_v - 1.0) * 100.0:.1f}%, "
                    f"limit +{args.threshold * 100.0:.0f}%)"
                )

    for name in current:
        if name not in baseline:
            print(
                f"bench_gate: note: new kernel {name!r} not in baseline "
                f"(refresh with --update)"
            )

    if failures:
        print(f"bench_gate: {len(failures)} regression(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(
        f"bench_gate: OK - {len(baseline)} kernels within "
        f"+{args.threshold * 100.0:.0f}% of {args.baseline}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
