#!/usr/bin/env python3
"""Perf trendline gate for the engine and snap benches (CI and local use).

Reads one or more wavesim.bench.v1 exports (``bench_engine --json``,
``bench_snap --json``), merges their kcycles/s points, and compares the
merged set against the committed baseline
``bench/baselines/engine.json``. Emits a markdown table (appended to
``$GITHUB_STEP_SUMMARY`` when set, printed otherwise) and applies a soft
gate per point:

* ratio <= FAIL_BELOW (0.5x baseline)  -> exit 1 (hard regression)
* ratio <= WARN_BELOW (0.8x baseline)  -> ::warning:: annotation, exit 0
* otherwise                            -> ok

The thresholds are deliberately loose: CI runners vary in core count and
clock, and the baseline records the host_threads it was measured on. The
gate exists to catch order-of-magnitude regressions (an accidental return
to per-cycle stepping, a lost fast path), not 10% noise.

Usage:
  tools/perf_trendline.py ENGINE.json [SNAP.json ...] \
      [--baseline bench/baselines/engine.json]
  tools/perf_trendline.py ENGINE.json SNAP.json --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WARN_BELOW = 0.8
FAIL_BELOW = 0.5

BASELINE_SCHEMA = "wavesim.perfbase.v1"


def extract_points(doc: dict) -> dict[str, float]:
    """Flatten one bench export into {point-key: kcycles/s}.

    Keys are stable across runs so the baseline can be diffed by hand.
    ENGINE exports yield ``seq``, ``par-s<shards>``, ``wh-par-s<shards>``
    (sparse wormhole leg), ``fault-seq``/``fault-par-s<shards>``
    (failure-storm legs); SNAP exports yield ``snap-plain``/``snap-armed``
    (checkpoint-armed step loop) and ``snap-warm`` (warm-started span).
    """
    extra = doc["extra"]
    experiment = doc.get("experiment", "ENGINE")
    if experiment == "SNAP":
        return {
            "snap-plain": float(extra["plain_kcycles_per_s"]),
            "snap-armed": float(extra["armed_kcycles_per_s"]),
            "snap-warm": float(extra["warm_kcycles_per_s"]),
        }
    points: dict[str, float] = {"seq": float(extra["seq_kcycles_per_s"])}
    for p in extra["engine_points"]:
        points[f"par-s{p['shards']}"] = float(p["kcycles_per_s"])
    wh = extra.get("wormhole_point")
    if wh is not None:
        points[f"wh-par-s{wh['shards']}"] = float(wh["kcycles_per_s"])
    for p in extra.get("fault_points", []):
        key = ("fault-seq" if p.get("shards", 0) == 0
               else f"fault-par-s{p['shards']}")
        points[key] = float(p["kcycles_per_s"])
    return points


def load_baseline(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != BASELINE_SCHEMA:
        raise SystemExit(f"{path}: expected schema {BASELINE_SCHEMA}, "
                         f"got {doc.get('schema')!r}")
    return doc


def write_baseline(path: str, doc: dict, points: dict[str, float]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    baseline = {
        "schema": BASELINE_SCHEMA,
        "generated_by": doc.get("generated_by", "unknown"),
        "host_threads": doc.get("host_threads", 0),
        "points": {k: round(v, 1) for k, v in sorted(points.items())},
    }
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"baseline written: {path}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", nargs="+",
                    help="bench --json export(s); points are merged")
    ap.add_argument("--baseline", default="bench/baselines/engine.json")
    ap.add_argument("--write-baseline", action="store_true",
                    help="refresh the baseline from the current run and exit")
    args = ap.parse_args()

    doc = {}
    points: dict[str, float] = {}
    for path in args.current:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "wavesim.bench.v1":
            raise SystemExit(f"{path}: not a wavesim.bench.v1 export")
        if not doc.get("ok", False):
            raise SystemExit(f"{path}: bench run reported ok=false")
        for key, value in extract_points(doc).items():
            if key in points:
                raise SystemExit(f"{path}: duplicate point {key!r}")
            points[key] = value

    if args.write_baseline:
        write_baseline(args.baseline, doc, points)
        return 0

    base = load_baseline(args.baseline)
    base_points = base["points"]

    lines = [
        "## Engine perf trendline",
        "",
        f"current: {doc.get('generated_by', '?')} on "
        f"{doc.get('host_threads', '?')} host thread(s); baseline: "
        f"{base.get('generated_by', '?')} on "
        f"{base.get('host_threads', '?')} host thread(s)",
        "",
    ]
    overhead = doc["extra"].get("fault_overhead_ratio")
    if overhead is not None:
        lines.append(f"fault hook healthy-path overhead: {overhead:.3f}x "
                     "(<= 1.05x gate enforced by bench_engine itself)")
        lines.append("")
    lines += [
        "| point | kcycles/s | baseline | ratio | verdict |",
        "|---|---|---|---|---|",
    ]
    failures: list[str] = []
    warnings: list[str] = []
    for key in sorted(set(points) | set(base_points)):
        cur = points.get(key)
        ref = base_points.get(key)
        if cur is None:
            lines.append(f"| {key} | — | {ref:.1f} | — | missing point |")
            warnings.append(f"{key}: present in baseline but not in this run")
            continue
        if ref is None:
            lines.append(f"| {key} | {cur:.1f} | — | — | new point |")
            continue
        ratio = cur / ref if ref > 0 else float("inf")
        if ratio <= FAIL_BELOW:
            verdict = "FAIL"
            failures.append(f"{key}: {cur:.1f} kc/s is {ratio:.2f}x baseline "
                            f"{ref:.1f} (<= {FAIL_BELOW}x)")
        elif ratio <= WARN_BELOW:
            verdict = "warn"
            warnings.append(f"{key}: {cur:.1f} kc/s is {ratio:.2f}x baseline "
                            f"{ref:.1f} (<= {WARN_BELOW}x)")
        else:
            verdict = "ok"
        lines.append(f"| {key} | {cur:.1f} | {ref:.1f} | {ratio:.2f} "
                     f"| {verdict} |")

    summary = "\n".join(lines) + "\n"
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as f:
            f.write(summary)
    print(summary)

    for w in warnings:
        print(f"::warning::perf trendline: {w}")
    for fmsg in failures:
        print(f"::error::perf trendline: {fmsg}", file=sys.stderr)
    if failures:
        return 1
    print("perf trendline ok "
          f"({len(points)} points, warn<= {WARN_BELOW}x, fail<= {FAIL_BELOW}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
