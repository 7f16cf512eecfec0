#!/usr/bin/env python3
"""Perf-regression gate over t1000-bench-report output.

    check_bench_report.py BASELINE FRESH [--wall-tolerance-pct PCT]

Compares a freshly generated report against the committed baseline
(BENCH_14.json; BENCH_10.json is kept for the trajectory and predates the
removal of the batched_replay scenario and the batch counters):

  * the schema string must match and the two reports must cover the same
    set of benches (a bench silently disappearing is itself a regression);
  * every deterministic counter (run counts, traces recorded, replays,
    cache hit/miss/store tallies) must match EXACTLY — these are
    functions of the source tree, not the hardware, so any drift is a
    behavioral change that belongs in the baseline diff of the PR that
    caused it;
  * wall_ms may exceed the baseline by at most --wall-tolerance-pct
    (default 300%, i.e. 4x) per bench. CI runners are noisy and share
    tenancy, so the wall gate only catches order-of-magnitude cliffs; the
    counters carry the precision.

Exit 0 when everything holds, 1 with a per-bench diagnostic otherwise.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "t1000-bench-report/v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {b["name"]: b for b in doc["benches"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--wall-tolerance-pct", type=float, default=300.0,
                        help="max wall_ms growth over baseline (default 300)")
    parser.add_argument("--min-benches", type=int, default=6,
                        help="reports with fewer benches fail (default 6)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    if len(fresh) < args.min_benches:
        failures.append(f"only {len(fresh)} benches in fresh report, "
                        f"need >= {args.min_benches}")
    if set(baseline) != set(fresh):
        gone = sorted(set(baseline) - set(fresh))
        new = sorted(set(fresh) - set(baseline))
        failures.append(f"bench set drifted: missing={gone} unexpected={new} "
                        "(regenerate the baseline in this PR)")

    for name in sorted(set(baseline) & set(fresh)):
        base, cur = baseline[name], fresh[name]
        if base["counters"] != cur["counters"]:
            diffs = []
            keys = sorted(set(base["counters"]) | set(cur["counters"]))
            for key in keys:
                b = base["counters"].get(key)
                c = cur["counters"].get(key)
                if b != c:
                    diffs.append(f"{key}: {b} -> {c}")
            failures.append(f"{name}: counter drift ({', '.join(diffs)}) — "
                            "behavioral change; update the baseline "
                            "deliberately if intended")
        limit = base["wall_ms"] * (1.0 + args.wall_tolerance_pct / 100.0)
        if cur["wall_ms"] > limit:
            failures.append(
                f"{name}: wall_ms {cur['wall_ms']:.1f} exceeds "
                f"{limit:.1f} (baseline {base['wall_ms']:.1f} "
                f"+{args.wall_tolerance_pct:.0f}%)")

    if failures:
        for failure in failures:
            print(f"check_bench_report: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check_bench_report: OK — {len(fresh)} benches, counters exact, "
          f"wall within +{args.wall_tolerance_pct:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
