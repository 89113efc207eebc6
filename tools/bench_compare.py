#!/usr/bin/env python3
"""Diff fresh DR_BENCH_JSON bench runs against BENCH_baseline.json.

The committed baseline is a JSON array of bench documents
({"bench": name, "scale": s, "rows": [...]}); each run file passed on
the command line holds one such document (or an array of them). Rows
are matched on (bench, scale, name) — a run made at DR_SCALE=0.1 is
only compared against a baseline document recorded at the same scale.
Run documents of the same (bench, scale) are repeated runs: each
metric is compared by its median across them, so one scheduling stall
in one run does not fail the gate, while a regression in most runs
still does. A single document per (bench, scale) is compared as is.

Two metric families are gated, each with its own tolerance band:

  * seconds — every numeric field named `seconds` or ending in
    `_seconds`. Wall-clock moves with the machine, so rows where both
    sides sit under --min-seconds are skipped as timer noise.
  * counters — conflicts / propagations / work / sat_solve_calls /
    engine_assignments. These count solver effort, are deterministic
    for the seeded benches, and survive a change of hardware, so they
    are the signal CI should trust most: an algorithmic regression
    shows up here even when a shared runner's clock would hide (or
    fake) it. Rows where both sides are under --min-counter are
    skipped.

A row regresses when current > baseline * (1 + band). Improvements
beyond the band are reported (they usually mean the baseline wants a
refresh) but never fail the run. Rows present in the matched baseline
document but missing from the run fail it — losing coverage must be
deliberate, i.e. accompanied by a baseline refresh. With repeated
runs, every run must carry every baseline row.

Exit status: 0 clean, 1 regressions (or coverage loss / too few
comparisons), 2 usage or malformed input.

Examples:
  DR_SCALE=1 DR_BENCH_JSON=cqa.json ./build/bench_cqa
  tools/bench_compare.py --baseline BENCH_baseline.json cqa.json
  tools/bench_compare.py --baseline BENCH_baseline.json \
      --override 'bench_cqa/mas20/.*=0.5' --tolerance 0.25 *.json
  for i in 1 2 3; do DR_BENCH_JSON=fig7_$i.json \
      ./build/bench_fig7_mas_runtime; done
  tools/bench_compare.py --baseline BENCH_baseline.json fig7_*.json
"""

import argparse
import json
import re
import statistics
import sys

COUNTER_METRICS = (
    "conflicts",
    "propagations",
    "work",
    "sat_solve_calls",
    "engine_assignments",
    "cone_vars",
    "cone_clauses",
    "sliced_solve_calls",
    "slice_fallbacks",
    # Modeled tracing-overhead bound (bench_micro_engine): 1000 = zero
    # overhead; gated at a 2% band in CI via --override.
    "overhead_permille",
)


def is_seconds_metric(key):
    return key == "seconds" or key.endswith("_seconds")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_docs(path):
    with open(path) as f:
        data = json.load(f)
    docs = data if isinstance(data, list) else [data]
    for doc in docs:
        if not isinstance(doc, dict) or "bench" not in doc or "rows" not in doc:
            raise ValueError(f"{path}: not a bench document (need bench/rows)")
    return docs


def doc_key(doc):
    return (doc["bench"], float(doc.get("scale", 1)))


def find_override(overrides, row_id):
    """Last matching --override wins; None means no override."""
    band = None
    for pattern, value in overrides:
        if pattern.search(row_id):
            band = value
    return band


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("runs", nargs="+", help="fresh DR_BENCH_JSON files")
    parser.add_argument("--baseline", required=True, help="BENCH_baseline.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="band for *_seconds metrics (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=None,
        help="band for counter metrics (default: same as --tolerance)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.005,
        help="skip seconds comparisons when both sides are below this",
    )
    parser.add_argument(
        "--min-counter",
        type=float,
        default=1000,
        help="skip counter comparisons when both sides are below this",
    )
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="REGEX=BAND",
        help="per-row band, regex matched against 'bench/row-name' "
        "(repeatable; last match wins; applies to both metric families)",
    )
    parser.add_argument(
        "--min-rows",
        type=int,
        default=1,
        help="fail unless at least this many rows were compared",
    )
    parser.add_argument(
        "--require-doc",
        action="store_true",
        help="fail when a run document has no (bench, scale) match in the "
        "baseline instead of skipping it",
    )
    args = parser.parse_args()

    counter_tol = (
        args.counter_tolerance
        if args.counter_tolerance is not None
        else args.tolerance
    )
    overrides = []
    for spec in args.override:
        pattern, sep, value = spec.rpartition("=")
        if not sep:
            parser.error(f"--override needs REGEX=BAND, got {spec!r}")
        try:
            overrides.append((re.compile(pattern), float(value)))
        except (re.error, ValueError) as e:
            parser.error(f"bad --override {spec!r}: {e}")

    try:
        baseline = {}
        for doc in load_docs(args.baseline):
            baseline[doc_key(doc)] = {row["name"]: row for row in doc["rows"]}
    except (OSError, ValueError, KeyError) as e:
        print(f"error: baseline: {e}", file=sys.stderr)
        return 2

    # Run documents grouped by (bench, scale), in first-seen order.
    groups = {}
    for path in args.runs:
        try:
            run_docs = load_docs(path)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for doc in run_docs:
            groups.setdefault(doc_key(doc), []).append((path, doc))

    compared = 0
    regressions = []
    improvements = []
    skipped_docs = []
    for key, members in groups.items():
        base_rows = baseline.get(key)
        if base_rows is None:
            for path, _ in members:
                skipped_docs.append((path, key[0], key[1]))
            continue
        run_rows = {}  # row name -> that row in every run carrying it
        for path, doc in members:
            names = {row["name"] for row in doc["rows"]}
            for name in base_rows:
                if name not in names:
                    regressions.append(
                        f"{key[0]}/{name}: row present in baseline but "
                        f"missing from {path}"
                    )
            for row in doc["rows"]:
                run_rows.setdefault(row["name"], []).append(row)
        for name, rows in run_rows.items():
            base = base_rows.get(name)
            if base is None:
                continue  # new row: becomes gated once the baseline has it
            row_id = f"{key[0]}/{name}"
            row_band = find_override(overrides, row_id)
            metrics = list(dict.fromkeys(m for row in rows for m in row))
            for metric in metrics:
                values = [row[metric] for row in rows if is_number(row.get(metric))]
                if not values:
                    continue
                cur = statistics.median(values)
                if is_seconds_metric(metric):
                    band, floor = args.tolerance, args.min_seconds
                elif metric in COUNTER_METRICS:
                    band, floor = counter_tol, args.min_counter
                else:
                    continue
                ref = base.get(metric)
                if not is_number(ref):
                    continue
                if max(cur, ref) < floor:
                    continue
                compared += 1
                if row_band is not None:
                    band = row_band
                line = (
                    f"{row_id} {metric}: {ref:g} -> {cur:g} "
                    f"({100 * (cur / ref - 1) if ref else 0:+.0f}%, "
                    f"band +-{100 * band:.0f}%)"
                )
                if len(values) > 1:
                    runs = ", ".join(f"{v:g}" for v in values)
                    line += f" [median of {len(values)} runs: {runs}]"
                if cur > ref * (1 + band):
                    regressions.append(line)
                elif cur < ref * (1 - band):
                    improvements.append(line)

    for path, bench, scale in skipped_docs:
        level = "error" if args.require_doc else "warning"
        print(
            f"{level}: no baseline rows for bench '{bench}' at scale "
            f"{scale:g} (run file {path}) — a brand-new bench or a new "
            "scale is not gated yet.\n"
            "  To start gating it, record a baseline document:\n"
            f"    DR_SCALE={scale:g} DR_BENCH_JSON={path} "
            f"./build/{bench}\n"
            f"  then append that document to {args.baseline} (it is a "
            "JSON array) and commit;\n"
            "  its rows are compared automatically on the next run."
        )
    for line in improvements:
        print(f"improved: {line}")
    for line in regressions:
        print(f"REGRESSION: {line}")
    print(
        f"bench_compare: {compared} comparisons, "
        f"{len(regressions)} regressions, {len(improvements)} improvements"
    )
    if args.require_doc and skipped_docs:
        return 1
    if compared < args.min_rows:
        print(
            f"error: only {compared} comparisons (< --min-rows {args.min_rows}) "
            "— wrong files or a stale baseline?",
            file=sys.stderr,
        )
        return 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
