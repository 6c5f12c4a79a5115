#!/usr/bin/env python3
"""Compare two BENCH_*.json files and report per-row metric deltas.

Usage: bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
                     [--key FIELDS] [--value FIELD]

Rows are matched on a key tuple (default: per-bench, e.g. (shape, tasks)
for core_overhead, (tenants,) for serve_load) and compared on one metric
(tasks_per_s, submissions_per_s, ...). Rows present in only one file —
a newly added shape or scale point — are reported as "baseline only" /
"candidate only" and never fail the comparison; rows missing the key or
metric fields are listed as skipped rather than aborting the diff. With
--threshold, exits 1 when any matched row's metric regressed by more
than PCT percent; without it the tool is purely informational.

A smoke run (a file tagged "smoke": true) is never compared with a full
run (tagged false or untagged): their sizes and grids differ, so the
tool exits 2 with a message saying which file is which. Two smoke runs,
or two full runs, compare normally.

Stdlib only by design — the CI image has no third-party Python packages.
"""

import argparse
import json
import sys
import tempfile

# Per-bench defaults: "bench" field -> (key fields, metric field). Unknown
# bench names fall back to the core_overhead schema; --key/--value always
# win.
SCHEMAS = {
    "core_overhead": (("shape", "tasks"), "tasks_per_s"),
    "serve_load": (("tenants",), "submissions_per_s"),
    "fault_tolerance": (("workflow", "rate"), "makespan_s"),
    "cluster_scaling": (("mode", "shape", "nodes", "placement"),
                        "makespan_s"),
}
DEFAULT_SCHEMA = SCHEMAS["core_overhead"]


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(doc.get("runs"), list):
        sys.exit(f"bench_diff: {path}: no 'runs' array (not a BENCH json?)")
    return doc


def is_smoke(doc):
    return doc.get("smoke") is True


def extract_rows(doc, path, key_fields, value_field):
    """Returns ({key_tuple: metric}, [skipped_row_reprs])."""
    rows, skipped = {}, []
    for row in doc["runs"]:
        try:
            key = tuple(row[f] for f in key_fields)
            rows[key] = float(row[value_field])
        except (KeyError, TypeError, ValueError):
            skipped.append(repr(row)[:70])
    if skipped and not rows:
        # A different-bench file or wrong --key/--value: every row lacks
        # the fields. Advisory like any other shape-set disagreement —
        # the zero-match diff below says so without aborting.
        print(f"bench_diff: {path}: no row carries fields "
              f"{key_fields} + '{value_field}' (different bench or wrong "
              f"--key/--value?)")
        return {}, []
    return rows, skipped


def fmt_key(key):
    return " ".join(f"{part!s:>9}" for part in key)


def diff(base_doc, cand_doc, base_path, cand_path, key_fields, value_field,
         threshold):
    base, base_skipped = extract_rows(base_doc, base_path, key_fields,
                                      value_field)
    cand, cand_skipped = extract_rows(cand_doc, cand_path, key_fields,
                                      value_field)
    matched = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    for what, skipped in (("baseline", base_skipped),
                          ("candidate", cand_skipped)):
        for row in skipped:
            print(f"  skipped {what} row (missing fields): {row}")

    worst = None  # (delta_pct, key)
    if matched:
        key_head = " ".join(f"{f:>9}" for f in key_fields)
        header = (f"{key_head} {'base ' + value_field:>18} "
                  f"{'cand ' + value_field:>18} {'delta':>8}")
        print(header)
        print("-" * len(header))
        for key in matched:
            b, c = base[key], cand[key]
            delta_pct = (c - b) / b * 100.0 if b > 0.0 else float("inf")
            print(f"{fmt_key(key)} {b:>18,.0f} {c:>18,.0f} "
                  f"{delta_pct:>+7.1f}%")
            if worst is None or delta_pct < worst[0]:
                worst = (delta_pct, key)
    else:
        print("bench_diff: no rows in common — nothing to compare "
              "(different sizes or benches?)")
    for key in only_base:
        print(f"  baseline only:  {fmt_key(key)}")
    for key in only_cand:
        print(f"  candidate only: {fmt_key(key)}")

    if threshold is not None and worst is not None:
        delta_pct, key = worst
        if delta_pct < -threshold:
            print(f"\nFAIL: {fmt_key(key).strip()} regressed "
                  f"{delta_pct:+.1f}% (threshold -{threshold:.1f}%)")
            return 1
        print(f"\nok: worst delta {delta_pct:+.1f}% within "
              f"-{threshold:.1f}% threshold")
    return 0


def selftest():
    """Exercises matching, disjoint sets, schema fallback and the
    threshold gate on synthetic documents; exits non-zero on any miss."""
    core_a = {"bench": "core_overhead", "runs": [
        {"shape": "chain", "tasks": 100, "tasks_per_s": 1000.0},
        {"shape": "fanout", "tasks": 100, "tasks_per_s": 2000.0},
        {"malformed": True}]}
    core_b = {"bench": "core_overhead", "runs": [
        {"shape": "chain", "tasks": 100, "tasks_per_s": 500.0},
        {"shape": "burst", "tasks": 100, "tasks_per_s": 3000.0}]}
    serve_a = {"bench": "serve_load", "runs": [
        {"tenants": 1000, "submissions_per_s": 50000.0},
        {"tenants": 10000, "submissions_per_s": 40000.0}]}
    serve_b = {"bench": "serve_load", "runs": [
        {"tenants": 1000, "submissions_per_s": 55000.0},
        {"tenants": 100000, "submissions_per_s": 30000.0}]}
    core_smoke = dict(core_a, smoke=True)

    def run(base_doc, cand_doc, extra):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as fb, \
                tempfile.NamedTemporaryFile("w", suffix=".json") as fc:
            json.dump(base_doc, fb)
            json.dump(cand_doc, fc)
            fb.flush()
            fc.flush()
            return main([fb.name, fc.name] + extra)

    checks = [
        # Disagreeing shape sets + a malformed row: advisory exit 0.
        ("core advisory", run(core_a, core_b, []), 0),
        # The 50% chain regression must trip a 10% threshold.
        ("core threshold", run(core_a, core_b, ["--threshold", "10"]), 1),
        # serve_load schema is picked up from the bench field.
        ("serve advisory", run(serve_a, serve_b, []), 0),
        # +10% on the only matched serve row passes a threshold.
        ("serve threshold", run(serve_a, serve_b, ["--threshold", "5"]), 0),
        # Explicit --key/--value override the schema table.
        ("explicit fields",
         run(serve_a, serve_b,
             ["--key", "tenants", "--value", "submissions_per_s"]), 0),
        # Cross-bench diff: zero common rows is advisory, not a crash.
        ("cross bench", run(core_a, serve_b, []), 0),
        # Smoke against full is refused in either order, threshold or
        # not; two smoke runs compare normally.
        ("smoke vs full", run(core_smoke, core_b, []), 2),
        ("full vs smoke", run(core_a, core_smoke, ["--threshold", "10"]), 2),
        ("smoke vs smoke", run(core_smoke, core_smoke, []), 0),
    ]
    ok = True
    for name, got, want in checks:
        good = got == want
        ok &= good
        print(f"  {'pass' if good else 'FAIL'}  {name}: exit {got} "
              f"(want {want})")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Per-row metric deltas between two BENCH_*.json files.")
    parser.add_argument("baseline", nargs="?", help="baseline BENCH json")
    parser.add_argument("candidate", nargs="?", help="candidate BENCH json")
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="PCT",
        help="fail (exit 1) if any matched row regresses by more than PCT%% "
             "(default: report only)")
    parser.add_argument(
        "--key", default=None, metavar="FIELDS",
        help="comma-separated row-matching fields (default: per-bench)")
    parser.add_argument(
        "--value", default=None, metavar="FIELD",
        help="metric field to compare (default: per-bench)")
    parser.add_argument(
        "--selftest", action="store_true",
        help="verify the tool against synthetic documents and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required")

    base_doc = load_doc(args.baseline)
    cand_doc = load_doc(args.candidate)
    if is_smoke(base_doc) != is_smoke(cand_doc):
        kind = {True: "smoke", False: "full"}
        print(f"bench_diff: refusing to compare a {kind[is_smoke(base_doc)]} "
              f"run ({args.baseline}) with a {kind[is_smoke(cand_doc)]} run "
              f"({args.candidate}); rerun both at the same size",
              file=sys.stderr)
        return 2
    # The baseline names the schema; a cross-bench diff just ends up with
    # zero matched rows, which is advisory by design.
    schema_key, schema_value = SCHEMAS.get(base_doc.get("bench"),
                                           DEFAULT_SCHEMA)
    key_fields = (tuple(f.strip() for f in args.key.split(","))
                  if args.key else schema_key)
    value_field = args.value if args.value else schema_value
    return diff(base_doc, cand_doc, args.baseline, args.candidate,
                key_fields, value_field, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
