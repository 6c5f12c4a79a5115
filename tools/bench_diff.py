#!/usr/bin/env python3
"""Compare two BENCH_*.json files and report per-row metric deltas.

Usage: bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
                     [--key FIELDS] [--value FIELD]

Rows are matched on a key tuple (default: per-bench, e.g. (shape, tasks)
for core_overhead, (tenants,) for serve_load) and compared on one metric
(tasks_per_s, submissions_per_s, makespan_s, ...). Each metric has a
better direction: throughputs are better higher, simulated makespans
better lower. Rows present in only one file —
a newly added shape or scale point — are reported as "baseline only" /
"candidate only" and never fail the comparison; rows missing the key or
metric fields are listed as skipped rather than aborting the diff. With
--threshold, exits 1 when any matched row's metric moved in its worse
direction by more than PCT percent; without it the tool is purely
informational. Values print with as many digits as it takes to tell the
two apart, so a 2.0 s -> 1.9 s makespan does not read "2 -> 2".

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

# Per-bench defaults: "bench" field -> (key fields, metric field, better
# direction). Unknown bench names fall back to the core_overhead schema;
# --key/--value always win.
SCHEMAS = {
    "core_overhead": (("shape", "tasks"), "tasks_per_s", "higher"),
    "serve_load": (("tenants",), "submissions_per_s", "higher"),
    "fault_tolerance": (("workflow", "rate"), "makespan_s", "lower"),
    "cluster_scaling": (("mode", "shape", "nodes", "placement"),
                        "makespan_s", "lower"),
}
DEFAULT_SCHEMA = SCHEMAS["core_overhead"]


def better_direction(value_field):
    """The direction any schema gives this metric; "higher" otherwise."""
    for _, metric, better in SCHEMAS.values():
        if metric == value_field:
            return better
    return "higher"


def fmt_pair(base, cand):
    """Formats both values with the fewest digits that tell them apart
    (thousands-grouped integers for large values, 4+ significant digits
    for small ones)."""
    for extra in range(16):
        if max(abs(base), abs(cand)) >= 1000.0:
            text = (f"{base:,.{extra}f}", f"{cand:,.{extra}f}")
        else:
            text = (f"{base:.{4 + extra}g}", f"{cand:.{4 + extra}g}")
        if base == cand or text[0] != text[1]:
            break
    return text


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
         better, threshold):
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

    # Gain: the change in the better direction, in percent of baseline.
    sign = 1.0 if better == "higher" else -1.0
    worst = None  # (gain_pct, key)
    if matched:
        key_head = " ".join(f"{f:>9}" for f in key_fields)
        header = (f"{key_head} {'base ' + value_field:>18} "
                  f"{'cand ' + value_field:>18} {'delta':>8}  "
                  f"({better} is better)")
        print(header)
        print("-" * len(header))
        for key in matched:
            b, c = base[key], cand[key]
            delta_pct = (c - b) / b * 100.0 if b > 0.0 else float("inf")
            text_b, text_c = fmt_pair(b, c)
            print(f"{fmt_key(key)} {text_b:>18} {text_c:>18} "
                  f"{delta_pct:>+7.1f}%")
            gain_pct = sign * delta_pct
            if worst is None or gain_pct < worst[0]:
                worst = (gain_pct, key)
    else:
        print("bench_diff: no rows in common — nothing to compare "
              "(different sizes or benches?)")
    for key in only_base:
        print(f"  baseline only:  {fmt_key(key)}")
    for key in only_cand:
        print(f"  candidate only: {fmt_key(key)}")

    if threshold is not None and worst is not None:
        gain_pct, key = worst
        if gain_pct < -threshold:
            print(f"\nFAIL: {fmt_key(key).strip()} regressed "
                  f"{-gain_pct:.1f}% ({value_field}, {better} is better; "
                  f"threshold {threshold:.1f}%)")
            return 1
        print(f"\nok: worst regression {max(0.0, -gain_pct):.1f}% within "
              f"{threshold:.1f}% threshold")
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
    fault_a = {"bench": "fault_tolerance", "runs": [
        {"workflow": "montage", "rate": 0.1, "makespan_s": 2.0},
        {"workflow": "ligo", "rate": 0.1, "makespan_s": 0.06}]}
    fault_faster = {"bench": "fault_tolerance", "runs": [
        {"workflow": "montage", "rate": 0.1, "makespan_s": 1.9},
        {"workflow": "ligo", "rate": 0.1, "makespan_s": 0.05}]}

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
        # Makespan is better lower: a 17% improvement must not trip the
        # threshold, and the same change read backwards must.
        ("makespan improvement",
         run(fault_a, fault_faster, ["--threshold", "10"]), 0),
        ("makespan regression",
         run(fault_faster, fault_a, ["--threshold", "10"]), 1),
        # Sub-second values print with the digits that tell them apart.
        ("makespan digits", fmt_pair(2.0, 1.9), ("2", "1.9")),
        ("large digits", fmt_pair(1000.25, 1000.5), ("1,000.2", "1,000.5")),
        ("equal digits", fmt_pair(0.06, 0.06), ("0.06", "0.06")),
    ]
    ok = True
    for name, got, want in checks:
        good = got == want
        ok &= good
        print(f"  {'pass' if good else 'FAIL'}  {name}: got {got} "
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
        help="fail (exit 1) if any matched row moves in its worse direction "
             "by more than PCT%% (default: report only)")
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
    schema_key, schema_value, schema_better = SCHEMAS.get(
        base_doc.get("bench"), DEFAULT_SCHEMA)
    key_fields = (tuple(f.strip() for f in args.key.split(","))
                  if args.key else schema_key)
    value_field = args.value if args.value else schema_value
    better = (schema_better if value_field == schema_value
              else better_direction(value_field))
    return diff(base_doc, cand_doc, args.baseline, args.candidate,
                key_fields, value_field, better, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
