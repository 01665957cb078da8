"""Check the perf ledger against its own contract, and its own noise.

    python3 perf/selfcheck.py              # BENCHMARK.json ↔ run.py agree
    python3 perf/selfcheck.py --aa 2       # + two A/A sets, judged by the bounds

The first form validates ``BENCHMARK.json`` (names, units, bounds,
counts) and runs every declared workload once in ``--quick`` mode, with
tracing off and on, exactly as the benchmark driver invokes it, to see
that each run reports exactly the declared metrics as numbers, and that
every per-layer metric is computed (not null, not merely defaulted) by at
least one workload.

``--aa N`` then runs N sets of ten full-size runs per workload, each run
at another seed, all on this one checkout. Per end-to-end
metric × workload it prints each set's median, quartile distance and
relative spread, and fails if a spread (``setup_s`` excepted) exceeds the
metric's bound or if two sets' medians differ by more than the bound —
the test a later PR's numbers have to pass, applied to no change at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: the ledger's own cap on a bound (ISSUE 12); the driver would allow 0.25
MAX_BOUND = 0.15
#: runs per workload in one A/A set, as in the driver's own spread check
RUNS = 10


def validate_benchmark(bench: dict) -> list[str]:
    """Every way BENCHMARK.json breaks the driver's schema."""
    errors = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != expected:
        errors.append(f"keys are {sorted(bench)}, expected {sorted(expected)}")
        return errors
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append(f"workload keys {sorted(w)}")
        elif len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"why of {w['name']} is not one line of <= 200 characters")
        names.append(w.get("name", ""))
    for section, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for m in bench[section]:
            if set(m) != keys:
                errors.append(f"{section} metric keys {sorted(m)}")
                continue
            names.append(m["name"])
            if not UNIT_RE.match(m["unit"]):
                errors.append(f"unit {m['unit']!r} of {m['name']}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"direction {m['better']!r} of {m['name']}")
            if "bound" in m and not 0 < m["bound"] <= MAX_BOUND:
                errors.append(f"bound {m['bound']} of {m['name']}")
    errors += [f"name {n!r}" for n in names if not NAME_RE.match(n)]
    errors += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("2 to 8 workloads")
    if not 1 <= len(bench["end_to_end"]) <= 16:
        errors.append("1 to 16 end-to-end metrics")
    if not 1 <= len(bench["per_layer"]) <= 128:
        errors.append("1 to 128 per-layer metrics")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    return errors


def drive(bench: dict, workload: str, seed: int, seconds, trace: int, extra=()) -> dict:
    """Invoke the benchmark the way the driver does; its last-line object."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], timings_nonzero: bool) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    if result["failed"] != 0 or result["correct"] is not True:
        errors.append(f"{result['failed']} of {result['attempted']} requests failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(
            f"metrics differ: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}"
        )
    for name, m in got.items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{name} is not a number: {value!r}")
        elif timings_nonzero and value == 0:
            errors.append(f"{name} is 0")
        if m.get("unit") != want.get(name):
            errors.append(f"{name} has unit {m.get('unit')!r}")
    return errors


def check_agreement(bench: dict) -> int:
    """Quick run of every workload, untraced and traced."""
    failures = 0
    layer_names = {m["name"] for m in bench["per_layer"]}
    computed: set[str] = set()
    # the child's own document: there a missing hook is None and a metric
    # the workload does not measure is absent, where the driver's line has 0
    raw_path = os.path.join(ROOT, "artifacts", "perf", "selfcheck.json")
    os.makedirs(os.path.dirname(raw_path), exist_ok=True)
    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = drive(
                bench, w["name"], 7, 1, trace, extra=("--quick", "--out", raw_path)
            )
            errors = check_result(result, bench[section], timings_nonzero=not trace)
            if trace:
                with open(raw_path) as fh:
                    raw = json.load(fh)["per_layer"]
                null = sorted(n for n, v in raw.items() if v is None)
                if null:
                    errors.append(f"hook missing for {null}")
                if set(raw) - layer_names:
                    errors.append(f"undeclared layer metrics {sorted(set(raw) - layer_names)}")
                computed |= set(raw) - set(null)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']:<18} trace={trace} {status}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    if layer_names - computed:
        print(f"per-layer metrics no workload computes: {sorted(layer_names - computed)}")
        failures += 1
    return failures


def spread(values: list[float]) -> tuple[float, float, float]:
    """median, quartile distance, and their ratio."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1, (q3 - q1) / med


def aa(bench: dict, sets: int, seed: int) -> int:
    """A/A: *sets* × ``RUNS`` full-size untraced runs per workload."""
    e2e = bench["end_to_end"]
    # values[set][workload][metric] -> list over runs
    values = [
        {w["name"]: {m["name"]: [] for m in e2e} for w in bench["workloads"]}
        for _ in range(sets)
    ]
    failures = 0
    for s in range(sets):
        for r in range(RUNS):
            for w in bench["workloads"]:
                result = drive(bench, w["name"], seed + r, bench["run_seconds"], 0)
                if result["failed"]:
                    print(f"set {s} run {r} {w['name']}: {result['failed']} failed")
                    failures += 1
                for name, m in result["metrics"].items():
                    values[s][w["name"]][name].append(m["value"])
            print(f"set {s}: run {r + 1}/{RUNS} done", file=sys.stderr)
    print(f"{'workload':<18}{'metric':<16}{'set':>4}{'median':>12}{'q3-q1':>12}"
          f"{'spread':>9}{'bound':>7}")
    for w in bench["workloads"]:
        for m in e2e:
            medians = []
            for s in range(sets):
                med, iqr, rel = spread(values[s][w["name"]][m["name"]])
                medians.append(med)
                wide = m["name"] != "setup_s" and rel > m["bound"]
                failures += wide
                print(f"{w['name']:<18}{m['name']:<16}{s:>4}{med:>12.5g}{iqr:>12.3g}"
                      f"{rel:>9.4f}{m['bound']:>7.2f}{'  SPREAD > BOUND' if wide else ''}")
            for a, b in itertools.combinations(medians, 2):
                if abs(a - b) / min(a, b) > m["bound"]:
                    failures += 1
                    print(f"{'':<18}{m['name']:<16} medians {a:.5g} and {b:.5g} "
                          f"differ by more than {m['bound']}")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--aa", type=int, default=0, metavar="N", help="A/A sets to run")
    ap.add_argument("--seed", type=int, default=7, help="seed of each set's first run")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = validate_benchmark(bench)
    for e in errors:
        print(f"BENCHMARK.json: {e}")
    failures = len(errors)
    if not errors:
        failures += check_agreement(bench)
    if not errors and args.aa:
        failures += aa(bench, args.aa, args.seed)
    print("selfcheck:", "ok" if not failures else f"{failures} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
