"""Perf ledger front end: run workloads, print every metric, emit JSON.

    python3 perf/run.py --workload warm-cube-xl            # one workload
    python3 perf/run.py --workload warm-cube-xl --trace 1  # its layer pass
    python3 perf/run.py --all --trace 1 --out ledger.json  # the whole ledger
    python3 perf/run.py --all --quick                      # smoke, < 20 s

Each workload runs in a fresh subprocess (``perf/workloads.py``) with the
BLAS pinned to one thread, ``PYTHONHASHSEED=0`` and ``REPRO_OBS`` /
``REPRO_CHECK`` unset. With ``--workload`` the last line of standard
output is the one-object result the benchmark driver reads (see
``BENCHMARK.json``); with ``--all`` it is the whole ledger document.
The exit status is non-zero only when the harness itself could not run —
failed requests are counted in the result, not signalled by the status.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a child that has not finished by then is killed (the driver allows 180 s)
CHILD_TIMEOUT_S = 170


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pin] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_CHECK", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One workload in a fresh subprocess; its result document."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if quick:
        cmd.append("--quick")
    # subprocess.run kills and reaps the child on timeout
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(bench: dict, section: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares in *section*."""
    return {m["name"]: m["unit"] for m in bench[section]}


def with_units(values: dict, units: dict[str, str]) -> dict:
    """The declared metrics this run produced, each as ``{"value", "unit"}``.
    A value of None means the hook that feeds the metric is missing."""
    return {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}


def print_metrics(title: str, result: dict, metrics: dict) -> None:
    share = result["failed"] / result["attempted"]
    print(f"== {title}: {result['attempted']} attempted, {result['failed']} failed")
    print(f"  {'failed_share':<38} {share:<14.6g} ratio")
    for name, m in metrics.items():
        if m["value"] is None:
            shown = "null (hook missing)"
        elif isinstance(m["value"], float):
            shown = f"{m['value']:.6g}"
        else:
            shown = str(m["value"])
        print(f"  {name:<38} {shown:<14} {m['unit']}")
    if "samples" in result:
        counts = ", ".join(f"{k}: {n}" for k, n in result["samples"].items())
        print(f"  samples per run ({counts}); "
              f"host.calib_s {result['host']['host.calib_s']:.4f} s")


def driver_line(result: dict, metrics: dict, units: dict[str, str]) -> str:
    """The benchmark driver's result object. It wants a number for every
    declared metric, so one this workload does not measure, or whose hook
    is missing (``trace.missing_hooks`` of the same line counts those),
    reads 0. ``--out`` and ``--all`` keep the difference; ``selfcheck.py``
    reads it there."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                n: {"value": metrics.get(n, {}).get("value") or 0.0, "unit": u}
                for n, u in units.items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False
    )
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--all", action="store_true", help="run every workload")
    what.add_argument("--workload", metavar="NAME")
    ap.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics (with --all: after the end-to-end pass)",
    )
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, help="target length of a timed window")
    ap.add_argument("--out", metavar="PATH", help="also write the JSON there")
    ap.add_argument(
        "--quick", action="store_true",
        help="small matrices, few requests; never comparable with a full run",
    )
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perf/run.py: no src/repro next to perf/ — nothing to measure",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.quick and args.seconds is None:
        seconds = 1.0
    e2e_units = declared(bench, "end_to_end")
    layer_units = declared(bench, "per_layer")

    if args.workload:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
        result = run_workload(args.workload, args.seed, seconds, args.trace, args.quick)
        units = layer_units if args.trace else e2e_units
        metrics = with_units(result["per_layer" if args.trace else "end_to_end"], units)
        print_metrics(args.workload, result, metrics)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(result, fh, indent=1)
        print(driver_line(result, metrics, units))
        return 0

    ledger = {
        "schema": 1,
        "quick": args.quick,
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    kernel_samples: list[float] = []
    for name in names:
        result = run_workload(name, args.seed, seconds, 0, args.quick)
        entry = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_share": result["failed"] / result["attempted"],
            "samples": result["samples"],
            "end_to_end": with_units(result["end_to_end"], e2e_units),
        }
        print_metrics(name, result, entry["end_to_end"])
        if args.trace:
            traced = run_workload(name, args.seed, seconds, 1, args.quick)
            entry["traced"] = {
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "trace_file": traced["trace_file"],
            }
            entry["per_layer"] = with_units(traced["per_layer"], layer_units)
            print_metrics(f"{name} (traced pass)", traced, entry["per_layer"])
        entry["host.calib_s"] = result["host"]["host.calib_s"]
        ledger["workloads"][name] = entry
        kernel_samples += result["calib_samples"]
    # fingerprint of the last child (all share it) + the whole run's host speed
    q1, median, q3 = statistics.quantiles(kernel_samples, n=4)
    ledger["host"] = {
        **result["host"],
        "host.calib_s": median,
        "host.calib_spread": (q3 - q1) / median,
    }
    ledger["claim"] = None  # a benchmark measures; it claims no gain
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1)
    print(json.dumps(ledger))
    return 0


if __name__ == "__main__":
    sys.exit(main())
