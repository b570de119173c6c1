"""Run one ledger workload and print its metrics.

Usage (from the root of a checkout)::

    python3 ledger/run.py --workload gateway_warm --seed 1 --seconds 10 --trace 0
    python3 ledger/run.py --workload monitor_replay --seed 1 --steady 5

One run generates every input from ``--seed``, sets up, measures for
``--seconds`` seconds, checks that every output is correct, and prints as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1`` (a traced run
measures half of its time untraced and half traced, for
``obs.trace_overhead``; a layer the workload does not exercise reads 0).  Earlier lines
starting with ``ledger-detail`` record the machine shape, load average,
load-generator cost and sample counts.  A wrong output makes the exit code
1; a checkout without ``src/`` exits 2 without a result line.

``--steady N`` runs the workload N times with seeds ``seed .. seed+N-1``
(each in its own process) and prints each end-to-end
metric's median, quartiles, interquartile share and max-min.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from common import (
    ROOT,
    SIZES,
    LedgerError,
    StateDir,
    emit_detail,
    filesystem_type,
    machine_shape,
    require_sources,
)

WORKLOADS = ("gateway_warm", "gateway_cold", "monitor_replay", "corpus_store")


def _catalogue(section: str):
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise LedgerError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def _complete(measured, section: str, optional: bool):
    """Every metric of ``section`` by name and unit, in catalogue order.

    ``optional`` (the per-layer section) lets a workload leave out the
    layers it does not exercise; they read 0 and are listed as such.
    """
    catalogue = _catalogue(section)
    unknown = sorted(set(measured) - set(catalogue))
    absent = [name for name in catalogue if name not in measured]
    if unknown or (absent and not optional):
        raise LedgerError(f"metrics not matching BENCHMARK.json: {unknown or absent}")
    metrics = {}
    for name, unit in catalogue.items():
        value, measured_unit = measured.get(name, (0.0, unit))
        if measured_unit != unit:
            raise LedgerError(f"{name} measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics, absent


def _run_workload(args) -> int:
    require_sources()
    size = SIZES[args.size]
    if args.workload == "corpus_store":
        import corpus as module
    elif args.workload == "monitor_replay":
        import monitor as module
    else:
        import gateway as module
    _catalogue("end_to_end")  # fail before any work when it is missing
    load_before = os.getloadavg()
    shape = machine_shape()
    with StateDir() as state:
        state_fs = filesystem_type(state)
        kwargs = dict(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            size=size, state=state, corrupt=args.corrupt_one,
        )
        if module.__name__ == "gateway":
            kwargs["cold"] = args.workload == "gateway_cold"
        outcome = module.run(**kwargs)
    if args.trace:
        metrics, absent = _complete(outcome.per_layer, "per_layer", optional=True)
    else:
        metrics, absent = _complete(outcome.end_to_end, "end_to_end", optional=False)
    emit_detail({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size.name, **shape,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "state_fs": state_fs, "layers_not_exercised": absent, **outcome.detail,
    })
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _steady(args) -> int:
    """Run the workload ``args.steady`` times and summarise the spread."""
    values = {}
    units = {}
    for offset in range(args.steady):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed + offset),
            "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            print(f"run with seed {args.seed + offset} failed ({completed.returncode})")
            return 1
        result = json.loads(lines[-1])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        print(f"seed {args.seed + offset}: " + ", ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
        ), flush=True)
    summary = {}
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        summary[name] = {
            "unit": units[name], "median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else float("inf"),
            "max_min_share": (max(series) - min(series)) / q2 if q2 else float("inf"),
        }
        print(
            f"{name:22s} median {q2:10.4g} {units[name]:5s} q1 {q1:10.4g} q3 {q3:10.4g} "
            f"iqr {summary[name]['iqr_share']:6.1%} max-min {summary[name]['max_min_share']:6.1%}"
        )
    print(json.dumps({"workload": args.workload, "runs": args.steady, "summary": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--corrupt-one", action="store_true",
                        help="corrupt one output before checking (the check must fail)")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds in turn and summarise the spread")
    args = parser.parse_args(argv)
    try:
        if args.steady:
            return _steady(args)
        return _run_workload(args)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
