"""Benchmark of calmkit: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload default --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Prints the environment, a table of every metric by name with its unit, and
last a JSON line with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones. `--workload all` runs every workload untraced and traced
and prints the tables only. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
WORKLOADS = ("default", "order", "staged-wide")
# the output whose sha256 prefix each run prints
HEADLINE = {"default": "report.csv", "order": "summary.csv", "staged-wide": "calm/report.csv"}
PIN_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 9
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("acc_calm", "acc"))
PER_LAYER = LAYER_METRICS + (
    ("trace.overhead_s", "s"),
    ("baselines.acc_avg", "acc"),
    ("baselines.acc_ta", "acc"),
    ("baselines.acc_ties", "acc"),
    ("order.acc_std", "acc"),
)


class WorkerError(RuntimeError):
    """A worker process failed or ran out of time."""


def _pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PIN_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _worker(args: list[str], out: Path, deadline: float) -> dict:
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for the worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args, "--out", str(out)],
                              env=_pinned_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} ran out of time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Set-up runs, then one measuring worker; the metrics and outcome of the run."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workroot = OUT / f"work-{os.getpid()}"
    workroot.mkdir()
    try:
        common = ["--workload", workload, "--seed", str(seed)]
        setups = [_worker([*common, "--setup-only"], workroot / f"setup{i}.json", deadline)
                  for i in range(SETUP_RUNS)]
        result = _worker([*common, "--seconds", str(seconds), "--trace", str(int(trace)),
                          "--workroot", str(workroot), "--spans", str(OUT / f"{tag}.spans.csv")],
                         workroot / "result.json", deadline)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    accuracy = result["accuracy"]
    if trace:
        values = dict(result["layers"])
        values["trace.overhead_s"] = (statistics.median(result["traced_walls"])
                                      - result["walls"][0])
        for method in ("avg", "ta", "ties"):
            values[f"baselines.acc_{method}"] = accuracy.get(f"acc_{method}", 0.0)
        values["order.acc_std"] = accuracy.get("acc_order_std", 0.0)
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(p["setup_s"] for p in setups),
                  "wall_s": statistics.median(result["walls"]),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "acc_calm": accuracy.get("acc_calm", 0.0)}
        units = END_TO_END
    errors = list(result["errors"])
    if not result["env"]["pinned"]:
        errors.append("BLAS threads are not pinned to 1")
    outcome = {
        "correct": not errors and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    record = {**outcome, "workload": workload, "seed": seed,
              "config_seed": result["config_seed"], "seconds": seconds,
              "trace": int(trace), "env": result["env"], "errors": errors,
              "setups_s": [p["setup_s"] for p in setups],
              "raw_setups_s": [p["raw_setup_s"] for p in setups],
              "walls_s": result["walls"], "raw_walls_s": result["raw_walls"],
              "traced_walls_s": result.get("traced_walls", []), "accuracy": accuracy,
              "sha256": result["hashes"]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_table(record: dict) -> None:
    env = record["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"== {record['workload']}  seed {record['seed']} (config seed "
          f"{record['config_seed']})  trace {record['trace']}  "
          f"{record['seconds']:g} s budget")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, {threads}"
          + ("" if env["pinned"] else "  ** NOT PINNED **"))
    attempted, failed = record["attempted"], record["failed"]
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.4g}")
    raw = record["raw_walls_s"]
    print(f"raw wall per repetition: median {statistics.median(raw):.4g} s over {len(raw)}; "
          f"{HEADLINE[record['workload']]} sha256 "
          f"{record['sha256'].get(HEADLINE[record['workload']], 'missing')}")
    for error in record["errors"]:
        print(f"error: {error}")
    width = max(len(name) for name in record["metrics"])
    for name, metric in record["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g}  {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="calmkit benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so that subprocess.run stops the worker it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "calmkit" / "__init__.py").is_file():
        print(f"no calmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(workload, trace) for workload in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    correct = True
    for workload, trace in runs:
        try:
            record = run_workload(workload, args.seed, args.seconds, trace,
                                  monotonic() + TIME_LIMIT_S)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_table(record)
        correct = correct and record["correct"]
    if args.workload == "all":
        return 0 if correct else 1
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
