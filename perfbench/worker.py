"""One fresh benchmark process: set up a workload, run it for a time budget, write the result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
    python3 perfbench/worker.py --workload NAME --seed N --setup-only --out FILE

`run.py` starts this script with BLAS pinned to one thread. `--setup-only` only
imports calmkit and resolves the workload's config, which is the set-up time.
The result is a JSON file; the exit code is 2 when calmkit cannot be imported
from the checkout's `src/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PIN_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {name: os.environ.get(name) for name in PIN_VARIABLES}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "pinned": all(value == "1" for value in threads.values()),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class HostSpeed:
    """Samples the host's speed while a region is timed, to correct its wall time.

    The host this benchmark was built on swings between two speeds about
    1.5x apart, in phases of seconds to minutes. So every `INTERVAL_S` a
    SIGALRM handler times a fixed probe: a pure-Python loop and a few small
    numpy products, the two kinds of work calmkit does at the default size.
    The probe works on under 50 KB, so the program under test can hardly change
    its time except through the host. Each sample stands for the slice of
    time around it, so a region's corrected time is its wall time times the
    mean over its samples of `nominal_s` / sample, where `nominal_s` is
    about the probe's time inside a running workload there (Xeon, 2 vCPUs,
    Python 3.11). Set-up imports numpy, so while it is timed the probe runs
    the loop alone. The probe touches no state of the program, so it cannot
    change any result.
    """

    INTERVAL_S = 0.02

    def __init__(self, with_numpy: bool = True):
        self.samples: list[float] = []
        self._np = None
        self.nominal_s = 30e-6
        if with_numpy:
            import numpy as np

            self._np = np
            self._x = np.linspace(-1.0, 1.0, 64 * 16).reshape(64, 16)
            self._w = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
            self.nominal_s = 80e-6

    def _probe(self, signum, frame):
        start = perf_counter()
        total = 0
        for i in range(1000):
            total += i
        if self._np is not None:
            for _ in range(5):
                self._np.maximum(self._x @ self._w, 0.0).sum(axis=0)
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self, since: int) -> float:
        """Mean of nominal_s / sample over the samples from `since` on (1 if none)."""
        recent = self.samples[since:]
        return statistics.fmean(self.nominal_s / t for t in recent) if recent else 1.0


def _same_outputs(reference: dict, rep, label: str) -> None:
    """Count every operation whose report bytes differ from the reference repetition."""
    for key, data in rep.outputs.items():
        if key in reference and reference[key] != data:
            rep.failed = min(rep.attempted, rep.failed + 1)
            rep.errors.append(f"{key}: bytes differ between repetitions ({label})")


def measure(workload, prepared, seconds: float, workroot: Path, trace: bool,
            spans_path: Path | None = None) -> dict:
    """Repeat the workload until the next repetition would overrun `seconds`.

    Untraced, every repetition is timed. Traced, the first repetition runs
    untraced as the reference for bytes and wall time, and the ones after it
    run traced; at least one does. Wall times are corrected by `HostSpeed`;
    the raw ones are kept beside them.
    """
    from tracing import COUNTERS, Tracer, layer_metrics, traced

    expected = workload.expected(prepared)
    reps, walls, layers, errors = [], [], [], []
    reference: dict[str, bytes] = {}
    tracer = None
    start = perf_counter()
    with HostSpeed() as speed:
        while True:
            workdir = workroot / f"rep{len(reps)}"
            tracing_this = trace and bool(reps)
            since = len(speed.samples)
            if tracing_this:
                tracer = Tracer()
                with traced(tracer):
                    rep = workload.run(prepared, workdir, tracer)
            else:
                rep = workload.run(prepared, workdir)
            walls.append(rep.wall_s * speed.factor(since))
            shutil.rmtree(workdir, ignore_errors=True)
            if reps:
                _same_outputs(reference, rep, "traced against untraced" if tracing_this
                              else "untraced")
            else:
                reference = dict(rep.outputs)
            if tracing_this:
                metrics = layer_metrics(tracer)
                for name, want in expected.items():
                    if metrics[name] != want:
                        errors.append(f"{name} counted {metrics[name]:.0f}, expected {want}")
                if layers and any(metrics[name] != layers[0][name] for name in COUNTERS):
                    errors.append("work counters differ between traced repetitions")
                layers.append(metrics)
            reps.append(rep)
            elapsed = perf_counter() - start
            if not (trace and not layers) and elapsed + rep.wall_s > seconds:
                break
    if tracer is not None and spans_path is not None:
        tracer.write_csv(spans_path)
    accuracy = reps[0].accuracy
    if any(rep.accuracy != accuracy for rep in reps):
        errors.append("accuracies differ between repetitions")
    result = {
        "walls": walls[:1] if trace else walls,
        "raw_walls": [rep.wall_s for rep in reps[:1 if trace else len(reps)]],
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "errors": errors + [e for rep in reps for e in rep.errors],
        "accuracy": accuracy,
        "hashes": {key: hashlib.sha256(data).hexdigest()[:16]
                   for key, data in sorted(reference.items())},
    }
    if trace:
        result["traced_walls"] = walls[1:]
        result["layers"] = {name: statistics.median(m[name] for m in layers)
                            for name in layers[0]}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workroot", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    with HostSpeed(with_numpy=False) as speed:
        start = perf_counter()
        try:
            import calmkit
            from workloads import WORKLOADS, config_seed
        except ImportError as exc:
            print(f"cannot import calmkit from {SRC}: {exc}", file=sys.stderr)
            return 2
        if Path(calmkit.__file__).resolve().parent.parent != SRC:
            print(f"calmkit was imported from {calmkit.__file__}, not from {SRC}",
                  file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload]
        seed = config_seed(args.seed)
        prepared = workload.prepare({"seed": str(seed)})
        setup = perf_counter() - start
    result = {"setup_s": setup * speed.factor(0), "raw_setup_s": setup, "config_seed": seed}
    if not args.setup_only:
        result.update(measure(workload, prepared, args.seconds, args.workroot,
                              bool(args.trace), args.spans))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
