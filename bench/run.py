"""Benchmark: time to an exact, verified weighted pseudoinverse.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

W is one of hessenberg, dense_weighted, rank_deficient, or ``all`` to run
the three in turn.  Each workload runs in worker processes of its own
(bench/worker.py), which call the library in-process.

--trace 0 reports the end-to-end metrics: the median over passes of each
phase time, the median set-up time of several fresh processes, and the
peak memory of the measuring process.  --trace 1 runs an untraced and a
traced worker for half of --seconds each, and reports the per-layer
metrics of the traced one with its overhead.  Times are host-normalised
seconds (see bench/hostspeed.py).

Every result is checked (Penrose identities, cross-path equality, the
format/parse round trip and, where pinned, the sha256 of the output
text).  The last line of stdout is one JSON object; the exit status is 1
when a check failed and 2 when a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("hessenberg", "dense_weighted", "rank_deficient")
SETUP_RUNS = 7
DEADLINE_S = 170  # the whole invocation must end within 180 s

END_TO_END = {
    "total_s": "s",
    "rational_s": "s",
    "poly_s": "s",
    "verify_s": "s",
    "io_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "bytes"


def _worker_env():
    # the bytecode cache stays inside the benchmark's own output directory and
    # is always written, so timed set-ups all start warm
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BENCH / "out" / "pycache")
    return env


def _print_top_layers(workload, by_phase, top=3):
    """The layers with the most self time inside each phase, as medians
    over the traced passes."""
    for phase in by_phase[0]:
        medians = {
            layer: statistics.median(p[phase].get(layer, 0.0) for p in by_phase)
            for layer in by_phase[0][phase]
        }
        ranked = [m for m in sorted(medians, key=medians.get, reverse=True)[:top] if medians[m]]
        print(f"{workload:15} {phase} self time: "
              + ", ".join(f"{layer} {medians[layer]:.3g} s" for layer in ranked))


class Runner:
    def __init__(self, seed, deadline):
        self.seed = seed
        self.deadline = deadline
        self.env = _worker_env()

    def worker(self, mode, workload, seconds=0.0):
        cmd = [
            sys.executable, str(BENCH / "worker.py"), mode,
            "--workload", workload, "--seed", str(self.seed), "--seconds", repr(seconds),
        ]
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise WorkerError("out of time before the " + mode + " worker")
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                cwd=BENCH.parent, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker ran out of time") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerError(f"{mode} worker exited with status {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_seconds(self, workload):
        self.worker("setup", workload)  # fills the bytecode cache
        # the host speed is sampled inside each set-up process, on the CPU it
        # ran on; the sampling is taken off its wall time
        times = []
        for _ in range(SETUP_RUNS):
            t0 = perf_counter()
            out = self.worker("setup", workload)
            wall = perf_counter() - t0 - out["sampling_s"]
            times.append(wall * hostspeed.NOMINAL_S / statistics.median(out["kernel_s"]))
        return statistics.median(times)

    def end_to_end(self, workload, seconds):
        setup_s = self.setup_seconds(workload)
        plain = self.worker("plain", workload, seconds)
        passes = plain["passes"]
        metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = plain["peak_rss_mb"]
        return metrics, END_TO_END, plain["attempted"], plain["failed"]

    def per_layer(self, workload, seconds):
        plain = self.worker("plain", workload, seconds / 2)
        traced = self.worker("traced", workload, seconds / 2)
        _print_top_layers(workload, traced["by_phase"])
        layers = traced["layers"]
        # median_low keeps counts whole
        metrics = {name: statistics.median_low(p[name] for p in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(
            p["total_s"] for p in traced["passes"]
        ) - statistics.median(p["total_s"] for p in plain["passes"])
        units = {name: _layer_unit(name) for name in metrics}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        return metrics, units, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args.seed, perf_counter() + DEADLINE_S * len(workloads))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        measure = runner.per_layer if args.trace else runner.end_to_end
        try:
            metrics, units, attempted, failed = measure(workload, args.seconds)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 2
        result["attempted"] += attempted
        result["failed"] += failed
        for name, value in metrics.items():
            print(f"{workload:15} {name:42} {value:.6g} {units[name]}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            result["metrics"][key] = {"value": value, "unit": units[name]}
        print(f"{workload:15} {'failed_frac':42} {failed / attempted:.6g} fraction")
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
