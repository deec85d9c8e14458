"""One benchmark process.

    python3 bench/worker.py MODE --workload W --seed S [--seconds T]

``setup`` imports the package, builds the problem set and then samples the
host speed (see hostspeed.py); bench/run.py times the whole process.
``plain`` and ``traced`` build the problem set, then run passes over it
until the next pass would end past ``--seconds`` (at least one pass).
``traced`` first installs the layer wrappers, and at the end writes its
spans to ``bench/out/``.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import operator
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402
import problems  # noqa: E402
import tracing  # noqa: E402
import wmpinv  # noqa: E402
from wmpinv import greville, matrixio, poly_greville, verify  # noqa: E402

if Path(wmpinv.__file__).resolve().parent != (BENCH.parent / "src" / "wmpinv").resolve():
    sys.exit(f"wmpinv was imported from {wmpinv.__file__}, not from this checkout")

DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

# phase -> end-to-end metric; the cross-path comparison counts in total_s only
PHASE_METRICS = {"rational": "rational_s", "poly": "poly_s", "verify": "verify_s", "io": "io_s"}


def _rational(p):
    return greville.weighted_pinv(greville.WeightedProblem(p.a, p.m, p.n))


def _poly(p):
    to_poly = poly_greville.PolyMatrix.from_rf_matrix
    return poly_greville.weighted_pinv(to_poly(p.a), to_poly(p.m), to_poly(p.n)).to_rf_matrix()


def _io(x):
    text = matrixio.format_matrix(x)
    return text, matrixio.parse_matrix_file(text)


def solve(problem, clock, tracer=None):
    """Run one problem through the calls ``wmpinv compute --path both
    --verify --out`` makes and check the result.

    Returns (output text, {phase: normalised seconds}, wall seconds,
    failed checks).
    """
    times = {}
    wall = 0.0

    def timed(phase, fn, *args):
        nonlocal wall
        if tracer is not None:
            fn = tracer.spanned("phase." + phase, fn)
        out, times[phase], spent = clock.call(fn, *args)
        wall += spent
        return out

    x = timed("rational", _rational, problem)
    x_poly = timed("poly", _poly, problem)
    same = timed("cross", operator.eq, x, x_poly)
    report = timed("verify", verify.penrose_check, problem.a, problem.m, problem.n, x)
    text, parsed = timed("io", _io, x)
    failed = []
    if not same:
        failed.append("the rational and coefficient paths disagree")
    if not report.all_hold:
        failed.append(f"Penrose equation {report.first_failure[0]} fails")
    if parsed != x:
        failed.append("format_matrix / parse_matrix_file changed the matrix")
    return text, times, wall, failed


def run_pass(problem_set, clock, pinned=None, tracer=None, index=0):
    """Solve every problem once.  Returns a dict with the pass's metric
    totals, the ratio of normalised to wall seconds, the per-problem output
    digests and the indices of failed problems."""
    totals = dict.fromkeys(("total_s", *PHASE_METRICS.values()), 0.0)
    digests, failed, size, wall = [], [], 0, 0.0
    for k, problem in enumerate(problem_set):
        if tracer is not None:
            tracer.problem = [index, k]
        try:
            text, times, spent, checks = solve(problem, clock, tracer)
        except Exception:
            traceback.print_exc()
            digests.append(None)
            failed.append(k)
            continue
        digest = hashlib.sha256(text.encode()).hexdigest()
        if pinned is not None and digest != pinned[k]:
            checks.append("output differs from the pinned digest")
        for message in checks:
            print(f"problem {k}: {message}", file=sys.stderr)
        if checks:
            failed.append(k)
        digests.append(digest)
        size += len(text.encode())
        totals["total_s"] += sum(times.values())
        wall += spent
        for phase, metric in PHASE_METRICS.items():
            totals[metric] += times[phase]
    return {
        "metrics": totals,
        "scale": totals["total_s"] / wall if wall else 1.0,
        "digests": digests,
        "failed": failed,
        "bytes": size,
    }


def pinned_digests(workload, seed):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def layer_metrics(stats, scale, size):
    """Per-layer metrics of one traced pass, with seconds scaled by
    ``scale``."""
    out = {}
    for name in tracing.LAYERS:
        calls, self_s, _ = stats[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s * scale
    gcd_calls, _, trivial = stats["scalars.poly_gcd"]
    out["scalars.poly_gcd.trivial_frac"] = trivial / gcd_calls if gcd_calls else 0.0
    stages = stats["greville.project_column"][0]
    dependent = stats["greville.weighted_schur_factor"][0]
    out["greville.dependent_frac"] = dependent / stages if stages else 0.0
    out["matrixio.bytes"] = size
    return out


def measure(workload, seed, seconds, traced):
    problem_set = problems.generate(workload, seed)
    pinned = pinned_digests(workload, seed)
    with contextlib.ExitStack() as stack:
        tracer = None
        if traced:
            tracer = stack.enter_context(tracing.install(tracing.Tracer()))
        passes = _run_passes(problem_set, pinned, seconds, tracer)
    result = {
        "passes": [p["metrics"] for p in passes],
        "attempted": len(problem_set) * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "digests": passes[0]["digests"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        _write_spans(OUT / f"trace-{workload}-{seed}.jsonl", [p["spans"] for p in passes])
        result["layers"] = [layer_metrics(p["stats"], p["scale"], p["bytes"]) for p in passes]
        result["by_phase"] = [
            {
                root: {layer: t * p["scale"] for layer, t in layers.items()}
                for root, layers in p["by_root"].items()
            }
            for p in passes
        ]
    return result


def _run_passes(problem_set, pinned, seconds, tracer):
    clock = hostspeed.Clock()
    passes = []
    started, longest = perf_counter(), 0.0
    while not passes or perf_counter() - started + longest <= seconds:
        t0 = perf_counter()
        result = run_pass(problem_set, clock, pinned, tracer, len(passes))
        longest = max(longest, perf_counter() - t0)
        if passes and result["digests"] != passes[0]["digests"]:
            print("outputs differ between passes", file=sys.stderr)
            result["failed"] = list(range(len(problem_set)))
        if tracer is not None:
            result["spans"], result["stats"], result["by_root"] = tracer.take()
        passes.append(result)
    return passes


def _write_spans(path, spans):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for index, pass_spans in enumerate(spans):
            for name, start, end, parent, problem, counted in pass_spans:
                record = {
                    "pass": index, "name": name, "start": start, "end": end,
                    "parent": parent, "problem": problem, "counted_s": counted,
                }
                fh.write(json.dumps(record) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "plain", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(problems.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        problem_set = problems.generate(args.workload, args.seed)
        t0 = perf_counter()
        kernels = [hostspeed.kernel_seconds() for _ in range(3)]
        result = {
            "problems": len(problem_set),
            "kernel_s": kernels,
            "sampling_s": perf_counter() - t0,
        }
    else:
        result = measure(args.workload, args.seed, args.seconds, args.mode == "traced")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
