"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import worker  # puts the package on sys.path
from worker import hostspeed, problems, tracing
from wmpinv import matrices, poly_greville, scalars
from wmpinv.matrixio import format_matrix

ROOT = worker.BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _text(problem_set):
    return [format_matrix(mat) for p in problem_set for mat in p]


def test_generator_is_deterministic_per_seed():
    for workload in problems.WORKLOADS:
        assert _text(problems.generate(workload, 5)) == _text(problems.generate(workload, 5))
    for workload in ("dense_weighted", "rank_deficient"):
        assert _text(problems.generate(workload, 5)) != _text(problems.generate(workload, 6))


def test_every_seed_keeps_its_workload_on_its_branch():
    for seed in range(4):
        assert all(p.a.rank() == p.a.cols for p in problems.generate("dense_weighted", seed))
        assert all(p.a.rank() < p.a.cols for p in problems.generate("rank_deficient", seed))


def test_install_patches_every_binding_and_restores_them():
    originals = (scalars.poly_gcd, scalars.joint_reduce, scalars.Poly.__rmul__)
    with tracing.install(tracing.Tracer()):
        assert matrices.poly_gcd is scalars.poly_gcd is not originals[0]
        assert poly_greville.joint_reduce is scalars.joint_reduce is not originals[1]
        assert scalars.Poly.__rmul__ is scalars.Poly.__mul__ is not originals[2]
    assert (matrices.poly_gcd, poly_greville.joint_reduce) == originals[:2]
    assert (scalars.poly_gcd, scalars.joint_reduce, scalars.Poly.__rmul__) == originals


def test_traced_run_gives_the_untraced_digests_and_measures_every_layer():
    for workload in problems.WORKLOADS:
        problem_set = problems.generate(workload, 0)[:1]
        plain = worker.run_pass(problem_set, hostspeed.Clock())
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced = worker.run_pass(problem_set, hostspeed.Clock(), tracer=tracer)
        assert plain["failed"] == traced["failed"] == []
        assert traced["digests"] == plain["digests"]
        spans, stats, by_phase = tracer.take()
        assert spans and all(span[3] is None or span[3] < i for i, span in enumerate(spans))
        for name in tracing.LAYERS:
            in_phases = sum(layers.get(name, 0.0) for layers in by_phase.values())
            assert abs(in_phases - stats[name][1]) < 1e-9
        # a full-rank square matrix has no dependent column
        unused = ["greville.weighted_schur_factor"] if workload == "dense_weighted" else []
        assert [name for name in tracing.LAYERS if not stats[name][0]] == unused


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


def test_run_emits_exactly_the_metrics_benchmark_json_names():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "hessenberg", "--seed", "0", "--seconds", "0", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        spec = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(worker.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run("--workload", "hessenberg", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
