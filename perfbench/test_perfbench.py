"""Tests of the benchmark itself: failure counting, tracing, output format.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import run
from layertrace import LAYERS, LayerTracer
from probe import Sampler, probe
from workloads import E_DIM, N, DilateWorkload, OpInput, VerifyWorkload, run_op

cli = run.import_polyball()
THRESHOLD = gc.get_threshold()
from polyball import naimark, sampling, serialize  # noqa: E402


class NonPsdKernels(DilateWorkload):
    """``dilate`` on a kernel that is not PSD, which exits 3."""

    def inputs(self, seed, workdir):
        kernel = sampling.random_non_psd_kernel(np.random.default_rng(seed), "left",
                                                N, E_DIM, 2)
        src = workdir / "kernel.json"
        serialize.dump(serialize.kernel_to_json(kernel), str(src))
        dst = workdir / "dilation.json"
        return [OpInput(["dilate", str(src), "--output", str(dst)], dst)]


SMALL_DILATE = DilateWorkload("small-dilate", max_len=2)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload, exit_code", [
    (NonPsdKernels("non-psd"), 3),
    (VerifyWorkload("bad-config", degrees="3", max_len=3), 2),  # one degree for two factors
])
def test_failing_ops_are_counted(workload, exit_code, capsys):
    result = run.run(workload, seed=3, seconds=0, trace=False)
    err = capsys.readouterr().err
    assert f"exit code {exit_code}" in err
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["pass_ratio"]["value"] == 0.0


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    result = run.run(SMALL_DILATE, seed=1, seconds=0, trace=False)
    out = capsys.readouterr().out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2                      # one op on each side's kernel
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name] == {"value": pytest.approx(result["metrics"][name]["value"]),
                                           "unit": unit}
        assert result["metrics"][name]["value"] > 0
        assert name in out
    assert "fail_ratio" in out and '"nproc"' in out and "OPENBLAS_NUM_THREADS" in out


def test_traced_run_reports_every_layer_metric(capsys):
    result = run.run(SMALL_DILATE, seed=1, seconds=0, trace=True)
    assert result["correct"] is True
    assert result["attempted"] == 4                      # two rounds: traced, untraced
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["naimark.naimark_dilate.self_s"]["value"] > 0
    assert metrics["naimark.rank_ratio"]["value"] > 0
    assert metrics["serialize.bytes_out"]["value"] > 0
    assert metrics["berezin.self_s"]["value"] == 0       # dilate bypasses berezin
    assert metrics["bench.trace_overhead"]["value"] > 0


def test_layer_self_times_add_up_to_the_op(tmp_path):
    kernel = sampling.random_psd_kernel(np.random.default_rng(0), "right", N, E_DIM, 2)
    src = tmp_path / "k.json"
    serialize.dump(serialize.kernel_to_json(kernel), str(src))
    inp = OpInput(["dilate", str(src), "--output", str(tmp_path / "d.json")], tmp_path / "d.json")
    original = naimark.naimark_dilate
    tracer = LayerTracer()
    tracer.op = 0
    tracer.install()
    try:
        # names imported with ``from .naimark import ...`` are traced too:
        # no polyball module still holds an original function
        assert cli.naimark_dilate is naimark.naimark_dilate is not original
        originals = {id(fn) for _, _, fn, _ in tracer._plan}
        escaped = [f"{mod_name}.{name}" for mod_name, mod in sys.modules.items()
                   if mod_name.startswith("polyball")
                   for name, obj in vars(mod).items() if id(obj) in originals]
        assert escaped == []
        outcome = run_op(cli, inp)
    finally:
        tracer.uninstall()
    assert outcome.exit_code == 0
    assert naimark.naimark_dilate is original and cli.naimark_dilate is original
    summary = tracer.op_summary(0)
    assert summary["cli.main.calls"] == 1
    assert summary["naimark.naimark_dilate.calls"] == 1
    assert "words.MultiWord.concat.calls" not in summary
    layer_sum = sum(summary.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    assert layer_sum == pytest.approx(summary["root_s"], rel=1e-9)
    # the cli.main span covers the op as timed from outside
    assert 0.99 * outcome.seconds <= summary["root_s"] <= outcome.seconds
    tracer.write(tmp_path / "spans.json")
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["spans"]) == sum(v for k, v in summary.items()
                                      if k.endswith(".calls") and k.count(".") == 1)


def test_sampler_probes_inside_the_op_and_restores_the_handler(tmp_path):
    def busy_main(argv):                                  # stands in for cli.main
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.8:
            sum(range(1000))
        return 0

    previous = signal.getsignal(signal.SIGALRM)
    sampler = Sampler()
    t0 = time.perf_counter()
    outcome = run_op(types.SimpleNamespace(main=busy_main),
                     OpInput([], tmp_path / "none.json"), sampler=sampler)
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 4
    assert sampler.spent >= sum(sampler.samples) > 0
    # the busy loop's 0.8 s hold the samples, which are left out of the op time
    assert outcome.seconds == pytest.approx(0.8 - sampler.spent, abs=0.03)
    assert outcome.seconds + sampler.spent <= wall


@pytest.mark.parametrize("enabled", [True, False])
def test_probe_runs_without_gc_and_restores_its_state(enabled):
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    (gc.enable if enabled else gc.disable)()
    try:
        gc.set_threshold(1)                       # collect on almost every allocation
        del starts[:]
        probe()
        collected = len(starts)
        state = gc.isenabled()
    finally:
        gc.set_threshold(*THRESHOLD)
        gc.enable()
        gc.callbacks.remove(record)
    assert collected == 0
    assert state is enabled


def test_probe_imports_no_polyball():
    code = ("import sys, probe; probe.probe(); "
            "sys.exit(any(m.startswith('polyball') for m in sys.modules))")
    subprocess.run([sys.executable, "-c", code], cwd=run.HERE, check=True, timeout=60)


def test_fails_without_the_program(tmp_path):
    """Where only BENCHMARK.json and perfbench/ exist, exit non-zero, print no result."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json", "perfbench"]
