"""Closed-loop benchmark of polyball's end-to-end paths, with a traced mode.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  One client in one process calls
``polyball.cli.main(argv)`` in a loop, the next op starting when the previous
one has returned.  The fixed probe of ``probe.py`` is timed just before and
just after each op and, every 0.1 s, inside it; the gated time is op time
over the mean of those probe times, in probe units.  Set-up (imports, input
generation and one untimed warm-up op per input) is timed apart, sampled the
same way and scaled to a reference probe speed; the warm-up report is the
reference every timed op must reproduce byte for byte, timestamp aside.

With ``--trace 1`` ops alternate by rounds between traced and untraced; the
traced ones give the per-layer figures, and the ratio of the two gives the
tracing overhead.  Spans are written to ``perfbench/out/`` at the end.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import time

PROCESS_START = time.perf_counter()   # set-up time counts from here

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:          # before numpy is imported, here or by polyball
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import LAYERS, LayerTracer  # noqa: E402
from probe import REFERENCE_PROBE_S, Sampler, probe  # noqa: E402
from workloads import WORKLOADS, check_op, check_reference, run_op  # noqa: E402

END_TO_END = {"setup_s": "s", "op_p50_norm": "probe", "peak_rss_mb": "MB", "pass_ratio": "1"}
LAYER_TIMES = ("words.self_s", "fock.self_s", "toeplitz.self_s", "berezin.self_s",
               "berezin.cauchy_operator.self_s", "berezin.poisson_kernel.self_s",
               "naimark.self_s", "naimark.dilation_verify.self_s",
               "naimark.naimark_dilate.self_s", "naimark.kernel_from_generator.self_s",
               "pluriharm.self_s", "pluriharm.schur_positivity.self_s",
               "pluriharm.from_row_isometries.self_s", "serialize.self_s",
               "verify.self_s", "sampling.self_s", "cli.self_s")
LAYER_COUNTS = {"words.calls": "count", "words.pairs_out": "count",
                "fock.index_map_calls": "count", "fock.dim_max": "count",
                "berezin.cauchy_operator.calls": "count", "berezin.cauchy_dim_max": "count",
                "berezin.cauchy_flops": "flop-computed", "naimark.rank_ratio": "1",
                "serialize.bytes_out": "B"}
PER_LAYER = {**{name: "s" for name in LAYER_TIMES}, **LAYER_COUNTS,
             "bench.probe_s": "s", "bench.trace_overhead": "1"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_polyball():
    """Import polyball from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polyball" / "__init__.py").is_file():
        raise BenchError(f"no polyball sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    from polyball import cli
    if Path(cli.__file__).resolve().parent != src / "polyball":
        raise BenchError(f"polyball imported from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git": commit,
    }


def per_input_p50(samples: list[tuple[int, float]]) -> float:
    """Mean over inputs of each input's median, so that an uneven number of
    ops per input cannot shift the figure."""
    by_input: dict[int, list[float]] = {}
    for i, value in samples:
        by_input.setdefault(i, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def measure(cli, inputs, refs, seconds: float, tracer: LayerTracer | None):
    """The timed closed loop.  Returns one record per op; none is dropped."""
    rounds_min = 2 if tracer is not None else 1
    ops: list[dict] = []
    start = time.perf_counter()
    predicted = max(ref.seconds for ref, _ in refs)
    traced_probe = tracer.wrap("bench.probe", probe) if tracer is not None else None
    k = 0
    while True:
        rnd, i = divmod(k, len(inputs))
        if rnd >= rounds_min and time.perf_counter() - start + predicted / 2 > seconds:
            break
        traced = tracer is not None and rnd % 2 == 0
        gc.collect()
        before = probe()
        sampler = Sampler(traced_probe if traced else probe)
        if traced:
            tracer.op = k
            tracer.install()
        try:
            outcome = run_op(cli, inputs[i], sampler=sampler)
        finally:
            if traced:
                tracer.uninstall()
        after = probe()
        ref, ref_error = refs[i]
        error = check_op(outcome, ref, ref_error)
        if error:
            print(f"op {k} on input {i} failed: {error}", file=sys.stderr)
        probes = [before, *sampler.samples, after]
        ops.append({"k": k, "input": i, "traced": traced, "seconds": outcome.seconds,
                    "probes": probes, "norm": outcome.seconds / statistics.fmean(probes),
                    "error": error, "bytes_out": outcome.bytes_out})
        predicted = statistics.median(o["seconds"] for o in ops)
        k += 1
    return ops


def norm_p50(ops: list[dict]) -> float:
    """Op time in probe units: per op, seconds over the mean of the probes
    sampled during it and just before and after it; then ``per_input_p50``."""
    return per_input_p50([(o["input"], o["norm"]) for o in ops])


def layer_metrics(tracer: LayerTracer, ops: list[dict]) -> dict[str, float]:
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]
    rows = []
    for o in traced:
        summary = tracer.op_summary(o["k"])
        dims = tracer.cauchy_dims.get(o["k"], [])
        row = {name: summary.get(name, 0.0) for name in LAYER_TIMES}
        row.update({
            "words.calls": summary.get("words.calls", 0),
            "words.pairs_out": tracer.pairs_out.get(o["k"], 0),
            "fock.index_map_calls": summary.get("fock.index_map_calls", 0),
            "fock.dim_max": tracer.dim_max.get(o["k"], 0),
            "berezin.cauchy_operator.calls": len(dims),
            "berezin.cauchy_dim_max": max((n for n, _ in dims), default=0),
            # dense complex LU (8/3 N^3), LU solve against N columns (8 N^3)
            # per factor, then the final N x N product (8 N^3); real flops
            "berezin.cauchy_flops": sum(f * (8 / 3 + 8) * n**3 + 8 * n**3 for n, f in dims),
            "naimark.rank_ratio": tracer.rank_ratio.get(o["k"], 0.0),
            "serialize.bytes_out": o["bytes_out"],
            "root_s": summary.get("root_s", 0.0),
            "bench.self_s": summary.get("bench.self_s", 0.0),
        })
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows) for name in PER_LAYER
           if not name.startswith("bench.")}
    out["bench.probe_s"] = statistics.median(p for o in ops for p in o["probes"])
    out["bench.trace_overhead"] = norm_p50(traced) / norm_p50(untraced)
    # Self times add up to the outermost spans, which also hold the probe
    # samples (layer ``bench``); print the check beside them.
    print("# traced op seconds (median): "
          f"{statistics.median(o['seconds'] for o in traced):.6f}; sum of layer self "
          f"seconds: {statistics.median(sum(r[f'{x}.self_s'] for x in LAYERS) for r in rows):.6f}; "
          f"outermost spans less probe samples: "
          f"{statistics.median(r['root_s'] - r['bench.self_s'] for r in rows):.6f}")
    return out


def run(workload, seed: int, seconds: float, trace: bool, t_start: float | None = None) -> dict:
    """One run of a workload (an entry of ``WORKLOADS``); returns the result.

    Set-up counts from ``t_start`` (default: now) to the end of the warm-ups.
    """
    t_start = time.perf_counter() if t_start is None else t_start
    workdir = HERE / "out" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        with Sampler() as setup_sampler:
            cli = import_polyball()
            workdir.mkdir(parents=True, exist_ok=True)
            inputs = workload.inputs(seed, workdir)
            refs = []
            for inp in inputs:
                ref = run_op(cli, inp, parse=True)
                refs.append((ref, check_reference(workload.check, ref)))
        setup_raw_s = time.perf_counter() - t_start - setup_sampler.spent
        setup_probes = [*setup_sampler.samples, probe()]
        setup_s = setup_raw_s * REFERENCE_PROBE_S / statistics.fmean(setup_probes)
        for i, (_, err) in enumerate(refs):
            if err:
                print(f"warm-up on input {i} failed: {err}", file=sys.stderr)
        tracer = LayerTracer() if trace else None
        ops = measure(cli, inputs, refs, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in ops if o["error"])
    attempted = len(ops)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    probes = [p for o in ops for p in o["probes"]]
    diag = {
        "ops": attempted,
        "inputs": len(inputs),
        "op_p50_s": per_input_p50([(o["input"], o["seconds"]) for o in ops]),
        "probe_p50_s": statistics.median(probes),
        "setup_raw_s": setup_raw_s,
        "setup_probe_mean_s": statistics.fmean(setup_probes),
        "fail_ratio": failed / attempted,
    }
    print("# diagnostics " + json.dumps(diag, sort_keys=True))
    record = HERE / "out" / f"ops-{workload.name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"env": env, "setup_s": setup_s, "diagnostics": diag,
                                  "ops": ops}))
    if trace:
        metrics = layer_metrics(tracer, ops)
        units = PER_LAYER
        spans = HERE / "out" / f"trace-{workload.name}-seed{seed}.json"
        tracer.write(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "op_p50_norm": norm_p50(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{workload.name:>12}  {name:<38} {value:>16.6g} {units[name]}")
    print(f"{workload.name:>12}  {'fail_ratio':<38} {diag['fail_ratio']:>16.6g} 1"
          f"  ({failed} of {attempted} ops)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; prints their metric lines and
    then one JSON object whose metric names are prefixed by the workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     t_start=PROCESS_START)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
