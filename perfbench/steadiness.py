"""Run-to-run spread of the end-to-end metrics, and of raw op seconds.

    python3 perfbench/steadiness.py --workload verify-small --seeds 1-10 --seconds 40

Runs ``run.py`` once per seed, one run at a time, and prints for each metric
the median and the distance between the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.
The raw ``op_p50_s`` and the probe's own median are shown beside the gated
metrics, to show what normalizing by the probe removes.  All figures go to
``perfbench/out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = next(json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# diagnostics "))
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update({name: diag[name] for name in ("op_p50_s", "probe_p50_s", "setup_raw_s", "ops")},
               correct=result["correct"])
    return row


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    rows = []
    for seed in args.seeds:
        row = one_run(args.workload, seed, args.seconds)
        rows.append(row)
        print(json.dumps({"seed": seed, **row}), flush=True)
    summary = {}
    for name in rows[0]:
        if name == "correct":
            continue
        med, iqr = spread([r[name] for r in rows])
        summary[name] = {"median": med, "iqr_share": iqr}
        print(f"{args.workload:>12}  {name:<14} median {med:>12.6g}  iqr/median {iqr:.4f}")
    out = HERE / "out" / f"steadiness-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "runs": rows, "summary": summary},
                              indent=1))
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
