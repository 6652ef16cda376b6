"""Run the benchmark over several seeds and print the README's figures.

    python3 fcbench/figures.py --seeds 1-10
    python3 fcbench/figures.py --seeds 1-3 --trace 1

Runs fcbench/run.py once per workload of BENCHMARK.json and per seed, for
its run_seconds, one process at a time, from the root of the checkout.
For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles with n=4) and their distance as a share of the
median, beside the raw (uncorrected) pass and setup medians and the two
parts of peak_rss_mb.  With --trace 1 it prints the per-layer medians
instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads(done.stderr.strip().splitlines()[-1])
    return result, detail


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, as in 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [_run(workload, seed, BENCHMARK["run_seconds"], args.trace) for seed in _seeds(args.seeds)]
        failed = {(r["failed"], r["attempted"]) for r, _ in runs}
        passes = [d["passes"] for _, d in runs]
        print(f"## {workload}: {len(runs)} runs, passes per run {min(passes)}-{max(passes)}, "
              f"correct {all(r['correct'] for r, _ in runs)}, (failed, attempted) {sorted(failed)}")
        print("  pass_s of each pass, by seed: " + "; ".join(
            f"{d['seed']}: " + " ".join(f"{v:.3f}" for v in d["passes_s"]) for _, d in runs))
        names = list(runs[0][0]["metrics"])
        if not args.trace:
            names += ["pass_raw_s", "setup_raw_s", "import_rss_mb", "peak_rise_mb"]
        for name in names:
            if name in runs[0][0]["metrics"]:
                values = [r["metrics"][name]["value"] for r, _ in runs]
            else:
                values = [d[name] for _, d in runs]
            if len(values) >= 2 and min(values) > 0:
                median, q1, q3, share = _spread(values)
                print(f"  {name:32s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  (q3-q1)/median {share:.3f}")
            else:
                print(f"  {name:32s} median {statistics.median(values):12.6g}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
