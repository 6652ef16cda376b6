"""Run one freecomm benchmark workload and print its metrics as one JSON line.

    python3 fcbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Run from the root of a freecomm checkout: the library is imported from
that checkout's src/, never from an installed copy.  The run sets up
SETUP_REPEATS times, then makes whole passes over the workload's
operations until --seconds have gone by.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps the library's layers, reports
per-layer metrics and writes its spans under .fcbench/.  The exit status
is 0 when every answer passed its check, 1 when one did not, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import CheckFailed
from hostspeed import Clock
from spans import LAYERS, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 15
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".fcbench"
START_PROBE = "import freecomm.cli"
# One set-up in a fresh interpreter: argv is the benchmark's directory, the
# workload, the seed and the work directory.  Prints the seconds spent
# importing freecomm and making the inputs, and the peak resident memory
# (kB) just after the import.  That is read from VmHWM: ru_maxrss of an
# exec'd child starts at the spawning process's own peak.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
import freecomm
imported = time.perf_counter()
with open("/proc/self/status", encoding="ascii") as fh:
    rss_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
made = time.perf_counter()
WORKLOADS[sys.argv[2]].make_inputs(int(sys.argv[3]), sys.argv[4])
print(imported - start + time.perf_counter() - made, rss_kb)
"""

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    {f"{layer}.calls": "count" for layer in LAYERS}
    | {f"{layer}.self_s": "s" for layer in LAYERS}
    | {"stallings.fold.letters_in": "count", "cli.start_s": "s", "traced.pass_s": "s"}
)


@dataclass
class Env:
    """What operations need besides the library: paths, child environments,
    and cli.run when replaying.

    cli_env is child_env plus the childhook directory and the file where a
    command-line call writes its peak resident memory; peak_rss_kb is the
    largest of these.
    """

    root: str
    child_env: dict
    cli_env: dict
    cli: object = None
    peak_rss_kb: int = 0


def _setup_samples(command: list, workdir: Path, env: Env) -> list:
    clock = Clock()
    samples = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        done, _, _, factor = clock.time(
            lambda: subprocess.run(command, cwd=env.root, env=env.child_env, capture_output=True, text=True)
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up process ended with status {done.returncode}:\n{done.stderr}")
        raw, rss_kb = done.stdout.split()
        samples.append((float(raw), float(raw) * factor, int(rss_kb)))
    return samples


def _setup(workload: str, seed: int, workdir: Path, env: Env):
    """Time the import of freecomm plus making the inputs SETUP_REPEATS times,
    each in a fresh interpreter, then do both once here and keep the result.

    A fresh interpreter pays for every module freecomm imports, as a user
    does.  Set-up repeated in one process also left its heap in a state that
    slowed every later library call: on the reference host the iso-chain
    pass took 4.8 s after fifteen set-ups in the process and 2.8 s after one.
    The timing loop runs in a forked child, so that this process has not
    run the reference loop when it forks the operations, and each
    operation process specializes the loop's code itself, as it does the
    library's.  On a busy reference host that cut the pass_s spread over
    ten iso-chain seeds from 7.2 % to 3.5 %.
    Returns freecomm, the inputs, the corrected and raw set-up medians, and
    the median peak resident memory (kB) of an interpreter that has just
    imported freecomm.
    """
    command = [sys.executable, "-c", SETUP_CHILD, str(HERE), workload, str(seed), str(workdir)]
    samples = _in_child(lambda: _setup_samples(command, workdir, env))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    fc = importlib.import_module("freecomm")
    inputs = WORKLOADS[workload].make_inputs(seed, str(workdir))
    return (
        fc,
        inputs,
        statistics.median(corrected for _, corrected, _ in samples),
        statistics.median(raw for raw, _, _ in samples),
        statistics.median_low(rss_kb for _, _, rss_kb in samples),
    )


def _start_probe(clock: Clock, env: Env) -> float:
    """Interpreter start plus the import of freecomm.cli, timed from outside."""
    command = [sys.executable, "-c", START_PROBE]
    _, _, corrected, _ = clock.time(lambda: subprocess.run(command, cwd=env.root, env=env.child_env, check=True))
    return corrected


def _layer_metrics(tracer: Tracer, passes: list) -> dict:
    """Per-pass medians; counts repeat exactly from pass to pass."""
    per_pass = tracer.per_pass(len(passes))
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = statistics.median_low(per_pass["calls"][layer])
        metrics[f"{layer}.self_s"] = statistics.median(per_pass["self_s"][layer])
    metrics["stallings.fold.letters_in"] = statistics.median_low(p["letters_in"] for p in passes)
    metrics["cli.start_s"] = statistics.median(p["start_s"] for p in passes)
    metrics["traced.pass_s"] = statistics.median(p["pass_s"] for p in passes)
    return metrics


def _in_child(fn):
    """Run fn() in a forked child and return what it returns.

    The child starts from the parent's heap as it was after set-up.  A
    process that runs operation after operation slows down by itself: on
    the reference host the lattice workload's largest operation took twice
    as long by its fifth repetition in one process, while forked
    repetitions stayed level.  The result comes back pickled through a
    pipe; only this program writes it.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as fh:
                pickle.dump(fn(), fh)
        except BaseException:
            traceback.print_exc()
            status = 70
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"operation process ended with status {status}")
    return pickle.loads(data)


def _guarded(name: str, fn, result: dict):
    """fn made to note a wrong answer or a failure in result instead of raising it."""

    def run() -> None:
        try:
            fn()
        except CheckFailed as exc:
            result["wrong"] = f"{name}: {exc}"
        except Exception:  # a failed operation is counted, and the pass goes on
            result["failed"] = 1
            result["error"] = traceback.format_exc()

    return run


def _time_op(number: int, op, env: Env, tracer) -> dict:
    """Time one operation between reference loops; spans go to tracer when given.

    An operation that fails or answers wrongly is timed up to that point.
    """
    result = {"raw": 0.0, "corrected": 0.0, "start_s": 0.0, "failed": 0, "wrong": None, "rise_kb": 0}
    clock = Clock()
    run = _guarded(op.name, op.run, result)
    if tracer is not None and op.replay is None:
        _, result["raw"], result["corrected"], factor = clock.time(lambda: tracer.root(number, run))
        tracer.set_factor(factor)
    else:
        _, result["raw"], result["corrected"], _ = clock.time(run)
    if tracer is not None and op.replay is not None and not (result["failed"] or result["wrong"]):

        def replay() -> None:
            _, _, _, factor = clock.time(lambda: tracer.root(number, op.replay))
            tracer.set_factor(factor)
            result["start_s"] = _start_probe(clock, env)

        _guarded(op.name, replay, result)()
    if "error" in result:
        print(f"operation {op.name} failed:\n{result.pop('error')}", file=sys.stderr)
    return result


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))


def _forked_op(number: int, op, env: Env, traced: bool) -> dict:
    """One operation in a forked child; a traced child wraps the layers and sends its spans back.

    rise_kb is how far the child's peak resident memory rose above what it
    held when it started: the operation's own working set, without the
    runner's modules and inputs that the child inherits.
    """
    at_start = _status_kb("VmRSS")
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    result = _time_op(number, op, env, tracer)
    result["rise_kb"] = max(0, _status_kb("VmHWM") - at_start)
    result["spans"] = tracer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freecomm" / "__init__.py").is_file():
        print(f"error: no freecomm sources at {SRC}; run from a freecomm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # Operation processes and command-line calls inherit the pin, so the
        # reference loop runs on the processor that runs the work it corrects.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("FREECOMM_INDEX_CAP", None)  # the workloads are defined at the default cap
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    cli_env = dict(
        child_env,
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE / "childhook")]),
        FCBENCH_PEAK_FILE=str(workdir / "peak_kb"),
    )
    env = Env(str(ROOT), child_env, cli_env)
    try:
        fc, inputs, setup_s, setup_raw, import_rss_kb = _setup(args.workload, args.seed, workdir, env)
        if Path(fc.__file__).resolve().parent != SRC / "freecomm":
            print(f"error: imported freecomm from {fc.__file__}, not {SRC}", file=sys.stderr)
            return 2
        return _measure(args, workload, fc, inputs, (setup_s, setup_raw, import_rss_kb), env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, fc, inputs, setup, env: Env) -> int:
    setup_s, setup_raw, import_rss_kb = setup
    tracer = Tracer() if args.trace else None
    if tracer and not workload.fork_operations:
        tracer.install()
        env.cli = sys.modules["freecomm.cli"]
    passes: list[dict] = []
    started = perf_counter()
    while not passes or perf_counter() - started < args.seconds:
        number = len(passes)
        totals = {
            "pass_s": 0.0, "pass_raw_s": 0.0, "start_s": 0.0, "rise_kb": 0, "attempted": 0, "failed": 0, "wrong": []
        }
        letters_before = tracer.letters_in if tracer else 0
        for op in workload.operations(fc, inputs, env):
            if workload.fork_operations:
                result = _in_child(lambda op=op: _forked_op(number, op, env, tracer is not None))
                if tracer:
                    tracer.absorb(result["spans"])
            else:
                result = _time_op(number, op, env, tracer)
            totals["attempted"] += 1
            totals["failed"] += result["failed"]
            totals["pass_s"] += result["corrected"]
            totals["pass_raw_s"] += result["raw"]
            totals["start_s"] += result["start_s"]
            totals["rise_kb"] = max(totals["rise_kb"], result["rise_kb"])
            if result["wrong"]:
                totals["wrong"].append(result["wrong"])
        totals["letters_in"] = tracer.letters_in - letters_before if tracer else 0
        passes.append(totals)

    wrong = [message for p in passes for message in p["wrong"]]
    for message in wrong[:10]:
        print(f"wrong answer: {message}", file=sys.stderr)
    if tracer:
        OUT.mkdir(exist_ok=True)
        metrics = _layer_metrics(tracer, passes)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}"))
    else:
        if workload.fork_operations:
            # an interpreter that has imported freecomm, plus the largest operation's own rise
            peak_kb = import_rss_kb + max(p["rise_kb"] for p in passes)
        else:
            peak_kb = env.peak_rss_kb
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "peak_rss_mb": peak_kb / 1024,
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "setup_raw_s": setup_raw,
        "pass_raw_s": statistics.median(p["pass_raw_s"] for p in passes),
        "import_rss_mb": import_rss_kb / 1024,
        "peak_rise_mb": max(p["rise_kb"] for p in passes) / 1024,
        "passes_s": [p["pass_s"] for p in passes],
        "metrics": metrics,
    }
    print(json.dumps(detail), file=sys.stderr)
    units = END_TO_END if tracer is None else PER_LAYER
    result = {
        "correct": not wrong,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
