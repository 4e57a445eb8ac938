"""Benchmark of the highgirth CLI pipelines, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lll-g8 --seed 1 --seconds 25 --trace 0

One closed-loop client runs the workload's tasks back to back through
``highgirth.cli.main`` in this process, with stdout sent to a counting
null sink and ``--out`` files in a scratch directory inside the checkout.
A round is the workload's fixed list of tasks; rounds repeat until the
next one would end after ``--seconds``, and at least one always runs.
Every output is checked afterwards, untimed.

``--trace 0`` prints the end-to-end metrics: per-round totals of the
command times, each command's time scaled to the reference machine speed
by ``calibration`` with the speed samples taken while it ran, and their
median over rounds.  ``--trace 1`` runs one round untraced and the same
round again with every layer wrapped in a span, and prints the per-layer
metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import spans
from workloads import WORKLOADS, TaskRun, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
#: CLI commands whose per-round totals the traced run reports, untraced.
COMMANDS = ("events", "lll-check", "search", "certify")

# Import plus the first base-graph build in a fresh interpreter, with the
# machine speed sampled meanwhile.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import calibration
with calibration.SpeedSampler() as sampler:
    t0 = time.perf_counter()
    import highgirth.cli
    highgirth.cli.build_base_graph(int(sys.argv[3]))
    setup = time.perf_counter() - t0
print(setup, calibration.speed(sampler.samples))
"""


class CountingSink(io.TextIOBase):
    """A null stdout that counts what the CLI writes to it."""

    def __init__(self):
        self.count = 0

    def writable(self):
        return True

    def write(self, text):
        self.count += len(text)
        return len(text)


class InProcessCli:
    """Runs ``highgirth.cli.main`` as a user would type the command.

    Before each command the heap is collected and frozen, so each command
    starts from the state of a fresh process instead of paying for the
    garbage and the live objects the previous commands left behind.
    """

    def __init__(self, cli_module):
        self.cli = cli_module
        self.bytes_out = 0
        self.sampler = calibration.SpeedSampler()

    def __call__(self, argv: list) -> tuple[int, float]:
        """Exit code and wall seconds of one command, read at the reference
        speed by the machine speed sampled while it ran."""
        gc.collect()
        gc.freeze()
        sink = CountingSink()
        err = io.StringIO()
        first_sample = len(self.sampler.samples)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err), self.sampler:
            start = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - start
        seconds = calibration.scale(seconds, calibration.speed(self.sampler.samples[first_sample:]))
        self.bytes_out += sink.count
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            if out.exists():
                self.bytes_out += out.stat().st_size
        if rc == 1:
            print(f"{argv[0]} exited 1: {err.getvalue().strip()}", file=sys.stderr)
        return rc, seconds


def measure_setup(n: int) -> float:
    """Median over fresh interpreters of import plus the first build,
    calibrated."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), str(n)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, speed = map(float, proc.stdout.split()[-2:])
        times.append(calibration.scale(setup, speed))
    return statistics.median(times)


def run_round(workload: Workload, tasks: list[dict], first: int, cli, tmp: Path,
              tracer: spans.Tracer | None = None) -> tuple[float, list[TaskRun]]:
    runs = []
    start = time.perf_counter()
    for offset, args in enumerate(tasks):
        task = first + offset
        if tracer is not None:
            tracer.task = task
        try:
            runs.append(workload.run(task, args, cli, tmp))
        except Exception as exc:  # a crash is a failed task, not a failed benchmark
            print(f"task {task} {args} raised {exc!r}", file=sys.stderr)
            runs.append(TaskRun(task, args, codes=["raised"]))
    return time.perf_counter() - start, runs


def check_runs(workload: Workload, runs: list[TaskRun], seed: int) -> int:
    failed = 0
    for run in runs:
        try:
            problems = workload.check(run, seed)
        except Exception as exc:  # malformed output must fail the task, not the run
            problems = [f"check raised {exc!r}"]
        if problems:
            failed += 1
            run.ok = False
            for problem in problems[:5]:
                print(f"task {run.task} {run.args}: {problem}", file=sys.stderr)
    return failed


def end_to_end(workload, seed, seconds, cli, tmp):
    setup_s = measure_setup(workload.n)
    rng = random.Random(f"{workload.name}:{seed}")
    walls, totals, runs = [], [], []
    start = time.perf_counter()
    while True:
        wall, round_runs = run_round(workload, workload.make_round(rng), len(runs), cli, tmp)
        walls.append(wall)
        totals.append(sum(sum(r.times.values()) for r in round_runs))
        runs += round_runs
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check_runs(workload, runs, seed)

    speed = calibration.speed(cli.sampler.samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(totals), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (sum(r.ok for r in runs) / len(runs), "ratio"),
    }
    print(f"# {workload.name} seed {seed}: {len(walls)} round(s) of {len(runs) // len(walls)} task(s), "
          f"{statistics.median(walls):.3f} s uncalibrated wall time per round, "
          f"calibration factor {calibration.REFERENCE_S / speed:.4f}")
    return runs, failed, metrics


def traced(workload, seed, cli, tmp):
    tasks = workload.make_round(random.Random(f"{workload.name}:{seed}"))
    untraced_wall, runs = run_round(workload, tasks, 0, cli, tmp)
    speed = calibration.speed(cli.sampler.samples)
    cli.bytes_out = 0
    first_traced_sample = len(cli.sampler.samples)
    tracer = spans.Tracer()
    with tracer.install():
        traced_wall, traced_runs = run_round(workload, tasks, len(runs), cli, tmp, tracer)
    traced_speed = calibration.speed(cli.sampler.samples[first_traced_sample:])
    layer = {
        f"{command.replace('-', '_')}_s": sum(r.times.get(command, 0.0) for r in runs)
        for command in COMMANDS
    }
    runs += traced_runs
    failed = check_runs(workload, runs, seed)
    layer.update(
        (name, calibration.scale(value, traced_speed) if name.endswith(".self_s") else value)
        for name, value in spans.layer_metrics(tracer).items()
    )
    layer["cli.bytes_out"] = cli.bytes_out
    layer["trace.overhead_frac"] = spans.overhead_frac(
        calibration.scale(traced_wall, traced_speed), calibration.scale(untraced_wall, speed))
    metrics = {name: (value, per_layer_unit(name)) for name, value in layer.items()}
    print(f"# {workload.name} seed {seed}: one round of {len(tasks)} task(s), "
          f"untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s")
    return runs, failed, metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "highgirth" / "__init__.py").is_file():
        print(f"error: no highgirth sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import highgirth.cli

    workload = WORKLOADS[args.workload]
    cli = InProcessCli(highgirth.cli)
    tmp = ROOT / ".bench_tmp" / f"{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runs, failed, metrics = traced(workload, args.seed, cli, tmp)
        else:
            runs, failed, metrics = end_to_end(workload, args.seed, args.seconds, cli, tmp)
    finally:
        gc.unfreeze()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only if no other run is using it
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
