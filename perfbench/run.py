"""Benchmark for the fiva command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bench_e2e --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every command of the workload runs as ``python -m
fiva.cli`` in a fresh child process, one after another, for ``--seconds``
seconds; the end-to-end metrics are medians over those passes.  With
``--trace 1`` the same commands (set-up ones included) run in this process
through ``fiva.cli.main``, alternating an untraced pass with a pass under
:class:`tracer.Tracer`, and the per-layer metrics are medians over the
traced passes.  Every command's outputs are checked either way.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and the per-pass samples.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from formats import CheckFailed, fresh
from tracer import UNITS as PER_LAYER_UNITS
from tracer import Tracer
from workloads import WORKLOADS, Cmd, Step, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUPS = 5
COMMAND_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "pass_ratio": "ratio",
}


@dataclass
class Outcome:
    code: int
    wall: float
    cpu: float = 0.0
    rss_mib: float = 0.0


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    command_walls: dict[str, float] = field(default_factory=dict)


class ChildRunner:
    """Runs each command as ``python -m fiva.cli`` in a fresh interpreter,
    started by ``launcher.py`` so that its peak RSS is its own."""

    def __init__(self, work: Path) -> None:
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, cmd: Cmd) -> Outcome:
        request = {"argv": [sys.executable, "-m", "fiva.cli", *cmd.argv], "cwd": str(self.work),
                   "stdout": str(cmd.stdout or os.devnull),
                   "stderr": str(fresh(self.work / "stderr.txt")), "timeout": COMMAND_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the launcher exited")
        reply = json.loads(reply)
        return Outcome(reply["code"], reply["wall"], reply["cpu"], reply["maxrss_kib"] / 1024)

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()


class InProcessRunner:
    """Runs each command through ``fiva.cli.main`` in this process."""

    def __init__(self, work: Path) -> None:
        self.work = work
        sys.path.insert(0, str(SRC))
        import fiva.cli

        self.cli = fiva.cli

    def __call__(self, cmd: Cmd) -> Outcome:
        stdout = cmd.stdout or os.devnull
        with open(stdout, "w", encoding="utf-8") as out, \
                open(fresh(self.work / "stderr.txt"), "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                # Looked up per call so the tracer's rebinding of main applies.
                code = self.cli.main(cmd.argv)
            except Exception:
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
        return Outcome(code, wall)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_pass(steps: list[Step], runner, work: Path) -> PassResult:
    """Run the steps in order; after the first failure, count the remaining
    commands as attempted and failed without running them."""
    result = PassResult()
    broken = False
    for step in steps:
        if not isinstance(step, Cmd):
            if not broken:
                try:
                    step()
                except Exception as exc:
                    log(f"glue {step.__name__} failed: {exc!r}")
                    broken = True
            continue
        result.attempted += 1
        if broken:
            result.failed += 1
            continue
        for path in (*step.outputs, step.stdout):
            if path is not None:
                fresh(Path(path))
        outcome = runner(step)
        result.wall += outcome.wall
        result.command_walls[step.name] = outcome.wall
        result.cpu += outcome.cpu
        result.rss_mib = max(result.rss_mib, outcome.rss_mib)
        problem = f"exit code {outcome.code}" if outcome.code != 0 else None
        if problem is None:
            try:
                step.check()
            except CheckFailed as exc:
                problem = f"check failed: {exc}"
            except Exception as exc:  # a malformed output counts as a failed check
                problem = f"check failed: {exc!r}"
        if problem is not None:
            result.failed += 1
            broken = True
            stderr = (work / "stderr.txt").read_text(errors="replace")[-2000:]
            log(f"{step.name}: {problem}\n{stderr}")
    return result


def setup(workload: Workload, runner: ChildRunner) -> float:
    start = time.perf_counter()
    workload.write_inputs()
    result = run_pass(workload.setup_commands(), runner, workload.work)
    elapsed = time.perf_counter() - start
    if result.failed:
        raise SystemExit(f"perfbench: set-up of {workload.name} failed")
    return elapsed


def repeat(seconds: float, once) -> list:
    """Call ``once`` until ``seconds`` have passed, at least once."""
    results, start = [], time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(once())
    return results


def end_to_end(workload: Workload, runner: ChildRunner, seconds: float, setups: list[float]):
    passes = repeat(seconds, lambda: run_pass(workload.steps(), runner, workload.work))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    samples = {
        "wall_s": [p.wall for p in passes],
        "rows_per_s": [workload.rows / p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "peak_rss_mb": [p.rss_mib for p in passes],
        "setup_s": setups,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    samples["command_wall_s"] = {name: [p.command_walls.get(name) for p in passes]
                                 for name in passes[0].command_walls}
    metrics["pass_ratio"] = (attempted - failed) / attempted
    return metrics, samples, attempted, failed


def per_layer(workload: Workload, seconds: float):
    runner = InProcessRunner(workload.work)
    steps = workload.setup_commands() + workload.steps()
    plain, traced, layers = [], [], []

    def untraced() -> None:
        plain.append(run_pass(steps, runner, workload.work))
        gc.collect()

    def once() -> None:
        # Alternate which pass goes first, so neither always runs colder.
        if len(plain) % 2 == 0:
            untraced()
        with Tracer() as tracer:
            traced.append(run_pass(steps, runner, workload.work))
        layers.append(tracer.layer_metrics())
        gc.collect()
        if len(plain) < len(traced):
            untraced()

    repeat(seconds, once)
    passes = plain + traced
    samples = {name: [m[name] for m in layers] for name in layers[0]}
    samples["trace.wall_s"] = [p.wall for p in traced]
    samples["untraced_wall_s"] = [p.wall for p in plain]
    metrics = {name: statistics.median(samples[name]) for name in PER_LAYER_UNITS if name in samples}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(samples["untraced_wall_s"])
    return metrics, samples, sum(p.attempted for p in passes), sum(p.failed for p in passes)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "fiva" / "cli.py").is_file():
        log(f"perfbench: no fiva sources under {SRC}")
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    threads = min(2, os.cpu_count() or 1)
    workload = WORKLOADS[args.workload](args.seed, work, threads)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    children = ChildRunner(work)
    try:
        # The traced pass replays the set-up commands itself; it needs one set-up.
        setups = [setup(workload, children) for _ in range(1 if args.trace else SETUPS)]
        if args.trace:
            metrics, samples, attempted, failed = per_layer(workload, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, samples, attempted, failed = end_to_end(workload, children, args.seconds, setups)
            units = END_TO_END_UNITS
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no other run is using it
    env["loadavg_after"] = os.getloadavg()
    env.update(workload=args.workload, seed=args.seed, trace=args.trace, threads=threads)
    print("env " + json.dumps(env))
    print("samples " + json.dumps(samples))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
