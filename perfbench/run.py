"""meyers-lab benchmark: time to a correct verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads are closed-loop: one caller runs one
experiment at a time in a single process, and every repetition is a fresh
process (``worker.py``), so it pays interpreter start and imports as a user
does. Repetitions continue while the next one is expected to end within
``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics: medians over the repetitions of
``wall_s``, ``cpu_s`` and ``peak_rss_mib``, and the median of at least
``SETUP_SAMPLES`` set-up times. ``--trace 1`` runs the workload once
untraced and once under ``tracer.Tracer`` and prints the per-layer metrics.
Every experiment run is checked by ``gate.check_run`` against the stored
reference output; ``failed`` counts the runs that do not match.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".perfbench_out"
# one BLAS thread: no more than nproc, and steadier on a shared machine
BLAS_THREADS = 1
SETUP_SAMPLES = 11
# the whole run, set-up and checks included, must end within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB")]


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


class Session:
    """Starts worker processes into one scratch directory and checks them."""

    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.versions: dict = {}
        exp_seed = workloads.experiment_seed(seed)
        self.references = {exp: gate.reference_for(exp, exp_seed)
                           for exp, _ in workloads.WORKLOADS[workload]}

    def spawn(self, mode: str) -> dict:
        """Run one worker process to completion and return its result."""
        self.count += 1
        out = self.scratch / f"{self.count:03d}-{mode}"
        out.mkdir(parents=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next repetition")
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out), "--mode", mode]
        started = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT,
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        elapsed = time.monotonic() - started
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((out / "result.json").read_text())
        result["process_s"] = elapsed
        if mode != "setup":
            self._check(result)
        shutil.rmtree(out)
        return result

    def _check(self, result: dict) -> None:
        self.versions = result["versions"]
        for run in result["runs"]:
            self.attempted += 1
            exp = run["experiment"]
            if "error" in run:
                problems = [f"raised {run['error']}"]
            else:
                problems = gate.check_run(self.references[exp],
                                          gate.row_files(run["csv_paths"]),
                                          run["verdicts"])
            self.problems += [f"{exp}: {p}" for p in problems]
            self.failed += bool(problems)


def _spread(values: list[float]) -> str:
    med = statistics.median(values)
    return (f"median {med:.6g}  min {min(values):.6g}  max {max(values):.6g}  "
            f"n={len(values)}")


def measure(session: Session, seconds: float) -> dict:
    """Repetitions for ``seconds``, with set-up samples taken on both sides of
    them so that a slow spell of the machine does not set their median."""
    session.spawn("setup")  # warm-up: byte-code caches and the file cache
    setups = [session.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(session.spawn("run"))
        typical = statistics.median(r["process_s"] for r in reps)
        if time.monotonic() - start + typical > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(session.spawn("setup")["setup_s"])
    samples = {"wall_s": [r["wall_s"] for r in reps],
               "cpu_s": [r["cpu_s"] for r in reps],
               "setup_s": setups,
               "peak_rss_mib": [r["peak_rss_mib"] for r in reps]}
    for name, unit in END_TO_END:
        print(f"{name:<14} {_spread(samples[name])}  {unit}")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return metrics


def trace(session: Session) -> tuple[dict, list[str]]:
    """One untraced and one traced repetition; per-layer metrics."""
    session.spawn("setup")
    plain = session.spawn("run")
    traced = session.spawn("trace")
    layers = traced["layers"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in tracer.LAYER_METRICS}
    overhead = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    span_total = sum(layers[name] for name in tracer.SPANS)
    problems = []
    # self times partition the root spans; the root spans cover the traced
    # wall time up to the loop between experiments
    if abs(span_total - traced["wall_s"]) > 0.01 * traced["wall_s"]:
        problems.append(f"layer self times sum to {span_total:.4f} s, traced wall "
                        f"time is {traced['wall_s']:.4f} s")
    print(f"untraced wall_s {plain['wall_s']:.4f} s, traced wall_s "
          f"{traced['wall_s']:.4f} s, layer self times sum {span_total:.4f} s")
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>14.6g}  {metric['unit']}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "meyers_lab" / "__init__.py").is_file():
        print(f"error: no meyers_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = SCRATCH / f"run-{os.getpid()}"
    try:
        session = Session(args.workload, args.seed, scratch, deadline)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"(experiment seed {workloads.experiment_seed(args.seed)}) "
              f"seconds={args.seconds:g} trace={args.trace}; closed loop, "
              f"1 caller, fresh process per repetition")
        if args.trace:
            metrics, problems = trace(session)
        else:
            metrics, problems = measure(session, args.seconds), []
    except (BenchError, subprocess.TimeoutExpired, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    failed, attempted = session.failed, session.attempted
    v = session.versions
    print(f"environment: python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
          f"nproc {os.cpu_count()}, BLAS threads {session.env['OPENBLAS_NUM_THREADS']}, "
          f"seed {args.seed}")
    print(f"error_rate     {failed}/{attempted} = {failed / attempted:.4g}  "
          f"(failed experiment runs / attempted)")
    for problem in session.problems + problems:
        print(f"FAIL {problem}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
