"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition pays
interpreter start, ``import meyers_lab`` and config parsing the way a user's
``meyers-lab run`` does. The script writes ``result.json`` into ``--out``:

- ``setup_s``: from ``--spawned-at`` (the parent's monotonic clock just
  before the process was started) to the first experiment call;
- ``wall_s``, ``cpu_s``: wall and user+system CPU time from configs parsed
  to rows, summary CSVs and verdicts written;
- ``peak_rss_mib``: the peak resident set of this process;
- per experiment, the CSV paths and the verdict vector, or the error;
- with ``--mode trace``, the per-layer metrics of ``tracer.Tracer``.

``--mode setup`` stops after the set-up and records ``setup_s`` only.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import gate
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from meyers_lab import experiments

    out = Path(args.out)
    configs = [experiments.parse_config(
        workloads.config_text(exp, overrides, args.seed, str(out / exp)))
        for exp, overrides in workloads.WORKLOADS[args.workload]]
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        result.update(_run(experiments, configs, args.mode == "trace"))
    (out / "result.json").write_text(json.dumps(result))
    return 0


def _run(experiments, configs, trace: bool) -> dict:
    runs = []
    trace_ctx = tracer.Tracer() if trace else contextlib.nullcontext()
    with trace_ctx as active:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for cfg in configs:
            try:
                summary = experiments.run(cfg)
            except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
                runs.append({"experiment": cfg.experiment, "error": repr(exc)})
                continue
            runs.append({"experiment": cfg.experiment,
                         "csv_paths": summary.csv_paths,
                         "verdicts": gate.verdict_vector(summary.verdicts)})
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mib": peak_kib / 1024.0,
              "runs": runs,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if trace:
        result["layers"] = active.layer_metrics()
    return result


if __name__ == "__main__":
    sys.exit(main())
