"""meyers-lab command line: run experiments, mesh polygons, re-check reports.

Exit codes: 0 all verdicts pass, 2 some verdict failed, 1 execution error.
"""
from __future__ import annotations

import argparse
import sys

from . import experiments, mesh


def _epilog() -> str:
    """Experiments, defaults and row-file headers, from the experiment records."""
    lines = ["experiments, their defaults and row files (name: CSV header)"]
    for exp in experiments.REGISTRY.values():
        lines.append(f"  {exp.name}")
        lines.append("    defaults: " + "; ".join(f"{k} = {v}" for k, v in exp.defaults.items()))
        lines += [f"    {name}: {header}" for name, header in exp.files]
    lines += [
        f"every run also writes <experiment>_summary.csv: {experiments.SUMMARY_HEADER}",
        "",
        "config files are flat `key = value` lines; `#` starts a comment. Every",
        "experiment ships defaults matching the acceptance setups; summaries are",
        "recomputable from the row CSVs via `meyers-lab report`.",
    ]
    return "\n".join(lines) + "\n"


def _print_verdicts(verdicts) -> bool:
    width = max(len(str(v["check"])) for v in verdicts)
    for v in verdicts:
        val = v["value"]
        val_s = f"{val:.6g}" if isinstance(val, float) else str(val)
        print(f"{str(v['check']).ljust(width)}  {val_s:>12}  ({v['threshold']})  "
              f"{str(v['verdict']).upper()}")
    return all(v["verdict"] == "pass" for v in verdicts)


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = experiments.parse_config(fh.read())
    if args.out:
        cfg.out = args.out
    summary = experiments.run(cfg)
    print(f"experiment: {summary.experiment}")
    for p in summary.csv_paths:
        print(f"wrote {p}")
    ok = _print_verdicts(summary.verdicts)
    return 0 if ok else 2


def _cmd_mesh(args) -> int:
    pts = []
    with open(args.polygon) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                x, y = line.split()
                pts.append((float(x), float(y)))
    tri = mesh.triangulate(mesh.Polygon(pts), args.h)
    text = tri.export_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({tri.n_vertices} vertices, "
              f"{tri.n_triangles} triangles, h={tri.h:.6g}, sigma={tri.sigma:.6g})")
    else:
        sys.stdout.write(text)
    if args.graph:
        from .graph import from_triangulation

        with open(args.graph, "w") as fh:
            fh.write(from_triangulation(tri).export_text())
        print(f"wrote {args.graph} (weighted-graph export)")
    return 0


def _cmd_report(args) -> int:
    verdicts = experiments.recompute_verdicts(args.csv)
    if not verdicts:
        print("no recognizable rows files", file=sys.stderr)
        return 1
    ok = _print_verdicts(verdicts)
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meyers-lab",
        description="Uniform W^{1,p} bounds of P1 Galerkin schemes and "
                    "elliptic operators on weighted graphs: experiment harness.",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_mesh = sub.add_parser("mesh", help="triangulate a polygon file")
    p_mesh.add_argument("polygon", help="text file with one 'x y' vertex per line")
    p_mesh.add_argument("--h", type=float, required=True, help="target mesh size")
    p_mesh.add_argument("--out", help="output file (default: stdout)")
    p_mesh.add_argument("--graph", help="also write the induced weighted-graph export")
    p_mesh.set_defaults(func=_cmd_mesh)

    p_rep = sub.add_parser("report", help="recompute verdicts from row CSVs")
    p_rep.add_argument("csv", nargs="+", help="row CSV files from `run`")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
