"""Regenerate the stored reference output of every benchmark experiment.

Run from the repository root, on the commit whose output is the reference:

    python3 perfbench/make_reference.py [experiment ...]

Each experiment runs at every seed in ``range(REFERENCE_SEEDS)`` with the
workload's config; seeds that give identical rows and verdicts share one
stored output in ``perfbench/reference/<experiment>.json``.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _dump(experiment: str, outputs: list) -> str:
    """JSON with one CSV row per line, so reference diffs stay readable."""
    parts = []
    for out in outputs:
        files = ",\n".join(
            f"    {json.dumps(name)}: [\n"
            + ",\n".join(f"     {json.dumps(row)}" for row in rows) + "\n    ]"
            for name, rows in sorted(out["files"].items()))
        parts.append(f'  {{"seeds": {json.dumps(out["seeds"])},\n'
                     f'   "verdicts": {json.dumps(out["verdicts"])},\n'
                     f'   "files": {{\n{files}\n   }}}}')
    return (f'{{"experiment": {json.dumps(experiment)},\n "outputs": [\n'
            + ",\n".join(parts) + "\n ]}\n")


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from meyers_lab import experiments

    specs = [spec for steps in workloads.WORKLOADS.values() for spec in steps]
    if argv:
        specs = [spec for spec in specs if spec[0] in argv]
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench_out"))
    try:
        for exp, overrides in specs:
            outputs = []
            for seed in range(workloads.REFERENCE_SEEDS):
                text = workloads.config_text(exp, overrides, seed, str(tmp / f"{exp}-{seed}"))
                summary = experiments.run(experiments.parse_config(text))
                record = {"files": gate.row_files(summary.csv_paths),
                          "verdicts": gate.verdict_vector(summary.verdicts)}
                same = [o for o in outputs
                        if (o["files"], o["verdicts"]) == (record["files"], record["verdicts"])]
                if same:
                    same[0]["seeds"].append(seed)
                else:
                    outputs.append({"seeds": [seed], **record})
            path = gate.REFERENCE_DIR / f"{exp}.json"
            path.write_text(_dump(exp, outputs))
            print(f"{path.relative_to(ROOT)}: {len(outputs)} distinct output(s)", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
