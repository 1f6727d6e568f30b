#!/usr/bin/env python3
"""Run the README demo commands and keep everything they print and write.

Each command runs in a fresh interpreter (``python -m fusionkit.cli``) on
the README demo scenario, in its own directory under ``--out``:
``DIR/<name>/`` receives ``stdout``, ``stderr``, ``exit_code`` and any file
the command writes. The scenario is written to ``DIR/demo.json`` and
passed by a relative path, so nothing in a report depends on where
``DIR`` is. Reports are deterministic given (scenario, flags, seed), so
two checkouts agree iff ``diff -r`` of their output directories is empty:

    PYTHONPATH=src python3 scripts/demo_reports.py --out reports
    PYTHONPATH=/path/to/other/src python3 scripts/demo_reports.py --out reports-other
    diff -r reports reports-other

The commands run the ``fusionkit`` this script imports. Prints one line
per command (name and exit code) to stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import fusionkit

# The README demo scenario, verbatim.
DEMO = {
    "id": "demo",
    "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": [[1.0, 0.2], [0.2, 1.0]]}},
    "modalities": [
        {"name": "ecg", "A": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
         "noise_cov": [[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.6]]},
        {"name": "ppg", "A": [[0.8, 0.3], [0.2, 0.9]],
         "noise_cov": [[0.7, 0.2], [0.2, 0.8]]},
    ],
    "cross_cov": {"pair": [0, 1], "matrix": [[0.1, 0.0], [0.05, 0.1], [0.0, 0.05]]},
}

# name -> (command, arguments after the scenario path)
COMMANDS = {
    "analyze-ecg": ("analyze", ["--modality", "ecg"]),
    "analyze-ppg": ("analyze", ["--modality", "ppg"]),
    "analyze-joint": ("analyze", ["--joint", "ecg,ppg"]),
    "advise": ("advise", ["--pair", "ecg,ppg"]),
    "place-ecg-2.0": ("place", ["--primary", "ecg", "--budget", "2.0"]),
    "place-ecg-0.001": ("place", ["--primary", "ecg", "--budget", "0.001"]),
    "place-ppg-5.0": ("place", ["--primary", "ppg", "--budget", "5.0"]),
    "simulate-ml": ("simulate", ["--method", "ml", "--N", "20000", "--seed", "3",
                                 "--out", "campaign"]),
    "simulate-mmse": ("simulate", ["--method", "mmse", "--N", "20000", "--seed", "3"]),
    "simulate-wls": ("simulate", ["--method", "wls"]),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="Output directory (created if missing)")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "demo.json").write_text(json.dumps(DEMO, indent=2) + "\n")
    # the children run in their own directories, so hand them this
    # script's fusionkit by an absolute path
    src = str(Path(fusionkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for name, (command, flags) in COMMANDS.items():
        cwd = out / name
        cwd.mkdir(exist_ok=True)
        done = subprocess.run([sys.executable, "-m", "fusionkit.cli", command, "../demo.json",
                               *flags], cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=600)
        (cwd / "stdout").write_text(done.stdout)
        (cwd / "stderr").write_text(done.stderr)
        (cwd / "exit_code").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
