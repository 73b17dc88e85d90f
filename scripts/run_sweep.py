"""Sweep the coupling constant and print the scaling-root table.

Each row reports the unique positive root of the fibering map for the
fixed reference shape, together with the energy levels and the
compactness thresholds at that coupling.  The full CSV lands in
results/sweep/sweep.csv, a path relative to the working directory (the
`out-dir` of sweep.cfg).
"""

import pathlib
import sys

from plap.cli import main

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(main(["sweep", "--config", str(HERE / "sweep.cfg")]))
