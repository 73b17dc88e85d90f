"""Run the reference configuration end to end and print a digest.

Writes u1.csv, u2.csv, u3.csv and triple.json under the config's
out-dir (results/reference, relative to the working directory), then
reruns the built-in checks on the stored fields.  Exits with the
solver's code (0 ok, 1 a check failed, 2 bad configuration).
"""

import json
import pathlib
import sys

from plap.cli import load_config, main

HERE = pathlib.Path(__file__).resolve().parent


def run():
    cfg = HERE / "reference.cfg"
    code = main(["solve", "--config", str(cfg)])
    if code == 2:
        return code
    out = load_config(cfg).out_dir
    payload = json.loads((out / "triple.json").read_text())
    print()
    print(f"threshold  {payload['threshold']:.12g}")
    for name in ("u1", "u2", "u3"):
        rep = payload["reports"][name]
        print(f"{name}  energy {rep['energy']:.12g}  "
              f"iterations {rep['iterations']}  "
              f"projected_norm {rep['projected_norm']:.3e}")
    code = max(code, main([
        "verify", "--config", str(cfg),
        str(out / "u1.csv"), str(out / "u2.csv"), str(out / "u3.csv"),
    ]))
    return code


if __name__ == "__main__":
    sys.exit(run())
