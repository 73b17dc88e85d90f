"""Run one descent of a constraint set per seed and summarize the counts.

    python scripts/seed_scan.py --config scripts/square16.cfg --k K3 --seeds 0-159
    python scripts/seed_scan.py --config scripts/square16.cfg --k K3 --random 200

Each seed makes the start (`initial_shape`), the seeded shape a `plap
solve` of the config at that seed would use; the mesh and its Laplace
solve are built once for all seeds.  One line per seed gives the
iterations, whether the descent converged, its energy and its error,
and the last lines give the min/median/max of the iterations and the
seeds whose descent did not converge.  `--seeds` takes a comma list of
seeds and inclusive ranges ("0-4,42"); `--random N` adds N seeds drawn
as `default_rng(2026).integers(1000, 2**31, N)`.  Exits 0 when every
descent converged, 1 when one did not, 2 on a bad config or seed list.
"""

import argparse
import statistics
import sys

import numpy as np

from plap.cli import load_config
from plap.errors import ConfigurationError
from plap.mesh import LaplacePreconditioner, build_mesh
from plap.nehari import KIndex
from plap.optimizer import descend, initial_shape

RANDOM_RNG = 2026           # generator seed of the --random draws
RANDOM_RANGE = (1000, 2**31)


def parse_seeds(spec: str) -> list[int]:
    """Seeds of a list like "0-4,42": inclusive ranges and single seeds."""
    seeds = []
    for item in filter(None, (part.strip() for part in spec.split(","))):
        lo, sep, hi = item.partition("-")
        try:
            first, last = int(lo), int(hi if sep else lo)
        except ValueError:
            raise ConfigurationError(f"bad seed item {item!r}") from None
        if first < 0 or last < first:
            raise ConfigurationError(f"bad seed range {item!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def random_seeds(count: int) -> list[int]:
    rng = np.random.default_rng(RANDOM_RNG)
    return [int(s) for s in rng.integers(*RANDOM_RANGE, count)]


def scan(config, k: KIndex, seeds):
    """Yield (seed, SolveReport) of one descent on k per seed."""
    mesh = build_mesh(config.params.dim, config.cells_per_side)
    P = LaplacePreconditioner(mesh)
    for seed in seeds:
        # the start solve_three gives this k at this seed
        _, rep = descend(mesh, config, k, initial_shape(mesh, k, seed), P)
        yield seed, rep


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--k", choices=[k.name for k in KIndex],
                        default="K3", help="constraint set (default K3)")
    parser.add_argument("--seeds", default="",
                        help='seed list, e.g. "0-159" or "0-4,42"')
    parser.add_argument("--random", type=int, default=0, metavar="N",
                        help="add N seeds drawn from default_rng(2026)")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config).solver
        if args.random < 0:
            raise ConfigurationError("--random must be >= 0")
        seeds = parse_seeds(args.seeds) + random_seeds(args.random)
        if not seeds:
            raise ConfigurationError("no seeds: give --seeds or --random")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("seed iterations converged energy error")
    iterations, failed = [], []
    for seed, rep in scan(config, KIndex[args.k], seeds):
        print(f"{seed} {rep.iterations} {int(rep.converged)} "
              f"{rep.energy:.12g} {rep.error or '-'}", flush=True)
        iterations.append(rep.iterations)
        if not rep.converged:
            failed.append(seed)
    print(f"iterations min {min(iterations)} "
          f"median {statistics.median(iterations):g} max {max(iterations)} "
          f"over {len(seeds)} seeds")
    print("failed seeds: " + (" ".join(map(str, failed)) or "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
