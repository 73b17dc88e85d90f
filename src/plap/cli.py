"""Command line front end: solve, sweep, verify.

Runs are described by a plain key-value config file, `key = value` per
line, `#` comments allowed::

    dim = 3
    res = 8
    p = 2.0
    q = 4.0
    r = 4.0
    family = signed
    lambda = 50.0
    seed = 0
    out-dir = out/reference

Recognized keys: dim, res, p, q, r, family, lambda, lambda-list, eps,
grad-tol, constraint-tol, max-iters, seed, out-dir.  Unknown keys are
rejected.  Exit codes: 0 success, 1 at least one verification check
failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .functional import Nonlinearity, RunParameters, sobolev_threshold
from .mesh import build_mesh
from .optimizer import SolverConfig, coupling_list, lambda_sweep, solve_three
from .verify import verify_fields

__all__ = ["RunConfig", "parse_config_text", "load_config", "main"]

_KEYS = {
    "dim", "res", "p", "q", "r", "family", "lambda", "lambda-list",
    "eps", "grad-tol", "constraint-tol", "max-iters", "seed", "out-dir",
}
_REQUIRED = ("dim", "res", "p", "q", "lambda")

SWEEP_HEADER = "lambda,t_lambda,c1,c2,c3,threshold1,threshold2,threshold3"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A parsed config file: solver configuration plus run destinations."""

    solver: SolverConfig
    lambda_list: tuple[float, ...]
    out_dir: Path


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_config_text(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ConfigurationError(f"missing required keys: {', '.join(missing)}")

    try:
        dim = int(raw["dim"])
        res = int(raw["res"])
        p = float(raw["p"])
        q = float(raw["q"])
        r = float(raw.get("r", raw["q"]))
        lam = float(raw["lambda"])
        eps = float(raw.get("eps", "1e-8"))
        grad_tol = float(raw.get("grad-tol", "1e-7"))
        constraint_tol = float(raw.get("constraint-tol", "1e-10"))
        max_iters = int(raw.get("max-iters", "5000"))
        seed = int(raw.get("seed", "0"))
        lambda_list = tuple(
            float(tok) for tok in raw.get("lambda-list", "").split(",") if tok.strip()
        )
    except ValueError as exc:
        raise ConfigurationError(f"malformed numeric value: {exc}") from exc

    family = raw.get("family", "signed")
    params = RunParameters(p=p, dim=dim, lam=lam, eps=eps)
    nonlin = Nonlinearity(family=family, q=q, r=r)
    solver = SolverConfig(
        params=params, nonlin=nonlin, cells_per_side=res,
        max_iters=max_iters, grad_tol=grad_tol,
        constraint_tol=constraint_tol, seed=seed,
    )
    return RunConfig(solver, coupling_list(lambda_list),
                     Path(raw.get("out-dir", ".")))


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def _coordinate_columns(mesh) -> str:
    """%-template of a field CSV on the mesh: the header, then per row the
    `x,y[,z],` prefix and `%.17g`.  Shared by all fields written on it;
    each distinct grid coordinate (m + 1 of them) is formatted once."""
    header = "x,y,value" if mesh.dim == 2 else "x,y,z,value"
    coords, index = np.unique(mesh.vertices, return_inverse=True)
    labels = np.array([_fmt(c) + "," for c in coords.tolist()], dtype=object)
    rows = labels[index.reshape(mesh.vertices.shape)].sum(1) + "%.17g\n"
    return header + "\n" + "".join(rows.tolist())


def _write_field_csv(path: Path, template: str, values) -> None:
    path.write_text(template % tuple(np.asarray(values, float).tolist()))


def _read_field_csv(path: Path, mesh) -> np.ndarray:
    if not path.is_file():
        raise ConfigurationError(f"field file not found: {path}")
    try:
        with warnings.catch_warnings():
            # a file with no data rows is reported below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: ", UserWarning)
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: unreadable field file: {exc}")
    if rows.size == 0:
        raise ConfigurationError(f"{path}: the file holds no field values")
    expected_cols = mesh.dim + 1
    if rows.shape[1] != expected_cols:
        raise ConfigurationError(
            f"{path}: expected {expected_cols} columns, found {rows.shape[1]}"
        )
    if rows.shape[0] != mesh.n_vertices:
        raise ConfigurationError(
            f"{path}: {rows.shape[0]} rows for a mesh with "
            f"{mesh.n_vertices} vertices"
        )
    if not np.allclose(rows[:, : mesh.dim], mesh.vertices, rtol=0, atol=1e-12):
        raise ConfigurationError(f"{path}: vertex coordinates do not match mesh")
    values = rows[:, mesh.dim]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # line numbers count the header
        raise ConfigurationError(
            f"{path}, line {bad[0] + 2}: non-finite field value {values[bad[0]]}"
        )
    return values


def _make_out_dir(cfg: RunConfig) -> Path:
    """Create the artifact directory, before any computation starts."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create out-dir: {exc}") from exc
    return cfg.out_dir


def cmd_solve(cfg: RunConfig) -> int:
    out = _make_out_dir(cfg)
    mesh = build_mesh(cfg.solver.params.dim, cfg.solver.cells_per_side)
    triple = solve_three(cfg.solver, mesh)

    template = _coordinate_columns(mesh)
    for name, values in zip(("u1.csv", "u2.csv", "u3.csv"), triple.fields()):
        _write_field_csv(out / name, template, values)

    checks = verify_fields(
        mesh, cfg.solver.nonlin, cfg.solver.params, triple.fields(),
        residual_tol=10.0 * cfg.solver.grad_tol,
    )
    threshold = sobolev_threshold(cfg.solver.params)
    payload = {
        "dim": cfg.solver.params.dim,
        "res": cfg.solver.cells_per_side,
        "p": cfg.solver.params.p,
        "q": cfg.solver.nonlin.q,
        "r": cfg.solver.nonlin.r,
        "family": cfg.solver.nonlin.family,
        "lambda": cfg.solver.params.lam,
        "seed": cfg.solver.seed,
        "threshold": threshold,
        "reports": {f"u{i + 1}": dataclasses.asdict(rep)
                    for i, rep in enumerate(triple.reports)},
        "checks": [dataclasses.asdict(rep) for rep in checks],
    }
    (out / "triple.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    for i, rep in enumerate(triple.reports, start=1):
        flag = "below" if rep.below_threshold else "NOT below"
        print(f"u{i} [{rep.kind}] energy = {rep.energy:.12g}  "
              f"({flag} threshold {threshold:.12g})")
        if rep.error:
            print(f"u{i} error: {rep.error}")
    failed = [rep for rep in checks if not rep.passed]
    for rep in checks:
        print(rep.line())
    if any(rep.error for rep in triple.reports) or failed:
        return 1
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.lambda_list:
        raise ConfigurationError("sweep requires a nonempty lambda-list")
    out = _make_out_dir(cfg)
    rows = lambda_sweep(cfg.solver, cfg.lambda_list)

    def flag(value) -> str:
        return "nan" if value is None else str(int(value))

    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(",".join([
            _fmt(row.lam), _fmt(row.t_lambda),
            _fmt(row.c1), _fmt(row.c2), _fmt(row.c3),
            flag(row.threshold1), flag(row.threshold2), flag(row.threshold3),
        ]))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def cmd_verify(cfg: RunConfig, field_paths) -> int:
    if not field_paths:
        raise ConfigurationError("verify requires at least one field file")
    mesh = build_mesh(cfg.solver.params.dim, cfg.solver.cells_per_side)
    fields = [_read_field_csv(Path(p), mesh) for p in field_paths]
    checks = verify_fields(
        mesh, cfg.solver.nonlin, cfg.solver.params, fields,
        residual_tol=10.0 * cfg.solver.grad_tol,
    )
    for rep in checks:
        print(rep.line())
    return 0 if all(rep.passed for rep in checks) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plap",
        description="Three critical points of a critical-growth p-Laplace "
                    "energy via constrained descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "minimize on the three constraint sets, write artifacts"),
        ("sweep", "scale and minimize across the coupling list"),
        ("verify", "re-check fields written by a previous solve"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="config file path")
        if name == "verify":
            cmd.add_argument("fields", nargs="*", help="field CSV files")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_verify(cfg, args.fields)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
