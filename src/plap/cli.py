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

README.md documents the keys with their defaults (a table the tests
check against this parser) and the exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
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
# optional keys that set the dataclass field of the same name, dashes read
# as underscores; an unset key leaves the field at its dataclass default
_PARAMS_KEYS = {"eps": float}
_SOLVER_KEYS = {"grad-tol": float, "constraint-tol": float, "max-iters": int,
                "seed": int}

SWEEP_HEADER = "lambda,t_lambda,c1,c2,c3,threshold1,threshold2,threshold3"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A parsed config file: solver configuration plus run destinations."""

    solver: SolverConfig
    lambda_list: tuple[float, ...]
    out_dir: Path


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fields_set(raw: dict[str, str], keys) -> dict:
    return {key.replace("-", "_"): kind(raw[key])
            for key, kind in keys.items() if key in raw}


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
        params_set = _fields_set(raw, _PARAMS_KEYS)
        solver_set = _fields_set(raw, _SOLVER_KEYS)
        lambda_list = tuple(
            float(tok) for tok in raw.get("lambda-list", "").split(",") if tok.strip()
        )
    except ValueError as exc:
        raise ConfigurationError(f"malformed numeric value: {exc}") from exc

    family = raw.get("family", "signed")
    params = RunParameters(p=p, dim=dim, lam=lam, **params_set)
    nonlin = Nonlinearity(family=family, q=q, r=r)
    solver = SolverConfig(params=params, nonlin=nonlin, cells_per_side=res,
                          **solver_set)
    return RunConfig(solver, coupling_list(lambda_list),
                     Path(raw.get("out-dir", ".")))


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def _coordinate_columns(mesh) -> str:
    """%-template of a field CSV on the mesh: the header, then per row the
    `x,y[,z],` prefix and a `%s` for the formatted value.  Shared by all
    fields written on it.  The vertices are the C-ordered grid of the
    m + 1 axis values, so each row prefix is one tuple of the product of
    their labels, and each label is formatted once."""
    header = "x,y,value" if mesh.dim == 2 else "x,y,z,value"
    axis = mesh.vertices[: mesh.cells_per_side + 1, -1]
    labels = [_fmt(c) + "," for c in axis.tolist()]
    rows = ["".join(prefix) + "%s\n"
            for prefix in itertools.product(labels, repeat=mesh.dim)]
    return header + "\n" + "".join(rows)


def _write_field_csvs(paths, template: str, fields) -> None:
    """Write field i into `template` at paths[i], each value as `%.17g`.

    The fields share most magnitudes (for odd f, u2 = 0 - u1, u1 is
    inversion-even and u3 inversion-odd), so each distinct |value| is
    formatted once, in one `%` call, and the sign is put back from its
    sign bit.  `%.17g` prints a NaN of either sign as `nan`, so a NaN
    gets no sign."""
    fields = [np.asarray(values, float) for values in fields]
    values = np.concatenate(fields)
    mags, where = np.unique(np.abs(values), return_inverse=True)
    digits = np.array(("\n".join(["%.17g"] * mags.size)
                       % tuple(mags.tolist())).split("\n"), dtype=object)
    negative = np.signbit(values) & ~np.isnan(values)
    signed = np.concatenate([digits, "-" + digits])
    text = signed[where + mags.size * negative].tolist()
    start = 0
    for path, field in zip(paths, fields):
        path.write_text(template % tuple(text[start:start + field.size]))
        start += field.size


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
    # written as not (... <= ...), so that a NaN coordinate is rejected
    if not (np.max(np.abs(rows[:, : mesh.dim] - mesh.vertices)) <= 1e-12):
        raise ConfigurationError(f"{path}: vertex coordinates do not match mesh")
    values = rows[:, mesh.dim]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # line numbers count the header
        raise ConfigurationError(
            f"{path}, line {bad[0] + 2}: non-finite field value {values[bad[0]]}"
        )
    return values


def _shallow_dict(report) -> dict:
    """The fields of a report dataclass by name, without the deep copy of
    `dataclasses.asdict`: JSON serializes the same tuples and dicts."""
    return {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)}


def _make_out_dir(cfg: RunConfig) -> Path:
    """Create the artifact directory, before any computation starts."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create out-dir: {exc}") from exc
    return cfg.out_dir


def _checks(cfg: RunConfig, mesh, fields):
    """`verify_fields` with the Euler-Lagrange bound at 10 grad-tol."""
    return verify_fields(mesh, cfg.solver.nonlin, cfg.solver.params, fields,
                         residual_tol=10.0 * cfg.solver.grad_tol)


def cmd_solve(cfg: RunConfig) -> int:
    out = _make_out_dir(cfg)
    mesh = build_mesh(cfg.solver.params.dim, cfg.solver.cells_per_side)
    triple = solve_three(cfg.solver, mesh)

    _write_field_csvs([out / name for name in ("u1.csv", "u2.csv", "u3.csv")],
                      _coordinate_columns(mesh), triple.fields())

    checks = _checks(cfg, mesh, triple.fields())
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
        "reports": {f"u{i + 1}": _shallow_dict(rep)
                    for i, rep in enumerate(triple.reports)},
        "checks": [_shallow_dict(rep) for rep in checks],
    }
    (out / "triple.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    for i, rep in enumerate(triple.reports, start=1):
        print(f"u{i} [{rep.kind}] energy = {rep.energy:.12g}")
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
    checks = _checks(cfg, mesh, fields)
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
