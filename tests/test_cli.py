import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import plap.optimizer
from hypothesis import given, settings
from hypothesis import strategies as st

import plap.cli
from plap.cli import (_KEYS, _REQUIRED, SWEEP_HEADER, _coordinate_columns,
                      _write_field_csvs, main, parse_config_text)
from plap.errors import ConfigurationError
from plap.mesh import build_mesh

BASE_2D = """
# small 2d run: parse and sweep tests
dim = 2
res = 6
p = 1.5
q = 3
r = 3
family = signed
lambda = 20
grad-tol = 1e-6
max-iters = 2000
seed = 0
"""

BASE_3D = """
# the run every artifact check uses
dim = 3
res = 8
p = 2
q = 4
r = 4
family = signed
lambda = 50
grad-tol = 1e-7
seed = 0
"""


README = Path(__file__).resolve().parents[1] / "README.md"
SCRIPTS = README.parent / "scripts"


def readme_config_table() -> dict:
    """key -> default column of the README's configuration table."""
    rows = {}
    for line in README.read_text().splitlines():
        m = re.fullmatch(r"\|\s*`([^`]+)`\s*\|.*\|\s*(\S+)\s*\|", line)
        if m:
            rows[m.group(1)] = m.group(2).strip("`")
    return rows


def per_row_csv(mesh, values) -> bytes:
    """A field CSV with each row formatted from scratch, coordinates and
    value each by '%.17g': the oracle of the CSV writer."""
    lines = ["x,y,value" if mesh.dim == 2 else "x,y,z,value"]
    for vertex, value in zip(mesh.vertices, values):
        lines.append(",".join(["%.17g" % float(c) for c in vertex]
                              + ["%.17g" % float(value)]))
    return ("\n".join(lines) + "\n").encode()


def _script_config(tmp_path, name, out):
    """scripts/<name> with its out-dir moved to `out`."""
    path = tmp_path / name
    path.write_text(re.sub(r"(?m)^out-dir = .*$", f"out-dir = {out}",
                           (SCRIPTS / name).read_text()))
    return path


def write_config(tmp_path, base=BASE_3D, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(base + extra)
    return str(path)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config_text(BASE_2D)
        assert cfg.solver.params.p == 1.5
        assert cfg.solver.params.dim == 2
        assert cfg.solver.cells_per_side == 6
        assert cfg.solver.nonlin.family == "signed"
        assert cfg.solver.params.lam == 20.0
        assert cfg.lambda_list == ()

    def test_defaults(self):
        cfg = parse_config_text("dim=2\nres=4\np=1.5\nq=3\nlambda=5\n")
        assert cfg.solver.nonlin.r == cfg.solver.nonlin.q
        assert cfg.solver.params.eps == 1e-8
        assert cfg.solver.grad_tol == 1e-7
        assert cfg.solver.max_iters == 5000
        assert cfg.out_dir == Path(".")

    @pytest.mark.parametrize("text", [
        "dim=2\nres=4\np=1.5\nq=3\nlambda=5\nbogus=1\n",
        "dim=2\nres=4\np=1.5\nq=3\n",
        "dim=2\nres=4\np=1.5\nq=3\nlambda=5\nlambda=6\n",
        "dim=2\nres=4\np=1.5\nq=7\nlambda=5\n",
        "dim=5\nres=4\np=1.5\nq=3\nlambda=5\n",
        "dim=2\nres=4\np=abc\nq=3\nlambda=5\n",
        "dim=2\nres=4\np=1.5\nq=3\nlambda=5\nseed=-1\n",
        "dim=2\nres=4\np=1.5\nq=3\nlambda=inf\n",
        "dim=2\nres=4\np=1.5\nq=3\nlambda=5\neps=nan\n",
        "dim=2\nres=4\np=1.5\nq=3\nlambda=5\ngrad-tol=inf\n",
        "dim=2\nres=4\np=1.5\nq=3\nlambda=5\nconstraint-tol=inf\n",
    ])
    def test_rejected_configs(self, text):
        with pytest.raises(ConfigurationError):
            parse_config_text(text)

    def test_readme_table_matches_parser(self):
        # the keys, the required rows and every other default that the
        # README documents are the parser's
        table = readme_config_table()
        assert set(table) == _KEYS
        assert [k for k, v in table.items() if v == "required"] == list(
            _REQUIRED)
        cfg = parse_config_text("dim=2\nres=4\np=1.5\nq=3\nlambda=5\n")
        s = cfg.solver
        parsed = {
            "dim": s.params.dim, "res": s.cells_per_side, "p": s.params.p,
            "q": s.nonlin.q, "r": s.nonlin.r, "family": s.nonlin.family,
            "lambda": s.params.lam, "lambda-list": cfg.lambda_list,
            "eps": s.params.eps, "grad-tol": s.grad_tol,
            "constraint-tol": s.constraint_tol, "max-iters": s.max_iters,
            "seed": s.seed, "out-dir": cfg.out_dir,
        }
        assert set(parsed) == _KEYS
        for key, text in table.items():
            if text == "required":
                continue
            if text == "unset":
                want = ()
            elif text in _KEYS:         # defaults to another key's value
                want = parsed[text]
            else:
                want = type(parsed[key])(text)
            assert parsed[key] == want, key

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text(
            "# leading comment\n\ndim=2\nres=4\n  # indented\np=1.5\n"
            "q=3\nlambda=5\n"
        )
        assert cfg.solver.cells_per_side == 4


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("solve")
    out = tmp_path / "artifacts"
    cfg = write_config(tmp_path, extra=f"out-dir = {out}\n")
    code = main(["solve", "--config", cfg])
    return code, cfg, out


class TestSolveCommand:
    def test_end_to_end(self, solved):
        code, _, out = solved
        assert code == 0
        mesh = build_mesh(3, 8)
        for name in ("u1.csv", "u2.csv", "u3.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "x,y,z,value"
            assert len(lines) == 1 + mesh.n_vertices
        payload = json.loads((out / "triple.json").read_text())
        assert payload["dim"] == 3
        assert payload["family"] == "signed"
        assert set(payload["reports"]) == {"u1", "u2", "u3"}
        assert all(rep["converged"] for rep in payload["reports"].values())
        for rep in payload["reports"].values():
            assert len(rep["step_history"]) == rep["iterations"] > 0
            assert len(rep["backtracks"]) == rep["iterations"]
        assert all(c["passed"] for c in payload["checks"])
        assert payload["threshold"] > 0

    def test_nonpositive_field_is_the_k1_mirror(self, solved):
        _, _, out = solved
        # a negated zero would be written as -0
        lines = (out / "u2.csv").read_text().splitlines()
        assert not any(line.endswith(",-0") for line in lines)
        assert sum(line.endswith(",0") for line in lines) > 0
        reports = json.loads((out / "triple.json").read_text())["reports"]
        assert reports["u2"]["mirror_of"] == "K1"
        assert reports["u1"]["mirror_of"] is None
        assert reports["u3"]["mirror_of"] is None

    def test_reports_name_the_class_of_u3(self, solved):
        # the signed family is odd, so K3 is solved in the inversion-odd
        # class; K1 (and its K2 mirror) in the inversion-even class
        _, _, out = solved
        reports = json.loads((out / "triple.json").read_text())["reports"]
        assert reports["u3"]["symmetry"] == "inversion-odd"
        assert reports["u1"]["symmetry"] == "inversion-even"
        assert reports["u2"]["symmetry"] == "inversion-even"

    def test_field_csv_parses_back(self, solved):
        _, _, out = solved
        mesh = build_mesh(3, 8)
        rows = np.loadtxt(out / "u1.csv", delimiter=",", skiprows=1)
        assert rows.shape == (mesh.n_vertices, 4)
        assert np.allclose(rows[:, :3], mesh.vertices, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("dim,m", [(2, 3), (3, 3)])
    def test_field_csv_matches_per_row_writer(self, tmp_path, dim, m):
        mesh = build_mesh(dim, m)
        columns = _coordinate_columns(mesh)
        rng = np.random.default_rng(2)
        fields = []
        for k in range(3):
            values = rng.standard_normal(mesh.n_vertices) * 10.0 ** (4 * k - 4)
            values[:3] = (0.0, -0.0, 1e-300)
            fields.append(values)
        # the K2 mirror of the writer's inputs: 0 - u1 shares u1's magnitudes
        fields[1] = 0.0 - fields[0]
        paths = [tmp_path / f"u{i}.csv" for i in range(3)]
        _write_field_csvs(paths, columns, fields)
        for path, values in zip(paths, fields):
            assert path.read_bytes() == per_row_csv(mesh, values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_field_csvs_match_per_value_format(self, tmp_path_factory, data):
        # signed zeros, subnormals, infinities and NaN of either sign, in
        # fields that share some magnitudes; '%.17g' prints -nan as nan
        mesh = build_mesh(2, 2)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   -1e-310, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]
        value = st.one_of(st.sampled_from(special), st.floats())
        n_fields = data.draw(st.integers(1, 3))
        fields = [np.array(data.draw(st.lists(value, min_size=mesh.n_vertices,
                                              max_size=mesh.n_vertices)))
                  for _ in range(n_fields)]
        if n_fields > 1:
            fields[1][::2] = -fields[0][::2]
        tmp_path = tmp_path_factory.mktemp("fields")
        paths = [tmp_path / f"u{i}.csv" for i in range(n_fields)]
        _write_field_csvs(paths, _coordinate_columns(mesh), fields)
        for path, values in zip(paths, fields):
            assert path.read_bytes() == per_row_csv(mesh, values)

    def test_triple_json_matches_asdict(self, tmp_path, monkeypatch):
        # oracle: the reports and checks deep-copied by dataclasses.asdict
        seen = {}
        solve_three, checks = plap.cli.solve_three, plap.cli._checks

        def keep(name, fn):
            def wrapped(*args):
                seen[name] = fn(*args)
                return seen[name]
            return wrapped

        monkeypatch.setattr(plap.cli, "solve_three", keep("triple", solve_three))
        monkeypatch.setattr(plap.cli, "_checks", keep("checks", checks))
        out = tmp_path / "artifacts"
        cfg = write_config(tmp_path, BASE_2D.replace("res = 6", "res = 4"),
                           extra=f"out-dir = {out}\n")
        main(["solve", "--config", cfg])
        payload = json.loads((out / "triple.json").read_text())
        reports = {f"u{i + 1}": dataclasses.asdict(rep)
                   for i, rep in enumerate(seen["triple"].reports)}
        checks = [dataclasses.asdict(rep) for rep in seen["checks"]]
        assert (json.dumps([payload["reports"], payload["checks"]],
                           indent=2, sort_keys=True)
                == json.dumps([reports, checks], indent=2, sort_keys=True))
        assert all(rep["step_history"] for rep in reports.values())
        assert any(rep["measured"] for rep in checks)

    def test_invalid_exponent_exits_2_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_3D.replace("q = 4", "q = 7")
                        + f"out-dir = {out}\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exits_2_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_3D.replace("seed = 0", "seed = -1")
                        + f"out-dir = {out}\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_bad_lambda_list_exits_2_without_artifacts(self, tmp_path,
                                                      capsys):
        out = tmp_path / "artifacts"
        cfg = write_config(tmp_path, extra="lambda-list = nan, -1\n"
                                           f"out-dir = {out}\n")
        assert main(["solve", "--config", cfg]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_usage_error_exits_2(self):
        assert main([]) == 2
        assert main(["solve"]) == 2

    def test_failed_check_exits_1_with_artifacts(self, tmp_path, capsys):
        # at this resolution the sign-changing minimizer keeps a sign
        # interface without a zero node layer, so its stationarity check
        # fails honestly and the command must say so
        out = tmp_path / "artifacts"
        cfg = write_config(tmp_path, base=BASE_2D,
                           extra=f"out-dir = {out}\n")
        assert main(["solve", "--config", cfg]) == 1
        assert (out / "triple.json").is_file()
        assert "FAIL" in capsys.readouterr().out

    def test_sweep_config_solve_fails_only_u3_euler_lagrange(self, tmp_path,
                                                             capsys):
        # scripts/sweep.cfg solves at its `lambda` = 1: the sign-changing
        # field carries the interface defect of the inversion-odd class,
        # and its Euler-Lagrange residual (about 1e-3) fails the 1e-6 bound
        out = tmp_path / "artifacts"
        cfg = _script_config(tmp_path, "sweep.cfg", out)
        assert main(["solve", "--config", str(cfg)]) == 1
        checks = json.loads((out / "triple.json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == [
            "u3_euler_lagrange"]
        assert "u3_euler_lagrange: FAIL" in capsys.readouterr().out

    def test_solve_does_not_import_scipy_linalg(self, tmp_path):
        # the runtime needs numpy alone: importing scipy.sparse added about
        # 21 MB to the resident memory of a run.  A fresh interpreter sees
        # the modules plap pulls in, and no test's own imports: importing
        # plap.cli loads no scipy module, and with every scipy import made
        # to fail, plap solve and plap verify of the reference config run
        # and pass.
        out = tmp_path / "artifacts"
        cfg = _script_config(tmp_path, "reference.cfg", out)
        fields = [str(out / f"u{i}.csv") for i in (1, 2, 3)]
        script = ("import sys\n"
                  "import plap.cli\n"
                  "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
                  "sys.modules['scipy'] = None\n"
                  "from plap.cli import main\n"
                  f"solve = main(['solve', '--config', {str(cfg)!r}])\n"
                  f"verify = main(['verify', '--config', {str(cfg)!r}, "
                  f"*{fields!r}])\n"
                  "print(solve, verify)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "False"
        assert lines[-1] == "0 0"

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = write_config(tmp_path, extra=f"out-dir = {out}\n",
                               name=f"{tag}.cfg")
            assert main(["solve", "--config", cfg]) == 0
            outs.append(out)
        for name in ("u1.csv", "u2.csv", "u3.csv", "triple.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestSweepCommand:
    def test_three_rows(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path, base=BASE_2D,
                           extra=f"lambda-list = 1,2,4\nout-dir = {out}\n")
        assert main(["sweep", "--config", cfg]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        ts = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))

    def test_single_value(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path, base=BASE_2D,
                           extra=f"lambda-list = 5\nout-dir = {out}\n")
        assert main(["sweep", "--config", cfg]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_missing_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, base=BASE_2D)
        assert main(["sweep", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_out_dir_naming_a_file_exits_2_before_any_descent(
        tmp_path, monkeypatch, capsys, command):
    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(plap.optimizer, "descend", no_descent)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = write_config(tmp_path, base=BASE_2D,
                       extra=f"lambda-list = 1,2\nout-dir = {taken}\n")
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: cannot create out-dir")
    assert taken.read_text() == "not a directory\n"


class TestVerifyCommand:
    def test_round_trip(self, solved, capsys):
        code, cfg, out = solved
        assert code == 0
        fields = [str(out / name) for name in ("u1.csv", "u2.csv", "u3.csv")]
        assert main(["verify", "--config", cfg] + fields) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any("PASS" in line for line in lines)

    @pytest.mark.parametrize("names", list(itertools.permutations(
        ("u1.csv", "u2.csv", "u3.csv"))))
    def test_round_trip_in_any_order(self, solved, capsys, names):
        _, cfg, out = solved
        fields = [str(out / name) for name in names]
        assert main(["verify", "--config", cfg] + fields) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_zeroed_field_fails(self, solved, tmp_path):
        _, cfg, out = solved
        mesh = build_mesh(3, 8)
        rows = ["x,y,z,value"]
        for x, y, z in mesh.vertices:
            rows.append(f"{x:.17g},{y:.17g},{z:.17g},0")
        zeroed = tmp_path / "zero.csv"
        zeroed.write_text("\n".join(rows) + "\n")
        assert main(["verify", "--config", cfg, str(zeroed)]) == 1

    def test_vertex_mismatch_exits_2(self, solved, tmp_path):
        _, cfg, out = solved
        lines = (out / "u1.csv").read_text().splitlines()
        clipped = tmp_path / "short.csv"
        clipped.write_text("\n".join(lines[:-3]) + "\n")
        assert main(["verify", "--config", cfg, str(clipped)]) == 2

    def test_shifted_vertex_exits_2(self, solved, tmp_path, capsys):
        # far inside a relative tolerance of 1e-5, far outside 1e-12
        _, cfg, out = solved
        lines = (out / "u1.csv").read_text().splitlines()
        cols = lines[300].split(",")
        cols[1] = f"{float(cols[1]) + 1e-9:.17g}"
        lines[300] = ",".join(cols)
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--config", cfg, str(shifted)]) == 2
        assert "vertex coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [0, 2])
    def test_nan_coordinate_exits_2(self, solved, tmp_path, capsys, column):
        _, cfg, out = solved
        lines = (out / "u1.csv").read_text().splitlines()
        cols = lines[300].split(",")
        cols[column] = "nan"
        lines[300] = ",".join(cols)
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--config", cfg, str(bad)]) == 2
        assert "vertex coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_2(self, solved, tmp_path, capsys, value):
        _, cfg, out = solved
        lines = (out / "u1.csv").read_text().splitlines()
        for i in (300, 400):
            lines[i] = ",".join(lines[i].split(",")[:-1] + [value])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--config", cfg, str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"{bad}, line 301: non-finite" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    @pytest.mark.parametrize("text", ["x,y,value\n", ""])
    def test_empty_field_file_exits_2(self, tmp_path, capsys, text):
        # a header with no rows, and a zero-byte file
        cfg = write_config(tmp_path, BASE_2D.replace("res = 6", "res = 4"))
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--config", cfg, str(empty)]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {empty}: the file holds no field values\n")
        assert captured.out == ""

    def test_no_fields_exits_2(self, solved):
        _, cfg, _ = solved
        assert main(["verify", "--config", cfg]) == 2

    def test_missing_field_file_exits_2(self, solved, tmp_path):
        _, cfg, _ = solved
        assert main(["verify", "--config", cfg,
                     str(tmp_path / "absent.csv")]) == 2
