import dataclasses
import importlib.util
import json
import runpy
from pathlib import Path

import pytest

from plap.cli import SWEEP_HEADER, load_config
from plap.mesh import build_mesh
from plap.optimizer import solve_three

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def run_reference():
    spec = importlib.util.spec_from_file_location(
        "run_reference", SCRIPTS / "run_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_reference_reads_the_config_out_dir(run_reference, tmp_path,
                                                monkeypatch, capsys):
    # out-dir is relative to the working directory, not to the script
    monkeypatch.chdir(tmp_path)
    assert run_reference.run() == 0
    out = tmp_path / "results" / "reference"
    payload = json.loads((out / "triple.json").read_text())
    digest = capsys.readouterr().out
    for name in ("u1", "u2", "u3"):
        assert (out / f"{name}.csv").is_file()
        energy = payload["reports"][name]["energy"]
        assert f"{name}  energy {energy:.12g}" in digest


def test_run_reference_returns_a_configuration_error(run_reference,
                                                     tmp_path, monkeypatch):
    (tmp_path / "reference.cfg").write_text("dim = 3\n")
    monkeypatch.setattr(run_reference, "HERE", tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_reference.run() == 2


def test_run_sweep_writes_one_row_per_coupling(tmp_path, monkeypatch):
    # the sweep CSV lands under the working directory, as run_reference's
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "run_sweep.py"), run_name="__main__")
    assert exit_.value.code == 0
    lines = (tmp_path / "results" / "sweep" / "sweep.csv").read_text() \
        .splitlines()
    assert lines[0] == SWEEP_HEADER
    lambdas = load_config(SCRIPTS / "sweep.cfg").lambda_list
    assert [float(line.split(",")[0]) for line in lines[1:]] == list(lambdas)


@pytest.fixture
def seed_scan():
    spec = importlib.util.spec_from_file_location(
        "seed_scan", SCRIPTS / "seed_scan.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RES4_2D = ("dim = 2\nres = 4\np = 1.5\nq = 3\nr = 3\nlambda = 20\n"
           "grad-tol = 1e-6\n")


def test_seed_scan_prints_one_line_per_seed(seed_scan, tmp_path, capsys):
    cfg = tmp_path / "res4.cfg"
    cfg.write_text(RES4_2D + "max-iters = 200\n")
    assert seed_scan.run(["--config", str(cfg), "--seeds", "0-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed iterations converged energy error"
    rows = [line.split() for line in lines[1:4]]
    assert [int(row[0]) for row in rows] == [0, 1, 2]
    # each line is the K3 descent of solve_three at that seed
    config = load_config(cfg).solver
    mesh = build_mesh(2, config.cells_per_side)
    for row in rows:
        seed = int(row[0])
        triple = solve_three(dataclasses.replace(config, seed=seed), mesh)
        rep = triple.reports[2]
        assert row[1:] == [str(rep.iterations), "1",
                           f"{rep.energy:.12g}", "-"]
    iterations = sorted(int(row[1]) for row in rows)
    assert lines[4] == (f"iterations min {iterations[0]} median "
                        f"{iterations[1]} max {iterations[2]} over 3 seeds")
    assert lines[5] == "failed seeds: none"


def test_seed_scan_lists_failed_seeds(seed_scan, tmp_path, capsys):
    cfg = tmp_path / "res4.cfg"
    cfg.write_text(RES4_2D + "max-iters = 1\n")
    assert seed_scan.run(["--config", str(cfg), "--k", "K1",
                          "--seeds", "3,5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[1:3]] == [["3", "1", "0"],
                                                         ["5", "1", "0"]]
    assert lines[-1] == "failed seeds: 3 5"


@pytest.mark.parametrize("argv", [["--seeds", "4-2"], ["--seeds", "a"],
                                  ["--seeds", ""], ["--random", "-1"]])
def test_seed_scan_rejects_bad_seed_lists(seed_scan, tmp_path, argv):
    cfg = tmp_path / "res4.cfg"
    cfg.write_text(RES4_2D)
    assert seed_scan.run(["--config", str(cfg), *argv]) == 2


def test_seed_scan_random_seeds(seed_scan):
    seeds = seed_scan.random_seeds(200)
    assert len(set(seeds)) == 200
    assert all(1000 <= s < 2**31 for s in seeds)
    assert seed_scan.random_seeds(3) == seeds[:3]
