import importlib.util
import json
from pathlib import Path

import pytest

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
