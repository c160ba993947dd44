"""Experiment-runner smoke tests at quick scale.

Only the two cheapest runners execute end to end here; the other three
share all their plumbing (``run``'s directory and summary steps, the
CSV writer, train calls) with these and with the CLI tests.
"""
import json

import numpy as np
import pytest

from kanlmm import experiments, kan, odeint


def test_run_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        experiments.run("table2", tmp_path)


def test_experiment_names_match_runners():
    assert set(experiments.EXPERIMENT_NAMES) == set(experiments._RUNNERS)


def test_run_writes_tagged_summary(tmp_path, monkeypatch):
    def toy(out, quick, seed):
        (out / "toy.csv").write_text("seed\n%d\n" % seed)
        return {"seed": seed}

    monkeypatch.setitem(experiments._RUNNERS, "toy", toy)
    out = tmp_path / "a" / "b"
    summary = experiments.run("toy", out, quick=False, seed=7)
    assert out.is_dir() and (out / "toy.csv").read_text() == "seed\n7\n"
    assert json.loads((out / "summary.json").read_text()) == summary
    assert summary == {"seed": 7, "experiment": "toy", "quick": False}


@pytest.mark.slow
def test_glycolytic_quick_run(tmp_path):
    summary = experiments.run("glycolytic", tmp_path, quick=True, seed=0)
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    assert summary["min_state_train_interval"] > 0.0
    assert np.isfinite(summary["seminorm_error"])
    assert summary["linf_error_train_interval"] <= summary["linf_error_full_interval"]
    ref = odeint.load_trajectory(tmp_path / "reference.csv")
    assert ref.dim == 7
    learned = odeint.load_trajectory(tmp_path / "learned.csv")
    assert learned.t1 > ref.t1
    net = kan.load_model(tmp_path / "model.json")
    assert net.d_in == 7 and net.intervals == 16


@pytest.mark.slow
def test_opinion_quick_run(tmp_path):
    summary = experiments.run("opinion", tmp_path, quick=True, seed=0)
    assert json.loads((tmp_path / "summary.json").read_text()) == summary
    (cell,) = summary["cells"]
    assert cell["d"] == 50
    assert np.isfinite(cell["linf_error"]) and cell["linf_error"] >= 0
    assert cell["components_start"] >= 1 and cell["components_end"] >= 1
    header, first = (tmp_path / "opinion.csv").read_text().splitlines()[:2]
    assert header == "d,linf_error,seminorm_error"
    assert first.startswith("50,")
