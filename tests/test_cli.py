import json
import os

import pytest

from desynclab.cli import main
from desynclab.experiments import EXIT_OK, EXIT_VALIDATION


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_sweep_command(tmp_path, capsys):
    cfg = write(
        tmp_path, "sweep.yaml",
        "mode: desync\nn: 4\nalpha: [0.5]\nepsilon: [1.0e-3]\ntrials: 3\n",
    )
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "sweep.csv").exists()
    assert (out / "summary.json").exists()
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("mode,n,channels,alpha,gamma,epsilon,trials")


def test_sweep_respects_trials_and_seed_overrides(tmp_path):
    cfg = write(
        tmp_path, "sweep.yaml",
        "mode: desync\nn: 4\nalpha: [0.5]\nepsilon: [1.0e-3]\ntrials: 3\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--trials", "2"]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--trials", "2"]) == EXIT_OK
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_validation_error_exit_code(tmp_path):
    cfg = write(tmp_path, "bad.yaml", "mode: desync\nn: 4\nalpha: [1.5]\n")
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
    missing = str(tmp_path / "nope.yaml")
    assert main(["sweep", "--config", missing]) == EXIT_VALIDATION


def test_seed_base_out_of_range_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "neg.yaml", "mode: desync\nn: 4\nalpha: [0.5]\nseed_base: -2\n")
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
    assert "seed_base" in capsys.readouterr().err
    ok = write(tmp_path, "ok.yaml", "mode: desync\nn: 4\nalpha: [0.5]\ntrials: 2\n")
    assert main(["sweep", "--config", ok, "--seed", str(2**64 - 1)]) == EXIT_VALIDATION
    assert "seed_base" in capsys.readouterr().err


def test_bounds_command(tmp_path):
    cfg = write(
        tmp_path, "bounds.yaml",
        "mode: desync\nn: 8\nalpha: [0.5]\nepsilon: [1.0e-4]\ntrials: 10\n",
    )
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0].startswith("n,alpha,epsilon,trials,max_rounds_desync")
    assert lines[1].endswith(",0")  # violated flag false


def test_spectra_command(tmp_path):
    cfg = write(
        tmp_path, "spectra.yaml",
        "mode: much\nchannels: 3\nnodes_per_channel: 4\n"
        "alpha: [0.4]\ngamma: [0.6]\n",
    )
    out = tmp_path / "out"
    assert main(["spectra", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "spectra.csv").read_text().splitlines()
    assert lines[0].startswith("n,channels,beta,gamma")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["max_spectrum_mismatch"] == "nan"  # no numeric spectrum is computed
    assert row["passed"] == "1"


def test_spectra_rejects_out_of_range(tmp_path):
    cfg = write(
        tmp_path, "bad.yaml",
        "mode: much\nchannels: 3\nnodes_per_channel: 4\ngamma: [1.0]\n",
    )
    assert main(["spectra", "--config", cfg]) == EXIT_VALIDATION


def test_simulate_command(tmp_path):
    cfg = write(
        tmp_path, "sim.yaml",
        "mode: event-sim\nn: 4\nchannels: 1\nalpha: [0.5]\nepsilon: [1.0e-3]\n"
        "seed_base: 3\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "round,sim_time_s,objective,occ_1,converged_flag"
    report = json.loads((out / "simulation.json").read_text())
    assert report["converged"] is True
    assert report["rounds"] >= 0
    assert report["steady_round"] == report["rounds"]


def test_plotdata_command(tmp_path):
    cfg = write(
        tmp_path, "sweep.yaml",
        "mode: desync\nn: 4\nalpha: [0.5]\nepsilon: [1.0e-3]\ntrials: 3\n",
    )
    out = tmp_path / "out"
    main(["sweep", "--config", cfg, "--out", str(out)])
    out2 = tmp_path / "replot"
    code = main(["plotdata", "--summary", str(out / "summary.json"), "--out", str(out2)])
    assert code == EXIT_OK
    assert (out2 / "summary.json").exists()
