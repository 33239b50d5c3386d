import json
import math
import os

import pytest

from desynclab.cli import main
from desynclab.experiments import (
    EXIT_BOUND_VIOLATION,
    EXIT_OK,
    EXIT_TRIAL_FAILURE,
    EXIT_VALIDATION,
    BoundsRow,
)


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


def test_unreadable_config_or_summary_exit_code(tmp_path, capsys):
    # a directory is an OSError other than FileNotFoundError
    assert main(["sweep", "--config", str(tmp_path)]) == EXIT_VALIDATION
    assert main(["plotdata", "--summary", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def test_null_out_exit_code(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, "null.yaml", "mode: desync\nn: 4\nalpha: [0.5]\ntrials: 2\nout:\n")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: out must be a string")
    assert not (tmp_path / "None").exists()


def test_null_trials_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "null.yaml", "mode: desync\nn: 4\nalpha: [0.5]\ntrials:\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: trials must be an integer, got None")


@pytest.mark.parametrize("out", ["''", "taken"])
def test_unusable_out_exits_before_the_run(tmp_path, monkeypatch, capsys, out):
    (tmp_path / "taken").write_text("")
    monkeypatch.chdir(tmp_path)

    def no_run(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("desynclab.cli.run_sweep", no_run)
    cfg = write(tmp_path, "out.yaml", f"mode: desync\nn: 4\nalpha: [0.5]\ntrials: 2\nout: {out}\n")
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: out ")


def test_trial_failure_exit_code(tmp_path, capsys):
    # one round cannot reach epsilon 1e-12, so every trial is capped
    cfg = write(tmp_path, "capped.yaml", "mode: desync\nn: 4\nalpha: [0.5]\n"
                "epsilon: [1.0e-12]\ntrials: 2\nmax_rounds: 1\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_TRIAL_FAILURE
    assert "trial failure(s) recorded" in capsys.readouterr().err


def test_seed_base_out_of_range_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "neg.yaml", "mode: desync\nn: 4\nalpha: [0.5]\nseed_base: -2\n")
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
    assert "seed_base" in capsys.readouterr().err
    ok = write(tmp_path, "ok.yaml", "mode: desync\nn: 4\nalpha: [0.5]\ntrials: 2\n")
    assert main(["sweep", "--config", ok, "--seed", str(2**64 - 1)]) == EXIT_VALIDATION
    assert "seed_base" in capsys.readouterr().err


def test_non_integral_integer_key_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "frac.yaml", "mode: desync\nn: 8.5\nalpha: [0.5]\ntrials: 2\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: n must be an integer")
    assert not (tmp_path / "out").exists()


def test_non_numeric_float_key_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "bool.yaml", "mode: desync\nn: 4\nalpha: [0.5]\nepsilon: true\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: epsilon must be a finite number")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,value,key", [
    ("sweep", "--trials", "0", "trials"),
    ("sweep", "--workers", "0", "workers"),
    ("simulate", "--seed", "-3", "seed_base"),
])
def test_overrides_pass_spec_checks(tmp_path, capsys, command, flag, value, key):
    body = ("mode: desync\nn: 4\nalpha: [0.5]\nepsilon: [1.0e-3]\ntrials: 3\n"
            if command == "sweep" else
            "mode: event-sim\nn: 4\nchannels: 1\nalpha: [0.5]\nepsilon: [1.0e-3]\n")
    cfg = write(tmp_path, "spec.yaml", body)
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out, flag, value]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {key} must be >= ")


@pytest.mark.parametrize("command, flags", [
    ("sweep", {"--seed", "--trials", "--out", "--workers"}),
    ("bounds", {"--seed", "--trials", "--out", "--workers"}),
    ("spectra", {"--out"}),
    ("simulate", {"--seed", "--out"}),
])
def test_each_command_takes_only_the_overrides_it_reads(tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    offered = {word.strip("[,") for word in capsys.readouterr().out.split()
               if word.startswith(("--", "[--"))}
    assert offered == {"--help", "--config"} | flags
    cfg = write(tmp_path, "spec.yaml", "mode: desync\nn: 4\n")
    for flag in {"--seed", "--trials", "--workers"} - flags:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, flag, "2"])
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"usage: desynclab {command} ")
        assert f"unrecognized arguments: {flag} 2" in err


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


def test_bounds_judges_the_fast_bound_inside_its_guarantee(tmp_path):
    # fast-desync diverges at alpha = 0.8, beyond its bound's guarantee
    # (alpha <= 1/2), so that row is not a violation
    cfg = write(tmp_path, "two.yaml", "mode: desync\nn: 8\nalpha: [0.3, 0.8]\ntrials: 24\n")
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()[1:]]
    assert [(r[1], r[-1]) for r in rows] == [
        ("0.3", "0"), ("0.3", "0"), ("0.8", "0"), ("0.8", "0")]
    assert int(rows[-1][6]) > float(rows[-1][7])  # exceeded, but not guaranteed


def test_bound_violation_exit_code(tmp_path, monkeypatch, capsys):
    row = BoundsRow(n=8, alpha=0.3, epsilon=1e-3, trials=2, max_rounds_desync=30,
                    bound_desync=25.0, max_rounds_fast=10, bound_fast=374.0, violated=True)
    monkeypatch.setattr("desynclab.cli.compare_bounds", lambda spec: [row])
    cfg = write(tmp_path, "b.yaml", "mode: desync\nn: 8\nalpha: [0.3]\ntrials: 2\n")
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_BOUND_VIOLATION
    assert capsys.readouterr().err == "bound violation detected (implementation bug)\n"
    assert (out / "bounds.csv").read_text().splitlines()[1].endswith(",1")


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
    assert b"\r" not in (out / "trace.csv").read_bytes()  # LF, like every CSV
    report = json.loads((out / "simulation.json").read_text())
    assert list(report) == sorted(report)
    assert report["converged"] is True
    assert report["rounds"] >= 0
    assert report["steady_round"] == report["rounds"]


def test_simulate_records_its_point(tmp_path):
    cfg = write(
        tmp_path, "sim.yaml",
        "mode: event-sim\nn: 4\nchannels: 2\nalpha: 0.5\ngamma: [0.3]\n"
        "epsilon: 1.0e-3\nseed_base: 3\n",
    )
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out), "--seed", "5"])
    report = json.loads((out / "simulation.json").read_text())
    point = {key: report[key] for key in ("alpha", "gamma", "epsilon", "rng_seed")}
    assert point == {"alpha": 0.5, "gamma": 0.3, "epsilon": 1e-3, "rng_seed": 5}


@pytest.mark.parametrize("command, body, message", [
    ("spectra", "mode: desync\nn: 4\n", "spectra certification needs mode much or fast-much"),
    # the mode is checked before the grids, and desync's alpha grid has 19 values
    ("simulate", "mode: desync\nn: 4\n", "simulate needs mode event-sim"),
    ("simulate", "mode: event-sim\nn: 4\n", "simulate runs one point: alpha has 19 values"),
    ("simulate", "mode: event-sim\nn: 4\nalpha: 0.5\ngamma: [0.3, 0.6]\nepsilon: 1.0e-3\n",
     "simulate runs one point: gamma has 2 values"),
    ("simulate", "mode: event-sim\nn: 4\nalpha: 0.5\n",
     "simulate runs one point: epsilon has 2 values"),
    ("sweep", "mode: desync\nn: 8\ngamma: [0.6]\n", "mode desync does not read gamma"),
    ("bounds", "mode: much\nchannels: 2\nnodes_per_channel: 3\n",
     "bound comparison needs a single-channel mode"),
    ("sweep", "mode: event-sim\nn: 4\nloss_probability: 0.5\nstaleness_mode: assumption1\n",
     "assumption1 mode models perfect reception; it requires zero loss and full connectivity"),
], ids=["spectra-desync", "simulate-desync", "simulate-alpha-grid", "simulate-gamma-grid",
        "simulate-epsilon-grid", "sweep-unread-key", "bounds-much", "sweep-assumption1-loss"])
def test_command_rejects_config(tmp_path, capsys, command, body, message):
    # every check runs before the output directory is made
    cfg = write(tmp_path, "bad.yaml", body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("edit", [
    lambda doc: doc["rows"],
    lambda doc: {**doc, "spec": {k: v for k, v in doc["spec"].items() if k != "mode"}},
    lambda doc: {**doc, "rows": [{**doc["rows"][0], "retired_column": 1}]},
    lambda doc: {**doc, "spec": {**doc["spec"], "n": 4.5}},
], ids=["not-an-object", "spec-without-mode", "unknown-row-key", "fractional-n"])
def test_plotdata_rejects_a_malformed_summary(tmp_path, capsys, edit):
    cfg = write(
        tmp_path, "sweep.yaml",
        "mode: desync\nn: 4\nalpha: [0.5]\nepsilon: [1.0e-3]\ntrials: 3\n",
    )
    out = tmp_path / "out"
    main(["sweep", "--config", cfg, "--out", str(out)])
    summary = out / "summary.json"
    summary.write_text(json.dumps(edit(json.loads(summary.read_text()))))
    replot = tmp_path / "replot"
    assert main(["plotdata", "--summary", str(summary), "--out", str(replot)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not replot.exists()


@pytest.mark.parametrize("field, value, message", [
    ("out_dir", 7, "out must be a string, got 7"),
    ("loss_probability", False, "loss_probability must be a finite number, got False"),
    ("epsilons", [math.inf], "epsilon must be a finite number, got inf"),
], ids=["out-dir-int", "loss-bool", "epsilon-infinity"])
def test_plotdata_rejects_a_summary_value_a_config_rejects(tmp_path, monkeypatch, capsys,
                                                           field, value, message):
    cfg = write(
        tmp_path, "sweep.yaml",
        "mode: desync\nn: 4\nalpha: [0.5]\nepsilon: [1.0e-3]\ntrials: 3\n",
    )
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    summary = tmp_path / "out" / "summary.json"
    doc = json.loads(summary.read_text())
    doc["spec"][field] = value
    summary.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    # without --out, plotdata writes under the summary's own out_dir
    assert main(["plotdata", "--summary", str(summary)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
