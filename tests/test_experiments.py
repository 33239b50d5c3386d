import json
import math
import os

import numpy as np
import pytest

from desynclab import (
    DesyncState,
    MultichannelProblem,
    MultichannelState,
    NesterovState,
    SimConfig,
    SingleChannelProblem,
    SpecError,
    certify_spectra,
    compare_bounds,
    emit_plotdata,
    load_summary,
    parse_spec,
    run_simulation,
    run_sweep,
    run_until_convergence,
    serialize_spec,
)
from desynclab.eventsim import trace_to_csv
from desynclab.experiments import (
    ExperimentSpec,
    write_bounds_csv,
    write_spectra_csv,
    write_sweep_csv,
    SWEEP_CSV_HEADER,
)
from desynclab.trials import (
    _uniform_rows,
    initial_multichannel_batch,
    initial_phase_batch,
    run_desync_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
    sample_initial_phases,
)


MINIMAL = "mode: desync\nn: 4\nalpha: [0.5]\nepsilon: [1.0e-3]\n"


def test_parse_minimal_spec_applies_defaults():
    spec = parse_spec(MINIMAL)
    assert spec.trials == 400
    assert spec.seed_base == 0
    assert spec.alphas == (0.5,)
    assert spec.epsilons == (1e-3,)
    assert spec.mode == "desync"


def test_parse_rejects_alpha_out_of_range():
    with pytest.raises(SpecError, match=r"alpha out of \(0,1\)"):
        parse_spec("mode: desync\nn: 4\nalpha: [1.5]\n")


def test_parse_rejects_unknown_keys():
    with pytest.raises(SpecError, match="frobnicate"):
        parse_spec(MINIMAL + "frobnicate: 1\n")


def test_parse_rejects_bad_mode_and_missing_fields():
    with pytest.raises(SpecError):
        parse_spec("mode: warp\nn: 4\n")
    with pytest.raises(SpecError):
        parse_spec("mode: desync\n")
    with pytest.raises(SpecError):
        parse_spec("mode: much\nchannels: 4\n")


@pytest.mark.parametrize("tail", ["seed_base: -2\n", "seed_base: 18446744073709551613\ntrials: 4\n"])
def test_parse_rejects_seed_base_out_of_range(tail):
    with pytest.raises(SpecError, match="seed_base"):
        parse_spec(MINIMAL + tail)


def test_parse_accepts_seeds_up_to_two_to_the_64():
    spec = parse_spec(MINIMAL + "seed_base: 18446744073709551612\ntrials: 4\n")
    assert spec.seed_base + spec.trials == 2**64


def test_uniform_rows_rejects_seed_base_out_of_range():
    for seed_base, trials in [(-1, 1), (2**64 - 3, 4), (2**64, 1)]:
        with pytest.raises(ValueError, match="seed_base"):
            _uniform_rows(seed_base, trials, 2)
    assert _uniform_rows(2**64 - 4, 4, 2).shape == (4, 2)


def test_spec_round_trip():
    spec = parse_spec(MINIMAL + "trials: 7\nseed_base: 3\n")
    again = parse_spec(serialize_spec(spec))
    assert again == spec
    much = parse_spec(
        "mode: fast-much\nchannels: 3\nnodes_per_channel: 4\n"
        "alpha: [0.2, 0.4]\ngamma: [0.6]\nepsilon: [1.0e-3]\ntrials: 5\n"
    )
    assert parse_spec(serialize_spec(much)) == much


def test_default_grids_by_mode():
    plain = parse_spec("mode: desync\nn: 4\n")
    paired = parse_spec("mode: fast-desync\nn: 4\n")
    assert len(plain.alphas) == 19 and max(plain.alphas) == 0.95
    assert len(paired.alphas) == 10 and max(paired.alphas) == 0.5
    assert plain.epsilons == (1e-3, 1e-4)


def test_initial_phase_sampling_sorted_unique():
    for t in range(20):
        phi = sample_initial_phases(np.random.default_rng(t), 8)
        assert np.all(np.diff(phi) > 0)
        assert phi.min() >= 0 and phi.max() < 1


def test_batch_matches_single_run_rounds_exactly():
    n, alpha, eps, trials = 5, 0.35, 1e-3, 20
    phi0 = initial_phase_batch(n, trials, seed_base=100)
    batch = run_desync_batch(phi0, alpha, eps, max_rounds=10000)
    fast = run_fast_desync_batch(phi0, alpha, eps, max_rounds=10000)
    p = SingleChannelProblem(n, alpha, eps)
    for t in range(trials):
        rep = run_until_convergence(DesyncState(phi0[t].copy()), p)
        assert batch.rounds[t] == rep.rounds
        repf = run_until_convergence(NesterovState.initial(phi0[t].copy()), p)
        assert fast.rounds[t] == repf.rounds


def test_multichannel_batch_matches_single_run():
    C, n, beta, gamma, eps, trials = 3, 4, 0.2, 0.6, 1e-3, 8
    phi0 = initial_multichannel_batch(C, n, trials, seed_base=50)
    batch = run_sync_desync_batch(phi0, beta, gamma, eps, max_rounds=100000)
    fast = run_sync_desync_batch(phi0, beta, gamma, eps, max_rounds=100000, fast=True)
    problem = MultichannelProblem.uniform(C, n, beta, gamma)
    for t in range(trials):
        st = MultichannelState.initial(list(phi0[t]))
        rep = run_until_convergence(st, problem, epsilon=eps, max_rounds=100000)
        assert batch.rounds[t] == rep.rounds
        stf = MultichannelState.initial(list(phi0[t]), nesterov=True)
        repf = run_until_convergence(stf, problem, epsilon=eps, max_rounds=100000)
        assert fast.rounds[t] == repf.rounds


def small_spec(**kw):
    base = dict(
        mode="desync", n=4, channels=None, nodes_per_channel=None,
        alphas=(0.3, 0.5), gammas=(0.6,), epsilons=(1e-3,),
        trials=5, seed_base=0, out_dir="results",
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_sweep_produces_paired_rows_with_speedup():
    result = run_sweep(small_spec())
    assert len(result.rows) == 4  # 2 alphas x (plain, fast)
    by_mode = {}
    for r in result.rows:
        by_mode.setdefault(r.mode, []).append(r)
    assert set(by_mode) == {"desync", "fast-desync"}
    for d, f in zip(by_mode["desync"], by_mode["fast-desync"]):
        assert d.alpha == f.alpha
        assert d.speedup_pct == f.speedup_pct
        expected = 100.0 * (d.mean_rounds - f.mean_rounds) / d.mean_rounds
        assert d.speedup_pct == pytest.approx(expected, abs=1e-12)


def test_sweep_csv_deterministic(tmp_path):
    spec = small_spec()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(run_sweep(spec), p1)
    write_sweep_csv(run_sweep(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == SWEEP_CSV_HEADER


def rows_equal(a, b):
    for field in a.__dataclass_fields__:
        va, vb = getattr(a, field), getattr(b, field)
        if isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), field
        else:
            assert va == vb, field


def test_sweep_worker_invariance():
    spec = small_spec(trials=4)
    serial = run_sweep(spec)
    parallel = run_sweep(ExperimentSpec(**{**spec.__dict__, "workers": 2}))
    for a, b in zip(serial.rows, parallel.rows):
        rows_equal(a, b)


def test_multichannel_sweep_reports_alpha_convention():
    spec = small_spec(mode="much", n=None, channels=3, nodes_per_channel=4,
                      alphas=(0.4,), trials=3)
    result = run_sweep(spec)
    assert {r.mode for r in result.rows} == {"much", "fast-much"}
    for r in result.rows:
        assert r.alpha == 0.4  # stored as alpha = 2*beta
        assert r.gamma == 0.6
        assert r.channels == 3 and r.n == 4
        assert math.isnan(r.bound_desync)


def test_compare_bounds_rows_and_compliance():
    spec = small_spec(alphas=(0.5,), epsilons=(1e-4,), trials=30, n=8)
    rows = compare_bounds(spec)
    assert len(rows) == 1
    row = rows[0]
    assert row.bound_desync == pytest.approx(210000.0, rel=1e-12)
    assert row.bound_fast == pytest.approx(2 * math.sqrt(210000.0), rel=1e-12)
    assert not row.violated
    assert row.max_rounds_desync <= row.bound_desync
    assert row.max_rounds_fast <= row.bound_fast


def test_certify_spectra_grid_and_rejection():
    rows = certify_spectra(ns=(3, 4), cs=(2, 3), betas=(0.25,), gammas=(0.6,))
    assert len(rows) == 4
    assert all(r.passed for r in rows)
    with pytest.raises(SpecError):
        certify_spectra(ns=(4,), cs=(4,), betas=(0.6,), gammas=(0.6,))
    with pytest.raises(SpecError):
        certify_spectra(ns=(4,), cs=(4,), betas=(0.25,), gammas=(1.0,))


def test_emit_plotdata_and_summary_round_trip(tmp_path):
    result = run_sweep(small_spec(trials=3))
    paths = emit_plotdata(result, tmp_path)
    assert any(str(p).endswith("summary.json") for p in paths)
    dat_files = [p for p in paths if str(p).endswith(".dat")]
    assert dat_files
    for p in dat_files:
        lines = open(p).read().splitlines()
        assert lines[0].startswith("# alpha")
        assert len(lines) > 1
    loaded = load_summary(os.path.join(tmp_path, "summary.json"))
    assert loaded.spec == result.spec
    assert len(loaded.rows) == len(result.rows)
    for a, b in zip(loaded.rows, result.rows):
        for field in ("mode", "n", "channels", "alpha", "epsilon", "trials",
                      "mean_rounds", "max_rounds", "std_rounds", "speedup_pct"):
            va, vb = getattr(a, field), getattr(b, field)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb


def test_load_summary_defaults_missing_keys_and_ignores_unknown(tmp_path):
    result = run_sweep(small_spec(trials=3))
    emit_plotdata(result, tmp_path)
    path = os.path.join(tmp_path, "summary.json")
    with open(path) as fh:
        doc = json.load(fh)
    # an older summary: written before these spec fields existed
    for key in ("loss_probability", "staleness_mode", "workers", "max_rounds"):
        del doc["spec"][key]
    doc["spec"]["retired_field"] = 1
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert load_summary(path).spec == result.spec


def test_empty_sweep_emits_headers_only(tmp_path):
    result = run_sweep(small_spec())
    result.rows = []
    write_sweep_csv(result, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text().splitlines() == [SWEEP_CSV_HEADER]
    paths = emit_plotdata(result, tmp_path)
    assert any(str(p).endswith("summary.json") for p in paths)


def test_written_fields_parse_as_numbers(tmp_path):
    spec = small_spec(trials=3)
    result = run_sweep(spec)
    write_sweep_csv(result, tmp_path / "sweep.csv")
    write_bounds_csv(compare_bounds(spec), tmp_path / "bounds.csv")
    write_spectra_csv(
        certify_spectra(ns=(3,), cs=(2,), betas=(0.25,), gammas=(0.6,)),
        tmp_path / "spectra.csv",
    )
    dat = [p for p in emit_plotdata(result, tmp_path / "plot") if p.endswith(".dat")]
    sim = run_simulation(SimConfig(n=6, channels=2, rng_seed=1, max_rounds=20))
    trace_to_csv(sim.trace, tmp_path / "trace.csv", 2)

    def body(path, sep=","):
        lines = open(path).read().splitlines()
        assert len(lines) > 1
        return [line.split(sep) for line in lines[1:]]

    rows = [r[1:] for r in body(tmp_path / "sweep.csv")]  # column 0 is the mode name
    for name in ("bounds.csv", "spectra.csv", "trace.csv"):
        rows += body(tmp_path / name)
    for p in dat:
        rows += body(p, sep=" ")
    for field in (f for r in rows for f in r):
        float(field)  # ints parse as floats too; "np.float64(...)" raises


def test_eventsim_sweep_mode():
    spec = small_spec(mode="event-sim", n=4, channels=1, alphas=(0.5,), trials=4)
    result = run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.mode == "event-sim"
    assert row.failures == 0
    assert row.mean_rounds > 0
