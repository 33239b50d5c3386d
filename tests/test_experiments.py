import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import desynclab
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
)
from desynclab.experiments import (
    DEFAULT_ALPHAS,
    DEFAULT_ALPHAS_PAIRED,
    ExperimentSpec,
    _SPEC_KEYS,
    trace_to_csv,
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


MUCH = "mode: much\nchannels: 3\nnodes_per_channel: 4\nalpha: [0.4]\n"


@pytest.mark.parametrize("key,value", [
    ("n", "8.5"), ("trials", "2.9"), ("seed_base", "1.5"), ("workers", "1.9"),
    ("max_rounds", "10.5"), ("channels", "3.7"), ("nodes_per_channel", "4.2"),
    ("n", "true"), ("trials", "'4'"),
])
def test_parse_rejects_non_integral_integer_keys(key, value):
    base = MUCH if key in ("channels", "nodes_per_channel") else MINIMAL
    text = "".join(line for line in base.splitlines(keepends=True)
                   if not line.startswith(f"{key}:"))
    with pytest.raises(SpecError, match=f"{key} must be an integer"):
        parse_spec(f"{text}{key}: {value}\n")


def test_parse_accepts_integral_floats_for_integer_keys():
    spec = parse_spec("mode: much\nchannels: 3.0\nnodes_per_channel: 4\n"
                      "trials: 2.0\nmax_rounds: 1.0e+5\n")
    assert (spec.channels, spec.trials, spec.max_rounds) == (3, 2, 100000)
    assert all(type(v) is int for v in (spec.channels, spec.trials, spec.max_rounds))


@pytest.mark.parametrize("key,value", [
    ("epsilon", "true"), ("epsilon", "[x]"), ("epsilon", ".inf"), ("epsilon", "[.nan]"),
    ("alpha", "[0.5, false]"), ("gamma", "[abc]"),
    ("loss_probability", "false"), ("loss_probability", "abc"),
    ("loss_probability", "[0.1]"), ("loss_probability", "-.inf"),
])
def test_parse_rejects_non_numeric_float_keys(key, value):
    text = "".join(line for line in MINIMAL.splitlines(keepends=True)
                   if not line.startswith(f"{key}:"))
    with pytest.raises(SpecError, match=f"{key} must be a finite number"):
        parse_spec(f"{text}{key}: {value}\n")


def test_parse_accepts_exponents_without_a_dot():
    # PyYAML reads 1e-3 as a string; it still reads as a number
    spec = parse_spec("mode: event-sim\nn: 4\nalpha: [5e-1]\nepsilon: [1e-3, 2]\n"
                      "loss_probability: 1e-1\n")
    assert (spec.alphas, spec.epsilons, spec.loss_probability) == ((0.5,), (1e-3, 2.0), 0.1)
    # a single grid value may stand without brackets, as 1.0e-3 always could
    assert parse_spec("mode: desync\nn: 4\nepsilon: 1e-3\n").epsilons == (1e-3,)


@pytest.mark.parametrize("value", ["", "null", "7", "[a]", "true"])
def test_parse_rejects_non_string_out(value):
    # `out:` with no value is null; str(None) would write into ./None/
    with pytest.raises(SpecError, match="out must be a string"):
        parse_spec(f"{MINIMAL}out: {value}\n")
    assert parse_spec(f"{MINIMAL}out: runs/a\n").out_dir == "runs/a"


@pytest.mark.parametrize("channels", [0, -2])
def test_parse_rejects_eventsim_channels_below_one(channels):
    with pytest.raises(SpecError, match=f"^channels must be >= 1, got {channels}$"):
        parse_spec(f"mode: event-sim\nn: 4\nchannels: {channels}\n")
    assert parse_spec("mode: event-sim\nn: 4\n").channels == 1


def test_parse_requires_mode():
    # mode has no default, so it is checked before the spec is built
    for text in ("n: 4\n", ""):
        with pytest.raises(SpecError, match="mode must be one of"):
            parse_spec(text)


@pytest.mark.parametrize("key", sorted(_SPEC_KEYS))
def test_parse_rejects_keys_with_no_value(key):
    # a key written with no value is YAML null, a wrong type like any other
    text = "".join(line for line in MINIMAL.splitlines(keepends=True)
                   if not line.startswith(f"{key}:"))
    match = {"mode": "mode must be one of",
             "staleness_mode": "unknown staleness_mode: None"}.get(key, f"^{key} must be")
    with pytest.raises(SpecError, match=match):
        parse_spec(f"{text}{key}:\n")


# a valid config of each mode, and a valid value of each key some mode reads
BASE_CONFIGS = {
    "desync": "mode: desync\nn: 4\n",
    "fast-desync": "mode: fast-desync\nn: 4\n",
    "much": "mode: much\nchannels: 2\nnodes_per_channel: 3\n",
    "fast-much": "mode: fast-much\nchannels: 2\nnodes_per_channel: 3\n",
    "event-sim": "mode: event-sim\nn: 4\n",
}
MODE_KEY_VALUES = {
    "n": "4", "channels": "1", "nodes_per_channel": "4", "gamma": "[0.3]",
    "loss_probability": "0.0", "staleness_mode": "assumption1",
}
UNREAD_KEYS = [
    *[(mode, key) for mode in ("desync", "fast-desync")
      for key in ("channels", "nodes_per_channel", "gamma", "loss_probability",
                  "staleness_mode")],
    *[(mode, key) for mode in ("much", "fast-much")
      for key in ("n", "loss_probability", "staleness_mode")],
    ("event-sim", "nodes_per_channel"),
]


@pytest.mark.parametrize("mode, key", UNREAD_KEYS)
def test_parse_rejects_keys_the_mode_does_not_read(mode, key):
    text = BASE_CONFIGS[mode] + f"{key}: {MODE_KEY_VALUES[key]}\n"
    with pytest.raises(SpecError, match=f"^mode {mode} does not read {key}$"):
        parse_spec(text)


def test_parse_accepts_every_key_its_mode_reads():
    unread = set(UNREAD_KEYS)
    for mode, base in BASE_CONFIGS.items():
        given = {line.split(":")[0] for line in base.splitlines()}
        extra = "".join(f"{key}: {value}\n" for key, value in MODE_KEY_VALUES.items()
                        if key not in given and (mode, key) not in unread)
        parse_spec(base + extra)
    with pytest.raises(SpecError, match="^mode desync does not read channels, gamma$"):
        parse_spec("mode: desync\nn: 4\ngamma: [0.3]\nchannels: 3\n")


@pytest.mark.parametrize("call, text, match", [
    (parse_spec, "mode: [desync\n", "^malformed config: "),
    (parse_spec, "- mode\n- desync\n", "^config must be a mapping$"),
    (parse_spec, "mode: desync\nn: 4\nepsilon: [1.0e-3, 0]\n", r"^epsilon must be > 0, got 0\.0$"),
    (parse_spec, "mode: much\nchannels: 1\nnodes_per_channel: 3\n",
     "^need channels >= 2 and nodes_per_channel >= 2$"),
    (parse_spec, "mode: fast-much\nchannels: 3\nnodes_per_channel: 1\n",
     "^need channels >= 2 and nodes_per_channel >= 2$"),
    (parse_spec, "mode: event-sim\nn: 0\n", "^n must be >= 1, got 0$"),
    (parse_spec, "mode: event-sim\n", "^n must be an integer, got None$"),
    (parse_spec, "mode: event-sim\nn: 4\nloss_probability: 1.0\n",
     r"^loss_probability out of \[0,1\): 1\.0$"),
    (parse_spec, "mode: event-sim\nn: 4\nloss_probability: -0.1\n",
     r"^loss_probability out of \[0,1\): -0\.1$"),
    (parse_spec, MINIMAL + "max_rounds: 0\n", "^max_rounds must be >= 1, got 0$"),
    (lambda text: compare_bounds(parse_spec(text)), BASE_CONFIGS["much"],
     "^bound comparison needs a single-channel mode$"),
    (parse_spec, "mode: event-sim\nn: 8\nchannels: 2\nstaleness_mode: assumption1\n",
     "^staleness_mode='assumption1' is exact only on one channel; "
     "it requires channels=1, got channels=2$"),
    # the simulator's own checks run on the spec's points, so the sweep cannot fail on them
    (parse_spec, "mode: event-sim\nn: 4\nloss_probability: 0.5\nstaleness_mode: assumption1\n",
     "^assumption1 mode models perfect reception; it requires zero loss and full "
     "connectivity$"),
], ids=["malformed", "not-a-mapping", "epsilon-zero", "much-channels-1",
        "much-nodes-1", "eventsim-n-0", "eventsim-n-missing", "loss-1", "loss-negative",
        "max-rounds-0", "bounds-on-much", "assumption1-channels-2", "assumption1-loss"])
def test_spec_validation_messages(call, text, match):
    with pytest.raises(SpecError, match=match):
        call(text)


def test_absent_keys_take_the_spec_defaults():
    assert parse_spec("mode: desync\nn: 4\n") == ExperimentSpec(
        mode="desync", n=4, alphas=DEFAULT_ALPHAS)
    assert parse_spec("mode: event-sim\nn: 4\n") == ExperimentSpec(
        mode="event-sim", n=4, channels=1, alphas=DEFAULT_ALPHAS)


def test_constructed_spec_takes_the_mode_defaults():
    spec = ExperimentSpec(mode="desync", n=4, trials=2)
    assert spec.alphas == DEFAULT_ALPHAS
    assert len(run_sweep(spec).rows) == 2 * len(DEFAULT_ALPHAS) * len(spec.epsilons)
    assert ExperimentSpec(mode="fast-desync", n=4).alphas == DEFAULT_ALPHAS_PAIRED
    assert ExperimentSpec(mode="event-sim", n=4).channels == 1


@pytest.mark.parametrize("key, field, value", [
    ("trials", "trials", 0), ("workers", "workers", 0), ("mode", "mode", "warp"),
    ("alpha", "alphas", (1.5,)), ("max_rounds", "max_rounds", 0),
], ids=["trials-0", "workers-0", "mode-warp", "alpha-1.5", "max-rounds-0"])
def test_replaced_spec_fails_with_the_parse_message(key, field, value):
    with pytest.raises(SpecError) as parsed:
        parse_spec(MINIMAL, {key: list(value) if isinstance(value, tuple) else value})
    with pytest.raises(SpecError) as replaced:
        replace(parse_spec(MINIMAL), **{field: value})
    assert str(replaced.value) == str(parsed.value)


@pytest.mark.parametrize("kw, match", [
    (dict(n=4.5), "^n must be an integer, got 4.5$"),
    (dict(trials=True), "^trials must be an integer, got True$"),
    (dict(seed_base=1.5), "^seed_base must be an integer, got 1.5$"),
    (dict(workers="2"), "^workers must be an integer, got '2'$"),
    (dict(max_rounds=10.5), "^max_rounds must be an integer, got 10.5$"),
    (dict(epsilons=(float("nan"),)), "^epsilon must be a finite number, got nan$"),
], ids=["n-fraction", "trials-bool", "seed-fraction", "workers-string", "max-rounds-fraction",
        "epsilon-nan"])
def test_constructed_spec_checks_integers_and_nan(kw, match):
    # built, these fail later in run_sweep with numpy's errors or a plain
    # ValueError, and a summary holding them passes load_summary
    with pytest.raises(SpecError, match=match):
        ExperimentSpec(**{"mode": "desync", "n": 4, **kw})
    with pytest.raises(SpecError, match=match):
        replace(ExperimentSpec(mode="desync", n=4), **kw)


EVENT_SIM = "mode: event-sim\nn: 4\n"


def _spec_paths(tmp_path, key, text, value):
    """The four ways to an event-sim spec with config key `key` set: YAML
    `text` through parse_spec, and the Python `value` through construction,
    dataclasses.replace and a summary.json read by load_summary."""
    field = _SPEC_KEYS[key].field

    def loaded():
        path = tmp_path / "summary.json"
        # a numpy scalar is written as the JSON number it holds
        path.write_text(json.dumps({"spec": {**asdict(parse_spec(EVENT_SIM)), field: value},
                                    "rows": []}, default=lambda v: v.item()))
        return load_summary(path).spec

    return {
        "parse_spec": lambda: parse_spec(f"{EVENT_SIM}{key}: {text}\n"),
        "constructed": lambda: ExperimentSpec(**{"mode": "event-sim", "n": 4, field: value}),
        "replaced": lambda: replace(parse_spec(EVENT_SIM), **{field: value}),
        "load_summary": loaded,
    }


@pytest.mark.parametrize("key, text, value, message", [
    ("loss_probability", "false", False, "loss_probability must be a finite number, got False"),
    ("epsilon", "[1.0e-3, true]", [1e-3, True], "epsilon must be a finite number, got True"),
    ("epsilon", "[abc]", ["abc"], "epsilon must be a finite number, got 'abc'"),
    ("loss_probability", "abc", "abc", "loss_probability must be a finite number, got 'abc'"),
    ("epsilon", "[.inf]", [math.inf], "epsilon must be a finite number, got inf"),
    ("loss_probability", ".inf", math.inf, "loss_probability must be a finite number, got inf"),
    ("epsilon", "[.nan]", [math.nan], "epsilon must be a finite number, got nan"),
    ("loss_probability", ".nan", math.nan, "loss_probability must be a finite number, got nan"),
    ("out", "7", 7, "out must be a string, got 7"),
    ("alpha", "[]", [], "alpha must be a nonempty list of numbers"),
], ids=["bool-float", "bool-grid", "string-grid", "string-float", "inf-grid", "inf-float",
        "nan-grid", "nan-float", "out-int", "alpha-empty"])
def test_every_path_rejects_a_bad_value_with_one_message(tmp_path, key, text, value, message):
    for path, build in _spec_paths(tmp_path, key, text, value).items():
        with pytest.raises(SpecError) as exc:
            build()
        assert str(exc.value) == message, path


@pytest.mark.parametrize("key, text, value, read", [
    ("epsilon", "[1e-3, 2]", ["1e-3", 2], (1e-3, 2.0)),
    ("loss_probability", "1e-1", "1e-1", 0.1),
    ("alpha", "[0.5, 0.25]", [0.5, 0.25], (0.5, 0.25)),
    ("gamma", "0.3", 0.3, (0.3,)),
    ("n", "16", np.int64(16), 16),
], ids=["numeric-strings-grid", "numeric-string-float", "list-grid", "scalar-grid",
        "numpy-int"])
def test_every_path_reads_a_value_as_parse_spec_does(tmp_path, key, text, value, read):
    specs = [build() for build in _spec_paths(tmp_path, key, text, value).values()]
    assert getattr(specs[0], _SPEC_KEYS[key].field) == read
    assert all(spec == specs[0] for spec in specs)
    assert len({hash(spec) for spec in specs}) == 1


def test_constructed_spec_normalises_integral_floats():
    spec = ExperimentSpec(mode="much", channels=3.0, nodes_per_channel=4, trials=2.0)
    assert (spec.channels, spec.trials) == (3, 2)
    assert type(spec.channels) is int and type(spec.trials) is int


def test_spec_without_a_mode_fails_the_mode_check():
    with pytest.raises(SpecError, match="^mode must be one of .*, got None$"):
        ExperimentSpec(n=4)


def test_uniform_rows_rejects_seed_base_out_of_range():
    for seed_base, trials in [(-1, 1), (2**64 - 3, 4), (2**64, 1)]:
        with pytest.raises(ValueError, match="seed_base"):
            _uniform_rows(seed_base, trials, 2)
    assert _uniform_rows(2**64 - 4, 4, 2).shape == (4, 2)


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


@pytest.mark.parametrize("kw", [
    {}, dict(mode="much", n=None, channels=2, nodes_per_channel=3, alphas=(0.5,)),
], ids=["desync", "much"])
def test_paired_rows_hold_python_floats(kw):
    rows = run_sweep(small_spec(**kw)).rows
    assert rows and all(type(r.speedup_pct) is float for r in rows)


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


@pytest.mark.parametrize("kw", [
    dict(trials=4),
    dict(mode="much", n=None, channels=3, nodes_per_channel=4, alphas=(0.4, 0.9), trials=4),
    dict(mode="event-sim", n=8, channels=2, trials=3),
], ids=["desync", "much", "event-sim"])
def test_sweep_worker_invariance(kw):
    spec = small_spec(**kw)  # two alphas, one gamma, one epsilon
    serial = run_sweep(spec)
    parallel = run_sweep(replace(spec, workers=2))
    rows = 2 if spec.mode == "event-sim" else 4  # the batch modes pair plain and fast
    assert len(serial.rows) == len(parallel.rows) == rows
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


def test_emit_plotdata_writes_one_series_per_gamma(tmp_path):
    # a .dat row carries no gamma, so each gamma of a multichannel grid gets
    # its own file; single-channel names carry none
    much = run_sweep(small_spec(mode="much", n=None, channels=3, nodes_per_channel=4,
                                alphas=(0.4,), gammas=(0.3, 0.6), trials=3))
    names = sorted(os.path.basename(p) for p in emit_plotdata(much, tmp_path / "much"))
    assert names == [
        "fast-much_n4_c3_g0.3_eps0.001.dat", "fast-much_n4_c3_g0.6_eps0.001.dat",
        "much_n4_c3_g0.3_eps0.001.dat", "much_n4_c3_g0.6_eps0.001.dat", "summary.json",
    ]
    for gamma in (0.3, 0.6):
        (row,) = [r for r in much.rows if r.mode == "much" and r.gamma == gamma]
        lines = (tmp_path / "much" / f"much_n4_c3_g{gamma}_eps0.001.dat").read_text()
        assert [float(v) for v in lines.splitlines()[1].split()] == [
            row.alpha, row.mean_rounds, row.max_rounds, row.std_rounds, row.speedup_pct]
    single = run_sweep(small_spec(trials=3))
    names = sorted(os.path.basename(p) for p in emit_plotdata(single, tmp_path / "single"))
    assert names == ["desync_n4_c1_eps0.001.dat", "fast-desync_n4_c1_eps0.001.dat",
                     "summary.json"]


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


@pytest.mark.parametrize("key, value, match", [
    ("mode", "warp", "^mode must be one of .*, got 'warp'$"),
    ("trials", 0, "^trials must be >= 1, got 0$"),
])
def test_load_summary_checks_the_spec(tmp_path, key, value, match):
    emit_plotdata(run_sweep(small_spec(trials=3)), tmp_path)
    path = os.path.join(tmp_path, "summary.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["spec"][key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(SpecError, match=match):
        load_summary(path)


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


def test_import_leaves_yaml_and_process_pools_out():
    # parse_spec imports yaml, and run_sweep with workers > 1 imports
    # concurrent.futures, on first use, so `import desynclab` pays for neither
    src = str(Path(desynclab.__file__).resolve().parents[1])
    code = ("import sys, desynclab; "
            "print([m for m in ('yaml', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
