"""Pinned digests of the sweep, bounds, spectra and summary outputs.

The digests pin the written bytes of small sweeps that cover a diverging
accelerated point, a multichannel grid, trials that hit the round cap and
an event-simulation sweep with one capped simulation, and of a spectral
certificate grid, so any change to the round arithmetic, the batch
bookkeeping or the output writers fails them.
"""

import hashlib

import numpy as np
import pytest

from desynclab.experiments import (
    ExperimentSpec,
    certify_spectra,
    compare_bounds,
    emit_plotdata,
    run_sweep,
    write_bounds_csv,
    write_spectra_csv,
    write_sweep_csv,
)

SPECS = {
    # fast-desync diverges at alpha = 0.8, outside its bound's guarantee, so
    # bounds.csv does not mark that row violated
    "desync": ExperimentSpec(mode="desync", n=16, alphas=(0.3, 0.8),
                             epsilons=(1e-3,), trials=24, seed_base=11),
    "much": ExperimentSpec(mode="much", channels=3, nodes_per_channel=4,
                           alphas=(0.4, 0.9), gammas=(0.6,), epsilons=(1e-3,),
                           trials=12, seed_base=5),
    # all plain trials at alpha = 0.1 and 14 of 16 accelerated ones at
    # alpha = 0.7 stop at the cap
    "capped": ExperimentSpec(mode="desync", n=8, alphas=(0.1, 0.7),
                             epsilons=(1e-6,), trials=16, seed_base=3,
                             max_rounds=40),
    # one of the three simulations stops at the cap
    "event-sim": ExperimentSpec(mode="event-sim", n=6, channels=2, alphas=(0.5,),
                                epsilons=(1e-3,), trials=3, seed_base=7,
                                max_rounds=12),
}

GOLDEN = {
    "capped": {
        "bounds.csv": "61ec3639d53d29ec7fba047f23e0d6727b4c71e31e53211846803d292b2c8cec",
        "summary.json": "068ad3a85e76b03c003f259ee4d859a1cd0034ac2334b86f17ffde69129f0af8",
        "sweep.csv": "7556f18e6deac1356b9fb4c89debe9593669614be21ece6a27259b07bfaec810",
    },
    "desync": {
        "bounds.csv": "e443d295fe00dfc8510166843ba8032c3b1eaa12a5b286171302a86657c3e649",
        "summary.json": "fa9853ea0e23f5d10de84877df1ea5b799592827574ac10f8842c8933b6a4fe4",
        "sweep.csv": "d365df57b40d95075a0146db69b04017b6114fec23549dc70661a374036fed07",
    },
    "event-sim": {
        "summary.json": "bfc573d76c68604142cb212ec43f91f4848ef64988f50211626165931ef02c0d",
        "sweep.csv": "400ce728781d06f3fa648fae4392dd7d17c23e69e2592838cf34a11cf7d1d17c",
    },
    "much": {
        "spectra.csv": "d2378afd6f057960964c9fd2c5b676938d006888c5e86a439c7d55bfc0adcd7d",
        "summary.json": "702df13f21ada36f334ce374d55674c4ea2497999caa605dd9bf9832022feb28",
        "sweep.csv": "0dec36289d4a8f1be3baebbe6495d4e6a6e4f3eacd9a281c726cb12fb2b99d6b",
    },
}


def sweep_outputs(spec, out_dir):
    result = run_sweep(spec)
    write_sweep_csv(result, out_dir / "sweep.csv")
    emit_plotdata(result, out_dir)
    names = ["sweep.csv", "summary.json"]
    if spec.mode == "desync":
        write_bounds_csv(compare_bounds(spec), out_dir / "bounds.csv")
        names.append("bounds.csv")
    if spec.mode == "much":
        # the certificate grid `desynclab spectra` derives from the spec
        betas = tuple(a / 2.0 for a in spec.alphas)
        write_spectra_csv(certify_spectra((spec.nodes_per_channel,), (spec.channels,),
                                          betas, spec.gammas), out_dir / "spectra.csv")
        names.append("spectra.csv")
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_outputs_match_golden_digests(name, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        assert sweep_outputs(SPECS[name], tmp_path) == GOLDEN[name]
