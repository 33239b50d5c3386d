"""Pinned digests of the round engine's runs to convergence.

Each case runs `run_until_convergence` from a few seeded starts and hashes,
per run, the trace bytes, the round count, `converged`, and the initial and
final objectives, or the text of the FloatingPointError of a diverging run.
The cases cover the four round variants: plain and accelerated single
channel at several n, stable, predicted-unstable and capped; plain and
accelerated multichannel on equal and ragged channel counts, diverging and
capped. Any change to the round arithmetic, the abort rule or the runner's
bookkeeping fails them.
"""

import hashlib

import numpy as np
import pytest

from desynclab import (
    DesyncState,
    MultichannelProblem,
    MultichannelState,
    NesterovState,
    SingleChannelProblem,
    run_until_convergence,
)

SEEDS = (0, 1, 2)

# name: (channel counts, alpha, gamma, epsilon, cap, accelerated); a single
# count is a single-channel problem, gamma is then unused
CASES = {
    "desync-n4": ((4,), 0.5, None, 1e-6, None, False),
    "desync-n7": ((7,), 0.3, None, 1e-5, None, False),
    "desync-n8": ((8,), 0.8, None, 1e-5, None, False),
    "desync-n16": ((16,), 0.3, None, 1e-4, None, False),
    "desync-capped": ((8,), 0.1, None, 1e-6, 40, False),
    "fast-desync-n4": ((4,), 0.5, None, 1e-6, None, True),
    "fast-desync-n7": ((7,), 0.3, None, 1e-5, None, True),
    "fast-desync-n8": ((8,), 0.6, None, 1e-5, None, True),
    "fast-desync-n16": ((16,), 0.3, None, 1e-4, None, True),
    # predicted unstable: alpha beyond 2/3 at even n
    "fast-desync-unstable": ((16,), 0.8, None, 1e-3, None, True),
    "fast-desync-capped": ((8,), 0.7, None, 1e-6, 40, True),
    "much-444": ((4, 4, 4), 0.4, 0.6, 1e-5, None, False),
    "much-234": ((2, 3, 4), 0.4, 0.6, 1e-5, None, False),
    "much-3574": ((3, 5, 7, 4), 0.5, 0.5, 1e-4, None, False),
    "much-capped": ((3, 5, 7, 4), 0.4, 0.6, 1e-6, 25, False),
    "fast-much-444": ((4, 4, 4), 0.4, 0.6, 1e-5, None, True),
    "fast-much-234": ((2, 3, 4), 0.4, 0.6, 1e-5, None, True),
    "fast-much-3574": ((3, 5, 7, 4), 0.5, 0.5, 1e-4, None, True),
    # predicted unstable: alpha beyond 0.781 at 4 nodes per channel
    "fast-much-unstable": ((4, 4, 4), 0.9, 0.6, 1e-3, None, True),
    "fast-much-capped": ((2, 3, 4), 0.4, 0.6, 1e-12, 25, True),
}

GOLDEN = {
    "desync-capped": "df4490c382aac3ef64157b01082f61ab0dead6d7f8187b1c1fd32dec28ce0088",
    "desync-n16": "50b49906d66c22ce4800e97c9c7b372a791490bbd3248ae896c3c7881c8904f2",
    "desync-n4": "5e0445c7616dbb61d85a03d7264f6327e3337de7c2f0d3ee30a50d5e4687ce97",
    "desync-n7": "f9f847f1477d4e4ee399972562c95339861e357733b83519ffab8de87e04d15b",
    "desync-n8": "da8d24355b1cdfb989dade366374d310f1d152b98a13236e11090af2e544d9a1",
    "fast-desync-capped": "4ab5bd0af4af02744c54e072265cb580ea28788896ef5a9828ab75fd77bda54f",
    "fast-desync-n16": "d20eae24b81c2e6fe6ea1232dfd5dea221c0447e97cf1c87f739c4c6318ea4d6",
    "fast-desync-n4": "48ca496bcf9c87a49841509fa3101106aaf5f3c007ed262958901a9690e6e0bf",
    "fast-desync-n7": "95daefd6bfc848acfe16fe411ec8cb6938398f5a8e16f7a4c871badd87dd1c57",
    "fast-desync-n8": "0f48b329d5159a690d8cfa1543590399f0720a0f4e71f380129ed3cefda51f70",
    "fast-desync-unstable": "139d37babdd1145b9f4ac80b18094fc5b80a90a61617d884b46cdb5f3b5c8881",
    "fast-much-234": "2827eb8aad0e3271059b058ce042b31affb56389c02970113e800fd6a292a9ff",
    "fast-much-3574": "edf2015854688d2f839071f4ed8e647312d4f1da629aee0c1311b0c6866dec4d",
    "fast-much-444": "6844f516ed76f477edaa2f4b0941a8f562b27bb4d6f7eef8edf47447888ae540",
    "fast-much-capped": "26bce9827a7dab6c050a5ca48f9a620736bdb0e12370e37c7045182afd38f741",
    "fast-much-unstable": "e7b3de0a7ac5afbaf1298e17367f2a1168bd656d29d8d19f95536f06cdf106d9",
    "much-234": "daf06a95581793bccc086d9006640e5bd89cb82131d0c09af742f65e1c47c287",
    "much-3574": "3f03904e15c43ae510ed8d861aa39011d9f98c8af984db2fb51cadf6c17627f8",
    "much-444": "8763bdb5c99dd748488f53976ad2eb763782fcd5488a622afcf5e219c122aedb",
    "much-capped": "af2545beb1ef3a887852a742dc453a2f31432b25e980e76620dce8f9bee48835",
}


def run_record(counts, alpha, gamma, epsilon, cap, fast, seed):
    rng = np.random.default_rng(seed)
    starts = [np.sort(rng.random(n)) for n in counts]
    if len(counts) == 1:
        problem = SingleChannelProblem(counts[0], alpha, epsilon)
        state = NesterovState.initial(starts[0]) if fast else DesyncState(starts[0])
    else:
        problem = MultichannelProblem(counts, alpha / 2.0, gamma)
        state = MultichannelState.initial(starts, nesterov=fast)
    try:
        rep = run_until_convergence(state, problem, epsilon=epsilon, max_rounds=cap)
    except FloatingPointError as exc:
        return f"FloatingPointError: {exc}".encode()
    return rep.trace.tobytes() + repr(
        (rep.rounds, rep.converged, rep.initial_objective, rep.final_objective)
    ).encode()


def case_digest(name):
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(run_record(*CASES[name], seed))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_runs_match_golden_digests(name):
    assert case_digest(name) == GOLDEN[name]
