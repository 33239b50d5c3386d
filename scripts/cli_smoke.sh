#!/usr/bin/env bash
# Run every `desynclab` console-script command on small configs, and on the
# shipped configs in `configs/` with small trial counts, and check their exit
# codes. Run it from an empty scratch directory, with the package installed:
#
#     cd "$(mktemp -d)" && bash /path/to/repo/scripts/cli_smoke.sh
#
# It needs only the runtime dependencies (numpy, pyyaml).
set -eo pipefail
configs="$(cd "$(dirname "$0")/../configs" && pwd)"

printf 'mode: much\nchannels: 4\nnodes_per_channel: 4\n' > much.yaml
printf 'mode: event-sim\nn: 8\nchannels: 2\nalpha: 0.5\nepsilon: 1e-3\nseed_base: 1\n' > sim.yaml
printf 'mode: desync\nn: 8\nalpha: [0.3]\ntrials: 16\n' > sweep.yaml
desynclab spectra --config much.yaml --out cli-out
desynclab simulate --config sim.yaml --out cli-out
# every CSV ends its lines in LF, trace.csv included
if grep -q $'\r' cli-out/trace.csv; then echo "trace.csv has CR line ends"; exit 1; fi
desynclab sweep --config sweep.yaml --out cli-out
desynclab bounds --config sweep.yaml --out cli-out
# fast-desync diverges at alpha = 0.8, outside its bound's guarantee: exit 0
printf 'mode: desync\nn: 8\nalpha: [0.3, 0.8]\ntrials: 24\n' > bounds-two-alpha.yaml
desynclab bounds --config bounds-two-alpha.yaml --out cli-out
# bounds and sweep both count their rounds from the spectrum: every
# bounds.csv maximum equals the max_rounds of the sweep.csv row of its mode
# and point, the diverging fast-desync row included (so sweep exits 4)
rc=0; desynclab sweep --config bounds-two-alpha.yaml --out cross || rc=$?; test "$rc" -eq 4
python - cli-out/bounds.csv cross/sweep.csv <<'EOF'
import csv, sys
bounds, sweep = (list(csv.DictReader(open(path))) for path in sys.argv[1:])
observed = {(r["mode"], r["alpha"], r["epsilon"]): r["max_rounds"] for r in sweep}
assert len(bounds) == 4 and len(observed) == 8, (len(bounds), len(observed))
for b in bounds:
    for mode, column in (("desync", "max_rounds_desync"), ("fast-desync", "max_rounds_fast")):
        assert b[column] == observed[mode, b["alpha"], b["epsilon"]], (mode, b)
EOF
# the batch loop, the counter's oracle, run on the config's starts gives the
# sweep's max_rounds, mean_rounds and failures in both modes
python - bounds-two-alpha.yaml cross/sweep.csv cross/summary.json <<'EOF'
import csv, json, sys
from desynclab.experiments import parse_spec
from desynclab.problems import SingleChannelProblem
from desynclab.rounds import default_max_rounds
from desynclab.trials import _run_batch, initial_phase_batch
spec = parse_spec(open(sys.argv[1]).read())
rows = list(csv.DictReader(open(sys.argv[2])))
failures = [r["failures"] for r in json.load(open(sys.argv[3]))["rows"]]
assert len(rows) == len(failures) == 8, (len(rows), len(failures))
phi0 = initial_phase_batch(spec.n, spec.trials, spec.seed_base)
diverged = 0
for row, failed in zip(rows, failures):
    alpha, epsilon = float(row["alpha"]), float(row["epsilon"])
    cap = spec.max_rounds or default_max_rounds(spec.n, alpha, epsilon)
    loop = _run_batch(phi0, SingleChannelProblem(spec.n, alpha, epsilon), epsilon, cap,
                      row["mode"] == "fast-desync")
    got = (int(row["max_rounds"]), float(row["mean_rounds"]), failed)
    assert got == (loop.rounds.max(), loop.rounds.mean(), (~loop.converged).sum()), row
    diverged += loop.aborted.sum()
assert diverged > 0  # the fast-desync rows at alpha = 0.8
EOF
desynclab plotdata --summary cli-out/summary.json --out cli-out/plots
# a key with no value, and an `out` that names a file, exit 2 (validation)
printf 'mode: desync\nn: 8\ntrials:\n' > null.yaml
printf 'mode: desync\nn: 8\nalpha: [0.3]\ntrials: 16\nout: taken\n' > taken.yaml
touch taken
rc=0; desynclab sweep --config null.yaml --out cli-out || rc=$?; test "$rc" -eq 2
rc=0; desynclab sweep --config taken.yaml || rc=$?; test "$rc" -eq 2
# simulate runs one grid point, and a config gives only keys its mode reads
printf 'mode: event-sim\nn: 4\nalpha: [0.3, 0.5]\nepsilon: 1e-3\n' > two-alpha.yaml
printf 'mode: desync\nn: 8\ngamma: [0.6]\n' > unread.yaml
rc=0; desynclab simulate --config two-alpha.yaml --out cli-out || rc=$?; test "$rc" -eq 2
rc=0; desynclab sweep --config unread.yaml --out cli-out || rc=$?; test "$rc" -eq 2
# a spec the simulator rejects, and a command given a mode it does not run,
# exit 2 before the output directory is made
printf 'mode: event-sim\nn: 4\nloss_probability: 0.5\nstaleness_mode: assumption1\n' > lossy-ledger.yaml
rc=0; desynclab sweep --config lossy-ledger.yaml --out no-out || rc=$?; test "$rc" -eq 2
test ! -e no-out
rc=0; desynclab bounds --config much.yaml --out no-out || rc=$?; test "$rc" -eq 2
test ! -e no-out
# a summary whose spec fails its checks exits 2, as a config would
sed 's/"trials": 16/"trials": 0/' cli-out/summary.json > bad-summary.json
rc=0; desynclab plotdata --summary bad-summary.json --out cli-out/bad || rc=$?; test "$rc" -eq 2
# so does one whose out_dir is not a string; reading it must not end in a traceback (exit 1)
sed 's/"out_dir": "cli-out"/"out_dir": 7/' cli-out/summary.json > int-out-summary.json
rc=0; desynclab plotdata --summary int-out-summary.json || rc=$?; test "$rc" -eq 2
# a sweep writes the same bytes with one worker and with two, in each family
printf 'mode: much\nchannels: 3\nnodes_per_channel: 4\nalpha: [0.3, 0.5]\ntrials: 16\n' > much-workers.yaml
printf 'mode: event-sim\nn: 8\nchannels: 2\nalpha: [0.3, 0.5]\ntrials: 3\n' > sim-workers.yaml
for name in sweep much-workers sim-workers; do
    desynclab sweep --config "$name.yaml" --workers 1 --out "workers-1/$name"
    desynclab sweep --config "$name.yaml" --workers 2 --out "workers-2/$name"
    cmp "workers-1/$name/sweep.csv" "workers-2/$name/sweep.csv"
done
# a command accepts only the overrides it reads: the others exit 2 with
# that command's usage
rc=0; desynclab spectra --config much.yaml --trials 4 2> unread.err || rc=$?; test "$rc" -eq 2
grep -q '^usage: desynclab spectra ' unread.err
rc=0; desynclab simulate --config sim.yaml --workers 2 2> unread.err || rc=$?; test "$rc" -eq 2
grep -q '^usage: desynclab simulate ' unread.err
# the shipped configs whose runs exit 0, writing under shipped/ rather than
# the configs' own results/ paths. A batch-mode sweep of them exits 4 (some
# trials fail at the default grids), so only the event-sim config is swept.
for name in desync-n8 desync-n16; do
    desynclab bounds --config "$configs/$name.yaml" --trials 8 --out "shipped/$name"
done
for name in much-6x4 much-16x4; do
    desynclab spectra --config "$configs/$name.yaml" --out "shipped/$name"
done
desynclab sweep --config "$configs/event-sim-n16-c2.yaml" --trials 1 --out shipped/event-sim-n16-c2
echo "cli smoke: ok"
