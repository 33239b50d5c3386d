"""The example configs shipped in configs/ stay valid specs."""

from pathlib import Path

import pytest

from desynclab import parse_spec

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


def test_configs_are_shipped():
    assert [p.name for p in CONFIGS] == [
        "desync-n16.yaml", "desync-n8.yaml", "event-sim-n16-c2.yaml", "much-16x4.yaml",
        "much-6x4.yaml"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses(path):
    spec = parse_spec(path.read_text())
    # each writes to its own directory under results/
    assert spec.out_dir == f"results/{path.stem}"
