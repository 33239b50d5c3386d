"""The example configs shipped in configs/ stay valid specs, and their
outputs stay byte-identical."""

import hashlib
from pathlib import Path

import pytest

from desynclab import parse_spec
from desynclab.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
CONFIG_DIR = CONFIGS[0].parent


def test_configs_are_shipped():
    assert [p.name for p in CONFIGS] == [
        "desync-n16.yaml", "desync-n8.yaml", "event-sim-n16-c2.yaml", "much-16x4.yaml",
        "much-6x4.yaml"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses(path):
    spec = parse_spec(path.read_text())
    # each writes to its own directory under results/
    assert spec.out_dir == f"results/{path.stem}"


# sha256 of each command's CSV on a shipped config at a reduced trial count
OUTPUT_DIGESTS = {
    ("sweep", "desync-n8", 8):
        "1d9857c7646397ce7df9e388a8fc6586c371e168f8d15df93c610c147fc3c0e8",
    ("sweep", "desync-n16", 8):
        "d5b6184df9d9932accb8f7780e5bc493ebb332e6451785cba5c3e4896237f756",
    ("sweep", "much-6x4", 8):
        "2d5e5213d6e1188e210371b1a0a5c9624ce9fa515f9d1644e62fa72dd41f46bd",
    ("sweep", "much-16x4", 8):
        "9b8b8dbb441defdcc18c8c7df6a89c649b500cd52a5ff6feba2b1fe0a4ac21e3",
    ("sweep", "event-sim-n16-c2", 2):
        "d0deb1b628dd90bbb290d3a8c60355bf21869c4ab674e921ea018a5d3931f5cc",
    ("bounds", "desync-n8", 8):
        "1bc37274a7596658489679829ebccb2988c2a8242df80da7e4293b02aad8e537",
    ("bounds", "desync-n16", 8):
        "bf11a6e615a224dfa035e9a27129284b4ea366f41a3d2d72755aa35d4645fa39",
}


@pytest.mark.parametrize("command, name, trials", sorted(OUTPUT_DIGESTS))
def test_shipped_config_output_is_pinned(command, name, trials, tmp_path, capsys):
    # summary.json is not pinned: it echoes `out`
    main([command, "--config", str(CONFIG_DIR / f"{name}.yaml"),
          "--trials", str(trials), "--out", str(tmp_path)])
    digest = hashlib.sha256((tmp_path / f"{command}.csv").read_bytes()).hexdigest()
    assert digest == OUTPUT_DIGESTS[command, name, trials]
