"""The README's library quick tour runs as written.

    python tests/test_readme.py

It needs only the runtime dependencies (numpy, pyyaml) and an importable
package, so it runs without the test extra too.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The python block of the README's "Library quick tour" section."""
    section = README.read_text().split("\n## Library quick tour\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section.split("\n## ", 1)[0], re.M | re.S)
    assert block, "the quick tour has no python block"
    return block.group(1)


def test_quick_tour_runs_as_written():
    exec(compile(quick_tour(), f"{README.name} quick tour", "exec"), {"__name__": "__tour__"})


if __name__ == "__main__":
    test_quick_tour_runs_as_written()
    print("README quick tour ran")
