"""README's library example runs, and its stated facts match the package."""

import math
import re
from pathlib import Path

import triphase

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_example_runs_and_gives_pi_over_4():
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    namespace = {}
    exec(block, namespace)
    gamma = namespace["three_vertex_phase"](namespace["plus"], namespace["zero"], namespace["yplus"])
    assert abs(gamma - math.pi / 4) <= 1e-15


def test_stated_export_count_matches_all():
    (count,) = re.findall(r"exports (\d+) names", README)
    assert int(count) == len(triphase.__all__)
