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
    # a name left in __all__ after its definition is deleted fails the star-import
    namespace = {}
    exec("from triphase import *", namespace)
    assert set(triphase.__all__) <= namespace.keys()


def test_ci_floor_leg_pins_the_declared_numpy_floor():
    # a text parse: PyYAML is no test dependency, and Python 3.10 has no tomllib
    root = Path(__file__).resolve().parents[1]
    (floor,) = re.findall(r'"numpy>=([\d.]+)"', (root / "pyproject.toml").read_text(encoding="utf-8"))
    workflow = (root / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    tier1 = workflow[workflow.index("\n  tier1:"):workflow.index("\n  cli-bytes:")]
    # tier1 has one floor leg and its check, and every numpy pin or version
    # check in the file (cli-bytes' legs too) names the declared floor
    assert re.findall(r'numpy: "==([\d.]+)\.\*"', tier1) == [floor]
    assert re.findall(r"startswith\('([\d.]+)\.'\)", tier1) == [floor]
    pins = re.findall(r'"(?:>=|==)([\d.]+)(?:\.\*)?"', workflow)
    checks = re.findall(r"startswith\('([\d.]+)\.'\)", workflow)
    assert set(pins + checks) == {floor}
