import pytest

from reference import clear_sweep_caches


@pytest.fixture(autouse=True)
def cold_sweep_caches():
    """Every test starts with empty sweep caches, so a test that counts
    kernel calls sees those of a first sweep, whatever ran before it."""
    clear_sweep_caches()
