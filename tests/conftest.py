import pytest

from triphase import sweep


@pytest.fixture(autouse=True)
def cold_sweep_caches():
    """Every test starts with empty sweep caches: the cross-check's alpha =
    0 rows and w = e^{i alpha} blocks, and the closed forms' theta-free
    halves, so a test that counts kernel calls sees those of a first
    sweep, whatever ran before it."""
    sweep._cached_rows.cache_clear()
    sweep._cached_rotations.cache_clear()
    sweep._cached_half.cache_clear()
