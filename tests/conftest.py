import pytest

from triphase import sweep


@pytest.fixture(autouse=True)
def cold_row_cache():
    """Every test starts with an empty cache of the sweep cross-check's unit
    rows, so a test that counts kernel calls sees those of a first sweep,
    whatever ran before it."""
    sweep._cached_unit_rows.cache_clear()
