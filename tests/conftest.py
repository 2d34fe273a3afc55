import pytest

from ziphasse import root_datum

# pytest rewrites asserts in test modules only; without this the oracles'
# own asserts would vanish under python -O
pytest.register_assert_rewrite("_oracles")


@pytest.fixture(autouse=True)
def cold_group_memo():
    """Every test starts with build_group's memo empty, so no test sees a
    datum that another test built, under a monkeypatch or not."""
    root_datum._group.cache_clear()
