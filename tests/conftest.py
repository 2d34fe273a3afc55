import pytest

from ziphasse import root_datum


@pytest.fixture(autouse=True)
def cold_group_memo():
    """Every test starts with build_group's memo empty, so no test sees a
    datum that another test built, under a monkeypatch or not."""
    root_datum._group.cache_clear()
