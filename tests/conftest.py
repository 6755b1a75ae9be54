import pytest

from poissonlie import catalog


@pytest.fixture
def fresh_catalog(monkeypatch):
    """An empty catalog memo for one test: `get_entry` builds each entry anew,
    so a builder the test patches is called, and the entries built during the
    test, with whatever it patched, are dropped when it ends."""
    monkeypatch.setattr(catalog, "_ENTRIES", {})
