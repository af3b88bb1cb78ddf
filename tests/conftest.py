import pytest


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """A fresh XDG_CACHE_HOME for each test, so no test reads or writes the user's vector cache.

    It is a sibling of ``tmp_path``, not inside it, so tests that list ``tmp_path`` see no cache files.
    """
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
