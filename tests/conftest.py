import pytest

from symsod import partitions


@pytest.fixture
def cold_q_cache(monkeypatch):
    """An empty q(n; l) cache for one test; the package's own is restored after it."""
    monkeypatch.setattr(partitions, "_Q_CACHE", {})
