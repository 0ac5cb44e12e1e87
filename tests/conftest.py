import collections

import pytest


@pytest.fixture
def lapack_calls(monkeypatch):
    """How often the eigensolve calls each LAPACK routine while the test runs."""
    import eigenshift.tridiag as tridiag

    calls, lapack = collections.Counter(), tridiag.lapack

    class Counting:
        def __getattr__(self, name):
            calls[name] += 1
            return getattr(lapack, name)

    monkeypatch.setattr(tridiag, "lapack", Counting())
    return calls
