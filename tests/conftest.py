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


@pytest.fixture
def lapack_sizes(monkeypatch):
    """Each LAPACK call of the eigensolve while the test runs, in order, as
    (routine, n), n the length of the diagonal it is handed."""
    import eigenshift.tridiag as tridiag

    calls, lapack = [], tridiag.lapack

    class Recording:
        def __getattr__(self, name):
            routine = getattr(lapack, name)

            def call(d, *args, **kwargs):
                calls.append((name, len(d)))
                return routine(d, *args, **kwargs)

            return call

    monkeypatch.setattr(tridiag, "lapack", Recording())
    return calls
