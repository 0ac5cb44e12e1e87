import collections
import tracemalloc

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


@pytest.fixture
def lapack_infos(monkeypatch):
    """The ``info`` of each ``dptsv`` and ``dpttrf`` call while the test runs,
    in order, as (routine, info); info != 0 marks a failed factorisation."""
    import eigenshift.tridiag as tridiag

    infos, lapack = [], tridiag.lapack

    class Recording:
        def __getattr__(self, name):
            routine = getattr(lapack, name)
            if name not in ("dptsv", "dpttrf"):
                return routine

            def call(*args, **kwargs):
                result = routine(*args, **kwargs)
                infos.append((name, int(result[-1])))
                return result

            return call

    monkeypatch.setattr(tridiag, "lapack", Recording())
    return infos


@pytest.fixture
def working_set():
    """``measure(call, n)``: call() and its traced peak above the memory held
    at entry, in n-vectors of 8 n bytes (tracemalloc alone, no profile hook),
    as (result, peak).  What call() returns counts; a first-call set-up, such
    as a cached table, counts unless the test runs it first."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def measure(call, n):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, (tracemalloc.get_traced_memory()[1] - entry) / (8.0 * n)

    yield measure
    if started:
        tracemalloc.stop()
