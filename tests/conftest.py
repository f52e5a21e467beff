import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Every route-kernel call, in order: the dimension n of a plain charpoly
    (`matrices.charpoly_int`: Phi's realization, rho's charpoly in its closed
    form, the fixtures), and ("bordered", n) for the one pass of every
    resolvent form on an n x n block (`resolvent.charpoly_bordered_int`)."""
    import joinspectra.matrices as matrices
    import joinspectra.resolvent as resolvent

    calls = []
    exact, bordered = matrices.charpoly_int, resolvent.charpoly_bordered_int

    def counted(a, n):
        calls.append(n)
        return exact(a, n)

    def counted_bordered(a, n, u, v):
        calls.append(("bordered", n))
        return bordered(a, n, u, v)

    monkeypatch.setattr(matrices, "charpoly_int", counted)
    monkeypatch.setattr(resolvent, "charpoly_bordered_int", counted_bordered)
    return calls
