import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The dimension of every route-kernel call (`matrices.charpoly_int`), in order."""
    import joinspectra.matrices as matrices

    calls = []
    exact = matrices.charpoly_int

    def counted(a, n):
        calls.append(n)
        return exact(a, n)

    monkeypatch.setattr(matrices, "charpoly_int", counted)
    return calls
