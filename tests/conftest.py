import itertools

import numpy as np
import pytest

from lpdecode.codes import ParityCheckMatrix


def random_matrix(rng, max_checks=30, min_degree=3, max_degree=10) -> ParityCheckMatrix:
    """Random parity-check matrix with check degrees in [min_degree, max_degree]."""
    m = int(rng.integers(1, max_checks + 1))
    degrees = rng.integers(min_degree, max_degree + 1, m)
    n = int(max(degrees) + rng.integers(0, 8))
    rows = tuple(tuple(sorted(rng.choice(n, size=d, replace=False))) for d in degrees)
    return ParityCheckMatrix(n=n, rows=rows)


def interleaved_code() -> ParityCheckMatrix:
    """A 120-bit code whose 60 checks have degrees 5, 6, 7, 5, 6, 7, ..., so no
    two neighbouring checks share a degree."""
    rng = np.random.default_rng(7)
    return ParityCheckMatrix(n=120, rows=tuple(
        tuple(sorted(rng.choice(120, 5 + i % 3, replace=False).tolist())) for i in range(60)))


def enumerate_vertices(A, b, tol=1e-9):
    """All vertices of {x : A.x <= b} by solving every n-row subsystem."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    vertices = []
    for combo in itertools.combinations(range(A.shape[0]), n):
        M = A[list(combo)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, b[list(combo)])
        if np.all(A @ x <= b + tol):
            if not any(np.allclose(x, v, atol=1e-9) for v in vertices):
                vertices.append(x)
    return vertices


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
