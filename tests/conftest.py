import math

import numpy as np
import pytest
from hypothesis import strategies as st


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, n):
    g = random_complex(rng, n, n)
    return g + g.conj().T


def random_spd(rng, n, shift=None):
    """Hermitian positive definite with moderate conditioning."""
    g = random_complex(rng, n, n)
    s = g @ g.conj().T
    if shift is None:
        shift = 0.1 * n
    return s + shift * np.eye(n)


def harmonic_rows(k, n):
    """The first n columns of the K x K DFT matrix over sqrt(K): orthonormal columns, so F* F = I."""
    return np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(n)) / k) / np.sqrt(k)


@st.composite
def harmonic_frames(draw, min_c=1e-3, max_c=3.0, max_n=32, max_k=256):
    """(K, n, c) of the harmonic frame sqrt(c) * harmonic_rows(K, n), with K >= n and c log-uniform.

    Its K rank-one operators have frame operator c * I, so every quantity the
    library reports has a closed form in c.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=n, max_value=max(n, max_k)))
    c = 10.0 ** draw(st.floats(min_value=math.log10(min_c), max_value=math.log10(max_c)))
    return k, n, c
