import math

import numpy as np
import pytest
from hypothesis import strategies as st

from gframes.model import GFrame


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


def kappa_frame():
    """n = 6, two 6 x 6 blocks, T = U diag(sigma) V* with kappa(S) = 9e9: the rank gate accepts it."""
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    sigma = np.geomspace(1.0, 1.0 / np.sqrt(9e9), 6)
    return GFrame.from_stacked((u * sigma) @ v.conj().T, (6, 6))


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


@st.composite
def fusion_frames(draw, min_v=0.03, max_v=1.6, max_n=8):
    """(rows, counts, v) of the fusion frame v * rows, with rows* rows = I and a block of k_i > 1.

    Its operators are v_i E_i*, with E_i an n x k_i isometry, so S = sum v_i^2 E_i E_i*
    (Casazza and Kutyniok, "Frames of subspaces", 2004). Three tight constructions:
    orthogonal subspaces, the columns of one random unitary cut into blocks,
    each at weight v; two orthonormal bases of C^n, each cut into blocks,
    each at weight v / sqrt(2); or the orbit of one random k-dimensional
    subspace E under the n^2 translation-modulation operators M^b T^a, with
    T the cyclic shift and M = diag(e^(2 pi i j / n)), each at weight
    v / sqrt(k n). That group acts irreducibly on C^n, so the orbit of any
    subspace is tight. Each way S = v^2 I, the canonical Parseval family is
    rows and the canonical dual is rows / v. v is log-uniform.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    v = 10.0 ** draw(st.floats(min_value=math.log10(min_v), max_value=math.log10(max_v)))
    construction = draw(st.sampled_from(("orthogonal", "two bases", "orbit")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if construction == "orbit":
        k = draw(st.integers(min_value=2, max_value=n))
        e, _ = np.linalg.qr(random_complex(rng, n, k))
        phases = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)  # row b: the diagonal of M^b
        rows = [(phases[b][:, None] * np.roll(e, a, axis=0)).conj().T for a in range(n) for b in range(n)]
        return np.concatenate(rows) / math.sqrt(k * n), (k,) * (n * n), v
    bases = 1 if construction == "orthogonal" else 2
    rows, counts = [], []
    for _ in range(bases):
        q, _ = np.linalg.qr(random_complex(rng, n, n))
        rows.append(q.conj().T)
        cut = [draw(st.integers(min_value=2, max_value=n))]
        while sum(cut) < n:
            cut.append(draw(st.integers(min_value=1, max_value=n - sum(cut))))
        counts.extend(cut)
    return np.concatenate(rows) / math.sqrt(bases), tuple(counts), v
