"""Dense symmetric matrix algebra: double centering, spectral decomposition,
small SVD, and the matrix norms used throughout the library; also the BLAS
thread count the decompositions run with.

All operations are pure and deterministic; eigenvector signs are fixed so
repeated calls on the same matrix return bit-identical output. Matrices are
checked where outside data enters, not where the library builds them.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse.linalg as spla

# Dense full decomposition below this size; iterative solver above.
DENSE_EIG_CUTOFF = 256
# Largest n a simulation (experiment config or diagnostics grid) may request.
MAX_SUPPORTED_N = 5000
DEGENERATE_GAP_RTOL = 1e-10


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge within its iteration cap."""


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense symmetric n x n real matrix.

    The stored array is exactly symmetric: construction mirrors the upper
    triangle onto the lower one. ``hollow`` additionally asserts a zero
    diagonal.
    """

    data: np.ndarray
    hollow: bool = False

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a = np.triu(a) + np.triu(a, 1).T  # mirror upper triangle, bit-exact symmetry
        if self.hollow:
            if np.any(np.diag(a) != 0.0):
                raise ValueError("hollow matrix must have an exactly zero diagonal")
        object.__setattr__(self, "data", a)
        self.data.setflags(write=False)

    @classmethod
    def _unchecked(cls, a: np.ndarray, hollow: bool = False) -> "SymmetricMatrix":
        """Wrap a float array the library built exactly symmetric (and hollow,
        if so flagged) without the construction checks."""
        m = object.__new__(cls)
        m.__dict__.update(data=a, hollow=hollow)
        a.setflags(write=False)
        return m

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_array(cls, a, hollow: bool = False, rtol: float = 1e-9) -> "SymmetricMatrix":
        """Build from a nearly-symmetric array, verifying symmetry to ``rtol``
        relative and symmetrizing by averaging."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
        if np.abs(a - a.T).max(initial=0.0) > rtol * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        return cls((a + a.T) / 2.0, hollow=hollow)


@dataclass(frozen=True)
class SpectralPair:
    """Top-k eigenvalues (descending) with orthonormal eigenvectors.

    Sign convention: in each eigenvector the entry of largest absolute value
    is non-negative. ``degenerate`` flags a near-tie among adjacent returned
    eigenvalues, so downstream alignment can widen tolerances.
    """

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    v = vectors.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def double_center(sq: SymmetricMatrix) -> SymmetricMatrix:
    """Return B = -1/2 P A P with P = I - 11^T/n, for A = ``sq``.

    Every row of B sums to zero; output is exactly symmetric.
    """
    a = sq.data
    n = sq.n
    if n < 2:
        raise ValueError("double centering requires n >= 2")
    row = a.mean(axis=1, keepdims=True)
    col = row.T  # symmetric input
    grand = a.mean()
    b = -0.5 * (a - row - col + grand)
    return SymmetricMatrix._unchecked((b + b.T) / 2.0)


def _lanczos(a: np.ndarray, k: int, which: str, vectors: bool = True):
    """ARPACK's k eigenvalues of the symmetric array ``a`` selected by
    ``which`` (with eigenvectors if ``vectors``), in ``spla.eigsh``'s form.

    The start vector is fixed by n, so the output does not depend on earlier
    calls or on the calling thread; the iteration cap is 10n. ARPACK cannot
    start on an all-zero matrix, which gets the full dense decomposition.
    """
    n = a.shape[0]
    v0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    try:
        return spla.eigsh(a, k=k, which=which, maxiter=10 * n, v0=v0,
                          return_eigenvectors=vectors)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver did not converge within {10 * n} iterations"
        ) from exc
    except spla.ArpackError:
        if a.any():
            raise
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def top_eigs(m: SymmetricMatrix, k: int) -> SpectralPair:
    """Return the k algebraically largest eigenpairs of ``m``.

    Uses a full dense decomposition for small matrices and ARPACK (start
    vector fixed by n, iteration cap 10n) for large ones requesting few pairs.
    """
    n = m.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if n <= DENSE_EIG_CUTOFF or k >= n - 1:
        w, v = np.linalg.eigh(m.data)
    else:
        w, v = _lanczos(m.data, k, "LA")
    order = np.argsort(w)[::-1][:k]
    values, vectors = w[order], v[:, order]
    vectors = _fix_signs(np.ascontiguousarray(vectors))
    scale = float(np.abs(values).max(initial=0.0))
    gaps = -np.diff(values)
    degenerate = bool(k > 1 and np.any(gaps < DEGENERATE_GAP_RTOL * max(scale, 1e-300)))
    return SpectralPair(values=values, vectors=vectors, degenerate=degenerate)


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS that numpy and scipy
    have loaded from their wheels' bundled libraries (``numpy.libs``,
    ``scipy.libs``); empty when there is none."""
    controls = []
    if not hasattr(os, "RTLD_NOLOAD"):  # no dlopen, as on Windows
        return controls
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
            try:  # RTLD_NOLOAD: a handle to an already loaded copy, never a new one
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    return controls


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with ``count`` threads in every loaded OpenBLAS, restoring
    the previous counts on exit. Does nothing where no OpenBLAS is found.

    The counts are process-wide: enter this around a worker pool, not inside
    one of its workers.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(count)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, previous):
            put(n)


def svd_small(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of a small d x d matrix: returns (W1, s, W2) with m = W1 diag(s) W2^T."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > 32:
        raise ValueError("svd_small is restricted to d <= 32 alignment problems")
    w1, s, w2t = np.linalg.svd(m)
    return w1, s, w2t.T


def norms(m: SymmetricMatrix) -> dict[str, float]:
    """Spectral (largest |eigenvalue|), Frobenius and 2->infinity (max row)
    norms of ``m``; the spectral norm comes from one extremal eigenvalue
    above ``DENSE_EIG_CUTOFF``."""
    a = m.data
    if m.n <= DENSE_EIG_CUTOFF:
        w = np.linalg.eigvalsh(a)
    else:
        w = _lanczos(a, 1, "LM", vectors=False)
    return {
        "spectral": float(np.abs(w).max()),
        "frobenius": float(np.linalg.norm(a, "fro")),
        "two_to_inf": float(np.sqrt((a**2).sum(axis=1).max())),
    }


def read_matrix_csv(path, hollow: bool = False) -> SymmetricMatrix:
    """Read a full square matrix from headerless comma-separated rows."""
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    return SymmetricMatrix.from_array(a, hollow=hollow)
