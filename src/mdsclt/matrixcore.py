"""Dense symmetric matrix algebra: double centering, spectral decomposition
and the spectral norm; also the BLAS thread count the decompositions run
with.

All operations are pure and deterministic; eigenvector signs are fixed so
repeated calls on the same matrix return bit-identical output. Matrices are
checked where outside data enters, not where the library builds them.

The in-place n x n passes (distances, double centering) run over row strips
of about ``_STRIP`` entries and read no transposed entry, since their inputs
are exactly symmetric. The one transposed copy is ``mirror_upper``, which
completes the noise fill block by block.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse.linalg as spla

# Dense solve for the k top eigenpairs up to this size; iterative solver above.
DENSE_EIG_CUTOFF = 256
# Largest n a simulation (experiment config or diagnostics grid) may request.
MAX_SUPPORTED_N = 10000
DEGENERATE_GAP_RTOL = 1e-10
# Relative residual at which an eigenvalue-only Lanczos solve stops (``_lanczos``).
_VALUE_TOL = float(np.sqrt(np.finfo(float).eps))
# Side of the square blocks in which ``mirror_upper`` copies the upper triangle.
_BLOCK = 256
# Entries per row strip of the in-place n x n passes: n <= 256 is one strip.
_STRIP = 1 << 16


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

    @property
    def floor(self) -> float:
        """n eps |lambda_1|: a returned eigenvalue at or below it is zero up to
        the roundoff of the solve."""
        return self.vectors.shape[0] * np.finfo(float).eps * abs(float(self.values[0]))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    v = vectors.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def row_strips(n: int):
    """Slices of the consecutive row strips of an n x n matrix, each about
    ``_STRIP`` entries (whole rows, at least one)."""
    step = max(1, _STRIP // max(n, 1))
    for i in range(0, n, step):
        yield slice(i, i + step)


def mirror_upper(a: np.ndarray) -> np.ndarray:
    """Copy the strict upper triangle of ``a`` onto the lower one, in place,
    in square blocks of side ``_BLOCK``; one strict-lower mask serves every
    diagonal block."""
    n = a.shape[0]
    lower = np.tri(min(n, _BLOCK), k=-1, dtype=bool)
    for i in range(0, n, _BLOCK):
        r = slice(i, i + _BLOCK)
        b = a[r, r]
        np.copyto(b, b.T, where=lower[:b.shape[0], :b.shape[0]])
        for j in range(i + _BLOCK, n, _BLOCK):
            c = slice(j, j + _BLOCK)
            a[c, r] = a[r, c].T
    return a


def double_center(sq: SymmetricMatrix, overwrite: bool = False) -> SymmetricMatrix:
    """Return B = -1/2 P A P with P = I - 11^T/n, for A = ``sq``.

    Every row of B sums to zero; output is exactly symmetric. With
    ``overwrite`` B is built in ``sq``'s own array, which must not be read
    through ``sq`` afterwards; otherwise in a copy.
    """
    n = sq.n
    if n < 2:
        raise ValueError("double centering requires n >= 2")
    row = sq.data.mean(axis=1)  # = column means: the input is symmetric
    grand = sq.data.mean()
    a = sq.data if overwrite else sq.data.copy()
    a.setflags(write=True)
    # Row strips of B = (F + F^T) / 2 with F_ij = -(a_ij - row_i - row_j + grand) / 2;
    # F_ji is evaluated from a_ij = a_ji, so no transposed entry is read.
    strips = list(row_strips(n))
    f_t = np.empty_like(a[strips[0]])
    for r in strips:
        block = a[r]
        t = f_t[:block.shape[0]]
        np.subtract(block, row, out=t)
        t -= row[r, None]
        t += grand
        t *= -0.5
        block -= row[r, None]
        block -= row
        block += grand
        block *= -0.5
        block += t
        block /= 2.0
    return SymmetricMatrix._unchecked(a)


def _lanczos(a: np.ndarray, k: int, which: str, vectors: bool = True):
    """ARPACK's k eigenvalues of the symmetric array ``a`` selected by
    ``which`` (with eigenvectors if ``vectors``), in ``spla.eigsh``'s form.

    The start vector and the generator of ARPACK's restart vectors are
    fixed by n, so neither the output nor the matvec count depends on earlier
    calls or on the calling thread; the iteration cap is 10n. ARPACK cannot
    start on an all-zero matrix, which gets the dense top-k solve.

    A solve with eigenvectors runs to machine precision (ARPACK's tol=0). An
    eigenvalue-only solve stops once each wanted Ritz residual ||r|| is at
    most sqrt(eps) |theta| (``_VALUE_TOL``), at about half the matvecs. A
    Ritz value's error is at most ||r||^2 / gap, the gap being its distance
    to the rest of the spectrum: eps |theta| times |theta| / gap, so the
    value keeps near full precision unless the wanted eigenvalue has
    neighbours within sqrt(eps) |theta|. Then the bound is ||r|| itself,
    sqrt(eps) |theta|.
    """
    n = a.shape[0]
    v0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    try:
        return spla.eigsh(a, k=k, which=which, maxiter=10 * n, v0=v0,
                          tol=0.0 if vectors else _VALUE_TOL,
                          return_eigenvectors=vectors, rng=np.random.default_rng(n))
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver did not converge within {10 * n} iterations"
        ) from exc
    except spla.ArpackError:
        if a.any():
            raise
        return _dense_top(a, k, vectors)


def _dense_top(a: np.ndarray, k: int, vectors: bool = True):
    """The k algebraically largest eigenvalues of the symmetric array ``a``,
    ascending (with eigenvectors if ``vectors``), from LAPACK's ``?syevr``,
    which solves for that index range alone."""
    n = a.shape[0]
    return scipy.linalg.eigh(a, subset_by_index=[n - k, n - 1], eigvals_only=not vectors)


def top_eigs(m: SymmetricMatrix, k: int) -> SpectralPair:
    """Return the k algebraically largest eigenpairs of ``m``.

    Small matrices, and requests for k >= n - 1 pairs, get a dense solve for
    those k pairs only (not all n); large ones requesting few pairs get
    ARPACK (start vector fixed by n, iteration cap 10n). The dense solve is
    bit-stable across runs but not across BLAS thread counts.
    """
    n = m.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if n <= DENSE_EIG_CUTOFF or k >= n - 1:
        w, v = _dense_top(m.data, k)
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


def norms(m: SymmetricMatrix) -> float:
    """Spectral norm of ``m``: its largest |eigenvalue|, from one extremal
    eigenvalue above ``DENSE_EIG_CUTOFF``. That eigenvalue-only Lanczos solve
    stops at a sqrt(eps) relative residual (see ``_lanczos``): the value is
    within about eps of the norm, relative, unless the top |eigenvalues|
    cluster within sqrt(eps), where it is within sqrt(eps)."""
    if m.n <= DENSE_EIG_CUTOFF:
        w = np.linalg.eigvalsh(m.data)
    else:
        w = _lanczos(m.data, 1, "LM", vectors=False)
    return float(np.abs(w).max())


def read_matrix_csv(path, hollow: bool = False) -> SymmetricMatrix:
    """Read a full square matrix from headerless comma-separated rows."""
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    return SymmetricMatrix.from_array(a, hollow=hollow)
