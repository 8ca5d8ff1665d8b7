"""Dense symmetric matrix algebra: double centering, spectral decomposition
and the spectral norm; also the guard that runs them on one BLAS thread.

All operations are pure and deterministic; eigenvector signs are fixed so
repeated calls on the same matrix return bit-identical output. Every
eigensolve, dense or iterative, runs inside ``one_blas_thread``, so its bits
do not depend on the caller's BLAS thread count either. Matrices are checked
where outside data enters (``SymmetricMatrix(...)``), not where the library
builds them (``SymmetricMatrix._unchecked``).

The distance and noise passes walk ``upper_strips``: row strips of about
``_STRIP`` entries, each masked to its strict upper triangle. That is one
pass from the points (or a distance matrix) to the upper triangle of each
n x n output, written once; ``mirror_upper`` then zeroes the diagonal and
copies the upper triangle onto the lower one block by block, so every
output is exactly hollow and symmetric. ``double_center`` forms B by
whole-array expressions.

``centered`` hands ``top_eigs`` the double centering of a
squared-dissimilarity matrix as an operator that centers implicitly and
reads only the matrix's upper triangle, through the BLAS ``dsymv`` that
``scipy.linalg.cython_blas`` exports, called through ctypes, which releases
the GIL, so threads apply their own operators side by side on whatever BLAS
scipy links; ``minus_gram`` subtracts a rank-p
Gram matrix X X^T from a matrix or such an operator, again without forming
it. ``top_eigs`` and ``norms`` form an operator, in a copy, only where they
solve densely (``_dense_solve``); above ``DENSE_EIG_CUTOFF``, for k < n - 1,
no n x n array is built or overwritten. ``gram_top_eigs`` takes the top
eigenpairs of X X^T from the thin SVD of X, forming no n x n array either.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.linalg
import scipy.linalg.cython_blas
import scipy.sparse.linalg as spla

# Dense solve for the k top eigenpairs up to this size; iterative solver above.
DENSE_EIG_CUTOFF = 256
# Largest n a simulation (experiment config or diagnostics grid) may request.
MAX_SUPPORTED_N = 10000
# Relative residual at which an eigenvalue-only Lanczos solve stops (``_lanczos``).
_VALUE_TOL = float(np.sqrt(np.finfo(float).eps))
# Side of the square blocks in which ``mirror_upper`` copies the upper triangle.
_BLOCK = 256
# Entries per row strip of ``upper_strips``: n <= 256 is one strip.
_STRIP = 1 << 16
# Largest |a - a^T| entry, relative to max(1, max |a|), that construction accepts.
_SYMMETRY_RTOL = 1e-9


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge within its iteration cap."""


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense symmetric n x n real matrix.

    Construction checks an outside array: it must be square and symmetric
    within ``_SYMMETRY_RTOL`` relative to max(1, max |a|). It is stored as
    the mean of a and a^T, which is exactly symmetric since addition
    commutes, and whose entries must be finite.
    """

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite: rejected below
            gap = np.abs(a - a.T).max(initial=0.0)
            big = float(np.abs(a).max(initial=0.0))
            if gap > _SYMMETRY_RTOL * max(1.0, big):
                raise ValueError("matrix is not symmetric within tolerance")
            # Halving first cannot overflow but rounds a subnormal entry, so
            # only entries near the float maximum are halved before the sum.
            a = a / 2.0 + a.T / 2.0 if big > np.finfo(float).max / 2 else (a + a.T) / 2.0
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "data", a)
        self.data.setflags(write=False)

    @classmethod
    def _unchecked(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Wrap a float array the library built exactly symmetric without the
        construction checks."""
        m = object.__new__(cls)
        m.__dict__.update(data=a)
        a.setflags(write=False)
        return m

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class SpectralPair:
    """Top-k eigenvalues (descending) with orthonormal eigenvectors.

    Sign convention: in each eigenvector the entry of largest absolute value
    is non-negative.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def floor(self) -> float:
        """n eps |lambda_1|: a returned eigenvalue at or below it is zero up to
        the roundoff of the solve."""
        return self.vectors.shape[0] * np.finfo(float).eps * abs(float(self.values[0]))

    @property
    def deficient(self) -> bool:
        """Whether the last value is at or below ``floor``, so not positive."""
        return bool(self.values[-1] <= self.floor)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` with each column negated where its entry of largest absolute
    value (the first, on a tie) is negative."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(top < 0, -1.0, 1.0)


def upper_strips(n: int):
    """(rows, mask) per row strip of an n x n matrix, each strip about
    ``_STRIP`` entries (whole rows, at least one): ``mask`` selects the strict
    upper triangle of the strip ``a[rows, rows.start:]``. One boolean array,
    the first strip's, holds every mask."""
    step = max(1, _STRIP // max(n, 1))
    upper = np.arange(n) > np.arange(min(step, n))[:, None]
    for i in range(0, n, step):
        rows = slice(i, min(i + step, n))
        yield rows, upper[:rows.stop - i, :n - i]


def mirror_upper(a: np.ndarray) -> np.ndarray:
    """Complete the hollow symmetric matrix whose strict upper triangle ``a``
    holds, in place: zero the diagonal, then copy the strict upper triangle
    onto the lower one in square blocks of side ``_BLOCK``; one strict-lower
    mask serves every diagonal block."""
    n = a.shape[0]
    np.fill_diagonal(a, 0.0)
    lower = np.tri(min(n, _BLOCK), k=-1, dtype=bool)
    for i in range(0, n, _BLOCK):
        r = slice(i, i + _BLOCK)
        b = a[r, r]
        np.copyto(b, b.T, where=lower[:b.shape[0], :b.shape[0]])
        for j in range(i + _BLOCK, n, _BLOCK):
            c = slice(j, j + _BLOCK)
            a[c, r] = a[r, c].T
    return a


def double_center(sq: SymmetricMatrix) -> SymmetricMatrix:
    """Return B = -1/2 P A P with P = I - 11^T/n, for A = ``sq``, in a copy.

    Every row of B sums to zero; output is exactly symmetric.
    """
    if sq.n < 2:
        raise ValueError("double centering requires n >= 2")
    row = sq.data.mean(axis=1)  # = column means: the input is symmetric
    b = sq.data - row[:, None]
    b -= row
    b += sq.data.mean()
    b *= -0.5
    b += b.T  # numpy reads the overlapping b.T from a copy
    b /= 2.0
    return SymmetricMatrix._unchecked(b)


def _dense_solve(n: int, k: int) -> bool:
    """Whether the k top eigenpairs of an n x n matrix get the dense solve:
    for small n, and for k >= n - 1, which ARPACK cannot solve for."""
    return n <= DENSE_EIG_CUTOFF or k >= n - 1


class _CenteredSquares(spla.LinearOperator):
    """B = -1/2 P A P of ``double_center`` for A = ``sq``, applied without
    forming it: x -> -1/2 P (A (P x)), with P a mean subtraction.

    A x is BLAS ``dsymv`` (``_SYMV``) reading only the stored upper triangle
    of A's C-order array, made contiguous once here: the lower triangle of
    its column-major view, a^T. Each product returns a new array. ctypes
    releases the GIL for the call, so replicate workers apply their
    operators side by side.
    """

    def __init__(self, sq: SymmetricMatrix):
        super().__init__(np.float64, sq.data.shape)
        self.sq = sq
        self._a = np.ascontiguousarray(sq.data)
        self._address = self._a.ctypes.data
        self._n = ctypes.byref(ctypes.c_int(self._a.shape[0]))

    def _matvec(self, x):
        x = x.reshape(-1)
        n = x.shape[0]
        # x.mean()'s sum and division, without np.mean's Python-level glue
        x = np.subtract(x, np.add.reduce(x) / n, dtype=float)
        y = np.zeros(n)
        _SYMV(b"L", self._n, _MINUS_HALF, self._address, self._n,
              x.ctypes.data, _ONE, _ZERO, y.ctypes.data, _ONE)
        y -= np.add.reduce(y) / n
        return y

    def formed(self) -> np.ndarray:
        return double_center(self.sq).data


def centered(sq: SymmetricMatrix) -> _CenteredSquares:
    """B = -1/2 P A P for A = ``sq`` as an operator that forms no n x n array
    and leaves ``sq`` as it is; ``top_eigs`` forms B with ``double_center``
    where it solves densely."""
    return _CenteredSquares(sq)


class _MinusGram(spla.LinearOperator):
    """A - X X^T for a symmetric array or operator A and an n x p array X,
    applied without forming it: v -> A v - X (X^T v)."""

    def __init__(self, a, x: np.ndarray):
        super().__init__(np.float64, a.shape)
        self.a, self.x = a, x

    def _matvec(self, v):
        v = v.reshape(-1)
        return self.a @ v - self.x @ (self.x.T @ v)

    def formed(self) -> np.ndarray:
        return _formed(self.a) - self.x @ self.x.T


def minus_gram(m, x) -> _MinusGram:
    """m - X X^T for ``m`` a ``SymmetricMatrix`` or the operator of
    ``centered``, and X an n x p array, as an operator that forms no n x n
    array and leaves ``m`` as it is; ``top_eigs`` and ``norms`` form it where
    they solve densely."""
    a = _operand(m)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != a.shape[0]:
        raise ValueError(f"the factor must have one row per row of the "
                         f"{a.shape[0]} x {a.shape[0]} matrix, got shape {x.shape}")
    return _MinusGram(a, x)


def _operand(m):
    """The array of a ``SymmetricMatrix``, or the operator ``m`` itself."""
    return m if isinstance(m, spla.LinearOperator) else m.data


def _lanczos(a, k: int, which: str, vectors: bool = True):
    """ARPACK's k eigenvalues of the symmetric array or operator ``a`` (of
    ``centered`` or ``minus_gram``) selected by ``which`` (with eigenvectors
    if ``vectors``), in ``spla.eigsh``'s form.

    The start vector and the generator of ARPACK's restart vectors are
    fixed by n, so neither the output nor the matvec count depends on earlier
    calls or on the calling thread; the iteration cap is 10n. The products
    with ``centered``'s operator release the GIL, so solves on other threads
    run beside them. Its callers,
    ``top_eigs`` and ``norms``, run it inside ``one_blas_thread``, since the
    bits of ``dsymv`` and of ARPACK's own BLAS calls depend on the BLAS
    thread count. ARPACK cannot start on an all-zero matrix, which gets the
    dense top-k solve (of the formed matrix, for an operator).

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
                          return_eigenvectors=vectors,
                          rng=np.random.default_rng(n))
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver did not converge within {10 * n} iterations"
        ) from exc
    except spla.ArpackError:
        a = _formed(a)
        if a.any():
            raise
        return _dense_top(a, k, vectors)


def _formed(a) -> np.ndarray:
    """The symmetric array ``a`` itself, or the matrix that the operator ``a``
    (of ``centered`` or ``minus_gram``) applies, formed in a new array."""
    return a.formed() if isinstance(a, spla.LinearOperator) else a


def _dense_top(a: np.ndarray, k: int, vectors: bool = True):
    """The k algebraically largest eigenvalues of the symmetric array ``a``,
    ascending (with eigenvectors if ``vectors``), from LAPACK's ``?syevr``,
    which solves for that index range alone."""
    n = a.shape[0]
    return scipy.linalg.eigh(a, subset_by_index=[n - k, n - 1], eigvals_only=not vectors)


def top_eigs(m, k: int) -> SpectralPair:
    """Return the k algebraically largest eigenpairs of ``m``, a
    ``SymmetricMatrix`` or the operator of ``centered`` or ``minus_gram``.

    Small matrices, and requests for k >= n - 1 pairs, get a dense solve for
    those k pairs only (not all n), of the formed B for an operator; large
    ones requesting few pairs get ARPACK (start vector fixed by n, iteration
    cap 10n), which applies an operator without forming it. Either solve runs
    inside ``one_blas_thread``, so its bits do not depend on the caller's
    BLAS thread count.
    """
    a = _operand(m)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    with one_blas_thread:
        w, v = _dense_top(_formed(a), k) if _dense_solve(n, k) else _lanczos(a, k, "LA")
    order = np.argsort(w)[::-1][:k]
    return SpectralPair(w[order], _fix_signs(np.ascontiguousarray(v[:, order])))


def gram_top_eigs(x, k: int) -> SpectralPair:
    """Return the k top eigenpairs of X X^T for an n x p array X, from the
    thin SVD X = U S V^T: values s^2, vectors U, with the signs of
    ``top_eigs``. Forms no n x n array; the SVD runs inside
    ``one_blas_thread``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or not 1 <= k <= min(x.shape):
        raise ValueError(f"k={k} out of range for a factor of shape {x.shape}")
    with one_blas_thread:
        u, s, _ = np.linalg.svd(x, full_matrices=False)
    return SpectralPair(s[:k] ** 2, _fix_signs(np.ascontiguousarray(u[:, :k])))


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


def _cython_dsymv():
    """Fortran dsymv(uplo, n, alpha, a, lda, x, incx, beta, y, incy), every
    argument by address, as ``scipy.linalg.cython_blas`` exports it, called
    through a CFUNCTYPE, which releases the GIL. The capsule's name, a C
    signature naming a versioned Cython typedef, is read, not written here."""
    capsule = scipy.linalg.cython_blas.__pyx_capi__["dsymv"]
    obj, text, p, api = ctypes.py_object, ctypes.c_char_p, ctypes.c_void_p, ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(text, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(p, obj, text)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, text, *[p] * 9)(get_pointer(capsule, get_name(capsule)))


# The libraries are loaded by the imports above and stay loaded, so one
# lookup serves the process.
_OPENBLAS = _openblas_thread_controls()
_SYMV = _cython_dsymv()
# dsymv's scalar arguments, by address: alpha, beta and the increments.
_MINUS_HALF = ctypes.byref(ctypes.c_double(-0.5))
_ZERO = ctypes.byref(ctypes.c_double(0.0))
_ONE = ctypes.byref(ctypes.c_int(1))


class _OneBlasThread:
    """One thread in every loaded OpenBLAS while any thread is inside this
    context. Under the lock, the first thread in saves the counts and sets
    one, and the last one out restores them: a nested entry costs a lock and
    a counter step, and concurrent solves never restore under each other."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._inside == 0:
                self._saved = [(put, get()) for get, put in _OPENBLAS]
                for put, _ in self._saved:
                    put(1)
            self._inside += 1

    def __exit__(self, *exc):
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                for put, count in self._saved:
                    put(count)


one_blas_thread = _OneBlasThread()


def norms(m) -> float:
    """Spectral norm of ``m``, a ``SymmetricMatrix`` or the operator of
    ``centered`` or ``minus_gram``: its largest |eigenvalue|, from a dense
    solve of the formed matrix up to ``DENSE_EIG_CUTOFF`` and from one
    extremal eigenvalue of ``m`` as it is above. That eigenvalue-only Lanczos
    solve stops at a sqrt(eps) relative residual (see ``_lanczos``): the
    value is within about eps of the norm, relative, unless the top
    |eigenvalues| cluster within sqrt(eps), where it is within sqrt(eps).
    The solve runs inside ``one_blas_thread``."""
    a = _operand(m)
    with one_blas_thread:
        if _dense_solve(a.shape[0], 1):
            w = np.linalg.eigvalsh(_formed(a))
        else:
            w = _lanczos(a, 1, "LM", vectors=False)
    return float(np.abs(w).max())


def read_matrix_csv(path) -> SymmetricMatrix:
    """Read a full square matrix from headerless comma-separated rows."""
    return SymmetricMatrix(np.loadtxt(path, delimiter=",", ndmin=2))
