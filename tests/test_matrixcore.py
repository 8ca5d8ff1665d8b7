import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdsclt import clt, matrixcore, pointmodel
from mdsclt.matrixcore import (DENSE_EIG_CUTOFF, SymmetricMatrix, _fix_signs,
                               centered, double_center, gram_top_eigs, minus_gram,
                               norms, read_matrix_csv, top_eigs)
from mdsclt.noise import NoiseLaw, NoiseSpec


def centered_gram(points):
    """Oracle: P Z Z^T P computed literally with P = I - 11^T/n."""
    z = np.asarray(points, float)
    n = z.shape[0]
    p = np.eye(n) - np.ones((n, n)) / n
    return p @ z @ z.T @ p


TRIANGLE = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


@pytest.fixture
def matvec_counts(monkeypatch):
    """The matvec count of each ``spla.eigsh`` call, in call order, from a
    counting LinearOperator around the matrix it is given."""
    eigsh = spla.eigsh
    calls = []

    def counting_eigsh(a, *args, **kwargs):
        op = spla.aslinearoperator(a)

        def matvec(x):
            calls[-1] += 1
            return op.matvec(x)

        calls.append(0)
        counted = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return eigsh(counted, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting_eigsh)
    return calls


class TestSymmetricMatrix:
    def test_mirrors_upper_triangle_bit_exact(self):
        """Within the symmetry tolerance the stored lower triangle is the
        upper one bit for bit: both hold the mean of the two entries."""
        a = np.array([[1.0, 2.0, 3.0],
                      [2.0 + 1e-12, 4.0, 5.0],
                      [3.0 - 1e-12, 5.0 + 2e-12, 6.0]])
        m = SymmetricMatrix(a)
        assert np.array_equal(m.data, m.data.T)
        assert m.data[1, 0] == m.data[0, 1] == (a[0, 1] + a[1, 0]) / 2
        assert np.array_equal(np.diag(m.data), np.diag(a))

    def test_rejects_asymmetry(self):
        """An asymmetric array is rejected, not cut down to one triangle,
        down to a gap of 2e-9 relative."""
        for a in ([[1.0, 2.0, 3.0], [9.0, 4.0, 5.0], [9.0, 9.0, 6.0]],
                  [[0.0, 1.0], [1.0 + 2e-9, 0.0]]):
            with pytest.raises(ValueError, match="not symmetric"):
                SymmetricMatrix(np.array(a))

    def test_from_array_rejects_asymmetry(self):
        """The case the former from_array rejected; the constructor does."""
        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    def test_keeps_entries_near_the_float_maximum(self):
        """The mean of two equal entries is that entry, also where their sum
        would overflow and where halving would round a subnormal."""
        for entry in (1e308, np.finfo(float).max, 5e-324):
            a = np.array([[0.0, entry], [entry, 0.0]])
            assert np.array_equal(SymmetricMatrix(a).data, a)

    def test_averages_tiny_asymmetry(self):
        a = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        m = SymmetricMatrix(a)
        assert m.data[0, 1] == m.data[1, 0] == (a[0, 1] + a[1, 0]) / 2
        assert a[1, 0] == 1.0 + 1e-12  # the caller's array is left as it is

    def test_data_read_only(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestDoubleCenter:
    def test_zero_input(self):
        b = double_center(SymmetricMatrix(np.zeros((2, 2))))
        assert np.array_equal(b.data, np.zeros((2, 2)))

    def test_n2_closed_form(self):
        # hand expansion of -1/2 P [[0,c^2],[c^2,0]] P
        c2 = 7.3
        b = double_center(SymmetricMatrix(np.array([[0.0, c2], [c2, 0.0]])))
        expect = np.array([[c2 / 4, -c2 / 4], [-c2 / 4, c2 / 4]])
        assert np.allclose(b.data, expect, rtol=0, atol=1e-14)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            double_center(SymmetricMatrix(np.zeros((1, 1))))

    def test_triangle_eigenvalues_match_centered_gram(self):
        d = np.linalg.norm(TRIANGLE[:, None] - TRIANGLE[None, :], axis=2)
        b = double_center(SymmetricMatrix(d**2))
        oracle = np.sort(np.linalg.eigvalsh(centered_gram(TRIANGLE)))[::-1]
        got = np.sort(np.linalg.eigvalsh(b.data))[::-1]
        assert np.allclose(got, oracle, atol=1e-9)
        # frozen values: roots of the centered second-moment char polynomial
        assert got[0] == pytest.approx(12.964148, abs=1e-5)
        assert got[1] == pytest.approx(3.7025187, abs=1e-5)
        assert abs(got[2]) < 1e-9

    def test_rows_sum_to_zero(self, rng):
        a = rng.standard_normal((9, 9))
        b = double_center(SymmetricMatrix(a + a.T))
        scale = np.linalg.norm(b.data, "fro")
        assert np.abs(b.data.sum(axis=1)).max() <= 1e-9 * max(scale, 1.0)

    def test_projection_fixes_centered_matrix(self, rng):
        """P B P == B when B is already row- and column-centered."""
        a = rng.standard_normal((8, 8))
        b = double_center(SymmetricMatrix(a + a.T)).data
        n = 8
        p = np.eye(n) - np.ones((n, n)) / n
        assert np.allclose(p @ b @ p, b, atol=1e-9)

    def test_equals_centered_gram_for_point_clouds(self, rng):
        z = rng.standard_normal((20, 3))
        diff = z[:, None] - z[None, :]
        dsq = (diff**2).sum(axis=2)
        np.fill_diagonal(dsq, 0.0)
        b = double_center(SymmetricMatrix(dsq))
        oracle = centered_gram(z)
        assert np.linalg.norm(b.data - oracle, "fro") <= \
            1e-8 * np.linalg.norm(oracle, "fro")


class TestTopEigs:
    def test_identity(self):
        pair = top_eigs(SymmetricMatrix(np.eye(3)), 2)
        assert np.allclose(pair.values, [1.0, 1.0])
        assert pair.degenerate

    def test_diagonal(self):
        pair = top_eigs(SymmetricMatrix(np.diag([5.0, 2.0, -1.0])), 2)
        assert np.allclose(pair.values, [5.0, 2.0])
        assert np.allclose(np.abs(pair.vectors),
                           [[1, 0], [0, 1], [0, 0]], atol=1e-12)

    def test_triangle_char_poly_oracle(self):
        # eigenvalues of B equal those of the centered scatter [[6,-4],[-4,32/3]]
        d = np.linalg.norm(TRIANGLE[:, None] - TRIANGLE[None, :], axis=2)
        b = double_center(SymmetricMatrix(d**2))
        pair = top_eigs(b, 2)
        oracle = np.sort(np.roots([1.0, -(6.0 + 32.0 / 3.0),
                                   6.0 * 32.0 / 3.0 - 16.0]))[::-1]
        assert np.allclose(pair.values, oracle.real, atol=1e-9)

    def test_residual_and_orthonormality(self, rng):
        a = rng.standard_normal((40, 40))
        m = SymmetricMatrix(a + a.T)
        pair = top_eigs(m, 5)
        for i in range(5):
            res = np.linalg.norm(m.data @ pair.vectors[:, i]
                                 - pair.values[i] * pair.vectors[:, i])
            assert res <= 1e-8 * max(1.0, abs(pair.values[i]))
        gram = pair.vectors.T @ pair.vectors
        assert np.linalg.norm(gram - np.eye(5), "fro") <= 1e-10

    def test_iterative_path_matches_dense(self, rng):
        """n > dense cutoff routes through the sparse solver; answers agree."""
        z = rng.standard_normal((300, 4))
        g = centered_gram(z)
        pair = top_eigs(SymmetricMatrix(g), 3)
        dense = np.sort(np.linalg.eigvalsh(g))[::-1][:3]
        assert np.allclose(pair.values, dense, rtol=1e-8)
        for i in range(3):
            res = np.linalg.norm(g @ pair.vectors[:, i]
                                 - pair.values[i] * pair.vectors[:, i])
            assert res <= 1e-8 * max(1.0, abs(pair.values[i]))

    def test_deterministic_bit_identical(self, rng):
        a = rng.standard_normal((30, 30))
        m = SymmetricMatrix(a + a.T)
        p1, p2 = top_eigs(m, 4), top_eigs(m, 4)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)

    def test_iterative_path_bit_identical_after_other_calls(self, rng):
        """The iterative solver's start vector is fixed by n, so the answer
        does not depend on which solves ran before it."""
        z = rng.standard_normal((300, 4))
        m = SymmetricMatrix(centered_gram(z))
        p1 = top_eigs(m, 3)
        a = rng.standard_normal((300, 300))
        top_eigs(SymmetricMatrix(a + a.T), 5)
        p2 = top_eigs(m, 3)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)

    @pytest.mark.parametrize("n", [3, 60, 256])
    @pytest.mark.parametrize("k", [1, 2, "n-1"])
    def test_dense_matches_full_decomposition(self, rng, n, k):
        """The dense top-k solve agrees with the top k of a full eigh: values
        within 1e-12 ||m||, and vectors after the sign fix within 1e-10
        wherever the eigenvalue is 1e-4 ||m|| away from its neighbours."""
        k = n - 1 if k == "n-1" else k
        a = rng.standard_normal((n, n))
        m = SymmetricMatrix(a + a.T)
        pair = top_eigs(m, k)
        w, v = np.linalg.eigh(m.data)
        scale = np.abs(w).max()
        assert np.abs(pair.values - w[::-1][:k]).max() <= 1e-12 * scale
        want = _fix_signs(np.ascontiguousarray(v[:, ::-1][:, :k]))
        gaps = np.diff(w)[::-1]  # gap below each eigenvalue, descending order
        apart = np.minimum(np.append(np.inf, gaps)[:k], np.append(gaps, np.inf)[:k])
        keep = apart > 1e-4 * scale
        assert keep.sum() >= k // 2
        assert np.abs(pair.vectors[:, keep] - want[:, keep]).max(initial=0.0) <= 1e-10

    def test_zero_matrix_above_cutoff_gets_dense_answer(self):
        """The iterative solver cannot start on an all-zero matrix; it gives
        the answer of the dense path (taken here through k = n - 1)."""
        m = SymmetricMatrix(np.zeros((300, 300)))
        pair, dense = top_eigs(m, 2), top_eigs(m, 299)
        assert np.array_equal(pair.values, np.zeros(2))
        assert np.array_equal(pair.vectors, dense.vectors[:, :2])

    def test_sign_convention(self, rng):
        a = rng.standard_normal((15, 15))
        pair = top_eigs(SymmetricMatrix(a + a.T), 3)
        for j in range(3):
            col = pair.vectors[:, j]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_k_out_of_range(self):
        m = SymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            top_eigs(m, 0)
        with pytest.raises(ValueError):
            top_eigs(m, 4)


class TestNorms:
    def test_identity(self):
        assert norms(SymmetricMatrix(np.eye(3))) == pytest.approx(1.0)

    def test_single_row(self):
        assert norms(SymmetricMatrix(np.array([[-5.0]]))) == pytest.approx(5.0)

    def test_spectral_vs_power_iteration(self, rng):
        a = rng.standard_normal((4, 4))
        m = a + a.T
        # power iteration on m^2 to 1e-12
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        mtm = m @ m
        prev = 0.0
        for _ in range(10000):
            w = mtm @ v
            lam = np.linalg.norm(w)
            v = w / lam
            if abs(lam - prev) < 1e-12 * max(lam, 1.0):
                break
            prev = lam
        norm = norms(SymmetricMatrix(m))
        assert norm == pytest.approx(np.sqrt(lam), rel=1e-10)

    @pytest.mark.parametrize("n", [50, 300])
    def test_negative_eigenvalue_dominates(self, rng, n):
        """The spectral norm is the largest |eigenvalue|, here -2 ahead of a
        positive 1.9, on both sides of the dense cutoff."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(-1.0, 1.0, n)
        w[:2] = -2.0, 1.9
        m = SymmetricMatrix((q * w) @ q.T)
        want = np.linalg.norm(m.data, 2)
        assert want == pytest.approx(2.0, rel=1e-12)
        assert norms(m) == pytest.approx(want, rel=1e-12)

    def test_zero_matrix_above_cutoff(self):
        assert norms(SymmetricMatrix(np.zeros((300, 300)))) == 0.0

    @staticmethod
    def diagnose_difference(n):
        """B_hat - B of a diagnose cell, as the operator the cell solves: 3-4-5
        mixture, Uniform(-4, 4) model 2."""
        return diagnose_difference(n, 2018)

    @staticmethod
    def wigner(rng):
        """Gapless spectrum filling [-2, 2], n = 400."""
        a = rng.standard_normal((400, 400))
        return SymmetricMatrix((a + a.T) / np.sqrt(2 * 800))

    @staticmethod
    def plus_minus_tie(rng):
        """+2 and -2 at the top of the spectrum, n = 400."""
        q, _ = np.linalg.qr(rng.standard_normal((400, 400)))
        w = rng.uniform(-1.0, 1.0, 400)
        w[:2] = 2.0, -2.0
        return SymmetricMatrix((q * w) @ q.T)

    @pytest.mark.parametrize("case", ["wigner", "diagnose_difference", "plus_minus_tie"])
    def test_eigenvalue_only_solve_accuracy(self, rng, case):
        """Above the dense cutoff the eigenvalue-only Lanczos solve stops at a
        sqrt(eps) residual, and the norm still matches a dense solve to 1e-12."""
        m = (self.diagnose_difference(500) if case == "diagnose_difference"
             else getattr(self, case)(rng))
        a = matrixcore._formed(matrixcore._operand(m))
        assert a.shape[0] > DENSE_EIG_CUTOFF
        want = float(np.abs(scipy.linalg.eigvalsh(a)).max())
        assert norms(m) == pytest.approx(want, rel=1e-12)

    def test_eigenvalue_only_solve_saves_matvecs(self, monkeypatch, matvec_counts):
        """On B_hat - B at n = 1000 the sqrt(eps) stop takes at most 0.7x the
        matvecs of a solve to machine precision (tol=0). The start vector is
        fixed by n, so both counts repeat exactly."""
        calls = matvec_counts
        m = self.diagnose_difference(1000)
        value = norms(m)
        monkeypatch.setattr(matrixcore, "_VALUE_TOL", 0.0)
        exact = norms(m)
        assert len(calls) == 2
        assert calls[0] <= 0.7 * calls[1]
        assert value == pytest.approx(exact, rel=1e-12)

    def test_restart_vectors_fixed_by_n(self, matvec_counts):
        """The noiseless B = -1/2 P D^2 P of a 3-4-5 mixture has rank 2, so
        ARPACK's Krylov space runs out and it draws restart vectors. They come
        from a generator fixed by n: five solves in one process take the same
        number of matvecs and return the same bits."""
        cloud = pointmodel.sample(pointmodel.triangle_345(), 500, 601)
        B = centered(SymmetricMatrix._unchecked(cloud.distance_matrix() ** 2))
        pairs = [top_eigs(B, 2) for _ in range(5)]
        assert len(set(matvec_counts)) == 1, matvec_counts
        assert all(np.array_equal(p.values, pairs[0].values)
                   and np.array_equal(p.vectors, pairs[0].vectors) for p in pairs)


def diagnose_difference(n, seed):
    """B_hat - B of replicate 0 of the Table-1 noise at n (3-4-5 mixture,
    Uniform(-4, 4) model 2), as a diagnose cell solves it: B_hat the centered
    operator over Delta^2, minus the Gram matrix of the centered points."""
    noise = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
    cloud, _, out = clt.simulate(pointmodel.triangle_345(), noise, n, seed, 0,
                                 keep=("delta_sq",))
    points = cloud.points - cloud.points.mean(axis=0)
    return minus_gram(centered(out["delta_sq"]), points)


def replicate_delta_sq(n):
    """Delta^2 of replicate 0 of the Table-1 config at n: 3-4-5 mixture,
    Uniform(-4, 4) model 2, seed 7."""
    noise = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
    _, _, out = clt.simulate(pointmodel.triangle_345(), noise, n, 7, 0,
                             keep=("delta_sq",))
    return out["delta_sq"]


@pytest.mark.skipif(not matrixcore._OPENBLAS, reason="no bundled OpenBLAS loaded")
class TestCallerBlasCount:
    """A library caller's BLAS thread count changes the bits of LAPACK's
    dense solves at these sizes; the solves run on one thread whatever it is,
    and leave it as they found it."""

    def test_dense_top_eigs(self, blas_count):
        b = double_center(replicate_delta_sq(200))
        blas_count(1)
        want = top_eigs(b, 2)
        blas_count(2)
        got = top_eigs(b, 2)
        assert blas_count() == [2] * len(blas_count())
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)

    def test_dense_norms(self, blas_count):
        m = TestNorms.diagnose_difference(DENSE_EIG_CUTOFF)
        blas_count(1)
        want = norms(m)
        blas_count(2)
        got = norms(m)
        assert blas_count() == [2] * len(blas_count())
        assert got == want


class TestCentered:
    @pytest.mark.parametrize("n, k, dense", [
        (DENSE_EIG_CUTOFF, 2, True), (DENSE_EIG_CUTOFF + 1, 2, False),
        (300, 299, True), (300, 298, False), (300, 2, False)])
    def test_dense_exactly_where_top_eigs_solves_densely(self, n, k, dense,
                                                         matvec_counts):
        """``top_eigs`` on the operator calls ARPACK exactly where it does on
        the formed B_hat; elsewhere it forms B_hat and returns its dense
        pairs bit for bit."""
        dsq = replicate_delta_sq(n)
        got = top_eigs(centered(dsq), k)
        want = top_eigs(double_center(dsq), k)
        assert len(matvec_counts) == (0 if dense else 2)
        if dense:
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.vectors, want.vectors)
        else:
            scale = np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [257, 300, 1000])
    def test_operator_matches_dense_centering(self, n, matvec_counts):
        """Above the cutoff the operator over Delta^2 gives the eigenpairs of
        the formed B_hat, in as many matvecs."""
        dsq = replicate_delta_sq(n)
        got = top_eigs(centered(dsq), 2)
        want = top_eigs(double_center(dsq), 2)
        assert matvec_counts[0] == matvec_counts[1]
        assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()
        assert np.abs(got.vectors - want.vectors).max() <= 1e-10

    def test_operator_reads_upper_triangle_only(self):
        """NaN in the strict lower triangle of Delta^2's array leaves the
        result bit-identical."""
        dsq = replicate_delta_sq(300)
        a = dsq.data.copy()
        a[np.tril_indices(300, -1)] = np.nan
        got = top_eigs(centered(SymmetricMatrix._unchecked(a)), 2)
        want = top_eigs(centered(dsq), 2)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)


class TestMinusGram:
    @pytest.mark.parametrize("n", [100, 300])
    def test_operator_applies_the_formed_difference(self, n):
        """B_hat - X X^T applied as an operator agrees with the formed
        difference, and so does the matrix it forms."""
        m = diagnose_difference(n, 7)
        want = double_center(m.a.sq).data - m.x @ m.x.T
        assert np.array_equal(m.formed(), want)
        v = np.random.default_rng(n).standard_normal((n, 3))
        assert np.abs(m @ v - want @ v).max() <= 1e-12 * np.abs(want @ v).max()

    @pytest.mark.parametrize("n, dense", [(DENSE_EIG_CUTOFF, True),
                                          (DENSE_EIG_CUTOFF + 1, False), (500, False)])
    def test_norms_forms_only_where_it_solves_densely(self, n, dense, monkeypatch,
                                                      matvec_counts):
        """``norms`` of the operator forms it exactly where it solves densely,
        and matches the norm of the formed difference to 1e-12 either side."""
        m = diagnose_difference(n, 7)
        want = float(np.abs(scipy.linalg.eigvalsh(m.formed())).max())
        formed, form = [], type(m).formed
        monkeypatch.setattr(type(m), "formed", lambda self: formed.append(n) or form(self))
        assert norms(m) == pytest.approx(want, rel=1e-12)
        assert (formed, len(matvec_counts)) == (([n], 0) if dense else ([], 1))

    def test_over_a_symmetric_matrix(self, rng):
        """Over a ``SymmetricMatrix`` the operator subtracts X X^T from its
        array, and ``top_eigs`` solves it as it solves the formed matrix."""
        a = rng.standard_normal((300, 300))
        m = SymmetricMatrix(a + a.T)
        x = rng.standard_normal((300, 2))
        op = minus_gram(m, x)
        assert np.array_equal(op.formed(), m.data - x @ x.T)
        got = top_eigs(op, 2)
        want = top_eigs(SymmetricMatrix(m.data - x @ x.T), 2)
        assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()

    def test_rejects_a_factor_of_other_length(self):
        with pytest.raises(ValueError, match="one row per row"):
            minus_gram(SymmetricMatrix(np.eye(4)), np.ones((5, 2)))


class TestGramTopEigs:
    def test_matches_the_formed_gram_matrix(self, rng):
        x = rng.standard_normal((50, 3))
        got = gram_top_eigs(x, 2)
        want = top_eigs(SymmetricMatrix(x @ x.T), 2)
        assert np.abs(got.values - want.values).max() <= 1e-12 * want.values[0]
        assert np.abs(got.vectors - want.vectors).max() <= 1e-12
        assert not got.degenerate

    def test_k_out_of_range(self):
        x = np.ones((5, 2))
        for k in (0, 3):
            with pytest.raises(ValueError, match=f"k={k} out of range"):
                gram_top_eigs(x, k)


finite_mats = arrays(np.float64, (4, 4),
                     elements=st.floats(-100, 100, allow_nan=False))


@given(a=finite_mats, b=finite_mats)
@settings(max_examples=60, deadline=None)
def test_product_norm_bound(a, b):
    """||AB||_F <= min(||A|| ||B||_F, ||B|| ||A||_F) on random instances."""
    lhs = np.linalg.norm(a @ b, "fro")
    bound = min(np.linalg.norm(a, 2) * np.linalg.norm(b, "fro"),
                np.linalg.norm(b, 2) * np.linalg.norm(a, "fro"))
    assert lhs <= bound * (1 + 1e-9) + 1e-9


@given(a=finite_mats)
@settings(max_examples=40, deadline=None)
def test_constructed_matrix_exactly_symmetric(a):
    m = SymmetricMatrix(a + a.T)
    assert np.array_equal(m.data, m.data.T)
    assert np.array_equal(m.data, a + a.T)


def test_csv_roundtrip(tmp_path, rng):
    a = rng.standard_normal((6, 6))
    m = SymmetricMatrix(a + a.T)
    path = tmp_path / "m.csv"
    np.savetxt(path, m.data, delimiter=",", fmt="%.17g")
    back = read_matrix_csv(path)
    assert np.allclose(back.data, m.data, rtol=1e-15)


def test_csv_reader_rejects_asymmetric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n2,0\n")
    with pytest.raises(ValueError):
        read_matrix_csv(path)


def test_csv_reader_keeps_nonzero_diagonal(tmp_path):
    """The reader checks symmetry only; the consumers of dissimilarities
    (``perturb``, ``minimize_stress``) check their diagonal."""
    path = tmp_path / "m.csv"
    path.write_text("1,2\n2,0\n")
    assert np.array_equal(read_matrix_csv(path).data, [[1.0, 2.0], [2.0, 0.0]])
