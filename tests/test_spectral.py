import itertools

import numpy as np
import numpy.testing as npt
import pytest

from gaussgauge import (
    DimensionError,
    GaussianGenerator,
    NonFiniteInputError,
    additive_spectrum,
    bounded_multi_indices,
    jordan_structure,
    solve_lyapunov,
    squeezed_drift_eigenvalues,
    SqueezedReservoirParams,
    truncated_ou_matrix,
)
from gaussgauge.verify import (
    gauge_similarity_residual,
    random_ep2_drift,
    random_hurwitz,
    random_psd,
)

from multiset import eigenvalue_multiset_distance


def degree_block(a, degree):
    """The one-mode drift restricted to homogeneous polynomials of one degree."""
    drift = GaussianGenerator(A=a, D=np.zeros((2, 2)), u=np.zeros(2))
    return truncated_ou_matrix(drift, degree)[-(degree + 1):, -(degree + 1):].real


class TestJordanStructure:
    def test_canonical_jordan_block(self):
        report = jordan_structure(np.array([[0.3, 1.0], [0.0, 0.3]]))
        assert report.defective
        assert report.multiplicities == (2,)
        assert report.block_sizes == ((2,),)
        assert report.eigenvalues[0] == pytest.approx(0.3)

    def test_scaled_defective_drift(self):
        b = np.array([[0.4, 0.4], [-0.4, -0.4]])  # nilpotent
        x = 0.7 * (np.eye(2) + 1.3 * b)
        report = jordan_structure(x)
        assert report.defective
        assert report.eigenvalues[0] == pytest.approx(0.7, abs=1e-12)

    def test_distinct_eigenvalues(self):
        report = jordan_structure(np.diag([1.0, 2.0]))
        assert not report.defective
        assert report.block_sizes == ((1,), (1,))
        assert report.coalescence_gap == pytest.approx(1.0)

    def test_close_simple_eigenvalues_not_defective(self):
        # one cluster at the default tolerance whose null counts of powers
        # rise as (0, 0, 2): the block sizes still sum to the multiplicity
        report = jordan_structure(np.diag([1.0, 1.0 + 1e-8, 5.0]))
        assert not report.defective
        assert report.multiplicities == (2, 1)
        assert report.block_sizes == ((1, 1), (1,))

    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_small_certain_gap_not_defective(self, eps):
        # a symmetric matrix lies eps from the nearest matrix with a double
        # eigenvalue, far outside the tolerance, however small its gap 2 eps
        report = jordan_structure(np.array([[-0.02, -eps], [-eps, -0.02]]))
        assert not report.defective
        npt.assert_allclose(report.eigenvalues, [-0.02 - eps, -0.02 + eps], rtol=1e-15)

    def test_within_tolerance_of_a_jordan_block(self):
        # 1e-13 from [[0, 1], [0, 0]], with eigenvalues 6e-7 apart
        report = jordan_structure(np.array([[0.0, 1.0], [1e-13, 0.0]]))
        assert report.defective
        assert report.block_sizes == ((2,),)

    def test_scalar_matrix_not_defective(self):
        report = jordan_structure(0.5 * np.eye(2))
        assert not report.defective
        assert report.multiplicities == (2,)
        assert report.block_sizes == ((1, 1),)

    @pytest.mark.parametrize("big", [1e160, 1e200, 7e305])
    def test_rule_survives_discriminant_overflow(self, big):
        # tau^2 overflows to inf, and inf <= tol * scale^2 = inf once passed
        # the discriminant test: a diagonal X came out defective
        report = jordan_structure(np.diag([big, 1.0]))
        assert not report.defective
        assert report.multiplicities == (1, 1)
        # finite, and exact to rounding on the scale of the matrix
        assert np.all(np.isfinite(report.eigenvalues))
        npt.assert_allclose(report.eigenvalues, [1.0, big], rtol=1e-15, atol=1e-15 * big)
        # the smaller one to full relative accuracy, not to the scale of the matrix
        assert report.eigenvalues[0] == pytest.approx(1.0, rel=1e-15)
        assert report.coalescence_gap == pytest.approx(big)
        report = jordan_structure(big * np.eye(2))
        assert not report.defective
        assert report.multiplicities == (2,)
        report = jordan_structure(np.array([[big, big], [0.0, big]]))
        assert report.defective

    def test_general_path_mixed_structure(self):
        # blocks: eigenvalue 1 -> sizes (2, 1); eigenvalue -2 -> size 1
        j = np.zeros((4, 4))
        j[0, 0] = j[1, 1] = j[2, 2] = 1.0
        j[0, 1] = 1.0
        j[3, 3] = -2.0
        basis = np.array(
            [
                [1.0, 0.2, 0.0, 0.1],
                [0.0, 1.0, 0.3, 0.0],
                [0.2, 0.0, 1.0, 0.0],
                [0.0, 0.1, 0.0, 1.0],
            ]
        )
        m = basis @ j @ np.linalg.inv(basis)
        report = jordan_structure(m, tol=1e-4)
        assert report.defective
        by_eig = dict(zip(np.round([e.real for e in report.eigenvalues], 6), report.block_sizes))
        assert by_eig[1.0] == (2, 1)
        assert by_eig[-2.0] == (1,)

    def test_block_sizes_sum_to_multiplicity(self, rng):
        for _ in range(50):
            m = rng.standard_normal((5, 5))
            report = jordan_structure(m)
            for mult, blocks in zip(report.multiplicities, report.block_sizes):
                assert sum(blocks) == mult
            assert sum(report.multiplicities) == 5


class TestAdditiveSpectrum:
    def test_two_eigenvalue_enumeration(self):
        spec = additive_spectrum([-1.0, -2.0], 3)
        values = sorted(v.real for _, v in spec.values)
        assert values == [-6.0, -5.0, -4.0, -4.0, -3.0, -3.0, -2.0, -2.0, -1.0, 0.0]

    def test_single_eigenvalue_ladder(self):
        spec = additive_spectrum([-0.7], 4)
        npt.assert_allclose(
            sorted(v.real for _, v in spec.values), [-2.8, -2.1, -1.4, -0.7, 0.0]
        )

    def test_contains_zero_index(self):
        spec = additive_spectrum([-1.0 + 2.0j, -3.0], 2)
        indices = [n for n, _ in spec.values]
        assert (0, 0) in indices
        assert len(set(indices)) == len(indices)

    def test_degree_one_slice_recovers_drift_eigenvalues(self):
        params = SqueezedReservoirParams(kappa=2.0, delta=0.5, epsilon=1.0)
        eigs = squeezed_drift_eigenvalues(params)
        npt.assert_allclose(sorted(e.real for e in eigs), [-1 - np.sqrt(0.75), -1 + np.sqrt(0.75)])
        spec = additive_spectrum(eigs, 1)
        degree_one = sorted(
            (v for n, v in spec.values if sum(n) == 1), key=lambda z: z.real
        )
        npt.assert_allclose(degree_one, sorted(eigs, key=lambda z: z.real), atol=1e-14)


def test_bounded_multi_indices_graded_then_descending():
    for length in range(1, 5):
        for total in range(5):
            everything = itertools.product(range(total + 1), repeat=length)
            bounded = [n for n in everything if sum(n) <= total]
            expected = sorted(bounded, key=lambda n: (sum(n), [-v for v in n]))
            assert bounded_multi_indices(length, total) == expected


class TestDriftRestriction:
    def test_diagonal_drift(self):
        m = degree_block(np.diag([-1.0, -2.0]), 2)
        npt.assert_allclose(np.sort(np.diag(m)), [-4.0, -3.0, -2.0])
        assert np.abs(m - np.diag(np.diag(m))).max() == 0.0

    def test_degree_zero(self):
        npt.assert_array_equal(degree_block(np.diag([-1.0, -2.0]), 0), [[0.0]])

    @pytest.mark.parametrize("ell", range(1, 7))
    def test_jordan_chain_law(self, ell):
        lam = -0.8
        a = lam * np.eye(2) + np.array([[0.0, 0.0], [1.0, 0.0]])  # A^T = lam I + N
        m = degree_block(a, ell)
        report = jordan_structure(m, tol=0.2)
        assert report.defective
        assert len(report.eigenvalues) == 1
        assert report.eigenvalues[0] == pytest.approx(ell * lam, abs=1e-8)
        assert report.block_sizes[0] == (ell + 1,)

    def test_chain_coefficients(self):
        # (L - ell*lam) p_j = (ell - j) p_{j+1} in the monomial basis
        lam, ell = -0.5, 3
        a = lam * np.eye(2) + np.array([[0.0, 0.0], [1.0, 0.0]])
        m = degree_block(a, ell) - ell * lam * np.eye(ell + 1)
        expected = np.zeros((ell + 1, ell + 1))
        for j in range(ell):
            expected[j + 1, j] = ell - j
        npt.assert_array_equal(m, expected)


def bottleneck_by_permutations(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return min((max(cost[range(len(a)), p], default=0.0)
                for p in itertools.permutations(range(len(a)))))


class TestEigenvalueMultisetDistance:
    def test_matches_permutation_bottleneck(self, rng):
        for _ in range(600):
            n = int(rng.integers(0, 6))
            a, b = ([1.0, 1j] @ rng.standard_normal((2, n)) for _ in range(2))
            if rng.uniform() < 0.5:  # coarse points tie in their costs
                a, b = np.round(a, 1), np.round(b, 1)
            assert eigenvalue_multiset_distance(a, b) == bottleneck_by_permutations(a, b)

    def test_bottleneck_not_min_sum(self):
        # pairing -2 <-> -1, -1 <-> i has costs 1 and sqrt(2) (sum 2.414);
        # -2 <-> i, -1 <-> -1 has sqrt(5) and 0 (sum 2.236), the min-sum
        # pairing, whose max sqrt(5) is not the bottleneck distance sqrt(2)
        assert eigenvalue_multiset_distance([-2.0, -1.0], [-1.0, 1j]) == abs(-1.0 - 1j)

    def test_sizes_and_values_checked(self):
        assert eigenvalue_multiset_distance([], []) == 0.0
        assert eigenvalue_multiset_distance([0.5j], [-0.5j]) == 1.0
        with pytest.raises(DimensionError):
            eigenvalue_multiset_distance([1.0, 2.0], [1.0])
        with pytest.raises(DimensionError):
            eigenvalue_multiset_distance([], [1.0])
        with pytest.raises(NonFiniteInputError):
            eigenvalue_multiset_distance([1.0, np.nan], [1.0, 2.0])


class TestTruncatedOu:
    def test_diagonal_drift_matches_additive_spectrum(self, rng):
        a = np.diag([-1.0, -2.0])
        gen = GaussianGenerator(A=a, D=random_psd(rng, 2), u=np.zeros(2))
        eigs = np.linalg.eigvals(truncated_ou_matrix(gen, 3))
        expected = additive_spectrum([-1.0, -2.0], 3).eigenvalues
        assert eigenvalue_multiset_distance(eigs, expected) <= 1e-10

    def test_noise_independence(self, rng):
        worst = 0.0
        count = 0
        while count < 30:
            a = random_hurwitz(rng, 2)
            a = a / np.abs(np.linalg.eigvals(a)).max()
            if np.linalg.cond(np.linalg.eig(a).eigenvectors) > 3.0:
                continue
            noisy = GaussianGenerator(
                A=a, D=0.5 * random_psd(rng, 2), u=0.3 * rng.standard_normal(2)
            )
            silent = GaussianGenerator(A=a, D=np.zeros((2, 2)), u=np.zeros(2))
            worst = max(
                worst,
                eigenvalue_multiset_distance(
                    np.linalg.eigvals(truncated_ou_matrix(noisy, 6)),
                    np.linalg.eigvals(truncated_ou_matrix(silent, 6)),
                ),
            )
            count += 1
        assert worst <= 1e-9

    def test_drive_only_enters_below_the_diagonal_blocks(self, rng):
        a = random_hurwitz(rng, 2)
        driven = GaussianGenerator(A=a, D=np.zeros((2, 2)), u=np.array([0.7, -0.4]))
        silent = GaussianGenerator(A=a, D=np.zeros((2, 2)), u=np.zeros(2))
        m_driven = truncated_ou_matrix(driven, 5)
        m_silent = truncated_ou_matrix(silent, 5)
        assert eigenvalue_multiset_distance(
            np.linalg.eigvals(m_driven), np.linalg.eigvals(m_silent)
        ) <= 1e-10
        # the drive sits strictly below the diagonal drift blocks
        degrees = [sum(n) for n in bounded_multi_indices(2, 5)]
        for i, deg_row in enumerate(degrees):
            for j, deg_col in enumerate(degrees):
                if (m_driven - m_silent)[i, j] != 0:
                    assert deg_row == deg_col + 1

    def test_defective_drift_forces_degree_blocks(self):
        lam = -0.6
        a = lam * np.eye(2) + np.array([[0.0, 0.0], [1.0, 0.0]])
        gen = GaussianGenerator(A=a, D=0.4 * np.eye(2), u=np.zeros(2))
        block = degree_block(a, 2)
        report = jordan_structure(block, tol=0.1)
        assert report.defective
        assert report.block_sizes[0] == (3,)
        # and the full truncated matrix keeps the defective additive spectrum
        eigs = np.linalg.eigvals(truncated_ou_matrix(gen, 2))
        expected = additive_spectrum(np.linalg.eigvals(a), 2).eigenvalues
        assert eigenvalue_multiset_distance(eigs, expected) <= 1e-5

    def test_negative_degree_rejected(self, rng):
        gen = GaussianGenerator(A=random_hurwitz(rng, 4), D=np.zeros((4, 4)), u=np.zeros(4))
        with pytest.raises(DimensionError):
            truncated_ou_matrix(gen, -1)

    def test_diffusion_and_drive_raise_the_degree_at_two_modes(self, rng):
        # the N-mode form of the block structure above: the drift keeps the
        # degree, D raises it by exactly 2 and u by exactly 1
        a = random_hurwitz(rng, 4)
        zero = np.zeros((4, 4))
        silent = truncated_ou_matrix(GaussianGenerator(A=a, D=zero, u=np.zeros(4)), 4)
        diffused = truncated_ou_matrix(
            GaussianGenerator(A=a, D=random_psd(rng, 4), u=np.zeros(4)), 4
        )
        driven = truncated_ou_matrix(
            GaussianGenerator(A=a, D=zero, u=rng.standard_normal(4)), 4
        )
        degrees = np.array([sum(n) for n in bounded_multi_indices(4, 4)])
        rise = degrees[:, None] - degrees[None, :]
        assert np.all(rise[silent != 0] == 0)
        for m, step in ((diffused - silent, 2), (driven - silent, 1)):
            assert np.count_nonzero(m) > 0
            assert np.all(rise[m != 0] == step)


@pytest.mark.parametrize("modes, degree", [(1, 6), (2, 5), (3, 4)])
def test_truncated_ou_matrix_against_the_formula(rng, modes, degree):
    # L p for a random p of degree <= degree - 2, where nothing is truncated,
    # evaluated at random points from the gradient of p and the products
    # with xi^T D xi and u^T xi, against the coefficients of the matrix product
    dim = 2 * modes
    a, d, u = rng.standard_normal((dim, dim)), random_psd(rng, dim), rng.standard_normal(dim)
    mat = truncated_ou_matrix(GaussianGenerator(A=a, D=d, u=u), degree)
    basis = np.array(bounded_multi_indices(dim, degree))
    coeffs = np.where(basis.sum(axis=1) <= degree - 2, rng.standard_normal(len(basis)), 0.0)
    for xi in rng.uniform(-1.0, 1.0, size=(5, dim)):
        monomials = np.prod(xi ** basis, axis=1)
        grad = [
            coeffs @ (basis[:, i] * np.prod(xi ** np.maximum(basis - np.eye(dim)[i], 0), axis=1))
            for i in range(dim)
        ]
        p = coeffs @ monomials
        direct = (a.T @ xi) @ grad - 0.5 * (xi @ d @ xi) * p + 1j * (u @ xi) * p
        assert (mat @ coeffs) @ monomials == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestGaugeSimilarity:
    @pytest.mark.parametrize("modes, degree", [(1, 6), (2, 4)])
    @pytest.mark.parametrize("planted_ep", [False, True])
    def test_exact_gauge_passes_and_shifted_gauge_fails(self, rng, modes, degree, planted_ep):
        dim = 2 * modes
        for _ in range(10):
            a = random_ep2_drift(rng, dim) if planted_ep else random_hurwitz(rng, dim)
            if planted_ep:
                assert max(max(blocks) for blocks in jordan_structure(a).block_sizes) == 2
            gen = GaussianGenerator(A=a, D=random_psd(rng, dim), u=rng.standard_normal(dim))
            s = solve_lyapunov(a, gen.D).S
            assert gauge_similarity_residual(gen, s, degree) <= 1e-12
            assert gauge_similarity_residual(gen, s * (1 + 1e-6), degree) > 1e-12
