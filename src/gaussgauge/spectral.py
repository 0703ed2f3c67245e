"""Defectiveness detection and the drift-controlled spectrum machinery.

Exceptional points are parameter values where the drift matrix becomes
non-diagonalizable. `jordan_structure` decides defectiveness (for real 2x2
input by the distance to a double eigenvalue, by eigenvalue clustering and
rank sequences in general);
`additive_spectrum` enumerates sum_j n_j lambda_j(A). `truncated_ou_matrix`
is the phase-space generator of any mode count on the polynomials of bounded
degree, in the graded monomial order: block lower triangular, with the drift
alone on the diagonal blocks. Multiplication by exp(-xi^T S xi / 2), with S
the Lyapunov gauge, turns the generator with diffusion D into the one
without, exactly at every truncation (verify's `noise-independence`).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteInputError, _square, require_finite
from .onemode import DISC_TOL, jordan2_entries


@dataclass(frozen=True)
class JordanReport:
    """Eigenvalues with multiplicities and Jordan block sizes.

    `defective` iff some block has size >= 2; `coalescence_gap` is the
    minimum pairwise distance of the raw computed eigenvalues.
    """

    eigenvalues: tuple
    multiplicities: tuple
    block_sizes: tuple
    defective: bool
    coalescence_gap: float

    def __post_init__(self):
        for mult, blocks in zip(self.multiplicities, self.block_sizes):
            if sum(blocks) != mult:
                raise ValueError("block sizes must sum to the algebraic multiplicity")


def _min_pairwise_gap(eigs):
    if len(eigs) < 2:
        return float("inf")
    gap = float("inf")
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            gap = min(gap, abs(eigs[i] - eigs[j]))
    return gap


def _jordan_2x2(m, tol):
    entries = m.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise NonFiniteInputError("matrix has non-finite entries")
    center, disc, double, defective, p = jordan2_entries(*entries, tol)
    half = 0.5 * np.sqrt(complex(disc)) * p  # finite where disc * p * p is not
    if disc > 0.0:
        # center - half would cancel for the root of smaller magnitude;
        # det / lambda_large does not
        m11, m12, m21, m22 = entries
        big = center + math.copysign(half.real, center)
        small = ((m11 / p) * m22 - (m12 / p) * m21) / (big / p)
        eigs = tuple(complex(v) for v in sorted((small, big)))
    else:
        eigs = (center - half, center + half)
    gap = abs(eigs[1] - eigs[0])
    if double:
        # a single eigenvalue: one Jordan block, or a multiple of the identity
        return JordanReport(
            eigenvalues=(center + 0j,),
            multiplicities=(2,),
            block_sizes=((2,),) if defective else ((1, 1),),
            defective=bool(defective),
            coalescence_gap=gap,
        )
    return JordanReport(
        eigenvalues=eigs,
        multiplicities=(1, 1),
        block_sizes=((1,), (1,)),
        defective=False,
        coalescence_gap=gap,
    )


def _cluster(eigs, tol):
    """Single-linkage clustering of eigenvalues within distance tol."""
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _block_sizes(m, mu, multiplicity):
    """Jordan block sizes at eigenvalue mu from the rank sequence of powers.

    The shifted matrix is normalized once so that rank thresholds are absolute
    on unit scale; per-power renormalization would blow numerically-zero
    powers back to O(1) and fake extra rank.
    """
    n = m.shape[0]
    shifted = m - mu * np.eye(n)
    top = np.linalg.svd(shifted, compute_uv=False)[0]
    if top == 0.0:
        return (1,) * multiplicity
    shifted = shifted / top
    nulls = [0]
    power = np.eye(n, dtype=shifted.dtype)
    for _ in range(multiplicity):
        power = power @ shifted
        svals = np.linalg.svd(power, compute_uv=False)
        rank = int(np.sum(svals > 1e-10))
        nulls.append(min(n - rank, multiplicity))
        if nulls[-1] >= multiplicity:
            break
    # nu_k = number of blocks of size >= k, which cannot grow with k; rank
    # decisions on a cluster of distinct eigenvalues can make the raw
    # differences grow, so take their running minimum
    nu = list(itertools.accumulate(
        (nulls[k] - nulls[k - 1] for k in range(1, len(nulls))), min))
    sizes = []
    for k, count_ge in enumerate(nu, start=1):
        count_next = nu[k] if k < len(nu) else 0
        sizes.extend([k] * (count_ge - count_next))
    sizes.sort(reverse=True)
    missing = multiplicity - sum(sizes)
    if missing > 0:
        # rank decisions starved the sequence; attribute the rest to 1-blocks
        sizes.extend([1] * missing)
    return tuple(sizes)


def jordan_structure(matrix, tol=None):
    """Eigenvalue multiplicities, Jordan block sizes, and the EP verdict.

    Real 2x2 matrices take the closed-form route of `onemode.jordan2_entries`:
    defective iff the matrix lies within `tol` (default 1e-12, scale-aware)
    of one with a double eigenvalue, in Frobenius distance, while it is not
    proportional to the identity. Otherwise eigenvalues are
    clustered within `tol` (default 1e-7 scale-aware) and block sizes read off
    the rank sequence of (M - mu I)^k.
    """
    m = np.asarray(matrix)
    _square("jordan_structure input", m)
    if m.shape == (2, 2) and not np.iscomplexobj(m):
        return _jordan_2x2(m.astype(float), DISC_TOL if tol is None else tol)
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError:
        require_finite(matrix=m)
        raise
    scale = 1.0 + float(np.max(np.abs(m)))
    ctol = (1e-7 * scale) if tol is None else tol
    clusters = _cluster(list(eigs), ctol)
    means = [eigs[g].mean() for g in clusters]
    reps, mults, blocks = [], [], []
    for mu, idx in sorted(zip(means, clusters), key=lambda c: (c[0].real, c[0].imag)):
        mult = len(idx)
        reps.append(complex(mu))
        mults.append(mult)
        blocks.append((1,) if mult == 1 else _block_sizes(m.astype(complex), mu, mult))
    defective = any(size >= 2 for group in blocks for size in group)
    return JordanReport(
        eigenvalues=tuple(reps),
        multiplicities=tuple(mults),
        block_sizes=tuple(blocks),
        defective=defective,
        coalescence_gap=_min_pairwise_gap(list(eigs)),
    )


@dataclass(frozen=True)
class AdditiveSpectrum:
    """Ornstein-Uhlenbeck spectrum {sum_j n_j lambda_j} up to a degree bound."""

    base_eigenvalues: tuple
    max_total_degree: int
    values: tuple  # (multi_index, eigenvalue) pairs, graded-lex order

    @property
    def eigenvalues(self):
        return np.array([v for _, v in self.values])


def bounded_multi_indices(length, max_total):
    """All multi-indices n in N_0^length with sum(n) <= max_total, graded-lex."""
    return [
        tuple(combo.count(i) for i in range(length))
        for total in range(max_total + 1)
        for combo in itertools.combinations_with_replacement(range(length), total)
    ]


def additive_spectrum(eigenvalues, max_degree):
    """Enumerate sum_j n_j lambda_j over all multi-indices with |n| <= max_degree."""
    if max_degree < 0:
        raise DimensionError("max_degree must be >= 0")
    eigenvalues = np.atleast_1d(eigenvalues)
    require_finite(eigenvalues=eigenvalues)
    base = tuple(complex(v) for v in eigenvalues)
    values = []
    for n in bounded_multi_indices(len(base), max_degree):
        values.append((n, sum(nj * lj for nj, lj in zip(n, base))))
    return AdditiveSpectrum(
        base_eigenvalues=base, max_total_degree=max_degree, values=tuple(values)
    )


@functools.lru_cache(maxsize=None)
def _ou_terms(dim, max_degree):
    """(size, pos, coef, weight): the truncated OU matrix, flattened, gets
    weight * c[coef] added at pos, with c = (A.ravel(), D.ravel(), u)."""
    basis = bounded_multi_indices(dim, max_degree)
    index = {alpha: k for k, alpha in enumerate(basis)}
    size = len(basis)
    unit = np.eye(dim, dtype=int)
    pos, coef, weight = [], [], []

    def add(target, col, k, w):
        row = index.get(tuple(target))
        if row is not None:  # None above max_degree, where only D and u reach
            pos.append(row * size + col)
            coef.append(k)
            weight.append(w)

    for col, alpha in enumerate(np.array(basis, dtype=int).reshape(size, dim)):
        for i in range(dim):
            add(alpha + unit[i], col, 2 * dim * dim + i, 1j)  # i u_i xi_i
            for j in range(dim):
                if alpha[i]:  # A[j, i] xi_j d/dxi_i
                    add(alpha - unit[i] + unit[j], col, j * dim + i, alpha[i])
                # -(1/2) D[i, j] xi_i xi_j
                add(alpha + unit[i] + unit[j], col, dim * (dim + i) + j, -0.5)
    pos, coef = np.array(pos, dtype=np.intp), np.array(coef, dtype=np.intp)
    return size, pos, coef, np.array(weight, dtype=complex)


def truncated_ou_matrix(generator, max_degree):
    """Generator (A^T xi).grad - (1/2) xi^T D xi + i u^T xi on monomials.

    Any mode count: the basis is the monomials of degree <= max_degree in the
    2N phase-space variables, in the graded order of `bounded_multi_indices`,
    and terms above max_degree are dropped. The drift keeps the degree, the
    diffusion raises it by 2 and the drive by 1, so both land strictly below
    the diagonal drift blocks: the eigenvalue multiset is the additive drift
    spectrum whatever D and u.
    """
    if max_degree < 0:
        raise DimensionError("max_degree must be >= 0")
    return _ou_matrix(generator.A, generator.D, generator.u, max_degree)


def _ou_matrix(A, D, u, max_degree):
    """`truncated_ou_matrix` of the generator with arrays A, D and u, for a
    max_degree >= 0."""
    size, pos, coef, weight = _ou_terms(A.shape[0], max_degree)
    c = np.concatenate((A.ravel(), D.ravel(), u))
    mat = np.zeros(size * size, dtype=complex)
    np.add.at(mat, pos, c[coef] * weight)
    return mat.reshape(size, size)
