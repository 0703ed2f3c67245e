"""Continuous-time Gaussian generators (A, D, u) and their finite-time channels.

Moment dynamics: dd/dt = A d + u, dV/dt = A V + V A^T + D. `from_lindblad`
builds the generator of linear Lindblad data (A = Sigma(H + Im C^dag C),
D = Sigma Re(C^dag C) Sigma^T, u = Sigma f). `semigroup_arrays` extracts
the finite-time maps (X_t, Y_t, delta_t) of any drift on a whole time grid
in one stacked pass of scaled Van Loan block exponentials and repeated
doubling, so that Y_t never passes through a Lyapunov solution;
`semigroup_channel` is that pass at one time.
scipy is imported at first use, by `semigroup_arrays`.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericalOverflowError,
    _frozen,
    _square,
    _symmetric,
    _symmetrized,
    require_finite,
)
from .matrix_equations import _exponentials
from .phase_space import GaussianChannel, _hermitian_cp_report, symplectic_form


@dataclass(frozen=True)
class GaussianGenerator:
    """Drift A (1/time), symmetric diffusion rate D, and drive rate u."""

    A: np.ndarray
    D: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        d = np.asarray(self.D, dtype=float)
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        _square("drift", a, even=True)
        if d.shape != a.shape or u.shape != a.shape[:1]:
            raise DimensionError(
                f"inconsistent generator shapes A{a.shape} D{d.shape} u{u.shape}"
            )
        require_finite(A=a, D=d, u=u)
        object.__setattr__(self, "A", _frozen(a))
        object.__setattr__(self, "D", _symmetric("diffusion rate matrix", d))
        object.__setattr__(self, "u", _frozen(u))

    @property
    def modes(self):
        return self.A.shape[0] // 2


@dataclass(frozen=True)
class LindbladData:
    """Quadratic Hamiltonian matrix H, linear drive f, and linear jump rows.

    Each jump row is the complex coefficient vector l_j of a Lindblad operator
    L_j = l_j . x; `rate` multiplies C^dag C overall.
    """

    H: np.ndarray
    f: np.ndarray = None
    jump_rows: tuple = ()
    rate: float = 1.0

    def __post_init__(self):
        h = np.asarray(self.H, dtype=float)
        _square("Hamiltonian matrix", h, even=True)
        f = np.zeros(h.shape[0]) if self.f is None else np.asarray(self.f, dtype=float)
        if f.shape != h.shape[:1]:
            raise DimensionError(f"drive vector shape {f.shape} does not match H {h.shape}")
        rows = tuple(_frozen(r, complex) for r in self.jump_rows)
        for r in rows:
            if r.shape != h.shape[:1]:
                raise DimensionError(f"jump row shape {r.shape} does not match H {h.shape}")
        if self.rate <= 0:
            raise DimensionError("rate must be positive")
        require_finite(H=h, f=f)
        object.__setattr__(self, "H", _symmetric("Hamiltonian matrix", h))
        object.__setattr__(self, "f", _frozen(f))
        object.__setattr__(self, "jump_rows", rows)


def from_lindblad(data):
    """Generator of the linear Lindblad equation.

    A = Sigma (H + kappa Im(C^dag C)), D = kappa Sigma Re(C^dag C) Sigma^T,
    u = Sigma f, with C the stacked jump rows.
    """
    n = data.H.shape[0] // 2
    sigma = symplectic_form(n)
    if data.jump_rows:
        c = np.array(data.jump_rows)
        cdc = data.rate * (c.conj().T @ c)
    else:
        cdc = np.zeros((2 * n, 2 * n), dtype=complex)
    a = sigma @ (data.H + cdc.imag)
    d = sigma @ cdc.real @ sigma.T
    return GaussianGenerator(A=a, D=d, u=sigma @ data.f)


def cp_check_generator(generator):
    """Least eigenvalue of D + (i/2)(A Sigma + Sigma A^T), the generator-level
    complete-positivity matrix."""
    sigma = symplectic_form(generator.modes)
    return _hermitian_cp_report(
        generator.D + 0.5j * (generator.A @ sigma + sigma @ generator.A.T))


def semigroup_channel(generator, t):
    """Finite-time channel (X_t, Y_t, delta_t) of the Markov semigroup at one
    time t: `semigroup_arrays` at the single time."""
    x, y, delta = semigroup_arrays(generator, [t])
    return GaussianChannel(X=x[0], Y=y[0], delta=delta[0])


def semigroup_arrays(generator, times):
    """X_t, Y_t and delta_t stacked along a leading axis, one slice per time.

    X_t = exp(At), Y_t = int_0^t exp(As) D exp(A^T s) ds and
    delta_t = int_0^t exp(As) u ds, by one route for every drift: Hurwitz or
    not, singular, defective or resonant. The block exponential
    exp(w [[A, D, u], [0, -A^T, 0], [0, 0, 0]]) holds X_w, G_w = Y_w X_w^{-T}
    and delta_w (Van Loan, IEEE TAC 23(3), 1978) at a step w = t / 2^k with
    ||A||_inf w <= 1/2; k doublings Y <- Y + X Y X^T, delta <- delta + X delta,
    X <- X X then reach t. X_t itself is `drift_exponential(A, times)`. The
    block exponentials of all times are one stacked scipy call and the
    doublings stacked matrix products, each slice taking exactly its own k
    (`_semigroup_stack`). Times must form a 1-D array of finite nonnegative
    values; a result beyond the float range raises NumericalOverflowError.
    """
    return _semigroup_stack(generator.A, generator.D, generator.u, np.asarray(times, dtype=float))


def _semigroup_stack(A, D, u, times):
    """`semigroup_arrays` of one checked generator (A, D, u) at 1-D times, or
    of (n, d, d), (n, d, d) and (n, d) stacks of them at (n, m) times, one
    row per generator: X_t and Y_t of shape (n, m, d, d), delta_t (n, m, d).
    The times are checked here; every slice rounds as it does alone."""
    if times.ndim != A.ndim - 1 or times.shape[:-1] != A.shape[:-2]:
        raise DimensionError(f"semigroup times must be 1-D, got shape {times.shape}")
    require_finite(times=times)
    if np.count_nonzero(times < 0.0):
        raise DimensionError("semigroup time must be nonnegative")
    import scipy.linalg

    n = A.shape[-1]
    # At full t the e^{-A^T t} block of the exponential overflows, or cancels
    # in the product Y_t = G_t X_t^T; at a step with ||A w|| <= 1/2 every
    # block is of order one, and the doublings only add and multiply. The
    # frexp exponent k is the least with 2 ||A||_inf t < 2^k.
    norm = 2.0 * abs(A).sum(axis=-1).max(axis=-1)
    steps = np.maximum(np.frexp(norm[..., None] * times)[1], 0)
    block = np.zeros(A.shape[:-2] + (2 * n + 1, 2 * n + 1))
    block[..., :n, :n] = A
    block[..., :n, n:-1] = D
    block[..., :n, -1] = u
    block[..., n:-1, n:-1] = -A.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        x_t = _exponentials(A, times)
        e = scipy.linalg.expm(np.ldexp(times, -steps)[..., None, None] * block[..., None, :, :])
        # the slices of all generators and times along one axis
        e = e.reshape((-1,) + e.shape[-2:])
        x, delta = e[:, :n, :n], e[:, :n, -1:]  # delta as a column
        y = e[:, :n, n:-1] @ x.transpose(0, 2, 1)
        # slice i takes exactly k_i doublings: with the slices in the order
        # of k (one generator's ascending times are in it already), those
        # still doubling at a step are a suffix of the stack, doubled in
        # place, and while that is the whole stack it doubles without a copy
        counts = steps.ravel().tolist()
        order = None if counts == sorted(counts) else np.argsort(steps, axis=None)
        if order is not None:
            x, y, delta = x[order], y[order], delta[order]
            counts.sort()
        for step in range(max(counts, default=0)):
            start = bisect.bisect_right(counts, step)
            if start:
                x[start:], y[start:], delta[start:] = _double(x[start:], y[start:], delta[start:])
            else:
                x, y, delta = _double(x, y, delta)
        if order is not None:
            back = np.argsort(order)
            y, delta = y[back], delta[back]
        y, delta = _symmetrized(y), delta[..., 0]
    for name, arr in (("Y_t", y), ("delta_t", delta)):
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            bad = times.ravel()[np.argmin(np.isfinite(arr.reshape(times.size, -1)).all(axis=1))]
            raise NumericalOverflowError(f"{name} leaves the float range at t = {bad:g}")
    return x_t, y.reshape(x_t.shape), delta.reshape(times.shape + (n,))


def _double(x, y, delta):
    """One doubling t -> 2t of stacked (X_t, Y_t, delta_t)."""
    return x @ x, y + x @ y @ x.transpose(0, 2, 1), delta + x @ delta
