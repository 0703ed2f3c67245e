"""Numeric kernels for the 2x2 closed-form paths and fixed-step integration.

Plain scalar/array numpy: the one-mode closed forms take and return floats,
the series and RK4 kernels take and return arrays.
"""

import math

import numpy as np


# Taylor window for sin(x)/x and sinh(x)/x; below this the direct quotient
# loses no accuracy either, but the series keeps the branch functions exactly
# continuous through x = 0.
_SMALL_X = 1e-4


def _sinc_like(x):
    # sin(x)/x with series fallback near 0
    if abs(x) < _SMALL_X:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


def _sinch_like(x):
    # sinh(x)/x with series fallback near 0
    if abs(x) < _SMALL_X:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


def expm2_kernel(b11, b12, b21, b22, t):
    """exp(t*B) for real 2x2 B via the scalar-shift closed form.

    exp(t B0) = c I + s B0 with the traceless part B0; the series-evaluated
    sinh(x)/x and sin(x)/x carry det B0 -> 0 continuously into I + t B0, so a
    nilpotent B0 (det B0 = 0) gives I + t B0 exactly. Returns the four entries
    (e11, e12, e21, e22).
    """
    half_tr = 0.5 * (b11 + b22)
    # traceless part B0; B0^2 = -det(B0) * I
    a11 = b11 - half_tr
    a12 = b12
    a21 = b21
    a22 = b22 - half_tr
    det0 = a11 * a22 - a12 * a21
    factor = math.exp(t * half_tr)
    if det0 < 0.0:
        nu = math.sqrt(-det0)
        c = math.cosh(nu * t)
        s = t * _sinch_like(nu * t)
    else:
        mu = math.sqrt(det0)
        c = math.cos(mu * t)
        s = t * _sinc_like(mu * t)
    return (
        factor * (c + s * a11),
        factor * s * a12,
        factor * s * a21,
        factor * (c + s * a22),
    )


def jury_triple(a, b, c, d):
    """Jury/Schur stability triple (1-D, 1-T+D, 1+T+D) of a 2x2 matrix."""
    tr = a + d
    det = a * d - b * c
    return 1.0 - det, 1.0 - tr + det, 1.0 + tr + det


def symmetric_eig2(s11, s12, s22):
    """Ascending eigenvalues of a symmetric 2x2 matrix."""
    mean = 0.5 * (s11 + s22)
    rad = math.hypot(0.5 * (s11 - s22), s12)
    return mean - rad, mean + rad


def lyap2_closed(a, b, c, d, d11, d12, d22):
    """One-mode Lyapunov solve A S + S A^T + D = 0 by explicit elimination.

    Falls back to a direct Cramer solve of the reduced 3x3 system
    [[2a,2b,0],[c,a+d,b],[0,2c,2d]] s = -(d11,d12,d22) when a diagonal pivot
    vanishes. Returns (s11, s12, s22, ok); ok=False marks a singular system
    (some eigenvalue pair with lambda_i + lambda_j = 0).
    """
    scale = max(abs(a), abs(b), abs(c), abs(d))
    piv = 1e-12 * scale
    trace = a + d
    det = a * d - b * c
    denom = 2.0 * trace * det
    if abs(a) > piv and abs(d) > piv and abs(denom) > (piv * piv) * 2.0:
        s12 = (a * b * d22 + c * d * d11 - 2.0 * a * d * d12) / denom
        s11 = -(d11 + 2.0 * b * s12) / (2.0 * a)
        s22 = -(d22 + 2.0 * c * s12) / (2.0 * d)
        return s11, s12, s22, True
    # direct 3x3 Cramer solve
    m11, m12, m13 = 2.0 * a, 2.0 * b, 0.0
    m21, m22, m23 = c, trace, b
    m31, m32, m33 = 0.0, 2.0 * c, 2.0 * d
    detm = (
        m11 * (m22 * m33 - m23 * m32)
        - m12 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * m32 - m22 * m31)
    )
    lim = 1e-14 * max(scale * scale * scale, 1e-300)
    if abs(detm) <= lim:
        return 0.0, 0.0, 0.0, False
    r1, r2, r3 = -d11, -d12, -d22
    s11 = (
        r1 * (m22 * m33 - m23 * m32)
        - m12 * (r2 * m33 - m23 * r3)
        + m13 * (r2 * m32 - m22 * r3)
    ) / detm
    s12 = (
        m11 * (r2 * m33 - m23 * r3)
        - r1 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * r3 - r2 * m31)
    ) / detm
    s22 = (
        m11 * (m22 * r3 - r2 * m32)
        - m12 * (m21 * r3 - r2 * m31)
        + r1 * (m21 * m32 - m22 * m31)
    ) / detm
    return s11, s12, s22, True


def stein2_closed(a, b, c, d, y11, y12, y22):
    """One-mode Stein solve S = X S X^T + Y via the adjugate closed form.

    The reduced 3x3 system has determinant
    (1 - det)(1 - tr + det)(1 + tr + det); returns (s11, s12, s22, denom).
    """
    tr = a + d
    det = a * d - b * c
    denom = (1.0 - det) * (1.0 - tr + det) * (1.0 + tr + det)
    s11 = (
        (a * d**3 - a * d - b * c * d**2 - b * c - d**2 + 1.0) * y11
        + (-2.0 * a * b * d**2 + 2.0 * a * b + 2.0 * b**2 * c * d) * y12
        + (a * b**2 * d - b**3 * c + b**2) * y22
    )
    s12 = (
        (-a * c * d**2 + a * c + b * c**2 * d) * y11
        + (a**2 * d**2 - a**2 - b**2 * c**2 - d**2 + 1.0) * y12
        + (-(a**2) * b * d + a * b**2 * c + b * d) * y22
    )
    s22 = (
        (a * c**2 * d - b * c**3 + c**2) * y11
        + (-2.0 * a**2 * c * d + 2.0 * a * b * c**2 + 2.0 * c * d) * y12
        + (a**3 * d - a**2 * b * c - a**2 - a * d - b * c + 1.0) * y22
    )
    return s11 / denom, s12 / denom, s22 / denom, denom


def jordan_stein2(alpha, n11, n12, n21, n22, t, y11, y12, y22):
    """Stein solution on a Jordan drift X = alpha*(I + t*N) with N^2 = 0.

    Geometric-series closed form in rho = alpha^2; returns (s11, s12, s22).
    """
    rho = alpha * alpha
    one = 1.0 - rho
    c1 = 1.0 / one
    c2 = rho * t / (one * one)
    c3 = rho * (1.0 + rho) * t * t / (one * one * one)
    # M = N Y + Y N^T (symmetric), K = N Y N^T
    m11 = 2.0 * (n11 * y11 + n12 * y12)
    m12 = n11 * y12 + n12 * y22 + n21 * y11 + n22 * y12
    m22 = 2.0 * (n21 * y12 + n22 * y22)
    k11 = n11 * (y11 * n11 + y12 * n12) + n12 * (y12 * n11 + y22 * n12)
    k12 = n11 * (y11 * n21 + y12 * n22) + n12 * (y12 * n21 + y22 * n22)
    k22 = n21 * (y11 * n21 + y12 * n22) + n22 * (y12 * n21 + y22 * n22)
    return (
        c1 * y11 + c2 * m11 + c3 * k11,
        c1 * y12 + c2 * m12 + c3 * k12,
        c1 * y22 + c2 * m22 + c3 * k22,
    )


def stein_series_iter(x, y, tol, max_terms):
    """Partial sums of sum_n X^n Y X^T^n until the increment max-norm < tol.

    Returns (S, n_terms, converged).
    """
    s = y.copy()
    term = y.copy()
    xt = x.T.copy()
    for n in range(1, max_terms + 1):
        term = x @ term @ xt
        s = s + term
        if np.max(np.abs(term)) < tol:
            return s, n, True
    return s, max_terms, False


def rk4_moments(a, dmat, u, d0, v0, t, steps):
    """Classical fixed-step RK4 for dd/dt = A d + u, dV/dt = A V + V A^T + D."""
    d = d0.copy()
    v = v0.copy()
    at = a.T.copy()
    h = t / steps
    for _ in range(steps):
        k1d = a @ d + u
        k1v = a @ v + v @ at + dmat
        d2 = d + 0.5 * h * k1d
        v2 = v + 0.5 * h * k1v
        k2d = a @ d2 + u
        k2v = a @ v2 + v2 @ at + dmat
        d3 = d + 0.5 * h * k2d
        v3 = v + 0.5 * h * k2v
        k3d = a @ d3 + u
        k3v = a @ v3 + v3 @ at + dmat
        d4 = d + h * k3d
        v4 = v + h * k3v
        k4d = a @ d4 + u
        k4v = a @ v4 + v4 @ at + dmat
        d = d + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return d, v
