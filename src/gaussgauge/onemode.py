"""One-mode (2x2) kernels on matrix entries, for one matrix or a whole grid line.

Each kernel takes the entries of 2x2 matrices as floats or as numpy arrays of
one shape and returns entries of the same kind. The scalar API (the 2x2
routes of `drift_exponential`, `solve_lyapunov`, `solve_stein`, `cp_check`
and `jordan_structure`) calls them on floats; the non-Markovian tables call them
once on all points of a table, and decide each row's status from them. A
float and the matching array element go through the same operations and
round alike: + - * / round the same in Python and numpy, branches are
selections, integer powers are written as products, and transcendentals are
numpy ufuncs, whose loops give a float the value they give it inside an
array. Beyond the float range they give inf (NaN where an inf meets a zero),
with numpy's warnings silenced; `drift_exponential` turns a non-finite
result into NumericalOverflowError, the tables flag the row. The
squeezed-reservoir closed forms of `models` keep the same rule, so it holds
for every kernel of the package that takes floats or arrays; only functions
of floats alone, such as `models.memory_factor`, call the math library.
"""

import math

import numpy as np

# Relative tolerance under which a 2x2 matrix counts as having a double
# eigenvalue (an EP, or a multiple of the identity): its distance to the
# nearest such matrix, on the scale 1 + max|m|.
DISC_TOL = 1e-12

# Relative tolerance of every complete-positivity check: a CP matrix Z passes
# iff its least eigenvalue (or the one-mode margin) is >= -CP_REL_TOL (1 + max|Z|).
CP_REL_TOL = 1e-10

# Taylor window for sin(x)/x and sinh(x)/x; below it the direct quotient loses
# no accuracy either, but the series keeps the ratio exactly continuous at 0.
_SMALL_X = 1e-4

# LAPACK's dlamch('E'), the unit roundoff of dsterf's split tests
_EPS = 2.0**-53


def _where(cond, a, b):
    """np.where for an array condition, a plain conditional for a bool."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _maximum(first, *rest):
    """Elementwise largest argument, taken as the builtin max takes it."""
    for value in rest:
        first = _where(value > first, value, first)
    return first


def _projected(a, off, r, grow, decay):
    """A diagonal entry ((1 + a/r) e^x + (1 - a/r) e^-x) / 2 of exp(x B0 / r).

    B0 = [[a, b12], [b21, -a]] has eigenvalues +-r, r^2 = a^2 + off with
    off = b12 b21; grow = e^x, decay = e^-x. The coefficient 1 - |a|/r, which
    vanishes with off, is taken as off / (r (r + |a|)), without cancellation.
    """
    big = 1.0 + abs(a) / r
    small = off / (r * (r + abs(a)))
    return 0.5 * _where(a >= 0.0, big * grow + small * decay, small * grow + big * decay)


def expm2_entries(b11, b12, b21, b22, t):
    """Entries (e11, e12, e21, e22) of exp(t B) for B = [[b11, b12], [b21, b22]].

    With the traceless part B0 (B0^2 = -det(B0) I), exp(t B0) = c I + s B0,
    hyperbolic for det B0 < 0 and trigonometric otherwise. Near x = 0 the
    ratios sinh(x)/x and sin(x)/x come from their Taylor series, which keeps
    them continuous through det B0 = 0, where a nilpotent B0 gives I + t B0
    exactly. On the hyperbolic branch, where the diagonal c +- s a can cancel
    (|a| <= 2r, r = sqrt(-det B0), and x past the series window), the
    diagonal takes the spectral projector form e^x P+ + e^-x P- instead,
    which keeps e^-x where cosh x - sinh x would lose it. For |a| > 2r, near
    the EP, the projector's two terms would cancel instead, while c +- s a
    loses at most a factor 3. Entries beyond the float range come out NaN or
    infinite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        half_tr = 0.5 * (b11 + b22)
        a11 = b11 - half_tr
        a22 = b22 - half_tr
        off = b12 * b21
        det0 = a11 * a22 - off
        hyperbolic = det0 < 0.0
        r = np.sqrt(abs(det0))
        x = r * t
        small = abs(x) < _SMALL_X
        c = _where(hyperbolic, np.cosh(x), np.cos(x))
        odd = _where(hyperbolic, np.sinh(x), np.sin(x))
        x2 = x * x
        series = 1.0 + _where(hyperbolic, 1.0, -1.0) * x2 / 6.0 + x2 * x2 / 120.0
        ratio = _where(small, series, odd / _where(small, 1.0, x))
        s = t * ratio
        e11, e22 = c + s * a11, c + s * a22
        projector = hyperbolic & ~small & (a11 * a11 <= 4.0 * abs(det0))
        grow, decay = np.exp(x), np.exp(-x)
        e11 = _where(projector, _projected(a11, off, r, grow, decay), e11)
        e22 = _where(projector, _projected(a22, off, r, grow, decay), e22)
        factor = np.exp(t * half_tr)
        return factor * e11, factor * s * b12, factor * s * b21, factor * e22


def jury_triple(a, b, c, d):
    """(1 - det, 1 - tr + det, 1 + tr + det) of [[a, b], [c, d]]; all positive iff spr < 1."""
    tr = a + d
    det = a * d - b * c
    return 1.0 - det, 1.0 - tr + det, 1.0 + tr + det


def stein2_entries(a, b, c, d, y11, y12, y22):
    """Entries (s11, s12, s22) of the solution of S = X S X^T + Y by the adjugate closed form.

    X = [[a, b], [c, d]] and symmetric Y = [[y11, y12], [y12, y22]]. The
    denominator, the determinant of the reduced 3x3 Stein system, is the
    product of the Jury triple; the caller makes sure it is positive.
    """
    t1, t2, t3 = jury_triple(a, b, c, d)
    denom = t1 * t2 * t3
    a2, b2, c2, d2 = a * a, b * b, c * c, d * d
    a3, b3, c3, d3 = a2 * a, b2 * b, c2 * c, d2 * d
    s11 = (
        (a * d3 - a * d - b * c * d2 - b * c - d2 + 1.0) * y11
        + (-2.0 * a * b * d2 + 2.0 * a * b + 2.0 * b2 * c * d) * y12
        + (a * b2 * d - b3 * c + b2) * y22
    ) / denom
    s12 = (
        (-a * c * d2 + a * c + b * c2 * d) * y11
        + (a2 * d2 - a2 - b2 * c2 - d2 + 1.0) * y12
        + (-a2 * b * d + a * b2 * c + b * d) * y22
    ) / denom
    s22 = (
        (a * c2 * d - b * c3 + c2) * y11
        + (-2.0 * a2 * c * d + 2.0 * a * b * c2 + 2.0 * c * d) * y12
        + (a3 * d - a2 * b * c - a2 - a * d - b * c + 1.0) * y22
    ) / denom
    return s11, s12, s22


def lyapunov2_entries(a, b, c, d, y11, y12, y22):
    """Entries (s11, s12, s22) of the solution of A S + S A^T + D = 0 by the
    adjugate closed form, and whether A is Hurwitz.

    A = [[a, b], [c, d]] and symmetric D = [[y11, y12], [y12, y22]]. With
    adj A = [[d, -b], [-c, a]], S = (det A D + adj A D adj A^T) / (-2 tr A det A);
    A is Hurwitz iff tr A < 0 < det A, and where it is not, S is left
    meaningless (the denominator is taken as 1). The formula runs on A and D
    divided by powers of two 2^ea and 2^ed that bring their largest entries
    into [1/2, 1): outside the subnormal range they round as the entries
    themselves do, the products stay in the float range, and S is the result
    times 2^(ed - ea), inf where that leaves the float range.
    """
    ea = np.frexp(_maximum(abs(a), abs(b), abs(c), abs(d)))[1]
    ed = np.frexp(_maximum(abs(y11), abs(y12), abs(y22)))[1]
    a, b, c, d = np.ldexp((a, b, c, d), -ea)
    y11, y12, y22 = np.ldexp((y11, y12, y22), -ed)
    tr = a + d
    det = a * d - b * c
    hurwitz = (tr < 0.0) & (det > 0.0)
    denom = _where(hurwitz, -2.0 * tr * det, 1.0)
    # the rows (u, v) and (w, z) of adj A D
    u, v = d * y11 - b * y12, d * y12 - b * y22
    w, z = a * y12 - c * y11, a * y22 - c * y12
    s = (det * y11 + d * u - b * v, det * y12 + a * v - c * u, det * y22 + a * z - c * w)
    with np.errstate(over="ignore"):
        s11, s12, s22 = np.ldexp(np.divide(s, denom), ed - ea)
    return s11, s12, s22, hurwitz


def eigh2_entries(a, b, c):
    """Ascending eigenvalues (lo, hi) of the symmetric matrix [[a, b], [b, c]].

    The path reference LAPACK takes for a 2x2 matrix in `dsyevd`, which
    `np.linalg.eigvalsh` calls: `dsytrd` leaves the tridiagonal (a, c; b);
    `dsterf` splits it where |b| <= sqrt|a| sqrt|c| eps, or else where
    b^2 <= eps^2 |a c|, and a split gives a and c; otherwise `dlae2` gives
    rt1, the eigenvalue of larger modulus, and rt2 of [[a, rte], [rte, c]],
    rte = sqrt(b^2); `dlasrt` sorts by insertion, so a tie keeps its order
    (a split's 0.0 and -0.0). Where the largest entry lies in [2^-405, 2^485],
    which LAPACK leaves unscaled, the result is eigvalsh's bit for bit.
    Beyond, LAPACK scales by factors that are no powers of two; here the
    entries are divided by the power of two 2^k that brings the largest to
    the nearer end of that range, which rounds as the entries themselves do,
    and the eigenvalues multiplied back: finite and within a few ulps of
    eigvalsh, inf only where an eigenvalue leaves the float range. A row with
    a NaN or infinite entry gives NaN for both, where LAPACK can give finite
    values.
    """
    e = np.frexp(np.maximum(np.maximum(abs(a), abs(b)), abs(c)))[1]
    k = e - np.minimum(np.maximum(e, -404), 485)
    scale = np.ldexp(1.0, -k)
    a, b, c = a * scale, b * scale, c * scale
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b2 = b * b
        abs_a, abs_c = abs(a), abs(c)
        split = (abs(b) <= np.sqrt(abs_a) * np.sqrt(abs_c) * _EPS) | (b2 <= _EPS * _EPS * abs(a * c))
        # dlae2: rt = hypot(a - c, 2 rte) as it takes it, rt1 = (sm +- rt)/2,
        # rt2 = det / rt1 with the larger of a, c in modulus divided first
        rte = np.sqrt(b2)
        sm = a + c
        adf, ab = abs(a - c), 2.0 * rte
        big = np.maximum(adf, ab)
        q = np.minimum(adf, ab) / big
        rt1 = 0.5 * (sm + np.copysign(big * np.sqrt(1.0 + q * q), sm))
        qr = abs_c < abs_a
        rt2 = _where(sm == 0.0, -rt1,
                     (_where(qr, a, c) / rt1) * _where(qr, c, a) - (rte / rt1) * rte)
        # off a split rt1 is nonzero, so rt1 and rt2 tie only with equal bits,
        # and the order dsterf's QL or QR sweep leaves them in does not show
        first, second = _where(split, a, rt1), _where(split, c, rt2)
        swap = second < first
        unscale = np.ldexp(_where(np.isfinite(sm + b), 1.0, math.nan), k)
        return _where(swap, second, first) * unscale, _where(swap, first, second) * unscale


def cp_margin_entries(x11, x12, x21, x22, y11, y12, y22):
    """One-mode complete-positivity margin and its tolerance.

    margin = min(lambda_min(Y), det Y - ((1 - det X)/2)^2); the channel is CP
    iff margin >= -tol. The tolerance CP_REL_TOL (1 + max|Z|) is that of the CP
    matrix Z = Y + (i/2)(Sigma - X Sigma X^T) = [[y11, y12 + i al], [y12 - i al, y22]]
    with al = (1 - det X)/2, since X Sigma X^T = det(X) Sigma for one mode.
    """
    lam_min = 0.5 * (y11 + y22) - np.hypot(0.5 * (y11 - y22), y12)
    alpha = 0.5 * (1.0 - (x11 * x22 - x12 * x21))
    slack = (y11 * y22 - y12 * y12) - alpha * alpha
    # a NaN term (det X = inf - inf once the products overflow) gives a NaN margin
    margin = _where((slack < lam_min) | (slack != slack), slack, lam_min)
    peak = _maximum(abs(y11), abs(y22), np.hypot(y12, alpha))
    return margin, CP_REL_TOL * (1.0 + peak)


def jordan2_entries(m11, m12, m21, m22, tol=DISC_TOL):
    """Double-eigenvalue rule for a real 2x2 matrix: (center, disc, double, defective, p).

    The eigenvalues are center +- p sqrt(disc)/2. Write the traceless part as
    a Z + sigma Q + w J, with Z = diag(1, -1), Q = [[0, 1], [1, 0]] and
    J = [[0, 1], [-1, 0]], and s = hypot(a, sigma): the eigenvalues are double
    where s = |w|, and |s - |w|| is the Frobenius distance to the nearest
    matrix with a double eigenvalue. `double` when that distance is within
    tol (scale-aware), so a gap that is small but certain is no EP;
    `defective` when it is while the matrix is not a multiple of the
    identity. The rule runs on the entries divided by the power of two p in
    (scale/2, scale], scale = 1 + max|m|: they round as the entries
    themselves do, and disc = 4 (s - |w|)(s + |w|), taken without
    cancellation, stays in the float range.
    """
    scale = 1.0 + _maximum(abs(m11), abs(m12), abs(m21), abs(m22))
    p = np.ldexp(1.0, np.frexp(scale)[1] - 1)
    m11, m12, m21, m22 = m11 / p, m12 / p, m21 / p, m22 / p
    center = 0.5 * (m11 + m22)
    s = np.hypot(0.5 * (m11 - m22), 0.5 * (m12 + m21))
    w = abs(0.5 * (m12 - m21))
    unit = scale / p
    off_identity = _maximum(abs(m11 - center), abs(m12), abs(m21), abs(m22 - center))
    double = abs(s - w) <= tol * unit
    return center * p, 4.0 * (s - w) * (s + w), double, double & (off_identity > tol * unit), p
