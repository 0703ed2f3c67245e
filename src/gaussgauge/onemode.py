"""One-mode (2x2) kernels on matrix entries, for one matrix or a whole grid line.

Each kernel takes the entries of 2x2 matrices as floats or as numpy arrays of
one shape and returns entries of the same kind. The scalar API (`expm2`, the
2x2 branch of `solve_stein`, the determinant route of `cp_check`, the 2x2
route of `jordan_structure`) calls them on floats; the non-Markovian sweeps
call them once on all points of a table. A float and the matching array
element go through the same operations and round alike: + - * / round the
same in Python and numpy, branches are selections, integer powers are written
as products, and transcendentals come from the math library element by
element (numpy's vectorized ones differ from it in the last bits). The
squeezed-reservoir closed forms of `models` (`squeezed_ep_entries`, called
by `squeezed_ep_gauge` and the `squeezed-gauge` sweep, and
`squeezed_eigenvalue_entries`, called by `squeezed_drift_eigenvalues` and
the `drift-eigs` sweep) take their math-library calls through the same
`_elementwise`.
"""

import math

import numpy as np

# Relative tolerance under which a 2x2 characteristic discriminant counts as
# vanishing (an EP, or a multiple of the identity).
DISC_TOL = 1e-12

# Taylor window for sin(x)/x and sinh(x)/x; below it the direct quotient loses
# no accuracy either, but the series keeps the ratio exactly continuous at 0.
_SMALL_X = 1e-4


def _where(cond, a, b):
    """np.where for an array condition, a plain conditional for a bool."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _elementwise(fn, *args):
    """A math-library function on floats, applied element by element to arrays."""
    if np.ndarray not in map(type, args):
        return fn(*args)
    arrays = np.broadcast_arrays(*args) if len(args) > 1 else args
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


def _maximum(first, *rest):
    """Elementwise largest argument, taken as the builtin max takes it."""
    for value in rest:
        first = _where(value > first, value, first)
    return first


# Beyond the float range the math library raises OverflowError; these return
# NaN instead, so that one point cannot abort a whole grid. `expm2` turns a
# non-finite result into NumericalOverflowError; the sweeps flag the row.


def _cosh_or_cos(x, hyperbolic):
    try:
        return math.cosh(x) if hyperbolic else math.cos(x)
    except OverflowError:
        return math.nan


def _sinh_or_sin(x, hyperbolic):
    try:
        return math.sinh(x) if hyperbolic else math.sin(x)
    except OverflowError:
        return math.nan


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.nan


def expm2_entries(b11, b12, b21, b22, t):
    """Entries (e11, e12, e21, e22) of exp(t B) for B = [[b11, b12], [b21, b22]].

    With the traceless part B0 (B0^2 = -det(B0) I), exp(t B0) = c I + s B0,
    hyperbolic for det B0 < 0 and trigonometric otherwise. Near x = 0 the
    ratios sinh(x)/x and sin(x)/x come from their Taylor series, which keeps
    them continuous through det B0 = 0, where a nilpotent B0 gives I + t B0
    exactly. Entries beyond the float range come out NaN or infinite.
    """
    half_tr = 0.5 * (b11 + b22)
    a11 = b11 - half_tr
    a22 = b22 - half_tr
    det0 = a11 * a22 - b12 * b21
    hyperbolic = det0 < 0.0
    x = _elementwise(math.sqrt, abs(det0)) * t
    c = _elementwise(_cosh_or_cos, x, hyperbolic)
    odd = _elementwise(_sinh_or_sin, x, hyperbolic)
    small = abs(x) < _SMALL_X
    x2 = x * x
    series = 1.0 + _where(hyperbolic, 1.0, -1.0) * x2 / 6.0 + x2 * x2 / 120.0
    ratio = _where(small, series, odd / _where(small, 1.0, x))
    s = t * ratio
    factor = _elementwise(_exp, t * half_tr)
    return factor * (c + s * a11), factor * s * b12, factor * s * b21, factor * (c + s * a22)


def jury_triple(a, b, c, d):
    """(1 - det, 1 - tr + det, 1 + tr + det) of [[a, b], [c, d]]; all positive iff spr < 1."""
    tr = a + d
    det = a * d - b * c
    return 1.0 - det, 1.0 - tr + det, 1.0 + tr + det


def stein2_denominator(a, b, c, d):
    """Determinant of the reduced 3x3 Stein system: the product of the Jury triple."""
    t1, t2, t3 = jury_triple(a, b, c, d)
    return t1 * t2 * t3


def stein2_entries(a, b, c, d, y11, y12, y22):
    """Entries (s11, s12, s22) of the solution of S = X S X^T + Y by the adjugate closed form.

    X = [[a, b], [c, d]] and symmetric Y = [[y11, y12], [y12, y22]]; the
    caller makes sure the denominator is positive.
    """
    denom = stein2_denominator(a, b, c, d)
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


def cp_margin_entries(x11, x12, x21, x22, y11, y12, y22, rel_tol=1e-10):
    """One-mode complete-positivity margin and its tolerance.

    margin = min(lambda_min(Y), det Y - ((1 - det X)/2)^2); the channel is CP
    iff margin >= -tol. The tolerance rel_tol (1 + max|Z|) is that of the CP
    matrix Z = Y + (i/2)(Sigma - X Sigma X^T) = [[y11, y12 + i al], [y12 - i al, y22]]
    with al = (1 - det X)/2, since X Sigma X^T = det(X) Sigma for one mode.
    """
    lam_min = 0.5 * (y11 + y22) - _elementwise(math.hypot, 0.5 * (y11 - y22), y12)
    alpha = 0.5 * (1.0 - (x11 * x22 - x12 * x21))
    slack = (y11 * y22 - y12 * y12) - alpha * alpha
    # a NaN term (det X = inf - inf once the products overflow) gives a NaN margin
    margin = _where((slack < lam_min) | (slack != slack), slack, lam_min)
    peak = _maximum(abs(y11), abs(y22), _elementwise(math.hypot, y12, alpha))
    return margin, rel_tol * (1.0 + peak)


def jordan2_entries(m11, m12, m21, m22, tol=DISC_TOL):
    """Discriminant rule for a real 2x2 matrix: (center, disc, double, defective).

    The eigenvalues are center +- sqrt(disc)/2. `double` when the discriminant
    vanishes within tol (scale-aware); `defective` when it does while the
    matrix is not a multiple of the identity.
    """
    tau = m11 + m22
    det = m11 * m22 - m12 * m21
    disc = tau * tau - 4.0 * det
    scale = 1.0 + _maximum(abs(m11), abs(m12), abs(m21), abs(m22))
    center = 0.5 * tau
    off_identity = _maximum(abs(m11 - center), abs(m12), abs(m21), abs(m22 - center))
    double = abs(disc) <= tol * scale * scale
    return center, disc, double, double & (off_identity > tol * scale)
