"""Cross sections from amplitudes, plus the reference-formula checks.

The reference closed forms (the paper_closed source) are written once, in
paper_forms: they are evaluated verbatim for the comparison report, never
asserted as truth. paper_totals is paper_forms.total under its public
name. Each comparison carries a verdict tag:

    CONSISTENT      verbatim form matches the oracle to 1%
    SUSPECTED_TYPO  a single documented edit (sign flip, factor, exponent
                    rate) brings it within 1%; the edit and the quantified
                    ratio are reported
    DIVERGES        neither the verbatim nor the edited form matches
"""

import math
from dataclasses import dataclass

import numpy as np

from . import paper_forms
from ._spline import natural_cubic, split_at_roots
from .born import born1_amplitude
from .eikonal import Amplitude, momentum_transfer
from .errors import (MAX_FLOAT, ConvergenceError, DomainError, PoleError,
                     RangeError, UnsupportedModelError, floats, real, reals)
from .paper_forms import total as paper_totals
from .potentials import Gauss, Yukawa
from .quadrature import (QuadratureSettings, integrate_adaptive,
                         integrate_sin)

__all__ = [
    "CrossSectionTable",
    "PaperComparison",
    "differential",
    "table_from_amplitudes",
    "total_integrated",
    "total_optical",
    "paper_totals",
    "paper_formula_checks",
    "VERDICT_CONSISTENT",
    "VERDICT_SUSPECTED_TYPO",
    "VERDICT_DIVERGES",
]

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_SUSPECTED_TYPO = "SUSPECTED_TYPO"
VERDICT_DIVERGES = "DIVERGES"

_VERDICT_TOL = 1e-2  # max relative deviation that still counts as matching
# the angles on which paper_formula_checks compares the differential form
_CHECK_THETA_MAX = 0.2
_CHECK_THETA_COUNT = 21


@dataclass(frozen=True, eq=False)
class CrossSectionTable:
    """Angular table: columns theta, q, re_f, im_f, dsigma.

    Rows at angles where the source has a pole may be nan (they are
    reported, not silently dropped); totals may be nan when the grid does
    not support them.
    """

    rows: np.ndarray
    total_integrated: float
    total_optical: float

    def __post_init__(self):
        rows = floats(self.rows, "rows")
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != 5 or rows.shape[0] < 1:
            raise DomainError("rows must be a (n, 5) array, n > 0", key="rows")
        theta = rows[:, 0]
        if not np.all(np.isfinite(theta)) or np.any(np.diff(theta) <= 0):
            raise DomainError("theta column must be finite and strictly "
                              "increasing", key="rows")
        finite = np.isfinite(rows[:, 4])
        re, im, ds = rows[finite, 2], rows[finite, 3], rows[finite, 4]
        if np.any(ds < 0.0):
            raise DomainError("dsigma must be >= 0", key="rows")
        scale = np.maximum(ds, 1e-300)
        if np.any(np.abs(ds - (re * re + im * im)) > 1e-14 * scale):
            raise DomainError("dsigma must equal re_f^2 + im_f^2", key="rows")


def differential(f):
    """dsigma/dOmega = |f|^2, elementwise over the amplitude's grid."""
    v = np.asarray(f.value)
    out = v.real * v.real + v.imag * v.imag
    return float(out) if out.ndim == 0 else out


def total_optical(f0, k):
    """(4 pi / k) Im f(0); f0 must be the forward amplitude."""
    real(k, "k", positive=True)
    theta = np.atleast_1d(np.asarray(f0.theta, dtype=float))
    if theta.size == 0 or abs(theta[0]) > 1e-12:
        raise DomainError("total_optical needs f at theta = 0", key="f0")
    value = np.atleast_1d(np.asarray(f0.value))[0]
    return 4.0 * np.pi / k * float(value.imag)


def _positive_parts(x, coef):
    """The parts of the intervals [x[j], x[j+1]] on which the cubic of
    coef[:, j] (in s = theta - x[j]) is positive, the rest being where
    max(cubic, 0) is 0: each interval is cut at its cubic's roots inside
    it. Returns (lo, hi, coefficients, origin) of those parts."""
    edges, part = split_at_roots(x, coef)
    lo, hi, origin = edges[:-1], edges[1:], x[part]
    y0, b, c, d = coef[:, part]
    mid = 0.5 * (lo + hi) - origin
    keep = y0 + mid * (b + mid * (c + mid * d)) > 0.0
    return lo[keep], hi[keep], coef[:, part[keep]], origin[keep]


def total_integrated(rows):
    """2 pi int_0^pi dsigma(theta) sin(theta) dtheta from tabulated rows.

    The rows are interpolated with a natural cubic spline, clipped at 0,
    and each interval's cubic times sin(theta) is integrated exactly by
    quadrature.integrate_sin at q = 1; where the spline dips below 0 the
    interval is cut at the cubic's roots. A second integration on
    every other row must agree, or the grid is too sparse to trust and a
    convergence error is raised.
    """
    rows = reals(rows, "rows", -MAX_FLOAT, MAX_FLOAT)
    if rows.ndim != 2 or rows.shape[1] != 5 or rows.shape[0] < 1:
        raise DomainError("rows must be a (n, 5) array, n > 0", key="rows")
    theta = rows[:, 0]
    dsig = rows[:, 4]
    if theta[0] > 1e-9 or theta[-1] < np.pi - 1e-6:
        raise RangeError("rows must cover [0, pi] to integrate the total "
                         "cross section", key="rows")
    if theta.shape[0] < 8:
        raise ConvergenceError(
            "too few rows to form a trustworthy interpolant",
            estimate=np.nan, error_estimate=np.inf)

    def sigma_from(th, ds):
        return 2.0 * np.pi * integrate_sin(
            1.0, *_positive_parts(th, natural_cubic(th, ds))).value

    # the spline's products of dsigma leave the float range long before
    # the total does: the totals are linear in dsigma, so they take
    # dsigma / unit, its largest in [0.5, 1), and scaling normal floats by
    # a power of two moves no bit
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(dsig))))[1])
    sigma = sigma_from(theta, dsig / unit)
    sigma_half = sigma_from(theta[::2], dsig[::2] / unit)
    scale = max(abs(sigma), 1e-300)
    if abs(sigma - sigma_half) > 5e-4 * scale:
        raise ConvergenceError(
            f"angular grid too sparse: the total moves by "
            f"{abs(sigma - sigma_half) / scale:.2e} relative when half the "
            f"rows are dropped", estimate=sigma * unit,
            error_estimate=abs(sigma - sigma_half) * unit)
    return sigma * unit


def table_from_amplitudes(amp, k):
    """Assemble a CrossSectionTable from a (vector) Amplitude.

    Totals that the grid cannot support are stored as nan: the optical
    total needs theta = 0 present, the integrated total needs [0, pi]
    coverage at workable density and fully finite rows. A |f|^2 past the
    float range is stored as inf, without a warning.
    """
    real(k, "k", positive=True)
    theta = np.atleast_1d(np.asarray(amp.theta, dtype=float))
    if theta.size == 0:
        raise DomainError("table_from_amplitudes needs at least one angle",
                          key="theta")
    q = np.atleast_1d(np.asarray(amp.q, dtype=float))
    v = np.atleast_1d(np.asarray(amp.value))
    re, im = v.real.astype(float), v.imag.astype(float)
    with np.errstate(over="ignore"):
        dsigma = re * re + im * im
    rows = np.column_stack([theta, q, re, im, dsigma])

    tot_opt = float("nan")
    if theta[0] == 0.0 and np.isfinite(v[0]):
        tot_opt = total_optical(
            Amplitude(theta=0.0, q=0.0, value=complex(v[0])), k)
    try:
        tot_int = total_integrated(rows)
    except (RangeError, ConvergenceError, DomainError):
        tot_int = float("nan")
    return CrossSectionTable(rows=rows, total_integrated=tot_int,
                             total_optical=tot_opt)


# ---------------------------------------------------------------------------
# Formula comparisons for the report. Each check evaluates the verbatim
# reference form against an oracle, and, when the verbatim form misses, a
# single documented edit of it.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaperComparison:
    """Outcome of one reference-formula check.

    verdict grades the verbatim formula; when it is SUSPECTED_TYPO the
    mutation field holds the single edit that repaired it and
    corrected_deviation the residual after that edit. ratio quantifies
    verbatim-vs-corrected magnitude where that is the interesting number
    (nan otherwise).
    """

    name: str
    verdict: str
    verbatim_deviation: float
    corrected_deviation: float
    mutation: str
    ratio: float = float("nan")


# The single documented edit each check tries when the verbatim form misses.
_EDITS = {
    "closed_form_amplitude_yukawa":
        "denominator mu^2 - 4k^2 sin^2(theta/2) -> "
        "mu^2 + 4k^2 sin^2(theta/2) (sign of the q^2 term)",
    "closed_form_total_yukawa":
        "denominator mu^2 - 4k^2 -> mu^2 + 4k^2 (sign of the k^2 term)",
    "closed_form_amplitude_gauss":
        "decay rate -k^2 theta^2/(4 alpha) -> -q^2/(2 alpha) "
        "(amplitude exponent -k^2 theta^2/(8 alpha) -> -q^2/(4 alpha))",
    "closed_form_total_gauss":
        "prefactor pi^2/(2 alpha^2) -> pi^2/alpha^2 (factor 2): direct "
        "integration of the printed differential form gives twice the "
        "printed total",
}


def _grade(name, dev_verbatim, dev_corrected, ratio=float("nan")):
    if dev_verbatim <= _VERDICT_TOL:
        return PaperComparison(name=name, verdict=VERDICT_CONSISTENT,
                               verbatim_deviation=dev_verbatim,
                               corrected_deviation=dev_verbatim,
                               mutation="", ratio=ratio)
    return PaperComparison(
        name=name, verdict=VERDICT_SUSPECTED_TYPO
        if dev_corrected <= _VERDICT_TOL else VERDICT_DIVERGES,
        verbatim_deviation=dev_verbatim, corrected_deviation=dev_corrected,
        mutation=_EDITS[name], ratio=ratio)


def _max_rel_dev(got, ref):
    ref = np.asarray(ref, dtype=float)
    got = np.asarray(got, dtype=float)
    if not np.all(np.isfinite(got)):
        return float("inf")
    diff = np.abs(got - ref)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(ref))
    return float(np.max(rel))


def paper_formula_checks(p, kin):
    """Run the reference-formula checks for one potential.

    Returns two PaperComparison records: the differential form against
    born1 on theta <= _CHECK_THETA_MAX, and the closed-form total against
    an oracle (the Born total for Yukawa, a direct integration of the
    printed differential form for Gauss).
    """
    if not isinstance(p, (Yukawa, Gauss)):
        raise UnsupportedModelError(
            "reference-formula checks exist for Yukawa and Gauss only")
    model = "yukawa" if isinstance(p, Yukawa) else "gauss"
    theta = np.linspace(0.0, _CHECK_THETA_MAX, _CHECK_THETA_COUNT)
    q = momentum_transfer(kin.k, theta)
    # the closed forms first: a factor of theirs out of the float range
    # raises RangeError naming its parameter before the Born route meets it
    verbatim_dsigma = paper_forms.dsigma(p, kin, theta, q)
    corrected_dsigma = paper_forms.dsigma_corrected(p, kin, q)
    corrected = paper_forms.total_corrected(p, kin)
    born = _born_dsigma(p, kin, theta)
    amp_check = _grade(f"closed_form_amplitude_{model}",
                       _max_rel_dev(verbatim_dsigma, born),
                       _max_rel_dev(corrected_dsigma, born))

    if model == "yukawa":
        oracle = _total_direct(lambda t: _born_dsigma(p, kin, t), np.sin,
                               np.pi)
        try:
            verbatim = paper_totals(p, kin)
        except PoleError:
            verbatim = float("inf")
        ratio = verbatim / corrected if corrected != 0 else float("nan")
    else:
        # the printed total's bracket 1 - e^{-k^2/alpha} corresponds exactly
        # to cutting the small-angle integration at theta = 2
        oracle = _total_direct(lambda t: paper_forms.dsigma(p, kin, t, None),
                               lambda t: t, 2.0)
        verbatim = paper_totals(p, kin)
        ratio = oracle / verbatim if verbatim != 0 else float("nan")
    tot_check = _grade(
        f"closed_form_total_{model}", _max_rel_dev(verbatim, oracle),
        _max_rel_dev(corrected, oracle), ratio=ratio)
    return [amp_check, tot_check]


def _reference(value):
    """A check's reference cross section, if it is finite in floats; else
    RangeError naming g, which scales every cross section as g^2. It is
    formed with numpy's overflow warnings off: inf or nan is what an
    overflow leaves."""
    if not np.all(np.isfinite(value)):
        raise RangeError("g out of range for the reference-formula checks: "
                         "their reference cross section overflows in "
                         "floats", key="g")
    return value


def _born_dsigma(p, kin, theta):
    """|f_B|^2 at each theta, checked by _reference: the Born route's own
    factors may overflow where its |f|^2 would not."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _reference(differential(born1_amplitude(p, kin, theta)))


def _total_direct(dsigma, weight, upper):
    """2 pi int_0^upper dsigma(theta) weight(theta) dtheta, adaptively,
    checked by _reference."""
    settings = QuadratureSettings(rel_tol=1e-10, abs_tol=1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate_adaptive(lambda t: dsigma(t) * weight(t), 0.0,
                                 upper, settings)
        return _reference(2.0 * np.pi * res.value)
