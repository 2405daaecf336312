"""Zero-detection constants, power-sum certificates, and density scans.

The constant system: (alpha, A) minimize (4 e alpha 2^(alpha-1))^A over
alpha > 1, A > 1 subject to 4 e alpha (2/sqrt(A^2+1))^(alpha-1) = 1 - 1e-8.
The constraint eliminates A, leaving a one-dimensional problem that a
golden-section bracket plus bisection on the analytic derivative pins to
10^-10 despite the objective being extremely flat near its minimum.
Derived values: R = sqrt(A^2+1), V = 2(4 e alpha)^(1/(alpha-1)) + 0.38,
A0 = 1/(e V), and A1 > 2 solving 1/V = A1 e^(1 - A1 (alpha-1)/(2 alpha)).

Detection windows: N_eta = exp(A0 M_eta / eta) and N*_eta =
exp(A1 M_eta / eta) bracket where the weight j_k(u) = e^-u u^k / k! can
be large for k between M_eta and alpha/(alpha-1) M_eta; outside, the
pointwise bounds j_k <= m^-eta V^-k (below) and j_k <= m^(-eta/2) V^-k
(above) make the tails geometric in k.  Realistic log-scale values put
N_eta far beyond any enumerable range, so the evaluator reports explicit
truncation tails instead of pretending to reach the window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DataIntegrityError,
    InvariantError,
    SpecParseError,
    UsageError,
)

if TYPE_CHECKING:
    from .coeffs import CoefficientSeries
    from .ideals import NumberFieldSpec
    from .localdata import Family

CONSTRAINT_LEVEL = 1.0 - 1e-8
CHEBYSHEV_PSI_SLOPE = 1.03883  # psi(x) < 1.03883 x for all x > 0
WINDOW_POINTS_PER_OCTAVE = 64  # window-integral grid; checked against twice as many
SERIES_SLICE = 1024  # terms a series sum reads as Python numbers at a time
K_CEILING = 2**53  # log_jk weighs k as a float, which holds every integer up to 2^53 and not all past it


@dataclass(frozen=True)
class ConstantSystem:
    alpha: float
    a_weight: float  # A
    r_radius: float  # R = sqrt(A^2 + 1)
    v_decay: float  # V
    a0: float
    a1: float
    residuals: dict

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "A": self.a_weight,
            "R": self.r_radius,
            "V": self.v_decay,
            "A0": self.a0,
            "A1": self.a1,
        }


def _objective_parts(alpha: float) -> tuple[float, float]:
    """log of the objective and its alpha-derivative along the constraint."""
    l2 = math.log(2.0)
    lc = math.log(CONSTRAINT_LEVEL)
    l4ea = math.log(4 * math.e * alpha)
    ln_r = l2 + (l4ea - lc) / (alpha - 1.0)
    r = math.exp(ln_r)
    a = math.sqrt(r * r - 1.0)
    p = l4ea + (alpha - 1.0) * l2
    d_ln_r = ((alpha - 1.0) / alpha - (l4ea - lc)) / (alpha - 1.0) ** 2
    da = r * r * d_ln_r / a
    dp = 1.0 / alpha + l2
    return a * p, da * p + a * dp


@functools.lru_cache(maxsize=1)
def solve_constants() -> ConstantSystem:
    """Solve the detection constant system to 1e-10 in alpha.

    Golden-section narrows a bracket of the flat objective, then bisection
    on the analytic derivative of log f (exact to rounding) refines the
    minimizer far past what function-value comparisons can resolve.
    """
    lo, hi = 1.01, 100.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > 1e-3:
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        if _objective_parts(c)[0] < _objective_parts(d)[0]:
            b = d
        else:
            a = c
    if not (_objective_parts(a)[1] < 0.0 < _objective_parts(b)[1]):
        raise InvariantError("constants bracket failed; derivative does not change sign")
    while b - a > 1e-13:
        mid = 0.5 * (a + b)
        if _objective_parts(mid)[1] < 0.0:
            a = mid
        else:
            b = mid
    alpha = 0.5 * (a + b)
    r = 2.0 * ((4 * math.e * alpha) / CONSTRAINT_LEVEL) ** (1.0 / (alpha - 1.0))
    a_weight = math.sqrt(r * r - 1.0)
    v = 2.0 * (4 * math.e * alpha) ** (1.0 / (alpha - 1.0)) + 0.38
    a0 = 1.0 / (math.e * v)

    def a1_gap(x: float) -> float:
        return x * math.exp(1.0 - x * (alpha - 1.0) / (2.0 * alpha)) - 1.0 / v

    lo1, hi1 = 2.0 * alpha / (alpha - 1.0), 100.0
    if not (a1_gap(lo1) > 0.0 > a1_gap(hi1)):
        raise InvariantError("A1 bracket failed in [2 alpha/(alpha-1), 100]")
    while hi1 - lo1 > 1e-13:
        mid = 0.5 * (lo1 + hi1)
        if a1_gap(mid) > 0.0:
            lo1 = mid
        else:
            hi1 = mid
    a1 = 0.5 * (lo1 + hi1)

    residuals = {
        "constraint": abs(
            4 * math.e * alpha * (2.0 / r) ** (alpha - 1.0) - CONSTRAINT_LEVEL
        ),
        "r_squared": abs(r * r - (a_weight * a_weight + 1.0)),
        "a0_ev": abs(a0 * math.e * v - 1.0),
        "a1_equation": abs(a1_gap(a1)),
        "stationarity": abs(_objective_parts(alpha)[1]),
    }
    return ConstantSystem(alpha, a_weight, r, v, a0, a1, residuals)


# ---------------------------------------------------------------------------
# detection configuration


@dataclass(frozen=True)
class DetectionConfig:
    """Resolved parameter bundle for one detection experiment.

    log_scale stands for log(Q^(8 n~^3) T^(4 [F:Q] n~^3)); a desk-scale
    value is the documented way to make the windows finite, and every
    report carries it as an override flag.
    """

    eta: float
    tau: float
    log_scale: float
    c_linnik: float
    c_dirichlet_upper: float
    constants: ConstantSystem
    m_eta: float  # (alpha - 1)(8 A eta log_scale + c_linnik)
    log_n_eta: float  # log of exp(A0 M/eta), kept in log form
    log_n_eta_star: float
    k_min: int
    k_max: int
    flags: tuple[str, ...]


def build_detection_config(
    eta: float,
    log_scale: float,
    tau: float = 0.0,
    t_range: float = 2.0,
    c_linnik: float = 0.0,
    c_dirichlet_upper: float = 0.0,
) -> DetectionConfig:
    """Validate and resolve a detection configuration.

    log_scale is given directly (a desk-scale override).  eta must lie in
    [1/(R L), 1/R], the range for a degree-1 family paired with a degree-1
    pi0.
    """
    cs = solve_constants()
    if t_range < 2.0:
        raise UsageError("T must be >= 2")
    if abs(tau) > t_range:
        raise UsageError("|tau| must not exceed T")
    flags = [f"log_scale overridden to {log_scale:g}"]
    if log_scale <= 0:
        raise UsageError("log_scale must be positive")
    eta_lo = 1.0 / (cs.r_radius * log_scale)
    eta_hi = 1.0 / cs.r_radius
    if not (eta_lo - 1e-15 <= eta <= eta_hi + 1e-15):
        raise UsageError(
            f"eta = {eta:g} outside [1/(R L), 1/R] = [{eta_lo:g}, {eta_hi:g}]"
        )
    cal_n = 8.0 * cs.a_weight * eta * log_scale + c_linnik
    m_eta = (cs.alpha - 1.0) * cal_n
    if c_linnik > 0.0 and m_eta < 146.0:
        flags.append(
            f"M_eta = {m_eta:.3f} < 146 despite a configured error constant; "
            "increase c_linnik"
        )
    if c_linnik == 0.0:
        flags.append("constant-free: c_linnik = 0, window sizes carry no error constant")
    k_min = math.ceil(m_eta)
    k_max = math.floor(cs.alpha / (cs.alpha - 1.0) * m_eta)
    return DetectionConfig(
        eta=eta,
        tau=tau,
        log_scale=log_scale,
        c_linnik=c_linnik,
        c_dirichlet_upper=c_dirichlet_upper,
        constants=cs,
        m_eta=m_eta,
        log_n_eta=cs.a0 * m_eta / eta,
        log_n_eta_star=cs.a1 * m_eta / eta,
        k_min=k_min,
        k_max=k_max,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# power sums


@dataclass
class TuranResult:
    k_star: int
    achieved: float
    bound: float


def turan_existence(zs, m_shift: int) -> TuranResult:
    """Best power sum in the window [M+1, M+N] against the 1.007 floor.

    For N complex numbers some k in the window satisfies
    |z_1^k + ... + z_N^k| >= 1.007 |z_1|^k (4 e (1 + M/N))^(-N).  k_star
    maximizes the scale-invariant ratio |sum z^k| / |z_1|^k (ties to the
    smallest k), so the floor is guaranteed at k_star, the choice commutes
    with rescaling every z, and on the unit circle it coincides with the
    plain largest power sum.
    """
    zs = np.asarray(list(zs), dtype=np.complex128)
    if zs.size == 0:
        raise UsageError("power sums need at least one number")
    if m_shift < 0:
        raise UsageError("the window shift M must be nonnegative")
    n = zs.size
    top = float(np.abs(zs).max())
    ks = np.arange(m_shift + 1, m_shift + n + 1)
    sums = np.abs((zs[None, :] ** ks[:, None]).sum(axis=1))
    if top == 0.0:
        return TuranResult(int(ks[0]), 0.0, 0.0)
    idx = int(np.argmax(sums / top**ks))
    k_star = int(ks[idx])
    achieved = float(sums[idx])
    bound = 1.007 * top**k_star * (4.0 * math.e * (1.0 + m_shift / n)) ** (-n)
    if achieved < bound * (1.0 - 1e-12):
        raise InvariantError(
            f"power-sum floor failed: window [{m_shift + 1}, {m_shift + n}], "
            f"achieved {achieved:.6e} < floor {bound:.6e}"
        )
    return TuranResult(k_star, achieved, bound)


# ---------------------------------------------------------------------------
# j_k weights and their tail bounds


def jk(u: float, k: int) -> float:
    """e^-u u^k / k!, evaluated in log space."""
    if k < 0:
        raise UsageError("k must be nonnegative")
    if u < 0:
        raise UsageError("u must be nonnegative")
    return math.exp(log_jk(u, k))


def log_jk(u: float, k: int) -> float:
    if u == 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(u) - u - math.lgamma(k + 1)


@dataclass
class TailBoundReport:
    min_slack_below: float
    argmin_below: tuple[int, float]  # (k, log m)
    min_slack_above: float
    argmin_above: tuple[int, float]
    checked: int


def jk_tail_bounds_check(
    config: DetectionConfig, samples: int = 128, k_values=None
) -> TailBoundReport:
    """Pointwise window bounds on j_k, checked in log space.

    Below the window (m <= N_eta): j_k(eta log m) <= m^-eta V^-k.  Above
    (m >= N*_eta): j_k(eta log m) <= m^(-eta/2) V^-k.  Slack is the
    difference of logs; any negative slack beyond rounding raises.
    """
    cs = config.constants
    log_v = math.log(cs.v_decay)
    ks = list(k_values) if k_values is not None else list(range(config.k_min, config.k_max + 1))
    if not ks:
        raise UsageError("empty k range")
    u_below_max = cs.a0 * config.m_eta  # eta log N_eta
    u_above_min = cs.a1 * config.m_eta
    worst_b = (math.inf, (0, 0.0))
    worst_a = (math.inf, (0, 0.0))
    checked = 0
    for k in ks:
        tol = 1e-10 * max(1.0, k * log_v)
        for u in np.linspace(0.0, u_below_max, samples):
            # slack = log(m^-eta V^-k) - log j_k = (-u - k log V) - log j_k
            lhs = log_jk(float(u), k)
            slack = (-float(u) - k * log_v) - lhs
            checked += 1
            if slack < worst_b[0]:
                worst_b = (slack, (k, float(u) / config.eta))
            if slack < -tol:
                raise InvariantError(
                    f"window bound failed below: k = {k}, log m = {u / config.eta:.6g}"
                )
        for mult in np.linspace(1.0, 1.0 + 5.0 / max(u_above_min, 1.0), samples):
            u = u_above_min * float(mult)
            lhs = log_jk(u, k)
            slack = (-u / 2.0 - k * log_v) - lhs
            checked += 1
            if slack < worst_a[0]:
                worst_a = (slack, (k, u / config.eta))
            if slack < -tol:
                raise InvariantError(
                    f"window bound failed above: k = {k}, log m = {u / config.eta:.6g}"
                )
    return TailBoundReport(worst_b[0], worst_b[1], worst_a[0], worst_a[1], checked)


# ---------------------------------------------------------------------------
# weighted high derivatives of -L'/L


@dataclass
class HighDerivResult:
    value: complex
    tail: float
    flags: list[str]


def high_derivative(
    series: CoefficientSeries,
    k: int,
    eta: float,
    tau: float,
) -> HighDerivResult:
    """eta * sum of Lambda(n) N(n)^(-1-i tau) j_k(eta log N(n)) to the series' bound,
    exactly rounded by fsum_complex, so the value does not depend on the order
    of the series' values.

    This equals, in absolute value, the weighted k-th derivative
    eta^(k+1)/k! (L'/L)^(k)(s0) at s0 = 1 + eta + i tau.  The attached tail
    bound covers the discarded range via the Chebyshev psi slope and an
    incomplete-gamma integral, for a series over Q with |coefficient| <=
    Lambda(n) (degree factor 1, growth exponent 0): the -zeta'/zeta series
    that the detect command evaluates, or any GL1 pair series over Q.
    """
    from .coeffs import fsum_complex

    if eta <= 0:
        raise UsageError("eta must be positive")
    trunc = series.bound
    flags: list[str] = []
    terms = []
    for m, val in _terms(series):
        if m > trunc:
            continue
        w = jk(eta * math.log(m), k)
        if w == 0.0:
            continue
        phase = m ** (-1.0) * complex(math.cos(tau * math.log(m)), -math.sin(tau * math.log(m)))
        terms.append(val * phase * w)
    value = eta * fsum_complex(terms)
    tail, tail_flags = _hd_tail_bound(eta, k, trunc)
    flags.extend(tail_flags)
    return HighDerivResult(value, tail, flags)


def _terms(series: CoefficientSeries):
    """(norm, value) of each stored term as Python numbers, in table order,
    SERIES_SLICE at a time, so that no list of every term is held."""
    for start in range(0, len(series.values), SERIES_SLICE):
        stop = start + SERIES_SLICE
        yield from zip(series.norms[start:stop].tolist(), series.values[start:stop].tolist())


def _hd_tail_bound(eta: float, k: int, trunc: int) -> tuple[float, list[str]]:
    """Bound eta * sum_{m > trunc} Lambda(m) m^-1 j_k(eta log m).

    By partial summation against psi(t) <= CHEBYSHEV_PSI_SLOPE t, the bound
    is eta * CHEBYSHEV_PSI_SLOPE * (j_k(u0) + Q(k + 1, u0) / eta) with
    u0 = eta log trunc.
    """
    flags: list[str] = []
    u0 = eta * math.log(max(trunc, 2))
    # monotonicity of t^-1 j_k(eta log t) beyond the cutoff
    if u0 < k * eta / (eta + 1.0):
        flags.append("tail bound loose: cutoff sits before the integrand peak")
    log_integral = _log_gamma_upper(k, u0) - math.log(eta)
    if log_integral > 700.0:
        return math.inf, flags + ["tail bound overflows: cutoff far below the peak"]
    integral = math.exp(log_integral)
    tail = eta * CHEBYSHEV_PSI_SLOPE * (jk(u0, k) + integral)
    return tail, flags


def _log_gamma_upper(k: int, x: float) -> float:
    """log Q(k + 1, x), the regularized upper incomplete gamma, for x > 0.

    Q(k + 1, x) = sum_{j <= k} j_j(x).  The terms rise to their largest at
    j* = min(k, floor(x)) and fall on either side, so the sum starts there,
    in units of j_j*(x), and walks outward by the term ratios until a term
    drops below 2^-60 of the running sum.  About sqrt(x) terms count, so
    the cost does not grow with k.
    """
    peak = min(k, math.floor(x))
    terms = [1.0]

    def walk(ratios):
        term, total = 1.0, math.fsum(terms)
        for ratio in ratios:
            term *= ratio
            terms.append(term)
            total += term
            if term < 2.0**-60 * total:
                return

    walk(j / x for j in range(peak, 0, -1))  # j_(j-1)(x) = j_j(x) j / x
    walk(x / j for j in range(peak + 1, k + 1))  # j_j(x) = j_(j-1)(x) x / j
    return log_jk(x, peak) + math.log(math.fsum(terms))


# ---------------------------------------------------------------------------
# zero lists and Hadamard-type sums


@dataclass
class ZeroList:
    zeros: tuple[complex, ...]
    paired: bool  # True when only positive ordinates were supplied

    def __len__(self):
        return len(self.zeros)

    def expanded(self) -> list[complex]:
        out = []
        for rho in self.zeros:
            out.append(rho)
            if self.paired and rho.imag > 0:
                out.append(rho.conjugate())
        return out


def parse_zeros_file(path: str) -> ZeroList:
    """One positive ordinate per line, or 'beta,gamma' rows; # comments."""
    zeros = []
    two_column = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(",")]
            try:
                if len(parts) == 1:
                    gamma = float(parts[0])
                    if gamma <= 0:
                        raise ValueError("ordinate must be positive")
                    zeros.append(complex(0.5, gamma))
                elif len(parts) == 2:
                    beta, gamma = float(parts[0]), float(parts[1])
                    two_column = True
                    zeros.append(complex(beta, gamma))
                else:
                    raise ValueError("expected 'gamma' or 'beta,gamma'")
            except ValueError as exc:
                raise SpecParseError(str(exc), lineno, path)
    for rho in zeros:
        if not 0.0 < rho.real < 1.0:
            raise DataIntegrityError(f"zero {rho} outside the critical strip")
    zeros.sort(key=lambda z: (abs(z.imag), z.imag, z.real))
    return ZeroList(tuple(zeros), paired=not two_column)


def hadamard_zero_sum(zeros: ZeroList, s: complex, k: int = 0) -> tuple[complex, int]:
    """sum over listed zeros of (s - rho)^(-(k+1)), conjugates included
    when the source carried only positive ordinates."""
    total = 0j
    count = 0
    for rho in zeros.expanded():
        dist = s - rho
        if abs(dist) < 1e-12:
            raise UsageError(f"s = {s} sits on the listed zero {rho}")
        total += dist ** (-(k + 1))
        count += 1
    return total, count


# ---------------------------------------------------------------------------
# the detection inequality chain


@dataclass
class DetectionReport:
    k: int
    hd_value: float
    hd_tail: float
    integral: float
    near_zero_count: int | None
    near_zero_triggered: bool | None
    residual_weight_log10: float  # log10 of k / V^k
    c_measured: float | None
    chain_ok: bool | None
    constant_free: bool
    flags: list[str]


def detection_bounds(
    series: CoefficientSeries,
    config: DetectionConfig,
    zeros: ZeroList | None = None,
    k: int | None = None,
) -> DetectionReport:
    """Evaluate the three detection quantities on one coefficient series.

    Legs: the j_k-weighted high derivative, the window integral
    eta^2 int |partial Lambda sum| du/u over the reachable part of
    [N_eta, N*_eta], and (optionally) the near-zero sum over listed zeros
    within A eta of 1 + i tau.  The inequality chain is asserted only when
    a Dirichlet-upper constant is configured; otherwise the constant is
    reported as measured, never asserted.
    """
    if series.bound < 1:
        raise UsageError(f"detection needs a series truncation >= 1, not {series.bound}")
    flags: list[str] = list(config.flags)
    eta, tau = config.eta, config.tau
    cs = config.constants
    kk = k if k is not None else config.k_min
    hd = high_derivative(series, kk, eta, tau)
    flags.extend(hd.flags)
    if math.log(series.bound) < config.log_n_eta:
        flags.append(
            "series truncation sits below N_eta; window quantities cover "
            "only the reachable range"
        )

    integral = _window_integral(series, config, WINDOW_POINTS_PER_OCTAVE)
    refined = _window_integral(series, config, 2 * WINDOW_POINTS_PER_OCTAVE)
    moved = abs(refined - integral) / max(abs(refined), 1e-300)
    if moved > 0.01:
        flags.append(f"window integral moved {moved:.2%} under refinement")

    near_count = None
    triggered = None
    if zeros is not None:
        center = complex(1.0, tau)
        radius = cs.a_weight * eta
        near_count = sum(abs(center - rho) <= radius for rho in zeros.expanded())
        triggered = near_count > 0

    log10_weight = (math.log(kk) - kk * math.log(cs.v_decay)) / math.log(10.0) if kk else -math.inf
    lhs = abs(hd.value)
    gap = lhs - integral  # the window integral already carries its eta^2 factor
    c_measured = None
    if gap > 0:
        log10_c = math.log10(gap) - log10_weight
        c_measured = 10.0**log10_c if abs(log10_c) < 300 else math.inf
    chain_ok = None
    if config.c_dirichlet_upper > 0.0:
        rhs = integral + config.c_dirichlet_upper * math.exp(
            math.log(kk) - kk * math.log(cs.v_decay)
        )
        chain_ok = lhs <= rhs + hd.tail
    return DetectionReport(
        k=kk,
        hd_value=lhs,
        hd_tail=hd.tail,
        integral=integral,
        near_zero_count=near_count,
        near_zero_triggered=triggered,
        residual_weight_log10=log10_weight,
        c_measured=c_measured,
        chain_ok=chain_ok,
        constant_free=config.c_dirichlet_upper == 0.0,
        flags=flags,
    )


def _window_integral(series: CoefficientSeries, config: DetectionConfig, per_octave: int) -> float:
    """eta^2 int |sum_{N_eta < N(n) <= u} Lambda(n) N(n)^(-1-i tau)| du/u
    over the reachable part of the window, on a geometric u-grid; the
    running sum takes the terms in the series' table order, by norm."""
    eta, tau = config.eta, config.tau
    log_lo = config.log_n_eta
    log_hi = min(config.log_n_eta_star, math.log(series.bound))
    if log_hi <= log_lo:
        return 0.0
    n_steps = max(2, int(math.ceil((log_hi - log_lo) / math.log(2.0) * per_octave)))
    grid = np.linspace(log_lo, log_hi, n_steps + 1)
    items = [(m, v) for m, v in _terms(series) if math.log(m) > log_lo and math.log(m) <= log_hi]
    partial = np.zeros(len(grid), dtype=np.complex128)
    acc = 0j
    pos = 0
    for gi, logu in enumerate(grid):
        while pos < len(items) and math.log(items[pos][0]) <= logu:
            m, val = items[pos]
            acc += val * m ** (-1.0) * complex(
                math.cos(tau * math.log(m)), -math.sin(tau * math.log(m))
            )
            pos += 1
        partial[gi] = acc
    integrand = np.abs(partial)
    # trapezoid in w = log u gives int |S(u)| du/u
    value = float(np.trapezoid(integrand, grid))
    return eta**2 * value


# ---------------------------------------------------------------------------
# density scan over Langlands parameters


@dataclass(frozen=True)
class DensityQuery:
    prime: object  # IdealIndex of a prime ideal
    theta: float
    scale: float  # the cutoff parameter the window sizes derive from
    m_window: int  # floor(log scale / log N(p) - n) >= 1
    n: int

    @staticmethod
    def build(prime, theta: float, scale: float, n: int) -> "DensityQuery":
        if theta < 0:
            raise UsageError("theta must be nonnegative")
        npr = prime.norm
        if npr ** (n + 1) > scale * (1 + 1e-12):
            raise UsageError(
                f"N(p)^(n+1) = {npr ** (n + 1)} exceeds the scale {scale}; "
                "choose a smaller prime or a larger scale"
            )
        m_window = math.floor(math.log(scale) / math.log(npr) - n)
        if m_window < 1:
            raise UsageError("window shift M must be at least 1")
        return DensityQuery(prime, theta, scale, m_window, n)


@dataclass
class DensityScanRow:
    label: str
    max_alpha: float
    flagged: bool
    certificate_fired: bool
    k_fired: int | None
    best_power_sum: float


@dataclass
class DensityScanReport:
    rows: list[DensityScanRow]
    flagged_count: int
    certificate_count: int
    measured_total: float
    shape: float


def density_scan(
    family: Family, query: DensityQuery, seed: int = 0, epsilon: float = 0.0
) -> DensityScanReport:
    """Scan the family for members with a large parameter at one prime.

    Ground truth flags max_j |alpha_j(p)| >= N(p)^theta directly from the
    parameters.  The certificate checks whether some power sum in the
    window [M+1, M+n] reaches the 1.007 floor that is guaranteed for
    every flagged member; it may also fire spuriously, which is reported,
    not penalized.  The seed only labels the report for reproducibility.
    """
    npr = query.prime.norm
    thresh = float(npr) ** query.theta
    floor_scale = 1.007 * (4.0 * math.e * (1.0 + query.m_window / query.n)) ** (-query.n)
    rows = []
    total = 0.0
    ks = np.arange(query.m_window + 1, query.m_window + query.n + 1)
    for member in family.members:
        if member.degree != query.n:
            raise UsageError("density scans need a family of constant degree")
        alphas = np.array(member.local_at(query.prime).alphas, dtype=np.complex128)
        sums = np.abs((alphas[None, :] ** ks[:, None]).sum(axis=1)) / ks
        floors = thresh**ks / ks * floor_scale
        fired = sums >= floors * (1.0 - 1e-12)
        k_fired = int(ks[np.argmax(fired)]) if fired.any() else None
        best = float(sums.max())
        flagged = float(np.abs(alphas).max()) >= thresh * (1.0 - 1e-12)
        total += best**2
        rows.append(
            DensityScanRow(
                label=member.label,
                max_alpha=float(np.abs(alphas).max()),
                flagged=flagged,
                certificate_fired=bool(fired.any()),
                k_fired=k_fired,
                best_power_sum=best,
            )
        )
    for row in rows:
        if row.flagged and not row.certificate_fired:
            raise InvariantError(
                f"certificate failed to fire for flagged member {row.label}"
            )
    q = family.max_conductor
    n = query.n
    d_f = abs(family.field.discriminant)
    exponent = (1.0 - 2.0 * query.theta) / max(1.0, 4.0 * query.theta) + epsilon
    shape = float(npr) ** n * (d_f ** (-(n**2)) * q ** (2 * n)) ** exponent
    return DensityScanReport(
        rows=rows,
        flagged_count=sum(r.flagged for r in rows),
        certificate_count=sum(r.certificate_fired for r in rows),
        measured_total=total,
        shape=shape,
    )


# ---------------------------------------------------------------------------
# family counting


@dataclass
class FamilyCountResult:
    enumerated: int | None
    bound_shape: float
    ratio: float | None
    shape_only: bool
    flags: list[str]


def family_count_bound(
    field: NumberFieldSpec, n: int, q_bound: float, epsilon: float
) -> FamilyCountResult:
    """Exact GL1/Q member count next to the D_F^(-n^2) Q^(2n+eps) shape."""
    if not q_bound > 0:
        raise UsageError(f"the conductor bound Q must be positive, not {q_bound:g}")
    if n < 1:
        raise UsageError(f"the degree n must be at least 1, not {n}")
    try:
        shape = abs(field.discriminant) ** (-(n**2)) * q_bound ** (2 * n + epsilon)
    except OverflowError:
        raise UsageError(f"the shape Q^(2n+eps) at Q = {q_bound:g}, n = {n} passes the float range") from None
    flags = []
    if n == 1 and field.is_rationals:
        from .localdata import dirichlet_character_family

        # no character has analytic conductor below 3
        count = len(dirichlet_character_family(q_bound).members) if q_bound >= 3 else 0
        return FamilyCountResult(count, shape, count / shape, False, flags)
    flags.append("enumeration supported only for degree 1 over Q; shape only")
    return FamilyCountResult(None, shape, None, True, flags)


def selftest() -> list[tuple[str, bool, str]]:
    results = []
    cs = solve_constants()
    targets = {
        "alpha": (cs.alpha, 7.257570591),
        "A": (cs.a_weight, 3.893444953),
        "V": (cs.v_decay, 4.399815114),
        "A0": (cs.a0, 0.083612477),
        "A1": (cs.a1, 11.4016385180),
    }
    worst = max(abs(got - want) for got, want in targets.values())
    results.append(("constant system values", worst < 1e-8, f"max dev {worst:.2e}"))
    worst_res = max(cs.residuals.values())
    results.append(("constant system residuals", worst_res < 1e-8, f"{worst_res:.2e}"))

    t = turan_existence([1.0], 0)
    ok = t.k_star == 1 and abs(t.bound - 1.007 / (4 * math.e)) < 1e-12
    results.append(("power sum single point", ok, f"bound {t.bound:.6f}"))
    t = turan_existence([1.0, -1.0], 0)
    results.append(("power sum cancellation pair", t.k_star == 2 and t.achieved == 2.0, ""))

    ok = abs(jk(1.0, 1) - math.exp(-1)) < 1e-15 and jk(0.0, 3) == 0.0 and jk(0.0, 0) == 1.0
    results.append(("j_k values", ok, ""))

    cfg = build_detection_config(eta=0.05, tau=0.0, log_scale=40.0)
    rep = jk_tail_bounds_check(cfg, samples=48)
    ok = rep.min_slack_below >= 0 and rep.min_slack_above >= 0
    results.append(
        ("j_k window bounds", ok, f"slacks {rep.min_slack_below:.3g}, {rep.min_slack_above:.3g}")
    )

    zl = ZeroList((complex(0.5, 0.0),), paired=False)
    val, _ = hadamard_zero_sum(zl, complex(1.5, 0.0), 0)
    results.append(("hadamard single zero", abs(val - 1.0) < 1e-14, ""))

    from .ideals import prime_ideal
    from .localdata import synthetic_family

    fam = synthetic_family(2, 4, seed=2, model=("planted", 2, 0.3))
    prime = prime_ideal(fam.field, (2, 0))
    query = DensityQuery.build(prime, 0.3, scale=2.0**5, n=2)
    rep = density_scan(fam, query)
    ok = rep.flagged_count == 1 and rep.rows[0].certificate_fired
    results.append(("planted density scan", ok, f"flagged {rep.flagged_count}"))
    return results
