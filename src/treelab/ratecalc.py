"""Exact moment functionals and large-deviation rate calculus for finite laws.

All laws are finitely supported, so moments and moment generating functions
are exact weighted sums.  The phase-transition constant, its dual, the
lower-tail rate, its inverse, and the upper-tail exponent are Legendre
transforms of a log moment generating function L, whose derivatives L' and
L'' are the mean and variance of a tilted law (`_tilted`).  Each one is a
single root of a monotone function of the tilt, found by safeguarded Newton
steps (`_root`); infima attained only in a limit (at an endpoint of a
half-line) are detected analytically and returned exactly.

Conventions for nonnegative laws that may carry atoms at 0 or +inf:
0**0 == 0 and inf**0 == 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (ResourceCapError, UnsupportedCaseError, ValidationError,
                     jsonable, parse)
from . import rng

_WEIGHT_TOL = 1e-12
_CONVOLVE_MERGE_TOL = 1e-12
_CONVOLVE_CAP = 1 << 22  # point masses one convolution may hold
_GUIDE_MAX_BITS = 16  # sampling guide table: at most 2**16 buckets
_GUIDE_MAX_GAP = 8    # beyond this many steps per bucket, binary search


# ---------------------------------------------------------------------------
# Law representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """A finitely supported law given by distinct support points and weights.

    Support points are floats; +inf is allowed (for nonnegative transition
    ratio laws only).  Weights must be positive and sum to 1 within 1e-12.
    """

    support: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) == 0:
            raise ValidationError("distribution needs at least one support point")
        if len(self.support) != len(self.weights):
            raise ValidationError("support and weights must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support points must be distinct")
        for s in self.support:
            if math.isnan(s) or s == -math.inf:
                raise ValidationError(f"bad support point {s!r}")
        for w in self.weights:
            if not (w > 0.0) or not math.isfinite(w):
                raise ValidationError("weights must be positive and finite")
        if abs(math.fsum(self.weights) - 1.0) > _WEIGHT_TOL:
            raise ValidationError("weights must sum to 1 within 1e-12")

    # -- constructors -------------------------------------------------------

    @classmethod
    def point(cls, value: float) -> "Distribution":
        return cls((float(value),), (1.0,))

    @classmethod
    def uniform(cls, values: Sequence[float]) -> "Distribution":
        vals = tuple(float(v) for v in values)
        return cls(vals, (1.0 / len(vals),) * len(vals))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "Distribution":
        return cls(tuple(float(v) for v, _ in pairs), tuple(float(w) for _, w in pairs))

    # -- cached views -------------------------------------------------------

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        s = np.asarray(self.support, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        order = np.argsort(s)
        return s[order], w[order]

    @cached_property
    def _cum_weights(self) -> np.ndarray:
        _, w = self._sorted
        cw = np.cumsum(w)
        cw[-1] = 1.0  # guard against fsum drift so sampling never overruns
        return cw

    # -- basic functionals --------------------------------------------------

    @property
    def ess_inf(self) -> float:
        return float(self._sorted[0][0])

    @property
    def ess_sup(self) -> float:
        return float(self._sorted[0][-1])

    @property
    def mean(self) -> float:
        s, w = self._sorted
        return float(np.dot(s, w))

    def prob(self, value: float) -> float:
        """Point mass at `value` (0.0 if not an atom)."""
        for s, w in zip(self.support, self.weights):
            if s == value:
                return w
        return 0.0

    @property
    def is_a_type(self) -> bool:
        """Usable as a transition-ratio law: support in [0, +inf]."""
        return all(s >= 0.0 for s in self.support)

    @property
    def is_x_type(self) -> bool:
        """Usable as a passage-time law: all support points finite reals."""
        return all(math.isfinite(s) for s in self.support)

    def reflected(self) -> "Distribution":
        """The law of -X; only defined for finite-support real laws."""
        self.require_x_type()
        return Distribution(tuple(-s for s in self.support), self.weights)

    def scaled(self, c: float) -> "Distribution":
        return Distribution(tuple(c * s for s in self.support), self.weights)

    def require_a_type(self) -> "Distribution":
        if not self.is_a_type:
            raise ValidationError("law must be nonnegative (support in [0, inf])")
        return self

    def require_x_type(self) -> "Distribution":
        if not self.is_x_type:
            raise ValidationError("law must have finite real support")
        return self

    def require_positive_finite(self) -> "Distribution":
        """Require 0 < value < inf almost surely."""
        if any(s == 0.0 or math.isinf(s) for s in self.support):
            raise UnsupportedCaseError(
                "laws with mass at 0 or +inf are out of scope here"
            )
        return self.require_a_type()

    # -- sampling -----------------------------------------------------------

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Indexed inverse-CDF search in mantissa space (Chen & Asau 1974).

        With u = m * 2**-53, cw_i <= u exactly when T_i <= m for the integer
        thresholds T_i = ceil(cw_i * 2**53), so `searchsorted(cw, u, "right")`
        is the number of thresholds <= m.  Bucket j of the guide table covers
        the m whose top `k` bits are j and holds that count (a support index)
        at the bucket's first m; `gap` is the most thresholds any bucket
        contains.  Returns (guide, thresholds, shift, gap) with shift = 53 -
        k; gap is -1 when no table up to 2**_GUIDE_MAX_BITS buckets has gap
        <= _GUIDE_MAX_GAP.
        """
        cap = 2.0 ** rng.MANTISSA_BITS
        # Rounding drift can push cumulative weights before the last (pinned
        # to 1) past 1; clipping at 2**53 keeps the thresholds sorted and
        # changes no count, since every m is below 2**53.
        t = np.minimum(np.ceil(self._cum_weights * cap), cap).astype(np.int64)
        bits = min(max(4, len(t).bit_length() + 1), _GUIDE_MAX_BITS)
        while True:
            shift = rng.MANTISSA_BITS - bits
            starts = np.arange(1 << bits, dtype=np.int64) << shift
            guide = np.searchsorted(t, starts, side="right")
            ends = np.searchsorted(t, starts + ((1 << shift) - 1), side="right")
            gap = int((ends - guide).max())
            if gap <= 1 or bits >= _GUIDE_MAX_BITS:
                break
            bits += 1
        if gap > _GUIDE_MAX_GAP:
            gap = -1
        return guide, t, shift, gap

    @cached_property
    def _images(self) -> dict:
        return {}

    def image_table(self, image=None) -> np.ndarray:
        """image(s) over the sorted support s, or over the guide table when
        every bucket holds one value (gap 0): the values `sample_values`
        gathers.  image=None means s itself.  Tables are cached per law and
        image; threads that fill one at once compute equal arrays.
        """
        table = self._images.get(image)
        if table is None:
            s = self._sorted[0]
            if image is not None:
                with np.errstate(over="ignore"):
                    s = image(s)
            guide, _, _, gap = self._guide
            table = self._images[image] = s[guide] if gap == 0 else s
        return table

    def sample_values(self, key: int, counters: range, out=None,
                      image=None) -> np.ndarray:
        """Draw i.i.d. values keyed by (key, counter); reproducible, order-free.

        The value for counter c is s[searchsorted(cw, uniforms(key, c),
        "right")] over the sorted support s and cumulative weights cw, bit
        for bit; it is computed in integer space by `_guide`, one chunk of
        mantissas at a time.  When every guide bucket holds one value (gap
        0), the bucket is the top 53 - shift <= 16 bits of the hash, which
        the hash shares with its state before the final xor-shift (see
        `rng`): that path reads the bucket as z >> (shift + 11) from
        `rng._prefinal_chunks` and never finishes the hash.  `counters` is a
        step-1 range of ids.  `out`, a C-contiguous float64 array of length
        len(counters), receives the values instead of a new array.

        `image`, an elementwise numpy function such as `np.log`, returns
        image(value) instead: a gather from `image_table(image)`, with the
        same bits as applying it to the drawn array (numpy's elementwise
        `log` and `exp` give one value for one input wherever it sits).
        """
        n = len(counters)
        if out is None:
            out = np.empty(n)
        elif (out.shape != (n,) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError("out must be a C-contiguous float64 array "
                             "of length len(counters)")
        vals = self.image_table(image)
        guide, t, shift, gap = self._guide
        if gap == 0:
            for sl, z, _ in rng._prefinal_chunks(key, counters):
                np.right_shift(z, shift + 64 - rng.MANTISSA_BITS, out=z)
                np.take(vals, z.view(np.int64), out=out[sl], mode="clip")
            return out
        idx = np.empty(min(n, rng.CHUNK), dtype=np.intp)
        thr = np.empty_like(idx)
        for sl, m in rng.mantissa_chunks(key, counters):
            dst, ix, tx = out[sl], idx[:len(m)], thr[:len(m)]
            if gap < 0:
                np.take(vals, np.searchsorted(t, m, side="right"), out=dst,
                        mode="clip")
                continue
            np.right_shift(m, shift, out=ix)
            np.take(guide, ix, out=ix, mode="clip")
            for _ in range(gap):
                np.take(t, ix, out=tx, mode="clip")
                ix += tx <= m
            np.take(vals, ix, out=dst, mode="clip")
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return jsonable({"schema": 1, "support": self.support, "weights": self.weights})

    @classmethod
    def from_json(cls, doc: dict) -> "Distribution":
        try:
            raw_support = doc["support"]
            raw_weights = doc["weights"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"distribution document missing field: {exc}")

        def dec(v) -> float:
            if isinstance(v, str):
                if v.strip().lower() in ("inf", "+inf", "infinity"):
                    return math.inf
                raise ValueError(f"unknown token {v!r}")
            return float(v)

        return cls(parse(lambda vals: tuple(dec(v) for v in vals), raw_support,
                         "support"),
                   parse(lambda vals: tuple(float(w) for w in vals), raw_weights,
                         "weights"))

    @classmethod
    def load(cls, path) -> "Distribution":
        return cls.from_json(json.loads(
            parse(bytes.decode, Path(path).read_bytes(), f"UTF-8 in {path}")))


# ---------------------------------------------------------------------------
# Tilted moments and one safeguarded Newton root
# ---------------------------------------------------------------------------

def _tilted(s: np.ndarray, log_w: np.ndarray, theta: float) -> tuple[float, float, float]:
    """(L, L', L'') at theta for L(theta) = log sum w exp(theta s): the log
    moment generating function and the mean and variance of the law tilted
    by exp(theta s), computed with a max-shift so no term leaves range."""
    e = log_w + theta * s
    m = e.max()
    q = np.exp(e - m)
    total = q.sum()
    mean = float(q @ s / total)
    return float(m + np.log(total)), mean, float(q @ (s - mean) ** 2 / total)


def _root(f, lo: float, hi: float = math.inf, x0: float = 1.0) -> float:
    """The root of an increasing f on (lo, hi); f(x) returns (f(x), f'(x)).

    Newton steps from x0, each evaluation narrowing the bracket.  While hi
    is inf a step may at most double x (so x0 > 0 there); once hi is
    finite, a step that leaves the bracket is replaced by bisection.  Stops
    at rounding level: on a zero, on a Newton step that no longer moves x,
    or on a bracket with no double inside.
    """
    x = x0
    while True:
        v, d = f(x)
        if v < 0.0:
            lo = x
        elif v > 0.0:
            hi = x
        else:
            return x
        step = x - v / d if d > 0.0 else math.inf
        if step == x:
            return x
        if hi == math.inf:
            step = min(step, 2.0 * x)
        elif not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                return x
        x = step


def _unit_tilt(law: Distribution, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted support as (s - c) / width, and the log weights: the tilt
    variable of these values is dimensionless, so the Newton start 1 and
    the doubling are on the law's own scale."""
    s, w = law._sorted
    return (s - c) / (s[-1] - s[0]), np.log(w)


# ---------------------------------------------------------------------------
# Fractional moments and the phase-transition constant
# ---------------------------------------------------------------------------

def fractional_moment(law: Distribution, x: float) -> float:
    """E[A**x] for a nonnegative law, exact, with 0**0 == 0 and inf**0 == 1."""
    law.require_a_type()
    total = 0.0
    for s, w in zip(law.support, law.weights):
        if s == 0.0:
            term = 0.0 if x >= 0.0 else math.inf
        elif s == math.inf:
            term = 1.0 if x == 0.0 else (math.inf if x > 0.0 else 0.0)
        else:
            term = s**x
        total += w * term
        if total == math.inf:
            return math.inf
    return total


def _log_positive_atoms(law: Distribution) -> tuple[np.ndarray, np.ndarray] | None:
    """(log a, log w) over the positive atoms of a nonnegative law, whose
    tilted moments give log E[A**x] = L(x) for x >= 0 (0**x counts as 0);
    None when an atom sits at +inf."""
    law.require_a_type()
    s, w = law._sorted
    if not s[-1] > 0.0:
        raise ValidationError("law must satisfy P[A > 0] > 0")
    if s[-1] == math.inf:
        return None
    return np.log(s[s > 0.0]), np.log(w[s > 0.0])


def p_value(law: Distribution) -> tuple[float, float]:
    """Minimize x |-> E[A**x] over [0, 1]; returns (minimum, a minimizer).

    This is the constant whose product with the branching number locates the
    transient/recurrent transition.  For laws with A <= 1 a.s. it equals E[A].
    The minimizer is the root of the tilted mean L'(x) of log A, or an end
    of [0, 1] when L' keeps one sign there; the minimum is `fractional_moment`
    at it, so end values are exact.
    """
    atoms = _log_positive_atoms(law)
    if atoms is None:
        # E[A**x] is infinite for every x > 0; the minimum sits at x = 0.
        return fractional_moment(law, 0.0), 0.0

    def slope(x: float) -> tuple[float, float]:
        return _tilted(*atoms, x)[1:]

    if slope(1.0)[0] <= 0.0:
        x = 1.0
    elif slope(0.0)[0] >= 0.0:
        x = 0.0
    else:
        x = _root(slope, 0.0, 1.0, 0.5)
    return fractional_moment(law, x), x


def dual_p(law: Distribution) -> tuple[float, float]:
    """max over y in (0, 1] of inf over x >= 0 of y**(1-x) * E[A**x].

    The conjugate expression for the same constant as `p_value`; the two agree
    by convex duality.  Returns (value, maximizing y).  With t = log y the
    objective is exp psi(t), psi(t) = (1-x)t + L(x) at the inner minimizer
    x(t), the root of L'(x) = t; psi is concave with slope 1 - x(t), so the
    maximum over t <= 0 sits where x(t) crosses 1, at t = L'(1), or at t = 0.
    """
    atoms = _log_positive_atoms(law)
    if atoms is None:
        # Inner objective is infinite for x > 0, so inf sits at x = 0 with
        # value y * P[A > 0]; the outer max is then at y = 1.
        return fractional_moment(law, 0.0), 1.0
    t = min(0.0, _tilted(*atoms, 1.0)[1])

    def slope(x: float) -> tuple[float, float]:
        _, d1, d2 = _tilted(*atoms, x)
        return d1 - t, d2

    # x(t) <= 1 at this t, so a Newton start at 1 brackets it at once
    x = 0.0 if slope(0.0)[0] >= 0.0 else _root(slope, 0.0)
    return math.exp((1.0 - x) * t + _tilted(*atoms, x)[0]), math.exp(t)


# ---------------------------------------------------------------------------
# Lower-tail rate m, its inverse, and the upper-tail exponent gamma
# ---------------------------------------------------------------------------

def rate_m(law: Distribution, y: float) -> float:
    """Lower-tail rate inf over x <= 0 of E[exp(x (X - y))], in [0, 1].

    Equals 0 below the essential infimum, the mass of the essential infimum
    exactly at it (an infimum attained in the limit x -> -inf), and 1 at or
    above the mean.  In between, log m = L(-t) for the log moment generating
    function L of (X - y) / w, w the support's width, at the root t > 0 of
    L'(-t) = 0.
    """
    law.require_x_type()
    if math.isnan(y):
        raise ValidationError("y must not be NaN")
    lo = law.ess_inf
    if y < lo:
        return 0.0
    if y >= law.mean:
        return 1.0
    if y == lo:
        return law.prob(lo)
    s, log_w = _unit_tilt(law, y)

    def slope(t: float) -> tuple[float, float]:
        _, d1, d2 = _tilted(s, log_w, -t)
        return -d1, d2

    return min(1.0, math.exp(_tilted(s, log_w, -_root(slope, 0.0))[0]))


def m_inverse(law: Distribution, z: float) -> float:
    """Generalized inverse sup{y : m(y) < z} of the lower-tail rate, z in (0, 1].

    Equals the essential infimum for z at most its mass (where m jumps from
    0) and the mean for z = 1.  In between, with L the log moment generating
    function of (X - ess inf) / w, w the support's width, y = ess inf +
    w L'(-t) at the root t > 0 of L(-t) + t L'(-t) = log z, whose left side
    falls with slope -t L''(-t).  Agrees with inf{y : m(y) > z} wherever that
    form is well defined.
    """
    law.require_x_type()
    if not (0.0 < z <= 1.0):
        raise ValidationError("z must lie in (0, 1]")
    lo = law.ess_inf
    if z <= law.prob(lo):
        return lo
    if z == 1.0:
        return law.mean
    s, log_w = _unit_tilt(law, lo)
    log_z = math.log(z)

    def excess(t: float) -> tuple[float, float]:
        val, d1, d2 = _tilted(s, log_w, -t)
        return log_z - val - t * d1, t * d2

    return lo + (law.ess_sup - lo) * _tilted(s, log_w, -_root(excess, 0.0))[1]


def gamma(law: Distribution, a: float) -> float:
    """Upper-tail exponent inf over theta >= 0 of (-a*theta + log E[exp(theta X)]).

    Equals 0 at or below the mean and -inf above the essential supremum; at
    the essential supremum the infimum is the log-mass there, attained in the
    limit theta -> inf.  In between it is L(theta) for the log moment
    generating function L of (X - a) / w, w the support's width, at the root
    theta > 0 of L'(theta) = 0.  Where theta * max|s| <= 1 for the scaled
    support s, L is log1p(sum w expm1(theta s)), which keeps the digits of
    a value near 0 that the max-shifted sum rounds to about 1e-16.
    """
    law.require_x_type()
    if a <= law.mean:
        return 0.0
    hi_pt = law.ess_sup
    if a > hi_pt:
        return -math.inf
    if a == hi_pt:
        return math.log(law.prob(hi_pt))
    s, log_w = _unit_tilt(law, a)

    def slope(theta: float) -> tuple[float, float]:
        return _tilted(s, log_w, theta)[1:]

    theta = _root(slope, 0.0)
    if theta * np.abs(s).max() <= 1.0:
        return min(0.0, math.log1p(float(law._sorted[1] @ np.expm1(theta * s))))
    return min(0.0, _tilted(s, log_w, theta)[0])


# ---------------------------------------------------------------------------
# Exact n-fold convolution tails
# ---------------------------------------------------------------------------

def _merge_close(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and combine point masses whose positions agree within 1e-12."""
    order = np.argsort(values)
    values = values[order]
    probs = probs[order]
    if len(values) == 1:
        return values, probs
    new_group = np.empty(len(values), dtype=bool)
    new_group[0] = True
    np.greater(np.diff(values), _CONVOLVE_MERGE_TOL, out=new_group[1:])
    group_id = np.cumsum(new_group) - 1
    merged_vals = values[new_group]
    merged_probs = np.bincount(group_id, weights=probs)
    return merged_vals, merged_probs


def _convolve(d1, d2):
    v1, p1 = d1
    v2, p2 = d2
    if len(v1) * len(v2) > _CONVOLVE_CAP:
        raise ResourceCapError(
            f"convolution would produce {len(v1) * len(v2)} point masses "
            f"(cap {_CONVOLVE_CAP})"
        )
    vals = np.add.outer(v1, v2).ravel()
    probs = np.multiply.outer(p1, p2).ravel()
    vals, probs = _merge_close(vals, probs)
    if len(vals) > _CONVOLVE_CAP:
        raise ResourceCapError(f"convolution grew past cap {_CONVOLVE_CAP}")
    return vals, probs


def sum_distribution(law: Distribution, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the sum of n independent copies, as (values, probs) arrays.

    Computed by square-and-multiply convolution; point masses at equal
    positions (within 1e-12) are combined, so lattice laws stay linear-sized.
    """
    law.require_x_type()
    if n < 1:
        raise ValidationError("n must be >= 1")
    s, w = law._sorted
    base = (s.copy(), w.copy())
    result = None
    k = n
    while k:
        if k & 1:
            result = base if result is None else _convolve(result, base)
        k >>= 1
        if k:
            base = _convolve(base, base)
    return result


def exact_tail(law: Distribution, n: int, a: float) -> float:
    """Exact P[S_n >= n*a] for the sum S_n of n independent copies of the law.

    The tail threshold uses the same 1e-12 position tolerance as the
    convolution merging, so lattice ties land on the correct side.
    """
    vals, probs = sum_distribution(law, n)
    threshold = n * a - _CONVOLVE_MERGE_TOL
    return float(probs[vals >= threshold].sum())


def exact_tail_below(law: Distribution, n: int, y: float) -> float:
    """Exact P[S_n <= n*y], via the upper tail of the reflected law."""
    return exact_tail(law.reflected(), n, -y)


# ---------------------------------------------------------------------------
# Summary container
# ---------------------------------------------------------------------------

@dataclass
class RateSummary:
    """Requested rate-function evaluations for one law, with argmin witnesses."""

    law: Distribution
    p: float | None = None
    x_star: float | None = None
    dual: float | None = None
    y_star: float | None = None
    m_table: list[tuple[float, float]] = field(default_factory=list)
    m_inverse_table: list[tuple[float, float]] = field(default_factory=list)
    gamma_table: list[tuple[float, float]] = field(default_factory=list)

    def to_json(self) -> dict:
        return jsonable({
            "schema": 1,
            "law": self.law.to_json(),
            "p": self.p,
            "x_star": self.x_star,
            "dual": self.dual,
            "y_star": self.y_star,
            "m": self.m_table,
            "m_inverse": self.m_inverse_table,
            "gamma": self.gamma_table,
        })


def summarize(law: Distribution,
              y_grid: Sequence[float] = (),
              z_grid: Sequence[float] = (),
              a_grid: Sequence[float] = ()) -> RateSummary:
    """Evaluate every rate functional the law's type supports."""
    out = RateSummary(law=law)
    if law.is_a_type:
        out.p, out.x_star = p_value(law)
        out.dual, out.y_star = dual_p(law)
    if law.is_x_type:
        out.m_table = [(float(y), rate_m(law, float(y))) for y in y_grid]
        out.m_inverse_table = [(float(z), m_inverse(law, float(z))) for z in z_grid]
        out.gamma_table = [(float(a), gamma(law, float(a))) for a in a_grid]
    return out
