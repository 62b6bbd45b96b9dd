"""Exact arithmetic kernel.

Sparse multivariate polynomials over arbitrary-precision rationals in the
fixed variable set (u, X, Y, E, V, s, v), truncated power series in s,
Laurent expansions in v, symbolic-exponent binomials, and exact Lagrange
interpolation.  No floating point anywhere; equality is literal.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

VARIABLES = ("u", "X", "Y", "E", "V", "s", "v")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_ZERO_EXP = (0,) * _NVARS


class ExactDivisionError(ArithmeticError):
    """Division left a remainder, or a result would need a negative exponent."""


class InterpolationError(ValueError):
    """Over-determined interpolation samples are inconsistent with the degree bound."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _term_key(exps):
    # graded-lex: total degree first, ties by exponent tuple
    return (sum(exps), exps)


class MultiPoly:
    """Sparse polynomial in u, X, Y, E, V, s, v with Fraction coefficients.

    Terms are stored as a map from exponent tuple (one slot per variable,
    in VARIABLES order) to a nonzero Fraction.  Instances are treated as
    immutable; every operation returns a new polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exps, coeff in terms.items():
                c = _frac(coeff)
                if c:
                    t[tuple(exps)] = c
        self.terms = t

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, value) -> "MultiPoly":
        return cls({_ZERO_EXP: _frac(value)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        exps = [0] * _NVARS
        exps[_VAR_INDEX[name]] = 1
        return cls({tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exps, coeff=1) -> "MultiPoly":
        return cls({tuple(exps): _frac(coeff)})

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps, 0) + c
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        out = MultiPoly.zero()
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly.zero()
        out.terms = {exps: -c for exps, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(exps, 0) + c1 * c2
                if acc:
                    terms[exps] = acc
                else:
                    terms.pop(exps, None)
        out = MultiPoly.zero()
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure --------------------------------------------------------

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        if var is None:
            return max(sum(e) for e in self.terms)
        i = _VAR_INDEX[var]
        return max(e[i] for e in self.terms)

    def variables_used(self):
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(VARIABLES[i])
        return used

    def coeffs_in(self, var: str) -> dict:
        """Split into {exponent of var: polynomial free of var}."""
        i = _VAR_INDEX[var]
        buckets: dict[int, dict] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            rest = exps[:i] + (0,) + exps[i + 1:]
            buckets.setdefault(k, {})[rest] = c
        return {k: MultiPoly(t) for k, t in buckets.items()}

    def coefficient(self, var: str, k: int) -> "MultiPoly":
        return self.coeffs_in(var).get(k, MultiPoly.zero())

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and _ZERO_EXP in self.terms:
            return self.terms[_ZERO_EXP]
        raise ValueError(f"polynomial is not constant: {self}")

    # -- division and substitution ----------------------------------------

    def _leading(self):
        exps = max(self.terms, key=_term_key)
        return exps, self.terms[exps]

    def exact_div(self, divisor) -> "MultiPoly":
        """Exact quotient self / divisor; raises ExactDivisionError on remainder."""
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = MultiPoly.zero()
        remainder = self
        d_exps, d_coeff = divisor._leading()
        while not remainder.is_zero():
            r_exps, r_coeff = remainder._leading()
            q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
            if any(e < 0 for e in q_exps):
                raise ExactDivisionError(
                    f"({self}) is not divisible by ({divisor})")
            q_term = MultiPoly.monomial(q_exps, r_coeff / d_coeff)
            quotient = quotient + q_term
            remainder = remainder - q_term * divisor
        return quotient

    def subs(self, mapping) -> "MultiPoly":
        """Simultaneous substitution of variables by polynomials or exact rationals."""
        images = {_VAR_INDEX[name]: self._coerce(img) for name, img in mapping.items()}
        if any(img is None for img in images.values()):
            raise TypeError("substitution images must be polynomials or exact rationals")
        total = MultiPoly.zero()
        for exps, coeff in self.terms.items():
            kept = tuple(0 if i in images else e for i, e in enumerate(exps))
            term = MultiPoly.monomial(kept, coeff)
            for i, img in images.items():
                if exps[i]:
                    term = term * img ** exps[i]
            total = total + term
        return total

    # -- canonical text ----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_term_key):
            coeff = self.terms[exps]
            factors = [f"{VARIABLES[i]}^{e}" if e > 1 else VARIABLES[i]
                       for i, e in enumerate(exps) if e]
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = str(mag) + "*" + "*".join(factors)
            else:
                body = str(mag)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = body if sign == "+" else "-" + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MultiPoly({self})"


def gens() -> tuple:
    """The seven generators (u, X, Y, E, V, s, v), in canonical order."""
    return tuple(MultiPoly.variable(name) for name in VARIABLES)


# -- JSON-friendly term lists (CLI interchange) ----------------------------

def poly_to_terms(p: MultiPoly) -> list:
    """Canonical monomial list: [{"coeff": "p/q", "monomial": {var: exp}}]."""
    out = []
    for exps in sorted(p.terms, key=_term_key):
        mono = {VARIABLES[i]: e for i, e in enumerate(exps) if e}
        out.append({"coeff": str(p.terms[exps]), "monomial": mono})
    return out


def poly_from_terms(items) -> MultiPoly:
    terms = {}
    for item in items:
        exps = [0] * _NVARS
        for name, e in item["monomial"].items():
            exps[_VAR_INDEX[name]] = int(e)
        terms[tuple(exps)] = Fraction(item["coeff"])
    return MultiPoly(terms)


# -- binomials --------------------------------------------------------------

def int_binom(a: int, b: int) -> int:
    """Integer binomial via falling factorials.

    Conventions: 0 for b < 0, and 1 for b = 0 even when a is negative
    (so int_binom(-1, 0) = 1); negative a follows the falling factorial.
    """
    if b < 0:
        return 0
    if b == 0:
        return 1
    num = 1
    for i in range(b):
        num *= a - i
    q, r = divmod(num, factorial(b))
    assert r == 0
    return q


def binom_poly(p: MultiPoly, k: int) -> MultiPoly:
    """Binomial coefficient with polynomial upper argument: p(p-1)...(p-k+1)/k!."""
    if k < 0:
        raise ValueError("lower binomial argument must be non-negative")
    result = MultiPoly.const(1)
    for i in range(k):
        result = result * (p - i)
    return result * Fraction(1, factorial(k))


# -- truncated power series in s --------------------------------------------

class TruncatedSeries:
    """Power series in s up to a fixed order; coefficients are s-free polynomials."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        for c in coeffs:
            if "s" in c.variables_used():
                raise ValueError("series coefficients must be free of s")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_poly(cls, p: MultiPoly, order: int) -> "TruncatedSeries":
        split = p.coeffs_in("s")
        return cls([split.get(m, MultiPoly.zero()) for m in range(order + 1)], order)

    def coeff(self, m: int) -> MultiPoly:
        return self.coeffs[m]

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if isinstance(other, MultiPoly):
            return TruncatedSeries.from_poly(other, self.order)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[m] + other.coeffs[m] for m in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        out = [MultiPoly.zero() for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, n)

    __rmul__ = __mul__

    def differentiate(self) -> "TruncatedSeries":
        """d/ds; the order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(
            [(m + 1) * self.coeffs[m + 1] for m in range(self.order)],
            self.order - 1)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[:order + 1], order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        return " , ".join(f"s^{m}: {c}" for m, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, [{self}])"


def series_expand_rational(num: MultiPoly, den: MultiPoly, order: int) -> TruncatedSeries:
    """Expand num/den as a power series in s via the convolution recurrence.

    The denominator's s-constant term must be nonzero; each coefficient is
    obtained by an exact division, so non-polynomial quotients fail loudly.
    """
    num_c = num.coeffs_in("s")
    den_c = den.coeffs_in("s")
    d0 = den_c.get(0, MultiPoly.zero())
    if d0.is_zero():
        raise ValueError("denominator has zero constant term in s")
    coeffs = []
    for m in range(order + 1):
        acc = num_c.get(m, MultiPoly.zero())
        for k in range(1, m + 1):
            dk = den_c.get(k)
            if dk is not None:
                acc = acc - dk * coeffs[m - k]
        coeffs.append(acc.exact_div(d0))
    return TruncatedSeries(coeffs, order)


def series_pow_symbolic(base_num: MultiPoly, base_den: MultiPoly, order: int) -> TruncatedSeries:
    """Expand ((1 + a*s)/(1 - b*s))**u with a, b polynomials in u free of s.

    Uses the binomial series with symbolic exponent: (1+a*s)^u expands with
    binom_poly(u, k) and (1-b*s)^(-u) with binom_poly(u+k-1, k).
    """
    u = MultiPoly.variable("u")

    def linear_coeff(p, sign):
        split = p.coeffs_in("s")
        if set(split) - {0, 1} or split.get(0, MultiPoly.zero()) != 1:
            raise ValueError("base must have the shape (1 + a*s)/(1 - b*s)")
        c = split.get(1, MultiPoly.zero()) * sign
        if "s" in c.variables_used():
            raise ValueError("base must have the shape (1 + a*s)/(1 - b*s)")
        return c

    alpha = linear_coeff(base_num, 1)
    beta = linear_coeff(base_den, -1)

    top = [binom_poly(u, k) * alpha ** k for k in range(order + 1)]
    bot = [binom_poly(u + k - 1, k) * beta ** k for k in range(order + 1)]
    return TruncatedSeries(top, order) * TruncatedSeries(bot, order)


# -- Laurent expansion in v --------------------------------------------------

class LaurentSeries:
    """Finite window of a Laurent series in v, exact coefficients.

    Stores coefficients for v^min_degree .. v^order; zero coefficients are
    trimmed from the low end (min_degree points at the first nonzero one,
    or 0 for an identically-zero window).
    """

    __slots__ = ("min_degree", "coeffs", "order")

    def __init__(self, min_degree: int, coeffs, order: int | None = None):
        coeffs = [_frac(c) for c in coeffs]
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            min_degree += 1
        if not coeffs:
            min_degree = 0
            coeffs = [Fraction(0)]
        self.min_degree = min_degree
        self.coeffs = coeffs
        self.order = order if order is not None else min_degree + len(coeffs) - 1

    def coefficient(self, j: int) -> Fraction:
        if self.min_degree <= j < self.min_degree + len(self.coeffs):
            return self.coeffs[j - self.min_degree]
        return Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.min_degree == other.min_degree
                and self.coeffs == other.coeffs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                j = self.min_degree + i
                mono = "1" if j == 0 else ("v" if j == 1 else f"v^{j}")
                parts.append(f"{c}*{mono}" if j else str(c))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LaurentSeries({self})"


def laplace_laurent(p: MultiPoly, order: int) -> LaurentSeries:
    """Expand a polynomial in E, V as a Laurent series in v.

    Substitutes E -> exp(-v) and V -> 1/v; the coefficient of v^j from a
    monomial c*V^a*E^b is c*(-b)^(j+a)/(j+a)!, which is exact term by term
    (no working-precision truncation is involved).
    """
    extra = p.variables_used() - {"E", "V"}
    if extra:
        raise ValueError(f"expected a polynomial in E and V only, found {sorted(extra)}")
    iE, iV = _VAR_INDEX["E"], _VAR_INDEX["V"]
    max_v = max((e[iV] for e in p.terms), default=0)
    low = -max_v
    coeffs = []
    for j in range(low, order + 1):
        acc = Fraction(0)
        for exps, c in p.terms.items():
            a, b = exps[iV], exps[iE]
            k = j + a
            if k >= 0:
                acc += c * Fraction((-b) ** k, factorial(k))
        coeffs.append(acc)
    return LaurentSeries(low, coeffs, order)


# -- exact Lagrange interpolation ---------------------------------------------

def lagrange_interpolate(samples, degree: int | None = None, var: str = "u") -> MultiPoly:
    """Interpolating polynomial through exact (x, y) samples.

    With an explicit degree bound, the first degree+1 samples determine the
    polynomial and every remaining sample is replayed as a consistency check;
    a mismatch raises InterpolationError (it signals a degree-bound bug in
    the caller, not bad luck).
    """
    pts = [(_frac(x), _frac(y)) for x, y in samples]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("sample abscissae must be distinct")
    if degree is None:
        degree = len(pts) - 1
    if len(pts) < degree + 1:
        raise ValueError("need at least degree+1 samples")

    base = pts[:degree + 1]
    x_var = MultiPoly.variable(var)
    poly = MultiPoly.zero()
    for i, (xi, yi) in enumerate(base):
        if not yi:
            continue
        term = MultiPoly.const(yi)
        for j, (xj, _) in enumerate(base):
            if j != i:
                term = term * (x_var - xj) * Fraction(1, xi - xj)
        poly = poly + term

    for x, y in pts[degree + 1:]:
        if poly.subs({var: x}).constant_value() != y:
            raise InterpolationError(
                f"sample at {var}={x} is inconsistent with degree bound {degree}")
    return poly
