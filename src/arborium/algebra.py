"""Exact arithmetic kernel.

Sparse multivariate polynomials over the rationals in the fixed variable
set (u, X, Y, E, V, s, v), truncated power series in s as plain
coefficient lists with one truncated product (series_mul), Laurent
expansions in v as {degree: coefficient} dicts, symbolic-exponent
binomials, and exact Lagrange interpolation.  No floating point anywhere;
equality is literal.

A MultiPoly packs each monomial into one int key: the total degree in the
top field, then one _FIELD_BITS-wide field per variable in VARIABLES
order.  Adding keys multiplies monomials, and numeric key order is the
graded-lex order of the canonical text (total degree first, ties by the
exponent tuple).  Coefficients are integer numerators over one positive
common denominator that shares no factor with all of them, so equal
polynomials have equal representations.  Every total degree stays below
DEGREE_LIMIT, which keeps each field in range; a product that would reach
it raises OverflowError.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import index

VARIABLES = ("u", "X", "Y", "E", "V", "s", "v")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)

_FIELD_BITS = 16
_MASK = (1 << _FIELD_BITS) - 1
_DEG_SHIFT = _FIELD_BITS * _NVARS
_SHIFTS = tuple(_FIELD_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
DEGREE_LIMIT = 1 << _FIELD_BITS
_KEY_LIMIT = DEGREE_LIMIT << _DEG_SHIFT  # smallest key of total degree DEGREE_LIMIT


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


def _pack(exps) -> int:
    """Key of the monomial with exponent tuple exps (one slot per variable)."""
    exps = tuple(exps)
    if len(exps) != _NVARS:
        raise ValueError(f"expected {_NVARS} exponents, got {len(exps)}")
    key = total = 0
    for e in exps:
        e = index(e)
        if e < 0:
            raise ValueError(f"negative exponent in {exps}")
        key = (key << _FIELD_BITS) | e
        total += e
    if total >= DEGREE_LIMIT:
        raise OverflowError(f"total degree {total} reaches the limit {DEGREE_LIMIT}")
    return (total << _DEG_SHIFT) | key


def _unpack(key: int) -> tuple:
    return tuple((key >> shift) & _MASK for shift in _SHIFTS)


def _new(nums: dict, den: int) -> "MultiPoly":
    """Wrap numerators already in canonical form: nonzero, over den > 0, reduced."""
    p = object.__new__(MultiPoly)
    p._nums = nums
    p._den = den
    return p


def _reduced(nums: dict, den: int) -> "MultiPoly":
    """Canonical form of nums / den, for nonzero numerators and den > 0."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    return _new(nums, den)


def _from_fractions(coeffs: dict) -> "MultiPoly":
    """Canonical polynomial from {key: exact rational}, zero entries dropped."""
    coeffs = {k: c for k, c in coeffs.items() if c}
    den = lcm(*(c.denominator for c in coeffs.values()))
    return _reduced({k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den)


class _TermItems(ItemsView):
    def __iter__(self):
        p = self._mapping._poly
        den = p._den
        for key, num in p._nums.items():
            yield _unpack(key), Fraction(num, den)


class _Terms(Mapping):
    """Read-only view {exponent tuple: Fraction} of a polynomial's terms."""

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def __len__(self):
        return len(self._poly._nums)

    def __iter__(self):
        return map(_unpack, self._poly._nums)

    def __getitem__(self, exps):
        try:
            key = _pack(exps)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(exps) from None
        return Fraction(self._poly._nums[key], self._poly._den)

    def items(self):
        return _TermItems(self)


class MultiPoly:
    """Sparse polynomial in u, X, Y, E, V, s, v with rational coefficients.

    Stored as {packed monomial key: integer numerator} over one common
    denominator (see the module docstring); ``terms`` is a read-only
    {exponent tuple: Fraction} view of the same terms.  Instances are
    immutable; every operation returns a new polynomial.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms=None):
        coeffs = {}
        if terms:
            for exps, coeff in terms.items():
                c = _frac(coeff)
                if c:
                    coeffs[_pack(exps)] = c
        p = _from_fractions(coeffs)
        self._nums = p._nums
        self._den = p._den

    terms = property(_Terms, doc="Read-only {exponent tuple: Fraction} view of the terms.")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _new({}, 1)

    @classmethod
    def const(cls, value) -> "MultiPoly":
        c = _frac(value)
        return _new({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return _new({(1 << _DEG_SHIFT) | (1 << _SHIFTS[_VAR_INDEX[name]]): 1}, 1)

    @classmethod
    def monomial(cls, exps, coeff=1) -> "MultiPoly":
        key = _pack(exps)
        c = _frac(coeff)
        return _new({key: c.numerator} if c else {}, c.denominator)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def _scale(self, num: int, den: int) -> "MultiPoly":
        """self * num/den for a reduced fraction with den > 0."""
        nums = self._nums
        if not num or not nums:
            return _new({}, 1)
        g = gcd(num, self._den)
        num //= g
        if den != 1:  # the numerators' content may cancel part of den
            h = gcd(den, *nums.values())
            if h != 1:
                den //= h
                nums = {k: c // h for k, c in nums.items()}
        return _new({k: c * num for k, c in nums.items()}, den * (self._den // g))

    def _add(self, other, sign: int):
        """self + sign*other for other a MultiPoly, int or Fraction."""
        if type(other) is not MultiPoly:
            if isinstance(other, int):
                if not other:
                    return self
                nums = dict(self._nums)
                c = nums.get(0, 0) + sign * other * self._den
                if c:
                    nums[0] = c
                else:
                    del nums[0]
                return _new(nums, self._den)
            if isinstance(other, Fraction):
                other = MultiPoly.const(other)
            elif not isinstance(other, MultiPoly):
                return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other if sign == 1 else -other
        da, db = self._den, other._den
        if da == db:
            nums = dict(self._nums)
            scale = sign
        else:
            den = lcm(da, db)
            m = den // da
            nums = {k: c * m for k, c in self._nums.items()}
            scale = sign * (den // db)
            da = den
        get = nums.get
        for k, c in other._nums.items():
            c = get(k, 0) + c * scale
            if c:
                nums[k] = c
            else:
                del nums[k]
        return _reduced(nums, da)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new({k: -c for k, c in self._nums.items()}, self._den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __mul__(self, other):
        if type(other) is not MultiPoly:
            if isinstance(other, int):
                return self._scale(other, 1)
            if isinstance(other, Fraction):
                return self._scale(other.numerator, other.denominator)
            if not isinstance(other, MultiPoly):
                return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return _new({}, 1)
        if max(a) + max(b) >= _KEY_LIMIT:
            raise OverflowError(f"product degree reaches the limit {DEGREE_LIMIT}")
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (k1, c1), = a.items()
            nums = {k1 + k2: c1 * c2 for k2, c2 in b.items()}
        else:
            nums = {}
            get = nums.get
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    k = k1 + k2
                    nums[k] = get(k, 0) + c1 * c2
            nums = {k: c for k, c in nums.items() if c}
        return _reduced(nums, self._den * other._den)

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
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((frozenset(self._nums.items()), self._den))

    def is_zero(self) -> bool:
        return not self._nums

    # -- structure --------------------------------------------------------

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable; 0 for the zero polynomial."""
        if not self._nums:
            return 0
        if var is None:
            return max(self._nums) >> _DEG_SHIFT
        shift = _SHIFTS[_VAR_INDEX[var]]
        return max((k >> shift) & _MASK for k in self._nums)

    def variables_used(self):
        present = 0
        for key in self._nums:
            present |= key
        return {name for name, shift in zip(VARIABLES, _SHIFTS) if (present >> shift) & _MASK}

    def coeffs_in(self, var: str) -> dict:
        """Split into {exponent of var: polynomial free of var}."""
        shift = _SHIFTS[_VAR_INDEX[var]]
        unit = (1 << _DEG_SHIFT) | (1 << shift)
        buckets: dict[int, dict] = {}
        for k, c in self._nums.items():
            e = (k >> shift) & _MASK
            buckets.setdefault(e, {})[k - e * unit] = c
        return {e: _reduced(nums, self._den) for e, nums in buckets.items()}

    def coefficient(self, var: str, k: int) -> "MultiPoly":
        return self.coeffs_in(var).get(k, MultiPoly.zero())

    def constant_value(self) -> Fraction:
        if not self._nums:
            return Fraction(0)
        if len(self._nums) == 1 and 0 in self._nums:
            return Fraction(self._nums[0], self._den)
        raise ValueError(f"polynomial is not constant: {self}")

    # -- division and substitution ----------------------------------------

    def exact_div(self, divisor) -> "MultiPoly":
        """Exact quotient self / divisor; raises ExactDivisionError on remainder.

        Long division on the integer numerators: the remainder is rem / scale,
        and each step multiplies it through by what the divisor's leading
        coefficient leaves after cancelling with the remainder's.
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = divisor._nums
        if len(b) == 1 and 0 in b:  # a constant: scale by its inverse
            num = b[0]
            return self._scale(divisor._den * (-1 if num < 0 else 1), abs(num))
        d_key = max(b)
        lead = b[d_key]
        d_exps = _unpack(d_key)
        rem = dict(self._nums)
        scale = 1
        quotient: dict = {}
        while rem:
            r_key = max(rem)
            r_coeff = rem[r_key]
            if any(r < d for r, d in zip(_unpack(r_key), d_exps)):
                raise ExactDivisionError(f"({self}) is not divisible by ({divisor})")
            q_key = r_key - d_key
            g = gcd(r_coeff, lead)
            mult, q_num = lead // g, r_coeff // g
            quotient[q_key] = Fraction(q_num, mult * scale)
            if mult != 1:
                rem = {k: c * mult for k, c in rem.items()}
                scale *= mult
            get = rem.get
            for k, c in b.items():
                k += q_key
                c = get(k, 0) - q_num * c
                if c:
                    rem[k] = c
                else:
                    del rem[k]
        q = _from_fractions(quotient)
        return q._scale(divisor._den, 1)._scale(1, self._den) if q._nums else q

    def subs(self, mapping) -> "MultiPoly":
        """Simultaneous substitution of variables by polynomials or exact rationals."""
        numbers, polys = {}, {}
        for name, img in mapping.items():
            i = _VAR_INDEX[name]
            if isinstance(img, (int, Fraction)):
                numbers[i] = Fraction(img)
            elif isinstance(img, MultiPoly):
                polys[i] = img
            else:
                raise TypeError("substitution images must be polynomials or exact rationals")
        p = self._subs_numbers(numbers) if numbers else self
        if not polys:
            return p
        powers = {i: [MultiPoly.const(1)] for i in polys}
        parts = []
        for key, num in p._nums.items():
            factors = []
            for i, img in polys.items():
                shift = _SHIFTS[i]
                e = (key >> shift) & _MASK
                if e:
                    key -= e * ((1 << _DEG_SHIFT) | (1 << shift))
                    cache = powers[i]
                    while len(cache) <= e:
                        cache.append(cache[-1] * img)
                    factors.append(cache[e])
            term = _new({key: num}, 1)
            for factor in factors:
                term = term * factor
            parts.append(term)
        return sum(parts, MultiPoly.zero())._scale(1, p._den)

    def _subs_numbers(self, values: dict) -> "MultiPoly":
        """Substitute exact rationals {variable index: value}, on the packed keys.

        A value p/q at exponent e contributes p^e * q^(top - e) to the
        numerator, with top the variable's largest exponent, and q^top to
        the common denominator.
        """
        den = self._den
        tables = []
        for i, value in values.items():
            shift = _SHIFTS[i]
            top = self.degree(VARIABLES[i])
            p, q = value.numerator, value.denominator
            factors = [p ** e * q ** (top - e) for e in range(top + 1)]
            tables.append((shift, (1 << _DEG_SHIFT) | (1 << shift), factors))
            den *= q ** top
        nums: dict = {}
        get = nums.get
        for key, c in self._nums.items():
            for shift, unit, factors in tables:
                e = (key >> shift) & _MASK
                if e:
                    key -= e * unit
                c *= factors[e]
            nums[key] = get(key, 0) + c
        return _reduced({k: c for k, c in nums.items() if c}, den)

    # -- canonical text ----------------------------------------------------

    def __str__(self):
        if not self._nums:
            return "0"
        den = self._den
        parts = []
        for key in sorted(self._nums):
            num = self._nums[key]
            g = gcd(num, den)
            mag = str(abs(num) // g) if g == den else f"{abs(num) // g}/{den // g}"
            factors = _monomial_text(key)
            if not factors:
                body = mag
            elif mag == "1":
                body = factors
            else:
                body = mag + "*" + factors
            parts.append(f" - {body}" if num < 0 else f" + {body}")
        first = parts[0]
        return ("-" if first[1] == "-" else "") + first[3:] + "".join(parts[1:])

    def __repr__(self):
        return f"MultiPoly({self})"


def _monomial_text(key: int) -> str:
    return "*".join(f"{name}^{e}" if e > 1 else name
                    for name, e in zip(VARIABLES, _unpack(key)) if e)


def gens() -> tuple:
    """The seven generators (u, X, Y, E, V, s, v), in canonical order."""
    return tuple(MultiPoly.variable(name) for name in VARIABLES)


# -- JSON-friendly term lists (CLI interchange) ----------------------------

def poly_to_terms(p: MultiPoly) -> list:
    """Canonical monomial list: [{"coeff": "p/q", "monomial": {var: exp}}]."""
    out = []
    for key in sorted(p._nums):
        mono = {name: e for name, e in zip(VARIABLES, _unpack(key)) if e}
        out.append({"coeff": str(Fraction(p._nums[key], p._den)), "monomial": mono})
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

def series_mul(a, b, order: int) -> list:
    """Product of the coefficient lists a and b, cut after s^order.

    Entry m is the sum of a[i] * b[m - i]; a shorter list stands for zeros
    beyond its end.  Entries may be polynomials or exact numbers, and an
    entry no product reaches stays the integer 0.
    """
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        for j, y in enumerate(b[:order + 1 - i], i):
            out[j] += x * y
    return out


def series_expand_rational(num: MultiPoly, den: MultiPoly, order: int) -> list:
    """Coefficient list [c_0, ..., c_order] of num/den as a power series in s,
    via the convolution recurrence.

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
    return coeffs


def series_pow_symbolic(base_num: MultiPoly, base_den: MultiPoly, order: int) -> list:
    """Coefficient list up to s^order of ((1 + a*s)/(1 - b*s))**u, with a, b
    polynomials in u free of s.

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
    return series_mul(top, bot, order)


# -- Laurent expansion in v --------------------------------------------------

def laplace_laurent(p: MultiPoly, order: int) -> dict:
    """Expand a polynomial in E, V as a Laurent series in v, up to v^order.

    Returns {j: coefficient of v^j} for the nonzero coefficients only, so
    the smallest key is the Laurent degree.  Substitutes E -> exp(-v) and
    V -> 1/v; the coefficient of v^j from a monomial c*V^a*E^b is
    c*(-b)^(j+a)/(j+a)!, which is exact term by term (no working-precision
    truncation is involved).
    """
    extra = p.variables_used() - {"E", "V"}
    if extra:
        raise ValueError(f"expected a polynomial in E and V only, found {sorted(extra)}")
    iE, iV = _VAR_INDEX["E"], _VAR_INDEX["V"]
    terms = [(exps[iV], exps[iE], c) for exps, c in p.terms.items()]
    low = -max((a for a, _, _ in terms), default=0)
    out = {}
    for j in range(low, order + 1):
        acc = Fraction(0)
        for a, b, c in terms:
            k = j + a
            if k >= 0:
                acc += c * Fraction((-b) ** k, factorial(k))
        if acc:
            out[j] = acc
    return out


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
