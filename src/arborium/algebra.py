"""Exact arithmetic kernel.

Sparse multivariate polynomials over the rationals in the fixed variable
set (u, X, Y, E, V, s), with products and division by a nonzero constant;
truncated power series in s as plain coefficient lists with one truncated
product (series_mul) and the expansion of a quotient whose denominator has
a nonzero constant s^0 coefficient; Laurent expansions in v as {degree:
coefficient} dicts (v is only a key there, not a variable);
symbolic-exponent binomials and the power ((1 + alpha*s)/(1 - beta*s))^u
given by alpha and beta; and exact interpolation in u at consecutive
integers.  No floating point anywhere; equality is literal.

A MultiPoly packs each monomial into one int key: the total degree in the
top field, then one _FIELD_BITS-wide field per variable in VARIABLES
order.  Adding keys multiplies monomials, and numeric key order is the
graded-lex order of the canonical text (total degree first, ties by the
exponent tuple).  Coefficients are integer numerators over one positive
common denominator that shares no factor with all of them, so equal
polynomials have equal representations.  Every total degree stays below
DEGREE_LIMIT, which keeps each field in range; a product that would reach
it raises OverflowError.  Other modules read terms through poly_numerators
(integer numerators over the one denominator) or its Fraction view
poly_counts, and write them through poly_from_counts; poly_to_terms writes
the CLI's JSON term list, which nothing reads back, and the terms view is
for tests and tools.

Newton interpolation, the Laurent window and census polynomials from int
counts work on these integer numerators over one denominator as well: they
build no Fraction per term and no intermediate MultiPoly, and canonicalise
once at the end.  poly_from_counts packs only the named fields of each key.

Series of non-negative int counts, such as a lattice-point census, can skip
the polynomials altogether: Kronecker packs such a list into one int with a
fixed-width field per entry, so a truncated product is one int product and
one mask, valid while every kept entry stays within the count bound that
sets the width.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import index

VARIABLES = ("u", "X", "Y", "E", "V", "s")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)

_FIELD_BITS = 16
_MASK = (1 << _FIELD_BITS) - 1
_DEG_SHIFT = _FIELD_BITS * _NVARS
_SHIFTS = tuple(_FIELD_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
DEGREE_LIMIT = 1 << _FIELD_BITS
_KEY_LIMIT = DEGREE_LIMIT << _DEG_SHIFT  # smallest key of total degree DEGREE_LIMIT


class ExactDivisionError(ArithmeticError):
    """A result would need a negative exponent (invariants.m_from_k raises it)."""


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


class MultiPoly:
    """Sparse polynomial in u, X, Y, E, V, s with rational coefficients.

    Stored as {packed monomial key: integer numerator} over one common
    denominator (see the module docstring).  Instances are immutable;
    every operation returns a new polynomial.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms=None):
        p = poly_from_counts(terms or {}, *VARIABLES)
        self._nums, self._den = p._nums, p._den

    # perfbench/tracing.py counts a product's term pairs by len(p.terms), so
    # the view stays although library code reads terms through poly_counts.
    terms = property(_Terms, doc="Read-only {exponent tuple: Fraction} view of the terms, "
                                 "for tests and tools; library code uses poly_counts.")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _new({}, 1)

    @classmethod
    def const(cls, value) -> "MultiPoly":
        if type(value) is int:
            return _new({0: value} if value else {}, 1)
        c = _frac(value)
        return _new({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return _new({(1 << _DEG_SHIFT) | (1 << _SHIFTS[_VAR_INDEX[name]]): 1}, 1)

    # -- ring operations --------------------------------------------------

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
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
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

    # -- division by a constant and substitution ---------------------------

    def exact_div(self, divisor) -> "MultiPoly":
        """Quotient self / divisor, for a divisor that is an int, a Fraction or
        a constant MultiPoly.

        Raises TypeError for any other value, ValueError for a polynomial
        that is not constant and ZeroDivisionError for zero.
        """
        d = divisor if isinstance(divisor, MultiPoly) else MultiPoly.const(divisor)
        if d._nums.keys() - {0}:
            raise ValueError(f"divisor ({divisor}) is not a constant")
        if not d._nums:
            raise ZeroDivisionError("polynomial division by zero")
        num = d._nums[0]
        return self._scale(d._den * (-1 if num < 0 else 1), abs(num))

    def subs(self, mapping) -> "MultiPoly":
        """Simultaneous substitution of variables by exact rationals.

        A value p/q at exponent e contributes p^e * q^(top - e) to the
        numerator, with top the variable's largest exponent, and q^top to
        the common denominator.
        """
        for img in mapping.values():
            if not isinstance(img, (int, Fraction)):
                raise TypeError("substitution images must be exact rationals")
        den = self._den
        tables = []
        for name, value in mapping.items():
            shift = _SHIFTS[_VAR_INDEX[name]]
            top = self.degree(name)
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


def poly_from_counts(counts, *names) -> MultiPoly:
    """Census polynomial: the sum of c * name_1^e_1 * ... over {key: c}.

    A key is one exponent when one variable is named, else a tuple with one
    exponent per name; a count is an int or a Fraction, and zero counts are
    dropped.  When every count is an int they are the numerators over
    denominator 1 as they stand; otherwise each becomes a Fraction and they
    go over the lcm of the denominators.  Only the named fields of a key are
    packed: a negative exponent raises ValueError and a total degree of
    DEGREE_LIMIT or more raises OverflowError, as MultiPoly keys require.
    poly_counts is the inverse.
    """
    shifts = [_SHIFTS[_VAR_INDEX[name]] for name in names]
    single = len(shifts) == 1
    nums = {}
    rational = False
    for key, c in counts.items():
        exps = (key,) if single else key
        packed = total = 0
        for shift, e in zip(shifts, exps, strict=True):
            e = index(e)
            if e < 0:
                raise ValueError(f"negative exponent in {_exponent_tuple(names, exps)}")
            packed += e << shift
            total += e
        if total >= DEGREE_LIMIT:
            raise OverflowError(f"total degree {total} reaches the limit {DEGREE_LIMIT}")
        if type(c) is not int:
            c = _frac(c)
            rational = True
        nums[(total << _DEG_SHIFT) | packed] = c
    if rational:
        return _from_fractions(nums)
    return _new({k: c for k, c in nums.items() if c}, 1)


def _exponent_tuple(names, exps) -> tuple:
    """The full exponent tuple of a key, for error messages."""
    full = [0] * _NVARS
    for name, e in zip(names, exps):
        full[_VAR_INDEX[name]] = e
    return tuple(full)


def _check_variables(p: MultiPoly, names) -> None:
    extra = p.variables_used() - set(names)
    if extra:
        raise ValueError(f"expected a polynomial in {', '.join(names)}, found {sorted(extra)}")


def poly_numerators(p: MultiPoly, *names) -> tuple:
    """The terms of p as ({key: int numerator}, den) over p's one positive
    denominator den, keyed as poly_from_counts reads them; the zero
    polynomial gives ({}, 1).

    Raises ValueError if p uses a variable that is not named.
    """
    _check_variables(p, names)
    shifts = [_SHIFTS[_VAR_INDEX[name]] for name in names]
    if len(shifts) == 1:
        shift, = shifts
        return {(key >> shift) & _MASK: c for key, c in p._nums.items()}, p._den
    return {tuple((key >> shift) & _MASK for shift in shifts): c
            for key, c in p._nums.items()}, p._den


def poly_counts(p: MultiPoly, *names) -> dict:
    """The terms of p as {key: Fraction}: the Fraction view of poly_numerators.

    Raises ValueError if p uses a variable that is not named.
    """
    nums, den = poly_numerators(p, *names)
    return {key: Fraction(c, den) for key, c in nums.items()}


# -- JSON term list (CLI output) -------------------------------------------

def poly_to_terms(p: MultiPoly) -> list:
    """Canonical monomial list: [{"coeff": "p/q", "monomial": {var: exp}}]."""
    out = []
    for key in sorted(p._nums):
        mono = {name: e for name, e in zip(VARIABLES, _unpack(key)) if e}
        out.append({"coeff": str(Fraction(p._nums[key], p._den)), "monomial": mono})
    return out


# -- binomials --------------------------------------------------------------

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


class Kronecker:
    """Truncated products of series of non-negative int counts as int products.

    Kronecker substitution (see von zur Gathen and Gerhard, Modern Computer
    Algebra): the count list [c_0, c_1, ...] packs into the one int sum of
    c_i * 2^(i*w), so the series_mul of two lists is one int product cut by
    one mask.  The field width w is the bit length of bound,
    rounded up to whole bytes, so that pack and unpack are one
    int.from_bytes and one int.to_bytes, linear in the length.

    Contract: every count packed, and every entry of a product up to its
    cut, is a non-negative int at most bound.  Then no field below the cut
    carries into the next one, so the cut keeps the exact entries.  The
    entries above the cut may exceed bound, but their carries only move up,
    into fields the cut drops.  pack raises TypeError for a count that is
    not an int and OverflowError for one that is negative or wider than a
    field; a product entry above bound below the cut is not detected.
    """

    __slots__ = ("nbytes", "bits")

    def __init__(self, bound: int):
        if bound < 0:
            raise ValueError("count bound must be >= 0")
        self.nbytes = max(1, (bound.bit_length() + 7) // 8)
        self.bits = 8 * self.nbytes

    def pack(self, counts) -> int:
        """The int whose field i holds counts[i]."""
        nbytes = self.nbytes
        return int.from_bytes(b"".join(index(c).to_bytes(nbytes, "little") for c in counts),
                              "little")

    def mul(self, a: int, b: int, order: int) -> int:
        """Packed product of a and b, cut after entry order, as series_mul."""
        return a * b & ((1 << (order + 1) * self.bits) - 1)

    def unpack(self, packed: int, length: int) -> list:
        """The first length counts of packed; OverflowError if a later field
        is nonzero."""
        nbytes = self.nbytes
        data = packed.to_bytes(length * nbytes, "little")
        return [int.from_bytes(data[i:i + nbytes], "little")
                for i in range(0, len(data), nbytes)]


def series_expand_rational(num: MultiPoly, den: MultiPoly, order: int) -> list:
    """Coefficient list [c_0, ..., c_order] of num/den as a power series in s,
    via the convolution recurrence.

    The denominator's s-constant term must be a nonzero constant, so each
    coefficient is a polynomial divided by that constant; a zero s-constant
    term raises ValueError, and so does one that is not constant.
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


def series_pow_symbolic(alpha: MultiPoly, beta: MultiPoly, order: int) -> list:
    """Coefficient list up to s^order of ((1 + alpha*s)/(1 - beta*s))**u, for
    alpha and beta polynomials free of s.

    Uses the binomial series with symbolic exponent: (1+alpha*s)^u expands
    with binom_poly(u, k) and (1-beta*s)^(-u) with binom_poly(u+k-1, k).
    """
    u = MultiPoly.variable("u")
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

    The sums run on p's integer numerators over one denominator: with A the
    top V-degree and F = (order + A)!, every k = j + a is at most order + A,
    so c*(-b)^k*(F/k!) is an integer, and the coefficient of v^j is the sum
    of these over F times p's denominator.
    """
    _check_variables(p, ("V", "E"))
    v_shift, e_shift = _SHIFTS[_VAR_INDEX["V"]], _SHIFTS[_VAR_INDEX["E"]]
    terms = [((key >> v_shift) & _MASK, (key >> e_shift) & _MASK, c)
             for key, c in p._nums.items()]
    top = max((a for a, _, _ in terms), default=0)
    width = order + top + 1  # entry i of sums is the numerator of v^(i - top)
    if width <= 0:
        return {}
    weights = [1] * width  # weights[k] = F/k!
    for k in range(width - 1, 0, -1):
        weights[k - 1] = weights[k] * k
    sums = [0] * width
    for a, b, c in terms:
        low = top - a  # the entry of v^(-a), where k = 0
        for i in range(low, width if b else min(low + 1, width)):  # E^0 ends at k = 0
            sums[i] += c * weights[i - low]
            c *= -b
    den = p._den * weights[0]
    return {i - top: Fraction(num, den) for i, num in enumerate(sums) if num}


# -- exact interpolation at consecutive integers -------------------------------

def _numerators(y) -> tuple:
    """({key: numerator}, denominator) of a polynomial, Fraction or int."""
    if isinstance(y, MultiPoly):
        return y._nums, y._den
    if type(y) is not int:
        y = _frac(y)
    return ({0: y.numerator} if y else {}), y.denominator


def lagrange_interpolate(samples, degree: int | None = None) -> MultiPoly:
    """Interpolating polynomial in u through (x, y) samples at consecutive
    integers x_0, x_0 + 1, ...

    Newton's forward differences: p = sum_k D^k y_0 * C(u - x_0, k).  The
    values y are exact rationals or polynomials free of u.  With an
    explicit degree bound, every difference above the bound must vanish; a
    nonzero one raises InterpolationError (it signals a degree-bound bug in
    the caller, not bad luck).

    Everything runs on integer numerators over one denominator.  The samples
    go over D, the lcm of their denominators, and each monomial's column of
    numerators is differenced on its own; the first nonzero difference above
    the bound, over all monomials, names the sample.  C(u - x_0, k) is
    f_k/k!, with f_k = (u - x_0)...(u - x_0 - k + 1) a polynomial with
    integer coefficients, so p is the integer sum of
    D^k y_0 * (degree!/k!) * f_k over D * degree!.
    """
    samples = list(samples)
    xs = [x for x, _ in samples]
    if not (xs and all(isinstance(x, int) for x in xs)
            and xs == list(range(xs[0], xs[0] + len(xs)))):
        raise ValueError("need one or more samples at consecutive integers")
    if degree is None:
        degree = len(xs) - 1
    if degree < 0:
        raise ValueError("degree bound must be non-negative")
    if len(xs) < degree + 1:
        raise ValueError("need at least degree+1 samples")
    rows = [_numerators(y) for _, y in samples]
    shift = _SHIFTS[_VAR_INDEX["u"]]
    if any((key >> shift) & _MASK for nums, _ in rows for key in nums):
        raise ValueError("sample values must be free of u")
    if degree >= DEGREE_LIMIT:
        raise OverflowError(f"product degree reaches the limit {DEGREE_LIMIT}")

    den = lcm(*(d for _, d in rows))
    columns: dict = {}
    for i, (nums, d) in enumerate(rows):
        scale = den // d
        for key, c in nums.items():
            columns.setdefault(key, [0] * len(rows))[i] = c * scale

    newton = []  # (key, [D^0 y_0, ..., D^degree y_0]) on the numerators
    bad = len(rows)  # index of the first nonzero leftover difference, over all keys
    for key, ys in columns.items():
        diffs = []
        for _ in range(degree + 1):
            diffs.append(ys[0])
            ys = [b - a for a, b in zip(ys, ys[1:])]
        if any(diffs[DEGREE_LIMIT - (key >> _DEG_SHIFT):]):  # key * u^k for such k overflows
            raise OverflowError(f"product degree reaches the limit {DEGREE_LIMIT}")
        bad = next((i for i, d in enumerate(ys[:bad]) if d), bad)
        newton.append((key, diffs))
    if bad < len(rows):
        raise InterpolationError(f"sample at u={xs[degree + 1 + bad]} "
                                 f"is inconsistent with degree bound {degree}")

    weights = [1] * (degree + 1)  # weights[k] = degree!/k!
    for k in range(degree, 0, -1):
        weights[k - 1] = weights[k] * k
    unit = (1 << _DEG_SHIFT) | (1 << shift)
    falling = [1]  # coefficients of f_k in u, lowest first
    basis = []  # per k: (key offset, coefficient) of the nonzero terms of (degree!/k!) * f_k
    for k, w in enumerate(weights):
        if k:
            r = xs[0] + k - 1
            falling = [a - r * b for a, b in zip([0] + falling, falling + [0])]
        basis.append([(e * unit, a * w) for e, a in enumerate(falling) if a])
    nums: dict = {}
    get = nums.get
    for key, diffs in newton:
        for d, terms in zip(diffs, basis):
            if d:
                for offset, a in terms:
                    k = key + offset
                    nums[k] = get(k, 0) + d * a
    return _reduced({k: c for k, c in nums.items() if c}, den * weights[0])
