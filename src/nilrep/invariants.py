"""Exact graded invariant theory for Weyl group actions.

The graded trace of a Weyl element w on the cohomology of a torus power
T^r (generators in degree 1) is det(I + t*w)^r; on the coinvariant-
algebra model of G/T (generators in degree 2) it is

    prod_i (1 - t^(2*d_i)) / det(I - t^2 * w),

a division that is exact because the coinvariant algebra is finite
dimensional.  Numerator and denominator are series in u = t^2, so the
quotient is divided in u and then spread onto the even degrees.  Both
traces depend on w only through det(I + t*w), so the Molien averages
giving the invariant dimensions degree by degree run over the classes
of Weyl elements with equal det(I + t*w), weighted by class size.
A product's Weyl group is the product of its factors', acting block-
diagonally, so (Kuenneth) both Poincare polynomials of a product are the
products of its factors' polynomials, each averaged over the factor's
own classes.  A factor's classes and the coinvariant quotient of each
class depend on the factor alone, not on r, so each catalog factor is
reduced once per process; a Molien sum then only raises each class's
det(I + t*w) to the r-th power.  Those classes need no enumeration of
W and depend on the factor only through its Cartan type: for types A-D
they are (signed) cycle types with closed-form sizes and characteristic
polynomials (Carter, "Conjugacy classes in the Weyl group", 1972), for
G2 and F4 they are literal tables, and a central torus multiplies each
by (1 + t) per dimension.

A factor's Molien sum, sum over classes of k * q * det(I + t*w)^r with
k the class size and q its coinvariant quotient (1 for the character
variety), is taken over the integers: t -> 2^shift is a ring map Z[t] -> Z, so each
class costs one integer power and one product.  No coefficient of the
sum exceeds B = sum k * |q|_1 * |det(I + t*w)|_1^r (|.|_1 the sum of the
absolute values of the coefficients) in absolute value, so with
2^(shift-1) > B the balanced base-2^shift digits of the integer sum are
its coefficients.

No Molien sum enumerates a Weyl group; only the referees do (the
projector oracle at the end, given rootdata.enumerate_weyl, and the
tests).  All arithmetic is integer or rational and exact; summation
order can never change a result.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations
from math import factorial, prod

from .errors import InexactDivision, NilrepError, TooLarge
from .groups import OUTPUT_BOUND
from .record import record
# re-exported: perfbench/spans.py traces the referees' Weyl enumeration
# as nilrep.invariants.enumerate_weyl
from .rootdata import Factor, RootDatum, enumerate_weyl  # noqa: F401
from .snf import int_det

# (coefficients of det(I + t*w), number of Weyl elements w) pairs
Classes = tuple[tuple[tuple[int, ...], int], ...]


# ---------------------------------------------------------------------------
# dense integer polynomials in one grading variable


@record
class GradedPoly:
    """Polynomial in t with integer coefficients; index = degree.

    The coefficient tuple never has trailing zeros, so equality of values
    is equality of tuples.  Construct through poly() which trims.
    """

    coefficients: tuple[int, ...] = ()

    def __post_init__(self):
        if self.coefficients and self.coefficients[-1] == 0:
            raise ValueError("trailing zero coefficient; build via poly()")

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, d: int) -> int:
        if 0 <= d < len(self.coefficients):
            return self.coefficients[d]
        return 0

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return poly(out)

    def __neg__(self):
        return poly([-c for c in self.coefficients])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return poly([other * c for c in self.coefficients])
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        total = 0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def exact_div(self, den: "GradedPoly") -> "GradedPoly":
        """Quotient self / den, raising InexactDivision on any remainder.

        Works from the low end; the divisors used here have constant
        term +-1, so each step is an exact integer division.
        """
        if not den.coefficients:
            raise InexactDivision("division by zero polynomial")
        num = list(self.coefficients)
        d = list(den.coefficients)
        if abs(d[0]) != 1:
            raise InexactDivision("divisor must have unit constant term")
        if not num:
            return ZERO
        if len(num) < len(d):
            raise InexactDivision("degree of divisor exceeds dividend")
        qlen = len(num) - len(d) + 1
        q = [0] * qlen
        for k in range(qlen):
            q[k] = num[k] // d[0]
            for j, dj in enumerate(d):
                num[k + j] -= q[k] * dj
        if any(num):
            raise InexactDivision("polynomial division left a remainder")
        return poly(q)

    def divide_int(self, k: int) -> "GradedPoly":
        if any(c % k for c in self.coefficients):
            raise InexactDivision("coefficients not divisible by %d" % k)
        return poly([c // k for c in self.coefficients])

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                term = "t" if d == 1 else "t^%d" % d
                if c == 1:
                    parts.append(term)
                elif c == -1:
                    parts.append("-" + term)
                else:
                    parts.append("%d%s" % (c, term))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def poly(coeffs) -> GradedPoly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return GradedPoly(tuple(coeffs))


ZERO = GradedPoly(())
ONE = GradedPoly((1,))


# ---------------------------------------------------------------------------
# graded characters of single Weyl elements


def char_coefficients(w) -> list[int]:
    """Coefficients c_k of det(I + t*w): sums of principal k x k minors."""
    n = len(w)
    out = [0] * (n + 1)
    out[0] = 1
    for size in range(1, n + 1):
        for rows in combinations(range(n), size):
            out[size] += int_det([[w[i][j] for j in rows] for i in rows])
    return out


def exterior_char(w, r: int) -> GradedPoly:
    """Graded trace of w on the cohomology of T^r: det(I + t*w)^r."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return poly(char_coefficients(w)) ** r


def coinvariant_char(w, degrees) -> GradedPoly:
    """Graded trace of w on the coinvariant algebra, generators in degree 2.

    Computed as prod_i (1 - t^(2*d_i)) / det(I - t^2 * w); the division is
    exact for every genuine (Weyl element, degrees) pair, so a remainder
    means the caller paired a matrix with the wrong datum.
    """
    return _coinvariant_series(char_coefficients(w),
                               _coinvariant_numerator(degrees))


def _coinvariant_numerator(degrees) -> GradedPoly:
    """prod_i (1 - u^(d_i)) in u = t^2, shared by every Weyl element of a
    datum."""
    num = ONE
    for d in degrees:
        num = num * poly([1] + [0] * (d - 1) + [-1])
    return num


def _coinvariant_series(cs, num: GradedPoly) -> GradedPoly:
    """num / det(I - u*w) in u = t^2, spread onto the even degrees of t,
    from the coefficients cs of det(I + t*w) and num in u: both are series
    in t^2, and det(I - u*w) = sum_k c_k (-u)^k."""
    q = num.exact_div(poly([c if k % 2 == 0 else -c
                            for k, c in enumerate(cs)])).coefficients
    spread = [0] * (2 * len(q) - 1)
    spread[::2] = q
    return poly(spread)


# ---------------------------------------------------------------------------
# classes of det(I + t*w), factor by factor


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _centralizer_order(parts, base: int = 1) -> int:
    """prod_m (base*m)^(a_m) * a_m!, with a_m parts equal to m: z_lambda
    for base 1, and the signed-cycle factor of type B/C for base 2."""
    return prod((base * m) ** a * factorial(a)
                for m, a in Counter(parts).items())


@cache
def _cycles_poly(parts, sign: int) -> GradedPoly:
    """det(I + t*w) for disjoint signed cycles of the given lengths, the
    signs of each cycle multiplying to sign: prod_m (1 - sign * (-t)^m).
    Built once per (partition, sign): type B/C/D pairs each partition with
    every partition of the rest, and WEYL_ORDER_BOUND keeps the partitions
    to those of at most 9."""
    out = ONE
    for m in parts:
        term = [0] * (m + 1)
        term[0], term[m] = 1, -sign * (-1) ** m
        out = out * poly(term)
    return out


# det(I + t*w) over the Weyl groups of G2 (dihedral of order 12) and F4
# (order 1152), bucketed once from rootdata.enumerate_weyl.  Conjugacy
# classes with equal characteristic polynomial share a row, so G2's 6
# classes give 5 rows and F4's 25 give 17 (Carter, "Conjugacy classes in
# the Weyl group", 1972, lists the classes with their characteristic
# polynomials).  The reflections form the row (1 + t)^(l-1) (1 - t), one
# element per positive coroot; tests referee the table against W.
_EXCEPTIONAL_CLASSES: dict[str, Classes] = {
    "G2": (
        ((1, -2, 1), 1), ((1, -1, 1), 2), ((1, 0, -1), 6),
        ((1, 1, 1), 2), ((1, 2, 1), 1),
    ),
    "F4": (
        ((1, -4, 6, -4, 1), 1), ((1, -2, 0, 2, -1), 24),
        ((1, -2, 2, -2, 1), 36), ((1, -2, 3, -2, 1), 16),
        ((1, -1, 0, -1, 1), 64), ((1, -1, 0, 1, -1), 192),
        ((1, 0, -2, 0, 1), 90), ((1, 0, -1, 0, 1), 96),
        ((1, 0, 0, 0, -1), 144), ((1, 0, 0, 0, 1), 144),
        ((1, 0, 2, 0, 1), 12), ((1, 1, 0, -1, -1), 192),
        ((1, 1, 0, 1, 1), 64), ((1, 2, 0, -2, -1), 24),
        ((1, 2, 2, 2, 1), 36), ((1, 2, 3, 2, 1), 16),
        ((1, 4, 6, 4, 1), 1),
    ),
}


@cache
def _factor_classes(f: Factor) -> Classes:
    """(coefficients of det(I + t*w), multiplicity) over the Weyl group of
    one catalog factor, in no particular order.

    The rows come from the factor's Cartan type.  Type A_l: one class per
    partition of l + 1, of size (l + 1)!/z_lambda; the reflection lattice
    drops one trivial summand (1 + t) from the permutation lattice of
    S_(l+1).  Types B/C/D act on Z^l by signed permutations: one class per
    pair (alpha, beta) of partitions of the positive and negative cycle
    lengths, |alpha| + |beta| = l, of size 2^l l!/(z_alpha z_beta); type
    D keeps the pairs with an even number of negative cycles.  G2 and F4
    read _EXCEPTIONAL_CLASSES.  W fixes the central torus, so every class
    gains a factor (1 + t) per central dimension.
    """
    kind, l, central = f.cartan_type()
    classes = Counter()
    if kind is None:
        classes[ONE] = 1
    elif kind in _EXCEPTIONAL_CLASSES:
        classes.update({poly(cs): k for cs, k in _EXCEPTIONAL_CLASSES[kind]})
    elif kind == "A":
        for lam in _partitions(l + 1):
            p = _cycles_poly(lam, 1).exact_div(poly([1, 1]))
            classes[p] += factorial(l + 1) // _centralizer_order(lam)
    else:
        for a in range(l + 1):
            for alpha in _partitions(a):
                for beta in _partitions(l - a):
                    if kind == "D" and len(beta) % 2:
                        continue
                    p = _cycles_poly(alpha, 1) * _cycles_poly(beta, -1)
                    classes[p] += (2 ** l * factorial(l)
                                   // (_centralizer_order(alpha, 2)
                                       * _centralizer_order(beta, 2)))
    torus = poly([1, 1]) ** central
    return tuple(((p * torus).coefficients, size)
                 for p, size in classes.items())


@cache
def _factor_quotients(f: Factor) -> tuple[GradedPoly, ...]:
    """The coinvariant quotient prod_i (1 - t^(2*d_i)) / det(I - t^2*w) of
    each row of _factor_classes(f), in the same order."""
    num = _coinvariant_numerator(f.degrees())
    return tuple(_coinvariant_series(cs, num) for cs, _ in _factor_classes(f))


# ---------------------------------------------------------------------------
# Molien averages, multiplied across the factors


def _pack(coefficients, shift: int) -> int:
    """The value at t = 2^shift of sum_i coefficients[i] * t^i."""
    value = 0
    for c in reversed(coefficients):
        value = (value << shift) + c
    return value


def _unpack(value: int, shift: int) -> GradedPoly:
    """The polynomial whose value at t = 2^shift is value and whose
    coefficients lie in [-2^(shift-1), 2^(shift-1)): the balanced
    base-2^shift digits of value, lowest first."""
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << shift
        digits.append(digit)
        value = (value - digit) >> shift
    return poly(digits)


def _molien_sum(rows, r: int) -> GradedPoly:
    """sum of k * q * (sum_i cs_i t^i)^r over the rows (k, q, cs), q and cs
    coefficient tuples, summed at t = 2^shift with 2^(shift-1) above the
    bound B = sum k * |q|_1 * |cs|_1^r on every coefficient."""
    bound = sum(k * sum(map(abs, q)) * sum(map(abs, cs)) ** r
                for k, q, cs in rows)
    shift = bound.bit_length() + 1
    return _unpack(sum(k * _pack(q, shift) * _pack(cs, shift) ** r
                       for k, q, cs in rows), shift)


def _molien_product(rd: RootDatum, r: int, rows_of) -> GradedPoly:
    """prod over the factors f of rd of the Molien average over W_f, where
    rows_of(f) yields (multiplicity, q, cs) for each class of W_f and the
    class contributes q * (sum_i cs_i t^i)^r: W acts block-diagonally, so
    the average over W is the product of these."""
    if r < 0:
        raise ValueError("r must be non-negative")
    out = ONE
    for f in rd.factors:
        total = _molien_sum(tuple(rows_of(f)), r)
        out = out * total.divide_int(f.weyl_order())
    return _finalize(out)


def _check_output_size(rd: RootDatum, r: int) -> None:
    if r * rd.rank > OUTPUT_BOUND:
        raise TooLarge("free rank %d times rank %d exceeds the output bound "
                       "r * rank <= %d" % (r, rd.rank, OUTPUT_BOUND))


def poincare_char_variety(rd: RootDatum, r: int) -> GradedPoly:
    """Poincare polynomial of the identity component of the character
    variety of Z^r: the W-invariants of H^*(T^r).  Raises TooLarge past
    OUTPUT_BOUND."""
    _check_output_size(rd, r)
    return _molien_product(rd, r, lambda f: (
        (k, ONE.coefficients, cs) for cs, k in _factor_classes(f)))


def poincare_hom_component(rd: RootDatum, r: int) -> GradedPoly:
    """Poincare polynomial of the identity component of the representation
    variety of Z^r: the W-invariants of H^*(G/T x T^r).  Raises TooLarge
    past OUTPUT_BOUND."""
    _check_output_size(rd, r)
    result = _molien_product(rd, r, lambda f: (
        (k, quotient.coefficients, cs) for (cs, k), quotient
        in zip(_factor_classes(f), _factor_quotients(f))))
    if result.degree() > 2 * rd.positive_coroot_count() + r * rd.rank:
        raise NilrepError("invariant series exceeds dim G/T + r * rank")
    return result


def _finalize(p: GradedPoly) -> GradedPoly:
    if p.coefficient(0) != 1:
        raise NilrepError("invariant series must start at 1")
    if any(c < 0 for c in p.coefficients):
        raise NilrepError("negative invariant dimension")
    return p


# ---------------------------------------------------------------------------
# independent brute-force oracle


def exterior_invariant_dims_oracle(weyl: tuple, r: int) -> list[int]:
    """Invariant dimensions of the exterior algebra on r copies of the
    reflection lattice, computed without characteristic polynomials.

    Builds the action of every Weyl element on each exterior power in the
    explicit square-free monomial basis (matrix entries are minors of the
    r-fold block matrix), averages those matrices entrywise over the
    group, and reads off the trace of the resulting projector, exactly
    over the rationals.  On small bases the projector is verified to be
    idempotent before its trace is trusted.
    """
    # imported here: only this referee needs rationals
    from fractions import Fraction
    elements = list(weyl)
    n = len(elements[0])
    dim = n * r
    if 2 ** dim > 4096:
        raise TooLarge("exterior algebra basis of size 2^%d" % dim)
    order = len(elements)
    out = []
    for d in range(dim + 1):
        basis = list(combinations(range(dim), d))
        size = len(basis)
        total = [[0] * size for _ in range(size)]
        for w in elements:
            block = [[w[i % n][j % n] if i // n == j // n else 0
                      for j in range(dim)] for i in range(dim)]
            for col, cols in enumerate(basis):
                sub = [[block[i][j] for j in cols] for i in range(dim)]
                for row, rows in enumerate(basis):
                    total[row][col] += int_det([sub[i] for i in rows])
        proj = [[Fraction(e, order) for e in row] for row in total]
        if size <= 40:
            square = [[sum(proj[i][k] * proj[k][j] for k in range(size))
                       for j in range(size)] for i in range(size)]
            if square != proj:
                raise NilrepError("group average is not idempotent")
        trace = sum(proj[i][i] for i in range(size))
        if trace.denominator != 1 or trace < 0:
            raise NilrepError("projector trace %s is not a dimension" % trace)
        out.append(int(trace))
    return out
