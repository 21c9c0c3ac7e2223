"""Exact graded invariant theory for Weyl group actions.

The graded trace of a Weyl element w on the cohomology of a torus power
T^r (generators in degree 1) is det(I + t*w)^r; on the coinvariant-
algebra model of G/T (generators in degree 2) it is

    prod_i (1 - t^(2*d_i)) / det(I - t^2 * w),

a division that is exact because the coinvariant algebra is finite
dimensional.  Both traces depend on w only through det(I + t*w), so the
Molien averages giving the invariant dimensions degree by degree run
over the classes of Weyl elements with equal det(I + t*w), weighted by
class size.  A product's Weyl group is the product of its factors',
acting block-diagonally, so (Kuenneth) both Poincare polynomials of a
product are the products of its factors' polynomials.  Those depend on
the factor only through its Cartan type: W fixes a central torus, so it
multiplies every det(I + t*w), and each average, by (1 + t) per
dimension.  Both averages are computed once per (type, r) and process,
B with C and SL_n, GL_n, PGL_n as A_(n-1), so a repeated factor or a
second call costs a cache lookup and one product.

A type's two Molien sums, of det(I + t*w)^r and of q * det(I + t*w)^r
with q the coinvariant trace, are taken over the integers at t = T =
2^shift: evaluation is a ring map Z[t] -> Z.  The packing bound needs
no quotient: the coinvariant algebra is the regular representation of
W (Chevalley, Amer. J. Math. 1955), so the W-invariants of its tensor
product with H^*(T^r) have the dimension of H^*(T^r), 2^(l*r) for
semisimple rank l.  The sum over W has coefficients
|W| * (invariant dimension), each in [0, |W| * 2^(l*r)], and that bound
holds for the character variety, whose invariants lie in H^*(T^r), too.
With 2^(shift-1) above it the balanced base-2^shift digits of the
integer sum are its coefficients, divided by |W| once.

Types A-D list no classes.  S_n = W(A_(n-1)) permutes Z^n, and
W(B_n) = W(C_n) and W(D_n) act on it by signed permutations; a positive
m-cycle puts 1 - (-t)^m into det(I + t*w) and 1 - u^m into
det(I - u*w), u = t^2, and a negative one 1 + (-t)^m and 1 + u^m.  So
both sums are cycle-index sums (Polya; Stanley, "Enumerative
Combinatorics" 2, sec. 5.1): the sum E_n over S_n of a product over the
cycles of f(length) satisfies

    E_n = sum_(k<=n) (n-1)!/(n-k)! * f(k) * E_(n-k),

and over signed permutations the same holds with 2^(k-1) more and f(k)
the sum of a positive and a negative k-cycle's factors.  For the hom sum
a k-cycle's factor is divided by its 1 -+ u^k.  Over the common
denominator 1 - y^k, y = u for S_n and u^2 for signed permutations,
a positive signed cycle's numerator gains 1 + u^k and a negative one's
1 - u^k.  Times the coinvariant numerator prod_(d<=n) (1 - y^d), step
(n, k) then carries prod_(n-k<d<=n) (1 - y^d) / (1 - y^k), a
polynomial: the k consecutive d hold one multiple jk of k, and
(1 - y^(jk)) / (1 - y^k) is a geometric sum.  Every factor is then
sparse, 1 +- 2^b, and each step a shift and an add.  A_(n-1)'s sums are
U(n)'s over (1 + T)^r, the factor of the trivial summand of Z^n in
every det(I + T*w).  D_n's are the half-sums of B_n's and of B_n's
twisted by (-1)^(negative cycles), the hom sum over 1 + T^(2n), which
is B_n's coinvariant numerator over D_n's.  Every division is exact and
checked.  G2 and F4 read literal class tables, one exact division per
row.

No Molien sum enumerates a Weyl group; only the referees do (the
projector oracle at the end, given rootdata.enumerate_weyl, and the
tests).  All arithmetic is integer or rational and exact; summation
order can never change a result.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, prod

from .errors import InexactDivision, NilrepError, TooLarge
from .groups import OUTPUT_BOUND
from .record import record
# re-exported: perfbench/spans.py traces the referees' Weyl enumeration
# as nilrep.invariants.enumerate_weyl
from .rootdata import RootDatum, _type_degrees, enumerate_weyl  # noqa: F401
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
# Molien sums per Cartan type, multiplied across the factors


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

# the bound on _type_shift's work estimate: the slowest sums it admits
# take about 2 s, and it is 11 times the largest estimate with
# |W| <= 10^6 and r * rank <= OUTPUT_BOUND (D7 at r = 73)
MOLIEN_WORK_BOUND = 3 * 10**11


def _unpack(value: int, shift: int) -> GradedPoly:
    """The polynomial whose value at t = 2^shift is value and whose
    coefficients lie in [-2^(shift-1), 2^(shift-1)): the balanced
    base-2^shift digits of value, lowest first."""
    return poly(_balanced_digits(value, shift))


def _balanced_digits(value: int, shift: int) -> list[int]:
    """_unpack's digits, by halves: the low w = h * shift bits of value
    plus beta = 2^(shift-1) * (2^w - 1) / (2^shift - 1), which adds half
    a digit to each of the h low places, carry c into the high half, so
    value is (low - c * 2^w) + ((value >> w) + c) * 2^w with both parts
    in balanced digits.  Values of under 128 digits, every Molien sum of
    the benchmark's targets, are peeled a digit at a time."""
    h = value.bit_length() // (2 * shift)
    if h < 64:
        mask, half = (1 << shift) - 1, 1 << (shift - 1)
        digits = []
        while value:
            digit = value & mask
            if digit >= half:
                digit -= 1 << shift
            digits.append(digit)
            value = (value - digit) >> shift
        return digits
    w = h * shift
    low = value & ((1 << w) - 1)
    beta = ((1 << w) - 1) // ((1 << shift) - 1) << (shift - 1)
    carry = (low + beta) >> w
    digits = _balanced_digits(low - (carry << w), shift)
    return (digits + [0] * (h - len(digits))
            + _balanced_digits((value >> w) + carry, shift))


def _exact(value: int, divisor: int) -> int:
    q, rem = divmod(value, divisor)
    if rem:
        raise InexactDivision("Molien sum left a remainder")
    return q


def _class_sums(classes: Classes, degrees, r: int,
                shift: int) -> tuple[int, int]:
    """The values at t = T = 2^shift of the sums over the rows (cs, k) of
    k * p^r and of k * q * p^r, p = det(I + t*w) with coefficients cs: one
    pass for both polynomials.  q is the coinvariant trace
    prod_d (1 - T^(2d)) / p(-T^2) over the given degrees, one exact
    integer division per row."""
    t = 1 << shift
    u = -t * t
    num = prod(1 - t ** (2 * d) for d in degrees)
    char = hom = 0
    for cs, k in classes:
        at_t = at_u = 0
        for c in reversed(cs):
            at_t = at_t * t + c
            at_u = at_u * u + c
        term = k * at_t ** r
        char += term
        hom += _exact(num, at_u) * term
    return char, hom


def _cycle_sums(n: int, r: int, shift: int,
                twists: tuple[int, ...]) -> list[tuple[int, int]]:
    """The values at t = T = 2^shift of sum_w p^r and sum_w q * p^r, p =
    det(I + t*w) and q the coinvariant trace, over S_n permuting Z^n (no
    twists), or over the signed permutations of Z^n with w weighted by
    twist^(number of negative cycles), one (char, hom) pair per twist.
    Both come from the cycle-index recurrence of the module docstring,
    in one loop for all twists; every factor is sparse, 1 +- 2^b, so
    each step is a shift and an add."""
    signed = bool(twists)
    # the coinvariant numerator's variable y, T^2 or T^4 for signed
    # permutations, in bits
    w = (4 if signed else 2) * shift
    seqs = [([1], [1]) for _ in twists or (1,)]
    for m in range(1, n + 1):
        for (chars, homs), twist in zip(seqs, twists or (1,)):
            char = hom = 0
            coef = 1
            for k in range(1, m + 1):
                # a k-cycle puts 1 - (-T)^k into p, a negative one
                # 1 + (-T)^k; their y-parts are 1 + T^(2k) and 1 - T^(2k)
                b = k * shift
                c, h = _powers(chars[m - k], homs[m - k], b, r, k % 2)
                if signed:
                    c_neg, h_neg = _powers(chars[m - k], homs[m - k], b, r,
                                           not k % 2)
                    h += h << 2 * b
                    h_neg -= h_neg << 2 * b
                    if twist > 0:
                        c, h = c + c_neg, h + h_neg
                    else:
                        c, h = c - c_neg, h - h_neg
                # h * prod_(m-k < d <= m) (1 - y^d) / (1 - y^k): the k
                # consecutive d hold one multiple jk of k, whose factor
                # over 1 - y^k is the sum of y^(ik), i < jk/k
                jk = m - m % k
                for d in range(m - k + 1, m + 1):
                    if d != jk:
                        h -= h << w * d
                g = h
                for _ in range(jk // k - 1):
                    g = h + (g << w * k)
                char += coef * c
                hom += coef * g
                coef *= (m - k) << signed
            chars.append(char)
            homs.append(hom)
    return [(chars[n], homs[n]) for chars, homs in seqs]


def _powers(c: int, h: int, b: int, r: int, plus: bool) -> tuple[int, int]:
    """c and h times (1 + 2^b)^r if plus, else times (1 - 2^b)^r."""
    if plus:
        for _ in range(r):
            c += c << b
            h += h << b
    else:
        for _ in range(r):
            c -= c << b
            h -= h << b
    return c, h


@cache
def _type_shift(kind: str, l: int, r: int) -> int:
    """The packing shift of the simple type (kind, l) at r (module
    docstring).  Raises TooLarge when the sums would pass
    MOLIEN_WORK_BOUND."""
    degrees = _type_degrees(kind, l)
    shift = (prod(degrees) << (l * r)).bit_length() + 1
    # the recurrence over n letters makes about n^2 / 2 steps (m, k), each
    # about k shifts and adds for the window and 2r to 4r for the powers,
    # on integers of up to shift * degree bits; D runs two twists.  The
    # weight 12 on r is fitted to timings, and G2 and F4, whose tables
    # are cheaper, are bounded alike.
    n = l + (kind == "A")
    degree = 2 * sum(d - 1 for d in degrees) + l * r
    work = (1 + (kind == "D")) * n * n * (n + 12 * r) * shift * degree
    if work > MOLIEN_WORK_BOUND:
        raise TooLarge("Molien sums of the Weyl group of type %s%d at "
                       "r = %d exceed the supported work bound"
                       % (kind, l, r))
    return shift


def _type_sums(kind: str, l: int, r: int, shift: int) -> tuple[int, int]:
    """The values at t = T = 2^shift of the sums over the Weyl group of
    the simple type (kind, l), B for C, of det(I + t*w)^r and of
    q * det(I + t*w)^r, q the coinvariant trace: by the cycle-index
    recurrence for types A-D, by the class tables for G2 and F4 (module
    docstring)."""
    t = 1 << shift
    if kind in _EXCEPTIONAL_CLASSES:
        return _class_sums(_EXCEPTIONAL_CLASSES[kind], _type_degrees(kind, l),
                           r, shift)
    if kind == "A":
        (char, hom), = _cycle_sums(l + 1, r, shift, ())
        return _exact(char, (1 + t) ** r), _exact(hom, (1 + t) ** r)
    if kind in ("B", "C"):
        return _cycle_sums(l, r, shift, (1,))[0]
    (char, hom), (char_tw, hom_tw) = _cycle_sums(l, r, shift, (1, -1))
    return (_exact(char + char_tw, 2),
            _exact(hom + hom_tw, 2 * (1 + t ** (2 * l))))


@cache
def _type_averages(kind: str, l: int, r: int) -> tuple[GradedPoly,
                                                       GradedPoly]:
    """The Molien averages over the Weyl group of the simple type (kind, l)
    (B for C) of det(I + t*w)^r and of q * det(I + t*w)^r, q the
    coinvariant trace: the character variety's and the hom component's
    polynomial of the type, once per (type, r) and process.  Both sums
    are packed above the bound |W| * 2^(l*r) on their coefficients
    (module docstring) and divided by |W| once.  Raises TooLarge past
    MOLIEN_WORK_BOUND, before any sum is taken."""
    shift = _type_shift(kind, l, r)
    order = prod(_type_degrees(kind, l))
    return tuple(_unpack(s, shift).divide_int(order)
                 for s in _type_sums(kind, l, r, shift))


def _molien_product(rd: RootDatum, r: int, hom: bool) -> GradedPoly:
    """prod over the factors f of rd of the Molien average over W_f of
    q * det(I + t*w)^r, q the coinvariant trace if hom and 1 otherwise: W
    acts block-diagonally, so the average over W is the product of these.
    W fixes the central tori, so each of their dimensions multiplies
    every class, and the product, by (1 + t)^r.  Every factor is checked
    against MOLIEN_WORK_BOUND before the first sum is taken."""
    if r < 0:
        raise ValueError("r must be non-negative")
    types = [f.cartan_type() for f in rd.factors]
    for kind, l, _ in types:
        if kind is not None:
            _type_shift(kind, l, r)
    polys = [_type_averages("B" if kind == "C" else kind, l, r)[hom]
             for kind, l, _ in types if kind is not None]
    n = r * sum(central for _, _, central in types)
    if n or not polys:
        polys.append(poly([comb(n, k) for k in range(n + 1)]))
    out = polys[0]
    for p in polys[1:]:
        out = out * p
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
    return _molien_product(rd, r, False)


def poincare_hom_component(rd: RootDatum, r: int) -> GradedPoly:
    """Poincare polynomial of the identity component of the representation
    variety of Z^r: the W-invariants of H^*(G/T x T^r).  Raises TooLarge
    past OUTPUT_BOUND."""
    _check_output_size(rd, r)
    result = _molien_product(rd, r, True)
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
