"""Truncated multivariate power series with integer coefficients.

Coefficients are Python `int`s, since every class the pipelines produce is
integral; exponent tuples are the sparse term keys.  All arithmetic
truncates at a total-degree bound, and binary operations inherit the
minimum of the operand bounds.  Output ordering is graded lexicographic
throughout, so printed and serialized forms are stable.

A linear form v.X is its integer coefficient vector v.  Division by a
product of forms 1 + v.X is the one series primitive besides the ring
operations: `divide_one_plus` solves prod (1 + v.X) * out = s on a dense list
of every monomial within the bound, in graded order, with one pass per form
and no series product.  `reciprocal_one_plus` and `tensor_line` call it with
one form each, and `segre.simplex_contribution` with every finite vertex of
a cell.  That list has C(n + D, n) entries for n variables at bound D,
which is about the size the pipelines' quotients reach; `TERM_BUDGET` caps
it.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, MonomialSegreError
from .lattice import default_labels

Exponent = tuple[int, ...]

# the most monomials of degree <= D in n variables, C(n + D, n), that a dense
# layout may hold; n = 7 at its default bound 10 needs 19,448, and its
# blow-up checks, in 8 variables, 43,758
TERM_BUDGET = 50_000


def _as_int(x) -> int:
    if type(x) is not int:
        raise MonomialSegreError(f"coefficient {x!r} is not an integer")
    return x


class TruncatedSeries:
    """A polynomial truncation of a power series in ``num_vars`` variables."""

    __slots__ = ("num_vars", "degree_bound", "terms")

    def __init__(self, num_vars: int, degree_bound: int,
                 terms: Mapping[Exponent, int] | None = None):
        if num_vars < 0:
            raise MonomialSegreError("num_vars must be nonnegative")
        if degree_bound < 0:
            raise MonomialSegreError("degree_bound must be nonnegative")
        self.num_vars = num_vars
        self.degree_bound = degree_bound
        clean: dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != num_vars:
                    raise DimensionMismatchError(
                        f"exponent {e} has length {len(e)}, expected {num_vars}")
                if any(a < 0 for a in e):
                    raise MonomialSegreError(f"exponent {e} has a negative entry")
                if _as_int(c) and sum(e) <= degree_bound:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, num_vars: int, degree_bound: int,
             terms: dict[Exponent, int]) -> "TruncatedSeries":
        """Trusted constructor: terms must already be clean (right arity,
        within the bound, no zero coefficients).  Internal fast path."""
        s = cls.__new__(cls)
        s.num_vars = num_vars
        s.degree_bound = degree_bound
        s.terms = terms
        return s

    @classmethod
    def zero(cls, num_vars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(num_vars, degree_bound)

    @classmethod
    def one(cls, num_vars: int, degree_bound: int) -> "TruncatedSeries":
        return cls.constant(1, num_vars, degree_bound)

    @classmethod
    def constant(cls, c, num_vars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(num_vars, degree_bound, {(0,) * num_vars: c})

    @classmethod
    def monomial(cls, exponent: Iterable[int], num_vars: int, degree_bound: int,
                 coefficient=1) -> "TruncatedSeries":
        return cls(num_vars, degree_bound, {tuple(exponent): coefficient})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        """True when every stored coefficient is an `int`; the trusted `_raw`
        constructor does not check, so this catches anything it let in."""
        return all(type(c) is int for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    # -- arithmetic -------------------------------------------------------

    def _check_vars(self, other: "TruncatedSeries"):
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError(
                f"variable counts differ: {self.num_vars} vs {other.num_vars}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_vars(other)
        bound = min(self.degree_bound, other.degree_bound)
        if bound == self.degree_bound:
            terms = dict(self.terms)
        else:
            terms = {e: c for e, c in self.terms.items() if sum(e) <= bound}
        for e, c in other.terms.items():
            if bound != other.degree_bound and sum(e) > bound:
                continue
            v = terms.get(e)
            if v is None:
                terms[e] = c
            else:
                v = v + c
                if v:
                    terms[e] = v
                else:
                    del terms[e]
        return TruncatedSeries._raw(self.num_vars, bound, terms)

    def __neg__(self):
        return TruncatedSeries._raw(self.num_vars, self.degree_bound,
                                    {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = _as_int(other)
            if c == 0:
                return TruncatedSeries._raw(self.num_vars, self.degree_bound, {})
            return TruncatedSeries._raw(self.num_vars, self.degree_bound,
                                        {e: c * v for e, v in self.terms.items()})
        self._check_vars(other)
        bound = min(self.degree_bound, other.degree_bound)
        if len(other.terms) == 1:
            self, other = other, self
        if len(self.terms) == 1:
            # a monomial shifts the other factor's terms, which stay
            # distinct and nonzero
            (e1, c1), = self.terms.items()
            room = bound - sum(e1)
            return TruncatedSeries._raw(self.num_vars, bound, {
                tuple(map(add, e1, e2)): c1 * c2
                for e2, c2 in other.terms.items() if sum(e2) <= room})
        terms: dict[Exponent, int] = {}
        graded = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, d2, c2 in graded:
                if d1 + d2 > bound:
                    continue
                e = tuple(map(add, e1, e2))
                v = terms.get(e)
                terms[e] = c1 * c2 if v is None else v + c1 * c2
        return TruncatedSeries._raw(self.num_vars, bound,
                                    {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.num_vars, self.degree_bound, self.terms) == \
                (other.num_vars, other.degree_bound, other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.num_vars, self.degree_bound,
                     frozenset(self.terms.items())))

    # -- display ----------------------------------------------------------

    def render(self, labels: Iterable[str] | None = None) -> str:
        labels = default_labels(self.num_vars) if labels is None else \
            list(labels)
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for lab, k in zip(labels, e):
                if k == 1:
                    factors.append(lab)
                elif k > 1:
                    factors.append(f"{lab}^{k}")
            mono = "*".join(factors)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = (("-" if head_sign == "-" else "") + head)
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"TruncatedSeries({self.render()!r}, D_max={self.degree_bound})"


# (num_vars, degree_bound) -> dense layout; a pure function of its key
_LAYOUTS: dict[tuple[int, int], tuple] = {}


def check_term_budget(num_vars: int, degree_bound: int) -> None:
    """Raise when there are more monomials of degree <= degree_bound in
    num_vars variables than TERM_BUDGET."""
    count = comb(num_vars + degree_bound, num_vars)
    if count > TERM_BUDGET:
        raise MonomialSegreError(
            f"a series in {num_vars} variables at degree bound {degree_bound} "
            f"has up to {count} terms, more than the budget of {TERM_BUDGET}")


def _layout(num_vars: int, degree_bound: int):
    """Every monomial of degree <= degree_bound, in graded lexicographic
    order; the index of each; and, for each monomial of degree below the
    bound, the indices of its successors e + e_i, i = 0..num_vars-1.  A
    monomial of top degree has no successor within the bound, so it has no
    row."""
    key = (num_vars, degree_bound)
    layout = _LAYOUTS.get(key)
    if layout is None:
        check_term_budget(num_vars, degree_bound)
        monomials: list[Exponent] = []
        level = [(0,) * num_vars]
        for _ in range(degree_bound + 1):
            monomials += level
            level = sorted({e[:i] + (e[i] + 1,) + e[i + 1:]
                            for e in level for i in range(num_vars)})
        index = {e: k for k, e in enumerate(monomials)}
        successors = [tuple(index[e[:i] + (e[i] + 1,) + e[i + 1:]]
                            for i in range(num_vars))
                      for e in monomials if sum(e) < degree_bound]
        layout = _LAYOUTS[key] = (monomials, index, successors)
    return layout


def divide_one_plus(s: TruncatedSeries,
                    *forms: tuple[int, ...]) -> TruncatedSeries:
    """s / prod (1 + v.X) over the integer vectors v in forms, at the degree
    bound of s.

    Dividing by one form, the quotient satisfies out_e = s_e - sum_i v_i
    out_(e - e_i), so on the dense layout of every monomial within the bound
    (C(n + D, n) slots, see `_layout`), one walk in graded order finishes
    each slot before it is read, and subtracts v_i * out_e at each successor
    e + e_i of a nonzero slot.  The array is filled from s once and walked
    in place once per form, each walk starting at the lowest slot s fills,
    since a walk only writes above the slot it reads and every slot below
    stays zero.  The series is built once at the end: O(slots + nonzero
    slots * n) per form, exact, and with no series product."""
    walks = []
    for v in forms:
        if len(v) != s.num_vars:
            raise DimensionMismatchError(
                f"variable counts differ: {s.num_vars} vs {len(v)}")
        walks.append([(i, _as_int(a)) for i, a in enumerate(v) if a])
    monomials, index, successors = _layout(s.num_vars, s.degree_bound)
    out = [0] * len(monomials)
    start = len(successors)
    for e, c in s.terms.items():
        k = index[e]
        out[k] = c
        start = min(start, k)
    for steps in walks:
        if steps:
            for k in range(start, len(successors)):
                c = out[k]
                if c:
                    row = successors[k]
                    for i, a in steps:
                        out[row[i]] -= a * c
    return TruncatedSeries._raw(s.num_vars, s.degree_bound,
                                {e: c for e, c in zip(monomials, out) if c})


def reciprocal_one_plus(v: tuple[int, ...],
                        degree_bound: int) -> TruncatedSeries:
    """Expand 1/(1 + v.X) for an integer vector v."""
    return divide_one_plus(TruncatedSeries.one(len(v), degree_bound), v)


def graded_piece(c: TruncatedSeries, p: int) -> TruncatedSeries:
    """The total-degree-p homogeneous part of c."""
    return TruncatedSeries(c.num_vars, c.degree_bound,
                           {e: v for e, v in c.terms.items() if sum(e) == p})


def tensor_line(c: TruncatedSeries, v: tuple[int, ...]) -> TruncatedSeries:
    """Twist by the line class L = v.X: the degree-p piece of c is divided by
    (1+L)^p.

    Horner's rule in 1/(1+L): starting from the top degree, divide what is
    accumulated by 1+L once and add the next piece down."""
    if len(v) != c.num_vars:
        raise DimensionMismatchError("twisting form has the wrong variable count")
    out = TruncatedSeries.zero(c.num_vars, c.degree_bound)
    for p in range(c.degree_bound, -1, -1):
        out = graded_piece(c, p) + divide_one_plus(out, v)
    return out
