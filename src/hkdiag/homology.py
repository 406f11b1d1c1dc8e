"""Exact integer homology utilities.

Everything in this module is integer arithmetic: Smith normal form with
transformation matrices, finitely generated abelian groups, the index of
a subgroup of Z^n, the meridional coordinate predictions used when an
annulus is attached to a handlebody-knot, and integer Laurent polynomials
with their sparse determinant.

No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence, Union

from . import _EXPORTS

__all__ = list(_EXPORTS["homology"])


class _Infinite:
    """Singleton return value for indices of infinite-index subgroups."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __bool__(self) -> bool:
        return True


INFINITE = _Infinite()

Index = Union[int, _Infinite]


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.det()
    -2
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in self.entries:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"non-integer entry {x!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.ncols
        out = []
        for i in range(self.nrows):
            out.append(tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.ncols))
                for j in range(cols)
            ))
        return IntMatrix(tuple(out))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.nrows, self.ncols)))

    def det(self) -> int:
        """Determinant by sparse Bareiss elimination in Markowitz order
        (`bareiss_det`), every division exact."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return bareiss_det(self.entries)


def bareiss_det(rows: Sequence[Sequence], one=1):
    """Determinant of a square matrix over an integral domain.

    Bareiss fraction-free elimination (Math. Comp. 22, 1968) on sparse rows,
    in Markowitz order (Management Science 3, 1957): each step pivots on the
    first nonzero (i, j) of least (r_i - 1)(c_j - 1), for r_i nonzeros in
    its row and c_j in its column, stopping at a cost of 0, and updates only
    the rows with a nonzero in column j. Every other row would only be
    rescaled, so it is left alone and keeps the step at which it was last
    brought up to date, with that step's divisor p_then. Rescaling is lazy:
    a row chosen as pivot becomes x * p_now // p_then entrywise, and a row
    updated by pivot p with pivot row x becomes (y * p - lead * x) // p_then,
    or y * p // p_then where x is zero. Each quotient is exact because it is
    a Bareiss minor (Sylvester's identity); p_now // p_then alone need not
    be, so the product comes first. Each entry is an int or a LaurentPoly
    (TypeError otherwise: a float would make the divisions inexact), and
    `one` is the ring's unit. The determinant is the last pivot, signed by
    the permutation that takes pivot rows to pivot columns; a row that
    empties makes it zero.
    """
    for row in rows:
        for x in row:
            if not isinstance(x, (int, LaurentPoly)):
                raise TypeError(f"entry {x!r} is neither an int nor a LaurentPoly")
    n = len(rows)
    live = [{j: x for j, x in enumerate(row) if x} for row in rows]
    in_column: dict[int, set[int]] = {}
    for i, row in enumerate(live):
        for j in row:
            in_column.setdefault(j, set()).add(i)
    pivots = [one]  # pivots[s]: the divisor of a row brought up to step s
    level = [0] * n
    pivot_column = [0] * n
    pending = set(range(n))
    for step in range(n):
        least = n * n  # above every (r_i - 1)(c_j - 1)
        for candidate in pending:
            row = live[candidate]
            if not row:
                return one - one
            others = len(row) - 1
            for column in row:
                cost = others * (len(in_column[column]) - 1)
                if cost < least:
                    least, i, j = cost, candidate, column
                    if not cost:
                        break
            if not least:
                break
        pending.remove(i)
        pivot_column[i] = j
        row = live[i]
        if level[i] != step:
            now, then = pivots[step], pivots[level[i]]
            row = {c: x * now // then for c, x in row.items()}
        for c in row:
            in_column[c].discard(i)
        p = row.pop(j)
        for r in in_column.pop(j):
            other, then = live[r], pivots[level[r]]
            lead = other.pop(j)
            updated = {}
            for c, y in other.items():
                y = (y * p - lead * row[c]) // then if c in row else y * p // then
                if y:
                    updated[c] = y
                else:
                    in_column[c].discard(r)
            for c, x in row.items():
                if c not in other:
                    updated[c] = -(lead * x) // then
                    in_column[c].add(r)
            live[r], level[r] = updated, step + 1
        pivots.append(p)
    # a permutation of n points with c cycles has sign (-1)^(n - c)
    odd, seen = n % 2, set()
    for i in range(n):
        if i not in seen:
            odd ^= 1
            while i not in seen:
                seen.add(i)
                i = pivot_column[i]
    return -pivots[n] if odd else pivots[n]


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a: list[list[int]], dst: int, src: int, c: int) -> None:
    a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]


def _add_col(a: list[list[int]], dst: int, src: int, c: int) -> None:
    for row in a:
        row[dst] += c * row[src]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Compute (D, U, V) with U @ m @ V == D diagonal, U and V unimodular.

    The diagonal of D is nonnegative and each entry divides the next, so D is
    the Smith normal form of m. Pivots are chosen as a nonzero entry of
    minimal absolute value in the remaining block, which keeps the integers
    small for the matrix sizes that occur here.

    >>> d, u, v = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> d.diagonal()
    (2, 4)
    >>> (u @ IntMatrix.from_rows([[2, 4], [6, 8]]) @ v) == d
    True
    """
    a = [list(row) for row in m.entries]
    rows = len(a)
    cols = len(a[0]) if a else 0
    u = [list(row) for row in IntMatrix.identity(rows).entries]
    v = [list(row) for row in IntMatrix.identity(cols).entries]
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        _swap_rows(a, t, pivot[0])
        _swap_rows(u, t, pivot[0])
        _swap_cols(a, t, pivot[1])
        _swap_cols(v, t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                _add_row(a, i, t, -q)
                _add_row(u, i, t, -q)
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                _add_col(a, j, t, -q)
                _add_col(v, j, t, -q)
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, t, offender, 1)
            _add_row(u, t, offender, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (
        IntMatrix.from_rows(a),
        IntMatrix.from_rows(u),
        IntMatrix.from_rows(v),
    )


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group, Z^free_rank + sum Z/d_i.

    The invariant factors are the d_i > 1 in divisibility order.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        for x in (self.free_rank, *self.invariant_factors):
            if not isinstance(x, int):
                raise TypeError(f"non-integer rank or invariant factor {x!r}")
        if self.free_rank < 0:
            raise ValueError("negative rank")
        for d, e in zip(self.invariant_factors, self.invariant_factors[1:]):
            if e % d:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise ValueError("invariant factors must be at least 2")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "1"


def subgroup_index(classes: Sequence[Sequence[int]]) -> Index:
    """Index in Z^n of the subgroup generated by the given classes.

    Each class is a tuple of integer coordinates, all of the same length n.
    The index is the product of the nonzero diagonal entries of the Smith
    form when the classes span a finite-index subgroup, and INFINITE
    otherwise.

    >>> subgroup_index([(1, 0), (0, 2)])
    2
    >>> subgroup_index([(1, 0), (2, 0)])
    INFINITE
    """
    m = IntMatrix.from_rows(classes)
    if not m.nrows:
        raise ValueError("no classes given")
    if not m.ncols:
        return 1
    diag = invariant_factors_of(m)
    if len(diag) < m.ncols:
        return INFINITE
    return prod(diag)


def meridional_pair_predict(p: int, q: int, p1: int, mirror: bool = False) -> tuple[tuple[int, int], tuple[int, int]]:
    """Meridional coordinates of the two boundary loops of an attached annulus.

    For an annulus of integral boundary slope p (with p/q in lowest terms),
    if one loop has meridional coordinates (p1, p - p1) then the other is
    forced to (p1 - 1, p - p1 + 1); mirroring swaps the sign convention to
    (p1 + 1, p - p1 - 1). The determinant of the pair is +-(p1 + (p - p1))
    = +-p, so the pair generates an index-|p| subgroup when p != 0.

    >>> meridional_pair_predict(0, 1, 1)
    ((1, -1), (0, 0))
    """
    if gcd(p, q) != 1:
        raise ValueError("slope p/q must be in lowest terms")
    first = (p1, p - p1)
    if mirror:
        second = (p1 + 1, p - p1 - 1)
    else:
        second = (p1 - 1, p - p1 + 1)
    return first, second


@dataclass(frozen=True)
class LaurentPoly:
    """A one-variable integer Laurent polynomial, kept in sorted sparse form."""

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """The polynomial sum of c * t^e; TypeError for an e or c that is
        not an int."""
        if not all(isinstance(x, int) for term in coeffs.items() for x in term):
            raise TypeError(f"non-integer exponent or coefficient in {coeffs!r}")
        return cls._of(coeffs)

    @classmethod
    def _of(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """from_dict without the check, for results of integer arithmetic."""
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls.from_dict({0: c})

    @classmethod
    def t(cls, exponent: int = 1, coeff: int = 1) -> "LaurentPoly":
        return cls.from_dict({exponent: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs: dict[int, int] = dict(self.terms)
        for e, c in other.terms:
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly._of(coeffs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly._of(coeffs)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __floordiv__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient, termwise by a monomial and otherwise by long
        division from the top exponent down; ValueError if `other` does not
        divide self."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return self
        if len(other.terms) == 1:
            (shift, lead), = other.terms
            quotient = []
            for e, c in self.terms:
                q, r = divmod(c, lead)
                if r:
                    raise ValueError(f"{other} does not divide {self}")
                quotient.append((e - shift, q))
            return LaurentPoly(tuple(quotient))
        *rest, (top, lead) = other.terms
        rem, quotient = dict(self.terms), {}
        # an exact quotient's exponents run from top(self) - top down to low
        low = self.terms[0][0] - other.terms[0][0]
        for shift in range(self.terms[-1][0] - top, low - 1, -1):
            q, r = divmod(rem.pop(shift + top, 0), lead)
            if r:
                raise ValueError(f"{other} does not divide {self}")
            if q:
                quotient[shift] = q
                for e, c in rest:
                    rem[e + shift] = rem.get(e + shift, 0) - q * c
        if any(rem.values()):
            raise ValueError(f"{other} does not divide {self}")
        return LaurentPoly._of(quotient)

    def normalized(self) -> "LaurentPoly":
        """Shift so the lowest exponent is 0 and the leading coefficient > 0."""
        if self.is_zero:
            return self
        low = self.terms[0][0]
        shifted = [(e - low, c) for e, c in self.terms]
        if shifted[-1][1] < 0:
            shifted = [(e, -c) for e, c in shifted]
        return LaurentPoly(tuple(shifted))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for e, c in reversed(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


def invariant_factors_of(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero Smith diagonal entries of m, in divisibility order."""
    d, _, _ = smith_normal_form(m)
    return tuple(x for x in d.diagonal() if x)
