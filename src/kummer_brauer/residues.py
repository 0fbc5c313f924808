"""Residues of the four quaternion symbols on Kum(E x E') at the exceptional
lines, the induced F2 kernel dimension d, and the two-torsion dimension
formula dim Br(X)_2/Br(k)_2 = d - r.

The surface is z^2 = x(x-a)(x-b) y(y-a')(y-b') for curves with rational
2-torsion, and the four symbol algebras are
((x-mu)(x-b), (y-nu)(y-b')) with mu in {0, a}, nu in {0, a'}.  d comes from
perfect-square tests on integer products of residues; the coprime base of a,
b, a-b, a', b', a'-b' serves only the displayed square classes (entries).
"""

from __future__ import annotations

from functools import cached_property

from .arith import (
    Record,
    SquareClass,
    bits_of,
    coprime_base,
    is_square,
    square_class,
    square_class_bits,
)

ALGEBRA_LABELS = ("A[a,a']", "A[a,0]", "A[0,a']", "A[0,0]")
# The exceptional lines over the nine pairs of nonzero 2-torsion points: the
# four that residue_matrix computes, then the five that extend_residue_matrix
# derives from them.
LINES = ("l[0,0]", "l[0,a']", "l[a,0]", "l[a,a']",
         "l[0,b']", "l[a,b']", "l[b,0]", "l[b,a']", "l[b,b']")


class DegenerateCurveError(ValueError):
    """One of the two cubics x(x-a)(x-b) is not separable."""


class DimensionContradictionError(RuntimeError):
    """d < r with a passing applicability gate: either r is wrong or a bug."""


class ResidueMatrix(Record):
    """Square-class residues of the four symbol algebras at exceptional lines.

    Rows are ordered as ALGEBRA_LABELS and columns as LINES: the first four
    in 4x4 form, all nine in the extended 4x9 form.  Each residue is stored
    as an integer representative of its class, a signed product of a, b,
    a-b, a', b', a'-b'.
    """

    __match_args__ = ("pair", "columns", "values")

    def __init__(self, pair: tuple[int, int, int, int], columns: tuple[str, ...],
                 values: tuple[tuple[int, ...], ...]):
        # pair is (a, b, a', b')
        self.__dict__.update(pair=pair, columns=columns, values=values)

    @cached_property
    def base(self) -> list[int]:
        """The non-square elements of the coprime base of a, b, a-b, a', b',
        a'-b': every residue is +-1 times a product of their powers and a
        square.  Only entries reads it; kernel_dimension needs no base."""
        a, b, a2, b2 = self.pair
        return [c for c in coprime_base((a, b, a - b, a2, b2, a2 - b2))
                if not is_square(c)]

    @cached_property
    def entries(self) -> tuple[tuple[SquareClass, ...], ...]:
        """The residues as square classes, read over the coprime base: the
        class is the sign times the classes of the base elements of odd
        exponent, so each base element is factored once and no product of
        them is.  This serves display and tests; the kernel never reads it,
        and a base element beyond factor()'s budget raises FactorBudgetError."""
        supports = [square_class(c).support for c in self.base]

        def entry(v: int) -> SquareClass:
            bits = square_class_bits(v, self.base)
            support = sorted(p for k in bits_of(bits >> 1) for p in supports[k])
            return SquareClass(-1 if bits & 1 else 1, tuple(support))

        return tuple(tuple(entry(v) for v in row) for row in self.values)

    @property
    def nrows(self) -> int:
        return len(self.values)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def representative_rows(self) -> list[list[int]]:
        """Entries as canonical squarefree integers (for display)."""
        return [[c.representative() for c in row] for row in self.entries]


def residue_matrix(a: int, b: int, a2: int, b2: int) -> ResidueMatrix:
    """The 4x4 residue matrix of the curve pair (a, b, a', b').

    Row by row, in the columns LINES[:4]:
      A[a,a']: 1,      ab,          a'b',        -aa'
      A[a,0]:  ab,     1,           aa',         a'(a'-b')
      A[0,a']: a'b',   aa',         1,           a(a-b)
      A[0,0]:  -aa',   a'(a'-b'),   a(a-b),      1
    """
    ap, bp = a2, b2
    if a == 0 or b == 0 or a == b or ap == 0 or bp == 0 or ap == bp:
        raise DegenerateCurveError("curve data must have a != b, a' != b', all nonzero")
    rows = (
        (1, a * b, ap * bp, -a * ap),
        (a * b, 1, a * ap, ap * (ap - bp)),
        (ap * bp, a * ap, 1, a * (a - b)),
        (-a * ap, ap * (ap - bp), a * (a - b), 1),
    )
    return ResidueMatrix((a, b, ap, bp), LINES[:4], rows)


def extend_residue_matrix(m: ResidueMatrix) -> ResidueMatrix:
    """Extend the 4x4 matrix to all nine lines over nonzero 2-torsion pairs.

    Along any fixed first index i in {0, a, b} or fixed second index j in
    {0, a', b'} the three residues of each algebra multiply to the identity,
    which determines every missing column from the four computed ones.  A
    class is its own inverse, so the missing value is the product of the
    other two.
    """
    if m.ncols != 4:
        raise ValueError("expected a 4x4 residue matrix")
    # l[i,b'] = l[i,0] l[i,a'], l[b,j] = l[0,j] l[a,j], l[b,b'] = all four
    rows = tuple(r + (r[0] * r[1], r[2] * r[3], r[0] * r[2], r[1] * r[3],
                      r[0] * r[1] * r[2] * r[3]) for r in m.values)
    return ResidueMatrix(m.pair, LINES, rows)


def kernel_dimension(m: ResidueMatrix) -> tuple[int, list[tuple[str, ...]]]:
    """d = dimension of the subgroup of symbol algebras with trivial residues.

    Returns d together with a basis: each basis element is the subset of
    ALGEBRA_LABELS whose entrywise product is the identity class in every
    column of m.

    A subset is in the kernel exactly when, in every column, the integer
    product of its entries is a positive perfect square, so the 2^nrows - 1
    subsets are tested directly, one column at a time: the column's subset
    products are built each from a smaller subset's by one more row, and
    only the subsets every earlier column kept are tested, until none is
    left.  No coprime base, square-class encoding or factoring.  The basis
    is the kernel's reduced echelon basis with each pivot at the highest
    set bit: the members whose highest bit is their only pivot bit.
    """
    kernel = list(range(1, 1 << m.nrows))
    for column in zip(*m.values):
        if not kernel:
            break
        prods = [1]
        for mask in range(1, 1 << m.nrows):
            prods.append(prods[mask & (mask - 1)] * column[(mask & -mask).bit_length() - 1])
        kernel = [mask for mask in kernel if is_square(prods[mask])]
    pivots = sum({1 << (v.bit_length() - 1) for v in kernel})  # OR of highest bits
    basis = [tuple(ALGEBRA_LABELS[i] for i in bits_of(v)) for v in kernel
             if v & pivots == 1 << (v.bit_length() - 1)]
    return len(basis), basis


class Gate(Record):
    """Which applicability case (if any) makes the dimension formula usable:
    case is "not-isogenous" | "same-curve-no-cm" | None."""

    __match_args__ = ("case", "passes", "detail")

    def __init__(self, case: str | None, passes: bool, detail: str):
        self.__dict__.update(case=case, passes=passes, detail=detail)


def two_torsion_dimension(d: int, r: int | None, gate: Gate) -> int | None:
    """dim Br(X)_2/Br(k)_2 = d - r, guarded by the applicability gate; None
    encodes "not determined"."""
    if not gate.passes or r is None:
        return None
    if d < r:
        raise DimensionContradictionError(
            f"d = {d} < r = {r} with a passing gate; r or the matrix is wrong")
    return d - r
