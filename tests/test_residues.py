import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from kummer_brauer import arith, residues
from kummer_brauer.arith import SquareClass, bits_of, sc_mul, square_class
from kummer_brauer.residues import (
    ALGEBRA_LABELS,
    DegenerateCurveError,
    DimensionContradictionError,
    Gate,
    extend_residue_matrix,
    kernel_dimension,
    residue_matrix,
    two_torsion_dimension,
)

GATE_NONISO = Gate("not-isogenous", True, "")
GATE_SAME = Gate("same-curve-no-cm", True, "")
GATE_NONE = Gate(None, False, "")


def rand_pair(rng, lo=-30, hi=30):
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        a2, b2 = rng.randint(lo, hi), rng.randint(lo, hi)
        if a and b and a != b and a2 and b2 and a2 != b2:
            return a, b, a2, b2


def test_matrix_example_values():
    m = residue_matrix(5, 7, 1, 2)
    assert m.representative_rows() == [
        [1, 35, 2, -5],
        [35, 1, 5, -1],
        [2, 5, 1, -10],
        [-5, -1, -10, 1],
    ]


def test_matrix_equal_factor_example():
    m = residue_matrix(1, -3, 1, -3)
    assert m.representative_rows() == [
        [1, -3, -3, -1],
        [-3, 1, 1, 1],
        [-3, 1, 1, 1],
        [-1, 1, 1, 1],
    ]


def test_matrix_rejects_degenerate():
    with pytest.raises(DegenerateCurveError):
        residue_matrix(0, 1, 2, 3)
    with pytest.raises(DegenerateCurveError):
        residue_matrix(2, 2, 1, 3)


def test_diagonal_identity_and_symmetry_random():
    rng = random.Random(101)
    for _ in range(200):
        m = residue_matrix(*rand_pair(rng))
        for i in range(4):
            assert m.entries[i][i].is_identity
            for j in range(4):
                assert m.entries[i][j] == m.entries[j][i]


def _ext_index():
    order = [("0", "0"), ("0", "a'"), ("a", "0"), ("a", "a'"),
             ("0", "b'"), ("a", "b'"), ("b", "0"), ("b", "a'"), ("b", "b'")]
    return {ij: k for k, ij in enumerate(order)}


def test_extension_product_rule_examples():
    e = extend_residue_matrix(residue_matrix(1, -3, 1, -3))
    idx = _ext_index()
    # bottom row at the line over (0, b') is the product of its entries
    # at (0, 0) and (0, a'): (-1) * 1 = -1
    assert e.entries[3][idx[("0", "b'")]] == SquareClass(-1, ())

    e2 = extend_residue_matrix(residue_matrix(5, 7, 1, 2))
    for j in ("0", "a'", "b'"):
        prod = sc_mul(e2.entries[3][idx[("0", j)]], e2.entries[3][idx[("a", j)]])
        assert e2.entries[3][idx[("b", j)]] == prod


def extend_by_labels(m):
    """The nine-line extension by a recursive reading of the line labels:
    l[b,j] = l[0,j] l[a,j], l[i,b'] = l[i,0] l[i,a'], and l[b,b'] the
    product of the four computed lines."""
    e = {("0", "0"): 0, ("0", "a'"): 1, ("a", "0"): 2, ("a", "a'"): 3}

    def entry(row, i, j):
        if (i, j) in e:
            return row[e[(i, j)]]
        if i == "b" and j == "b'":
            return row[0] * row[1] * row[2] * row[3]
        if i == "b":
            return entry(row, "0", j) * entry(row, "a", j)
        return entry(row, i, "0") * entry(row, i, "a'")

    order = [("0", "0"), ("0", "a'"), ("a", "0"), ("a", "a'"),
             ("0", "b'"), ("a", "b'"), ("b", "0"), ("b", "a'"), ("b", "b'")]
    cols = tuple(f"l[{i},{j}]" for i, j in order)
    rows = tuple(tuple(entry(row, i, j) for i, j in order) for row in m.values)
    return cols, rows


def test_extension_equals_the_label_recursion():
    rng = random.Random(109)
    pairs = [rand_pair(rng) for _ in range(1500)]
    pairs += [rand_pair(rng, -10**12, 10**12) for _ in range(600)]
    for p in pairs:
        m = residue_matrix(*p)
        e = extend_residue_matrix(m)
        assert (e.columns, e.values) == extend_by_labels(m), p
        assert e.pair == m.pair and m.columns == e.columns[:4]


def test_extension_all_24_triples_identity():
    rng = random.Random(103)
    idx = _ext_index()
    for _ in range(200):
        e = extend_residue_matrix(residue_matrix(*rand_pair(rng)))
        for row in e.entries:
            for i in ("0", "a", "b"):
                acc = SquareClass.identity()
                for j in ("0", "a'", "b'"):
                    acc = sc_mul(acc, row[idx[(i, j)]])
                assert acc.is_identity
            for j in ("0", "a'", "b'"):
                acc = SquareClass.identity()
                for i in ("0", "a", "b"):
                    acc = sc_mul(acc, row[idx[(i, j)]])
                assert acc.is_identity


def test_kernel_dimension_examples():
    assert kernel_dimension(residue_matrix(5, 7, 1, 2)) == (0, [])
    d, basis = kernel_dimension(residue_matrix(1, -3, 1, -3))
    assert d == 1 and basis == [("A[a,0]", "A[0,a']")]
    assert kernel_dimension(residue_matrix(1, 5, 1, 5))[0] == 1
    assert kernel_dimension(residue_matrix(3, 4, 3, 4))[0] == 1


def test_kernel_same_from_four_and_nine_columns():
    rng = random.Random(107)
    for _ in range(200):
        m = residue_matrix(*rand_pair(rng))
        assert kernel_dimension(m)[0] == kernel_dimension(extend_residue_matrix(m))[0]


def test_translation_invariance():
    rng = random.Random(109)

    def labelings(roots):
        out = []
        for k in range(3):
            rest = [roots[i] for i in range(3) if i != k]
            for perm in itertools.permutations(rest):
                out.append((perm[0] - roots[k], perm[1] - roots[k]))
        return out

    for _ in range(50):
        a, b, a2, b2 = rand_pair(rng)
        ds = set()
        for aa, bb in labelings([0, a, b]):
            for cc, dd in labelings([0, a2, b2]):
                ds.add(kernel_dimension(residue_matrix(aa, bb, cc, dd))[0])
        assert len(ds) == 1


def subset_residue_product(m, subset):
    """Entrywise product over the given algebra rows, one class per column."""
    out = []
    for col in range(m.ncols):
        acc = SquareClass.identity()
        for i in subset:
            acc = sc_mul(acc, m.entries[i][col])
        out.append(acc)
    return out


def test_kernel_membership_exhaustive():
    rng = random.Random(113)
    for _ in range(50):
        m = residue_matrix(*rand_pair(rng))
        d, basis = kernel_dimension(m)
        member_sets = set()
        for mask in range(16):
            subset = [i for i in range(4) if (mask >> i) & 1]
            prods = subset_residue_product(m, subset)
            if all(c.is_identity for c in prods):
                member_sets.add(frozenset(subset))
        # the kernel has exactly 2^d members (including the empty set)
        assert len(member_sets) == 2**d
        for labels in basis:
            subset = frozenset(ALGEBRA_LABELS.index(x) for x in labels)
            assert subset in member_sets


def test_two_torsion_dimension():
    assert two_torsion_dimension(0, 0, GATE_NONISO) == 0
    assert two_torsion_dimension(1, 1, GATE_SAME) == 0
    assert two_torsion_dimension(1, 0, GATE_NONISO) == 1
    assert two_torsion_dimension(2, 1, GATE_NONE) is None
    with pytest.raises(DimensionContradictionError):
        two_torsion_dimension(0, 1, GATE_NONISO)


# -- F2 elimination: the nullspace behind the factor-based oracle -------------


class BitMatrix:
    """A matrix over F2; each row is stored as an int bitmask (bit j = column j)."""

    def __init__(self, rows: list[int], cols: int):
        self.rows = list(rows)
        self.cols = cols
        for r in self.rows:
            if r < 0 or r >> cols:
                raise ValueError("row mask exceeds column count")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def bit(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.cols):
            raise IndexError("bit index out of range")
        return (self.rows[i] >> j) & 1


def _eliminate(rows: list[int], cols: int) -> dict[int, int]:
    """Row-reduce; returns {pivot column: reduced row mask}."""
    work = [r for r in rows if r]
    pivots: dict[int, int] = {}
    for col in range(cols):
        mask = 1 << col
        pivot_row = None
        for idx, r in enumerate(work):
            if r & mask:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        prow = work.pop(pivot_row)
        work = [r ^ prow if r & mask else r for r in work]
        pivots = {c: (r ^ prow if r & mask else r) for c, r in pivots.items()}
        pivots[col] = prow
        work = [r for r in work if r]
    return pivots


def f2_nullspace(matrix: BitMatrix) -> list[int]:
    """Basis of {v : M v = 0} over F2, each vector an int bitmask over columns.

    The count always equals cols - rank.
    """
    pivots = _eliminate(matrix.rows, matrix.cols)
    pivot_cols = set(pivots)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        # pivot rows are fully reduced, so each pivot coordinate reads off directly
        for pc, row in pivots.items():
            if (row >> fc) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def naive_rank(rows_bits, cols):
    """Independent F2 rank via list-of-lists elimination."""
    rows = [[(r >> j) & 1 for j in range(cols)] for r in rows_bits]
    rank = 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_f2_nullspace_trivial_cases():
    assert len(f2_nullspace(BitMatrix([0, 0, 0, 0], 4))) == 4
    assert f2_nullspace(BitMatrix([1, 2, 4, 8], 4)) == []


def test_f2_nullspace_random():
    rng = random.Random(2024)
    for _ in range(100):
        rows = [rng.getrandbits(8) for _ in range(8)]
        m = BitMatrix(rows, 8)
        basis = f2_nullspace(m)
        assert len(basis) == 8 - naive_rank(rows, 8)
        for v in basis:
            for r in rows:
                assert bin(r & v).count("1") % 2 == 0
        # independence: the basis itself has full rank
        assert naive_rank(basis, 8) == len(basis)


def test_bitmatrix_bounds():
    m = BitMatrix([1, 2], 2)
    assert m.bit(0, 0) == 1 and m.bit(1, 1) == 1
    with pytest.raises(IndexError):
        m.bit(2, 0)
    with pytest.raises(ValueError):
        BitMatrix([4], 2)


# -- square-test kernel against the factor-based encoding ---------------------


def factor_based_kernel(m, entries=None):
    """The kernel computed from prime factorizations: one F2 row per (line,
    basis element), with -1 and every prime in some entry's support as the
    basis, and its nullspace by elimination.  Independent of the perfect-square
    tests; the reference for kernel_dimension.  entries are the square classes
    of m's values, by default each value factored on its own."""
    if entries is None:
        entries = [[square_class(v) for v in row] for row in m.values]
    primes = sorted({p for row in entries for c in row for p in c.support})
    rows = []
    for col in range(m.ncols):
        for basis_index in range(1 + len(primes)):
            mask = 0
            for alg in range(m.nrows):
                c = entries[alg][col]
                if basis_index == 0:
                    bit = c.sign == -1
                else:
                    bit = primes[basis_index - 1] in c.support
                if bit:
                    mask |= 1 << alg
            rows.append(mask)
    vectors = f2_nullspace(BitMatrix(rows, m.nrows))
    return len(vectors), [tuple(ALGEBRA_LABELS[i] for i in bits_of(v)) for v in vectors]


def structured_pair(rng):
    """A random pair (a, b, a', b') rich in shared factors, perfect-square
    coprime-base elements and negative entries."""
    squares = (1, 4, 9, 25, 36, 49, 144)
    smooth = (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35)

    def curve():
        while True:
            kind = rng.randrange(4)
            if kind == 0:  # a = 36k, a - b = 9
                a = 36 * rng.randint(-6, 6)
                b = a - 9
            elif kind == 1:  # a, b, a - b all sharing square and smooth parts
                g = rng.choice(squares) * rng.choice(smooth)
                a, b = g * rng.randint(-8, 8), g * rng.randint(-8, 8)
            elif kind == 2:  # a perfect square times a small sign-flipped cofactor
                a = rng.choice(squares) * rng.choice((-1, 1)) * rng.randint(1, 12)
                b = a - rng.choice(squares) * rng.choice((-1, 1))
            else:
                a, b = rng.randint(-60, 60), rng.randint(-60, 60)
            if a and b and a != b:
                return a, b

    first = curve()
    # a partner equal to, or a square multiple of, the first curve gives d > 0
    k = rng.choice((1, 1, 2, 3, 6))
    second = curve() if rng.random() < 0.6 else (k * k * first[0], k * k * first[1])
    return first + second


def test_coprime_base_kernel_matches_factor_oracle():
    rng = random.Random(2005)
    pairs = [structured_pair(rng) for _ in range(2000)]
    pairs += [(36, 27, 36, 27), (-36, -45, 9, 18), (4, 13, -4, -13), (5, 7, 5, 7)]
    nonzero_d = 0
    for pair in pairs:
        m = residue_matrix(*pair)
        for mm in (m, extend_residue_matrix(m)):
            assert kernel_dimension(mm) == factor_based_kernel(mm), pair
        nonzero_d += kernel_dimension(m)[0] > 0
    # the panel reaches the nontrivial kernels as well
    assert nonzero_d > 500


def test_entries_are_the_classes_of_values():
    m = extend_residue_matrix(residue_matrix(36, 27, -4, 5))
    assert m.values[0][:4] == (1, 36 * 27, -20, 144)
    assert m.entries[0][:4] == (SquareClass.identity(), SquareClass(1, (3,)),
                                SquareClass(-1, (5,)), SquareClass.identity())
    assert m.entries is m.entries  # built once per matrix
    # read over the coprime base, they equal the classes from factoring
    rng = random.Random(2006)
    for _ in range(300):
        mm = extend_residue_matrix(residue_matrix(*structured_pair(rng)))
        assert mm.entries == tuple(tuple(square_class(v) for v in row)
                                   for row in mm.values)


def _square_class_panel(rng, count):
    """Pairs with entries +-k^2 * {1, 2, 3, 6}, k <= 12: a, b and a - b are
    often +-squares up to a small class, which reaches d = 2; about half
    the pairs repeat the first curve scaled by a square."""
    vals = [s * k * k * c for k in range(1, 13) for c in (1, 2, 3, 6) for s in (1, -1)]
    pairs = []
    while len(pairs) < count:
        a, b = rng.sample(vals, 2)
        k = rng.randint(1, 3)
        second = (k * k * a, k * k * b) if rng.random() < 0.5 else tuple(rng.sample(vals, 2))
        pairs.append((a, b) + second)
    return pairs


def test_square_test_kernel_matches_factor_oracle_up_to_d2():
    pairs = _square_class_panel(random.Random(2011), 3000)
    pairs += [(9, -16, 9, -16), (9, -16, 36, -64), (-16, 9, 25, 16)]
    ds = []
    for pair in pairs:
        m = residue_matrix(*pair)
        for mm in (m, extend_residue_matrix(m)):
            assert kernel_dimension(mm) == factor_based_kernel(mm), pair
        ds.append(kernel_dimension(m)[0])
    assert kernel_dimension(residue_matrix(9, -16, 9, -16))[0] == 2
    assert ds.count(2) >= 10 and ds.count(1) >= 500 and ds.count(0) >= 500


def _big_coeff_pool():
    """The benchmark's fixed pool of big-coefficient pairs (a = p q1,
    b = p q2 with p of 6 and q of 8 digits), read from perfbench."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [tuple(int(x) for x in e["key"].split(",")) for e in module.big_coeff_pool()]


def test_square_test_kernel_matches_factor_oracle_on_big_coeff_pool():
    pool = _big_coeff_pool()
    assert len(pool) == 32
    for pair in pool:
        m = residue_matrix(*pair)
        for mm in (m, extend_residue_matrix(m)):
            # factoring each 30-digit value on its own takes seconds; the
            # entries factor each coprime-base element once and equal those
            # classes (test_entries_are_the_classes_of_values)
            assert kernel_dimension(mm) == factor_based_kernel(mm, mm.entries), pair


def test_kernel_needs_no_coprime_base_or_factoring(monkeypatch):
    pairs = [(5, 7, 1, 2), (1, -3, 1, -3), (9, -16, 9, -16), (36, 27, -4, 5)]
    pairs += _big_coeff_pool()[:4]
    expected = [factor_based_kernel(residue_matrix(*p), residue_matrix(*p).entries)
                for p in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel must not call this")

    for module in (arith, residues):
        for name in ("coprime_base", "square_class_bits", "square_class", "factor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for pair, want in zip(pairs, expected):
        m = residue_matrix(*pair)
        assert kernel_dimension(m) == want
        assert kernel_dimension(extend_residue_matrix(m))[0] == want[0]
    with pytest.raises(AssertionError):
        residue_matrix(5, 7, 1, 2).entries  # the patch is live
