import hashlib
import inspect
import struct
import sys
from collections import Counter
from operator import itemgetter

import pytest

from kummer_brauer.arith import bits_of, factor
from kummer_brauer.gl2 import (
    GL2,
    SubgroupWitnesses,
    WitnessPredicate,
    _cyclic_extension,
    _prime_power_base,
    _primitive_root,
    enumerate_subgroups,
    subgroup_witnesses,
    validate_surjectivity_criterion,
    witness_classes,
    witness_masks,
)


def join(group, h_elems, h_mask, gens, g, limit):
    """Mask of <H, g> by a coset walk, or None once its size exceeds limit
    (so that, for limit = |G|/2, the join is all of G).  Right cosets of H
    are permuted by right multiplication, so the cost is linear in the size
    of the result."""
    mult = group.mult
    k_mask = h_mask
    reps = [group.identity]
    max_cosets = limit // len(h_elems)
    walk_gens = gens + [g]
    i = 0
    while i < len(reps):
        x = reps[i]
        i += 1
        for s in walk_gens:
            y = mult[x][s]
            if not (k_mask >> y) & 1:
                if len(reps) >= max_cosets:
                    return None
                coset = 0
                for h in h_elems:
                    coset |= 1 << mult[h][y]
                k_mask |= coset
                reps.append(y)
    return k_mask


def join_closure_subgroups(group):
    """Proper subgroups by breadth-first closure over joins with cyclic
    subgroups of prime-power order: every element is a product of commuting
    prime-power parts, so every subgroup is such an iterated join."""
    half = group.order // 2
    cyclics = group.cyclic_prime_power_subgroups()
    trivial = 1 << group.identity
    gens_of = {trivial: []}
    queue = [trivial]
    while queue:
        h_mask = queue.pop()
        h_elems = bits_of(h_mask)
        h_gens = gens_of[h_mask]
        for c_mask, g, _, _ in cyclics:
            if c_mask & h_mask == c_mask:
                continue
            k_mask = join(group, h_elems, h_mask, h_gens, g, half)
            if k_mask is None or k_mask in gens_of:
                continue
            gens_of[k_mask] = h_gens + [g]
            queue.append(k_mask)
    return sorted(gens_of)


def plain_table(ell):
    """Element list and multiplication table by direct matrix products."""
    elements = [(a, b, c, d) for a in range(ell) for b in range(ell)
                for c in range(ell) for d in range(ell) if (a * d - b * c) % ell]
    index = {m: i for i, m in enumerate(elements)}
    mult = [[index[((a * e + b * g) % ell, (a * f + b * h) % ell,
                    (c * e + d * g) % ell, (c * f + d * h) % ell)]
             for (e, f, g, h) in elements]
            for (a, b, c, d) in elements]
    return elements, mult


def test_group_orders():
    assert GL2(3).order == 48
    assert GL2(5).order == 480


def test_subgroup_enumeration_structural_checks():
    g = GL2(3)
    masks = enumerate_subgroups(g)
    sizes = sorted(bin(m).count("1") for m in masks)
    # Lagrange
    assert all(48 % s == 0 for s in sizes)
    # order-2 subgroup count equals the involution count
    involutions = sum(
        1 for i in range(g.order)
        if i != g.identity and g.mult[i][i] == g.identity)
    assert sizes.count(2) == involutions
    # closure spot check: each mask is closed under the group law
    import random
    rng = random.Random(5)
    for m in rng.sample(masks, 10):
        elems = [i for i in range(g.order) if (m >> i) & 1]
        for a in elems:
            for b in elems:
                assert (m >> g.mult[a][b]) & 1


def witness_classes_by_formula(ell):
    """The three witness classes straight from their definitions, with one
    modular inverse per (t, d)."""
    squares = {x * x % ell for x in range(ell)}
    nonsplit, split, generic = set(), set(), set()
    bad_u = {0 % ell, 1 % ell, 2 % ell, 4 % ell}
    for t in range(ell):
        for d in range(1, ell):
            disc = (t * t - 4 * d) % ell
            if t != 0 and disc not in squares:
                nonsplit.add((t, d))
            if t != 0 and disc != 0 and disc in squares:
                split.add((t, d))
            u = t * t * pow(d, -1, ell) % ell
            if u not in bad_u and (u * u - 3 * u + 1) % ell != 0:
                generic.add((t, d))
    return nonsplit, split, generic


def test_witness_classes_equal_the_formula_up_to_max_ell():
    from kummer_brauer.arith import primes_up_to
    from kummer_brauer.report import MAX_ELL
    for ell in primes_up_to(MAX_ELL):
        assert witness_classes(ell) == witness_classes_by_formula(ell), ell


def test_witness_predicate_equals_the_formula_up_to_max_ell():
    from kummer_brauer.arith import primes_up_to
    from kummer_brauer.report import MAX_ELL
    for ell in list(primes_up_to(MAX_ELL))[1:]:
        classify = WitnessPredicate(ell)
        classes = witness_classes_by_formula(ell)
        for t in range(ell):
            for d in range(1, ell):
                assert classify(t, d) == tuple((t, d) in c for c in classes), (ell, t, d)


def test_only_ell_3_has_an_empty_witness_class_up_to_max_ell():
    from kummer_brauer.arith import primes_up_to
    from kummer_brauer.report import MAX_ELL
    for ell in list(primes_up_to(MAX_ELL))[1:]:
        assert all(witness_classes_by_formula(ell)) == (ell != 3), ell


def test_witness_classes_mod_3_degenerate():
    w1, w2, w3 = witness_classes(3)
    assert w1  # nonsplit witnesses exist
    assert not w2  # t != 0 forces t^2 = 1, so t^2 - 4d is never a nonzero square
    assert not w3  # the excluded u-values cover all of F_3


def test_witness_classes_mod_5():
    w1, w2, w3 = witness_classes(5)
    assert w1 and w2 and w3
    # split witnesses mod 5 all have nonsquare determinant
    assert all(d in (2, 3) for _, d in w2)
    # the only admissible u mod 5 is 3
    for t, d in w3:
        assert t * t * pow(d, -1, 5) % 5 == 3


def test_oracle_passes_mod_3():
    r = validate_surjectivity_criterion(3)
    assert r.passed
    assert r.offending_proper_subgroups == ()
    assert r.group_order == 48
    assert r.subgroup_count == 55
    # the full group itself cannot exhibit the empty witness classes
    assert r.full_group.has_nonsplit
    assert not r.full_group.has_split and not r.full_group.has_generic
    assert len(r.notes) == 2


def test_oracle_passes_mod_5():
    r = validate_surjectivity_criterion(5)
    assert r.passed
    assert r.offending_proper_subgroups == ()
    assert r.group_order == 480
    assert r.subgroup_count == 466
    # sanity: the full group exhibits all three witnesses
    assert r.full_group == SubgroupWitnesses(480, True, True, True)
    assert r.notes == ()


def test_oracle_rejects_large_ell():
    with pytest.raises(ValueError):
        validate_surjectivity_criterion(7)


def test_table_matches_plain_build():
    # at ell = 2 the diagonal generator diag(r, 1) is the identity (r = 1);
    # the rows are compared by content, since the table keeps them as tuples
    for ell in (2, 3, 5):
        g = GL2(ell)
        elements, mult = plain_table(ell)
        assert g.elements == elements
        assert [list(row) for row in g.mult] == mult
        assert g.elements[g.identity] == (1, 0, 0, 1)


def table_sha256(group):
    """sha256 of the element list and identity index (their repr), then of
    each table row as little-endian 16-bit indices."""
    digest = hashlib.sha256(repr((group.elements, group.identity)).encode("ascii"))
    for row in group.mult:
        digest.update(struct.pack(f"<{group.order}H", *row))
    return digest.hexdigest()


# table_sha256(GL2(7)) as built entry by entry from 4-tuple products;
# plain_table(7) takes over a second, so the table is pinned by its digest
GL2_7_TABLE_SHA256 = "55277b116bed35d0b2e8c7c55bade34074be1d76cf5be00fe8b2a32a1ed62d1b"


def test_table_mod_7_equals_the_pinned_digest():
    assert table_sha256(GL2(7)) == GL2_7_TABLE_SHA256


def test_table_build_fails_when_the_generators_miss_a_determinant(monkeypatch):
    # with r = 1 the three generators lie in SL(2, 5), a quarter of GL(2, 5)
    monkeypatch.setattr("kummer_brauer.gl2._primitive_root", lambda ell: 1)
    with pytest.raises(RuntimeError, match="enumeration failure: .* 120 of 480"):
        GL2(5)


def cyclic_subgroups_by_element(group):
    """The listing of cyclic_prime_power_subgroups, element by element: the
    powers of every element i, by right multiplication x -> x i, and for each
    cyclic subgroup of prime-power order the first i found to generate it."""
    seen = {}
    for i in range(group.order):
        pw = [group.identity]
        x = i
        while x != group.identity:
            pw.append(x)
            x = group.mult[x][i]
        p = _prime_power_base(len(pw))
        if p is not None:
            seen.setdefault(sum(1 << x for x in pw), (i, p, pw))
    return [(mask, *found) for mask, found in seen.items()]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_cyclic_listing_equals_the_element_by_element_listing(ell):
    # the steps read g, p and g's powers off the listing, so its tuples and
    # their order are pinned, not only its masks
    g = GL2(ell)
    assert g.cyclic_prime_power_subgroups() == cyclic_subgroups_by_element(g)


@pytest.mark.parametrize("ell, walks", [(3, 28), (5, 176), (7, 610)])
def test_cyclic_listing_walks_each_cyclic_subgroup_once(ell, walks, monkeypatch):
    # one powers() call per cyclic subgroup, of any order; a walk from every
    # element makes 48, 480 and 2016 calls
    g = GL2(ell)
    walked = []
    powers = GL2.powers
    monkeypatch.setattr(GL2, "powers", lambda self, i: walked.append(i) or powers(self, i))
    g.cyclic_prime_power_subgroups()
    cyclic = {sum(1 << x for x in powers(g, i)) for i in range(g.order)}
    assert len(walked) == len(cyclic) == walks
    assert {sum(1 << x for x in powers(g, i)) for i in walked} == cyclic


def test_primitive_root_is_the_least_generator():
    assert [_primitive_root(ell) for ell in (2, 3, 5, 7, 11, 13, 23, 41)] == [
        1, 2, 2, 3, 2, 2, 5, 6]


@pytest.mark.parametrize("ell", [3, 5])
def test_cyclic_extension_matches_join_closure(ell):
    g = GL2(ell)
    assert enumerate_subgroups(g) == join_closure_subgroups(g)


def witnesses_by_sets(group, classes, elems):
    """The witnesses of the subgroup with element list elems, read off the
    set of its (trace, det) pairs."""
    w1, w2, w3 = classes
    td = {(group.trace[i], group.det[i]) for i in elems}
    return SubgroupWitnesses(
        len(elems),
        any(p in w1 for p in td),
        any(p in w2 for p in td),
        any(p in w3 for p in td),
    )


@pytest.mark.parametrize("ell", [3, 5])
def test_mask_witnesses_equal_the_set_reference(ell):
    g = GL2(ell)
    classes = witness_classes(ell)
    class_masks = witness_masks(g, classes)
    for mask in enumerate_subgroups(g) + [(1 << g.order) - 1]:
        assert (subgroup_witnesses(mask, class_masks)
                == witnesses_by_sets(g, classes, bits_of(mask)))


class CountingRows(list):
    """A multiplication table that counts its row lookups."""

    def __init__(self, rows):
        super().__init__(rows)
        self.lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def enumeration_lookups(ell):
    """The subgroup count and the row lookups of group.mult made by the whole
    enumeration at ell, the listing of the cyclic subgroups included."""
    g = GL2(ell)
    g.mult = CountingRows(g.mult)
    return len(enumerate_subgroups(g)), g.mult.lookups


def test_enumeration_work_bound_mod_5():
    # 7 816 lookups when each cyclic subgroup is walked once, along one row,
    # and only the first subgroup found in each conjugacy class is extended.
    # Walking the cyclic subgroups from every element, one row per power,
    # makes it 12 059; with that listing, extending every subgroup makes it
    # 74 481, and also trying every step on every subgroup and reading each
    # coset one row per element of H makes it 144 766
    count, lookups = enumeration_lookups(5)
    assert count == 465 and lookups <= 7_816


def test_enumeration_work_bound_mod_7():
    # 34 765 lookups, against 68 238 when the cyclic subgroups are walked
    # from every element, one row per power, and 701 845 with that listing
    # when every subgroup is extended
    count, lookups = enumeration_lookups(7)
    assert count == 1703 and lookups <= 34_765


def masks_sha256(group, masks):
    """sha256 of the masks in order, each as little-endian bytes of fixed
    width."""
    digest = hashlib.sha256()
    for mask in masks:
        digest.update(mask.to_bytes((group.order + 7) // 8, "little"))
    return digest.hexdigest()


# masks_sha256 of join_closure_subgroups(GL2(7)): its 1703 proper subgroups.
# The closure itself takes about a minute, so it is kept out of the suite.
JOIN_CLOSURE_7_SHA256 = "e42218f8f68b3bfd307bc8ca67679467f2b9f2bf2c5f618bbda1834080f717b4"


def test_cyclic_extension_mod_7_equals_the_join_closure_digest():
    g = GL2(7)
    masks = enumerate_subgroups(g)
    assert len(masks) == 1703
    assert masks_sha256(g, masks) == JOIN_CLOSURE_7_SHA256


@pytest.mark.parametrize("ell, count", [(3, 1), (5, 2), (7, 3)])
def test_the_subgroups_above_sl2_are_the_normal_det_preimages(ell, count):
    # the SL(2, ell) seed records no generators: each subgroup above it is
    # the det-preimage of a proper subgroup {x : x^k = 1} of the cyclic
    # F_ell^*, and so normal, and the normality test never fails there
    g = GL2(ell)
    sl_mask = sum(1 << i for i, det in enumerate(g.det) if det == 1)
    above = {m for m in enumerate_subgroups(g) if m & sl_mask == sl_mask}
    preimages = {sum(1 << i for i, det in enumerate(g.det) if pow(det, k, ell) == 1)
                 for k in range(1, ell - 1) if (ell - 1) % k == 0}
    assert above == preimages and len(above) == count
    subgroups = [set(bits_of(m)) for m in above]  # each of order >= 24
    for x in range(g.order):
        # x h x^-1 for each h in H: x's row read at H, then x^-1's column
        x_row, x_inv_column = g.mult[x], list(map(itemgetter(g.powers(x)[-1]), g.mult))
        for h in subgroups:
            assert h.issuperset(itemgetter(*itemgetter(*h)(x_row))(x_inv_column))


def test_sl2_seed_is_needed_exactly_for_the_perfect_top():
    g = GL2(5)
    full = enumerate_subgroups(g)
    without_sl = _cyclic_extension(g, [(1 << g.identity, [])])
    assert set(without_sl) <= set(full)
    missing = sorted(bin(m).count("1") for m in set(full) - set(without_sl))
    assert set(missing) == {120, 240}
    assert all(bin(m).count("1") not in (120, 240) for m in without_sl)


def test_prime_power_base_matches_factor():
    for n in range(1, 2000):
        f = factor(n).factors
        expected = f[0][0] if len(f) == 1 else None
        assert _prime_power_base(n) == expected, n
    assert _prime_power_base(899) is None  # 29 * 31
    assert _prime_power_base(1) is None
    assert _prime_power_base(1024) == 2


def least_conjugates(group, masks):
    """Map each mask to the least mask of its conjugacy class, conjugating by
    every element x of the group (H -> x H x^-1), and check that each
    conjugate is itself in masks."""
    listed = set(masks)
    least = dict(zip(masks, masks))
    elems = [bits_of(m) for m in masks]
    for x in range(group.order):
        x_inv = group.powers(x)[-1]
        conj_bit = [1 << group.mult[y][x_inv] for y in group.mult[x]]
        for m, h_elems in zip(masks, elems):
            image = sum(map(conj_bit.__getitem__, h_elems))
            assert image in listed, (x, m)
            least[m] = min(least[m], image)
    return least


@pytest.mark.parametrize("ell, class_count", [(3, 15), (5, 47)])
def test_every_conjugate_of_a_subgroup_is_listed(ell, class_count):
    g = GL2(ell)
    least = least_conjugates(g, enumerate_subgroups(g))
    assert len(set(least.values())) == class_count


def step_loop_subgroups(group):
    """enumerate_subgroups(group), and the mask of H at each pass of the step
    loop of _cyclic_extension, read from its frame at the line after the one
    that pops H off the queue."""
    code = _cyclic_extension.__code__
    lines, first = inspect.getsourcelines(_cyclic_extension)
    after_pop = first + 1 + next(i for i, line in enumerate(lines) if "queue.pop()" in line)
    extended = []

    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno == after_pop:
            extended.append(frame.f_locals["h_mask"])
        return trace_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code is code else None)
    try:
        masks = enumerate_subgroups(group)
    finally:
        sys.settrace(previous)
    return masks, extended


@pytest.mark.parametrize("ell", [3, 5])
def test_the_step_loop_runs_once_per_conjugacy_class(ell):
    g = GL2(ell)
    masks, extended = step_loop_subgroups(g)
    least = least_conjugates(g, masks)
    assert sorted(least[h] for h in extended) == sorted(set(least.values()))


def onto_determinant(group, masks):
    """The masks whose determinant image is all of F_ell^*."""
    det_masks = [sum(1 << i for i, det in enumerate(group.det) if det == d)
                 for d in set(group.det)]
    return [m for m in masks if all(m & dm for dm in det_masks)]


@pytest.mark.parametrize("ell, orders", [(5, {48: 10, 80: 6, 96: 5}),
                                         (7, {72: 28, 96: 21, 252: 8})])
def test_maximal_subgroups_with_onto_determinant_have_dicksons_counts(ell, orders):
    # Dickson: at 5, N(C_ns), the Borel subgroups and the S4-type (N(C_s), of
    # order 32, lies in an S4-type); at 7, N(C_s), N(C_ns) and the Borel
    # subgroups, and no S4-type, because 7 = -1 mod 8
    g = GL2(ell)
    onto = onto_determinant(g, enumerate_subgroups(g))
    maximal = [m for m in onto if not any(o != m and o & m == m for o in onto)]
    assert Counter(m.bit_count() for m in maximal) == orders


def test_no_subgroup_with_onto_determinant_meets_all_three_witnesses_mod_7():
    # the sampling criterion at ell = 7, where det, the cyclotomic character,
    # is onto F_7^*: no proper subgroup with onto determinant meets all
    # three witness classes
    g = GL2(7)
    masks = enumerate_subgroups(g)
    class_masks = witness_masks(g, witness_classes(7))
    onto = onto_determinant(g, masks)
    assert len(onto) == 649
    def all_three(mask):
        w = subgroup_witnesses(mask, class_masks)
        return w.has_nonsplit and w.has_split and w.has_generic

    assert not any(all_three(m) for m in onto)
    # the one proper subgroup that does is the det-preimage of {1, -1}
    offenders = [m for m in masks if all_three(m)]
    assert [(m.bit_count(), {g.det[i] for i in bits_of(m)}) for m in offenders] == [(672, {1, 6})]
