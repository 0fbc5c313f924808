"""Exhaustive subgroup enumeration of GL(2, F_ell) for small ell, used as a
soundness oracle for the trace/determinant surjectivity criterion.

Subgroups are represented as bitmasks over the element list.  They are found
by cyclic extension over normalizers (Neubueser, Numer. Math. 2, 1960; Holt,
Eick and O'Brien, Handbook of Computational Group Theory, 2005).  From a
found subgroup H, one step takes a listed cyclic p-subgroup C = <g> (p prime)
with C not inside H, g^p in H, and g normalizing H (g x g^-1 in H for each
recorded generator x of H, which suffices for a finite H they generate).
Then H is normal of index p in K = <H, g> = H u gH u ... u g^(p-1)H, so K is
built directly: each coset g^i H is one table row read at the elements of H.
The seeds are the trivial group and SL(2, ell).

SL(2, ell) is seeded with no generators, so a subgroup built from it records
only the g of the steps above it.  No more is needed: every subgroup H
containing SL(2, ell) is normal in GL(2, ell), being the det-preimage of a
subgroup of the abelian quotient GL/SL = F_ell^*, so every g normalizes H and
the normality test cannot fail above that seed.

Each piece of work is done once:

- Each listed generator's powers are walked once, when the cyclic subgroups
  are listed, and its step reads g^p, g^-1 and g, ..., g^(p-1) off them.
- The steps are indexed by g^p, so for H only the steps whose g^p lies in H
  are tried, by walking H's elements.
- A step whose g lies in H adds nothing, and one whose g lies in a K already
  built from H (outside H) gives K again, so both are skipped: H < <H, g> <= K,
  and H has prime index in K, so no subgroup lies strictly between them.
- Only the first subgroup found in each conjugacy class is extended.  When a
  step builds a K whose mask is new, every conjugate of K is added at once,
  by a breadth-first walk that reads element lists through one table
  x -> s x s^-1 per generator s of the group; a mask is its elements' bits
  summed.
- Only these representatives keep their element list and generators.  K's
  list is H's followed by its p - 1 cosets, which are disjoint because H is
  normal of index p, so only the seeds' masks are ever read back into
  elements.

Why this finds every subgroup:

- A subgroup K that is not perfect has a normal subgroup H of prime index p
  (the preimage of a prime-index subgroup of the abelian K/[K, K]).  For any
  x in K outside H, its p-part x_p also lies outside H, because the p'-part
  maps to 1 in K/H of order p.  So <x_p> is a listed cyclic p-subgroup, not
  inside H, whose listed generator g has g^p in H and normalizes H as an
  element of K.  So a step from H reaches K, and H, being smaller, is
  found by induction.
- Extending one subgroup per class loses nothing.  Conjugation by x maps the
  step H -> <H, g> to xHx^-1 -> <xHx^-1, xgx^-1>, and the listed generator
  g' of <xgx^-1> has g'^p in xHx^-1 and normalizes it.  So from the extended
  conjugate of H a step reaches a conjugate of K, whose class brings K.  The
  seeds are normal, so each is a class of its own.
- A perfect subgroup lies in SL(2, ell), because det maps into the abelian
  group F_ell^*.  SL(2, 3) has order 24 and is solvable, so its only perfect
  subgroup is trivial.  A nontrivial perfect group is not solvable, so its
  order is at least 60; a proper perfect subgroup of SL(2, 5) (order 120)
  would have order 60, hence index 2, hence be normal with abelian quotient,
  which a perfect group does not have.  So the two seeds cover every perfect
  subgroup.
"""

from __future__ import annotations

from operator import itemgetter

from .arith import Record, bits_of

# the ell at which the exhaustive oracle runs
ORACLE_ELLS = (3, 5)


class GL2:
    """GL(2, F_ell) with a dense multiplication table, mult[i][j] the index of
    elements[i] * elements[j].  Three generators' rows come from matrix
    entries; the others are filled breadth-first over the Cayley graph."""

    def __init__(self, ell: int):
        ell2 = ell * ell
        elements = [(a, b, c, d) for a in range(ell) for b in range(ell)
                    for c in range(ell) for d in range(ell) if (a * d - b * c) % ell]
        n = len(elements)
        expected = (ell2 - 1) * (ell2 - ell)
        if n != expected:
            raise RuntimeError(f"enumeration failure: {n} != {expected}")
        index = {m: i for i, m in enumerate(elements)}
        # the elementary matrices (1, 1, 0, 1) and (1, 0, 1, 1) generate
        # SL(2, ell), and diag(r, 1) for a primitive root r adds every determinant
        gens = ((1, 1, 0, 1), (1, 0, 1, 1), (_primitive_root(ell), 0, 0, 1))
        rows = [[index[((a * e + b * g) % ell, (a * f + b * h) % ell,
                        (c * e + d * g) % ell, (c * f + d * h) % ell)]
                 for (e, f, g, h) in elements] for (a, b, c, d) in gens]
        self.identity = index[(1, 0, 0, 1)]
        self.generators = [index[s] for s in gens]
        # s h is s's row at h, and the row of s h is s's row read at h's row
        # (itemgetter of n >= 6 indices returns a tuple)
        mult = [None] * n
        mult[self.identity] = list(range(n))
        reached = [self.identity]
        for h in reached:
            for s_row in rows:
                k = s_row[h]
                if mult[k] is None:
                    mult[k] = list(itemgetter(*mult[h])(s_row))
                    reached.append(k)
        if len(reached) != n:
            raise RuntimeError(f"enumeration failure: the generators reach {len(reached)} of {n}")
        self.mult = mult
        self.elements = elements
        self.order = n
        self.trace = [(m[0] + m[3]) % ell for m in elements]
        self.det = [(m[0] * m[3] - m[1] * m[2]) % ell for m in elements]

    def powers(self, i: int) -> list[int]:
        """[1, x, x^2, ..., x^(n-1)] for the element x = i of order n."""
        out = [self.identity]
        x = i
        while x != self.identity:
            out.append(x)
            x = self.mult[x][i]
        return out

    def cyclic_prime_power_subgroups(self) -> list[tuple[int, int, int, list[int]]]:
        """(mask, generator, p, the generator's powers) for each distinct
        cyclic subgroup of order a power of the prime p."""
        seen: dict[int, tuple[int, int, list[int]]] = {}
        for i in range(self.order):
            pw = self.powers(i)
            p = _prime_power_base(len(pw))
            if p is None:
                continue
            mask = 0
            for x in pw:
                mask |= 1 << x
            seen.setdefault(mask, (i, p, pw))
        return [(mask, *found) for mask, found in seen.items()]


def _primitive_root(ell: int) -> int:
    """The least r generating the multiplicative group mod the prime ell."""
    return next(r for r in range(1, ell)
                if len({pow(r, k, ell) for k in range(ell - 1)}) == ell - 1)


def _prime_power_base(n: int) -> int | None:
    """The prime p if n = p^k with k >= 1, else None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n and n % p:
        p += 1
    if n % p:
        p = n  # no factor up to sqrt(n): n is prime
    while n % p == 0:
        n //= p
    return p if n == 1 else None


class SubgroupWitnesses(Record):
    """Which witness classes a subgroup of the given order meets:
    nonsplit (trace != 0, t^2 - 4d a nonsquare), split (trace != 0,
    t^2 - 4d a nonzero square), generic (u = t^2/d outside {0,1,2,4} and
    u^2 - 3u + 1 != 0)."""

    __match_args__ = ("order", "has_nonsplit", "has_split", "has_generic")

    def __init__(self, order: int, has_nonsplit: bool, has_split: bool, has_generic: bool):
        self.__dict__.update(order=order, has_nonsplit=has_nonsplit, has_split=has_split,
                             has_generic=has_generic)

    @property
    def all_three(self) -> bool:
        return self.has_nonsplit and self.has_split and self.has_generic


class CriterionValidation(Record):
    """Result of checking the witness criterion against the full lattice;
    offending_proper_subgroups lists orders and should be empty."""

    __match_args__ = ("ell", "group_order", "subgroup_count", "offending_proper_subgroups",
                      "full_group", "passed", "notes")

    def __init__(self, ell: int, group_order: int, subgroup_count: int,
                 offending_proper_subgroups: tuple[int, ...], full_group: SubgroupWitnesses,
                 passed: bool, notes: tuple[str, ...] = ()):
        self.__dict__.update(ell=ell, group_order=group_order, subgroup_count=subgroup_count,
                             offending_proper_subgroups=offending_proper_subgroups,
                             full_group=full_group, passed=passed, notes=notes)


class WitnessPredicate:
    """The three witness conditions mod an odd prime ell, for one sample
    (t, d) = (a_p mod ell, p mod ell) with d != 0:

      nonsplit: t != 0 and t^2 - 4d a nonsquare;
      split:    t != 0 and t^2 - 4d a nonzero square;
      generic:  u = t^2/d outside {0, 1, 2, 4} with u^2 - 3u + 1 != 0.

    Set-up tabulates the squares mod ell, O(ell); each call is O(1)."""

    def __init__(self, ell: int):
        self.ell = ell
        self.square = [False] * ell
        for x in range(ell):
            self.square[x * x % ell] = True

    def __call__(self, t: int, d: int) -> tuple[bool, bool, bool]:
        """(nonsplit, split, generic) for 0 <= t < ell and 0 < d < ell."""
        ell = self.ell
        tt = t * t % ell
        disc = (tt - 4 * d) % ell
        square = self.square[disc]
        # u = t^2/d: u in {0, 1, 2, 4} iff t^2 in {0, d, 2d, 4d}, and
        # u^2 - 3u + 1 = 0 iff t^4 - 3 t^2 d + d^2 = 0, so d is never inverted
        generic = (tt not in (0, d, 2 * d % ell, 4 * d % ell)
                   and (tt * tt - 3 * tt * d + d * d) % ell != 0)
        return t != 0 and not square, t != 0 and disc != 0 and square, generic


def witness_classes(ell: int) -> tuple[set, set, set]:
    """The (t, d) pairs in F_ell satisfying each of the three witness
    conditions of `WitnessPredicate`, which is what sampling runs.  Any empty
    class means that witness can never be sampled."""
    classify = WitnessPredicate(ell)
    classes = (set(), set(), set())
    for t in range(ell):
        for d in range(1, ell):
            for cls, hit in zip(classes, classify(t, d)):
                if hit:
                    cls.add((t, d))
    return classes


def witness_masks(group: GL2, classes: tuple[set, set, set]) -> tuple[int, ...]:
    """For each witness class, the mask of the elements whose (trace, det)
    lies in it."""
    masks = [0] * len(classes)
    for i, td in enumerate(zip(group.trace, group.det)):
        for k, cls in enumerate(classes):
            if td in cls:
                masks[k] |= 1 << i
    return tuple(masks)


def subgroup_witnesses(mask: int, class_masks: tuple[int, ...]) -> SubgroupWitnesses:
    """The order of the subgroup `mask` and which witness classes meet it."""
    nonsplit, split, generic = (bool(mask & m) for m in class_masks)
    return SubgroupWitnesses(mask.bit_count(), nonsplit, split, generic)


def enumerate_subgroups(group: GL2) -> list[int]:
    """Masks of all subgroups of the group, the full group excluded."""
    sl_mask = sum(1 << i for i, det in enumerate(group.det) if det == 1)
    # SL(2, ell) needs no generators: every subgroup above it is normal
    return _cyclic_extension(group, [(1 << group.identity, []), (sl_mask, [])])


def _cyclic_extension(group: GL2, seeds: list[tuple[int, list[int]]]) -> list[int]:
    """Masks of the proper subgroups reached from the normal seeds (mask,
    generators) by normal prime-index steps from one subgroup per conjugacy
    class, and of their conjugates; see the module docstring."""
    mult = group.mult
    # steps_at[y]: the steps (p, g, g^-1, [g, ..., g^(p-1)]) with g^p = y
    steps_at = [[] for _ in range(group.order)]
    for _, g, p, pw in group.cyclic_prime_power_subgroups():
        steps_at[pw[p % len(pw)]].append((p, g, pw[-1], pw[1:p]))
    bit = [1 << x for x in range(group.order)]
    # x -> s x s^-1 for each generator s: s's row read in s^-1's column
    conjugations = [itemgetter(*mult[s])(list(map(itemgetter(group.powers(s)[-1]), mult)))
                    for s in group.generators]
    found = {mask for mask, _ in seeds}
    # (mask, element list, generators) of one subgroup per conjugacy class
    queue = [(mask, bits_of(mask), gens) for mask, gens in seeds]
    while queue:
        h_mask, h_elems, h_gens = queue.pop()
        h_size = len(h_elems)
        built = h_mask  # H and every K built from it
        for y in h_elems:
            for p, g, g_inv, g_powers in steps_at[y]:
                if (built >> g) & 1 or p * h_size == group.order:
                    continue
                g_row = mult[g]
                for x in h_gens:
                    if not (h_mask >> mult[g_row[x]][g_inv]) & 1:
                        break
                else:
                    # H is normal in K, so its cosets g^i H are g^i's row on H
                    k_elems = h_elems.copy()
                    for gi in g_powers:
                        row = mult[gi]
                        k_elems += [row[h] for h in h_elems]
                    k_mask = sum(itemgetter(*k_elems)(bit))
                    built |= k_mask
                    if k_mask not in found:
                        # K is the first of its class: add the whole class
                        found.add(k_mask)
                        queue.append((k_mask, k_elems, h_gens + [g]))
                        members = [k_elems]
                        for elems in members:
                            for conjugate in conjugations:
                                image = itemgetter(*elems)(conjugate)
                                mask = sum(itemgetter(*image)(bit))
                                if mask not in found:
                                    found.add(mask)
                                    members.append(image)
    return sorted(found)


def validate_surjectivity_criterion(ell: int) -> CriterionValidation:
    """Check that no proper subgroup of GL(2, F_ell) exhibits all three
    trace/determinant witnesses within its full (trace, det) multiset.

    Only ell in ORACLE_ELLS is supported (group orders 48 and 480); larger
    ell is covered by the classical subgroup classification, not by this
    oracle.
    """
    if ell not in ORACLE_ELLS:
        raise ValueError(f"the exhaustive oracle is built for ell in {ORACLE_ELLS}")
    group = GL2(ell)
    classes = witness_classes(ell)
    class_masks = witness_masks(group, classes)
    masks = enumerate_subgroups(group)
    offending = []
    for mask in masks:
        found = subgroup_witnesses(mask, class_masks)
        if group.order % found.order:
            raise RuntimeError("enumeration failure: Lagrange violated")
        if found.all_three:
            offending.append(found.order)
    full = subgroup_witnesses((1 << group.order) - 1, class_masks)
    notes = []
    for name, cls in zip(("nonsplit", "split", "generic"), classes):
        if not cls:
            notes.append(f"witness class '{name}' is empty mod {ell}: "
                         "the criterion can never fire at this ell")
    return CriterionValidation(
        ell=ell,
        group_order=group.order,
        subgroup_count=len(masks) + 1,  # + the full group
        offending_proper_subgroups=tuple(sorted(offending)),
        full_group=full,
        passed=not offending,
        notes=tuple(notes),
    )
