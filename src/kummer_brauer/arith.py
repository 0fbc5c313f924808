"""Exact integer/rational arithmetic: factorization, p-adic valuations,
perfect-square tests, and square classes in Q*/Q*^2, by factorization and as
exponent parities over a coprime base (which serves only the displayed
residue classes; the residue kernel needs square tests alone), and the
rational roots of integer polynomials.  Also Record, the base of the
package's immutable records, and primes_up_to.

All operations are deterministic, and the module keeps no state: the primes
come from the constant table SMALL_PRIMES of the primes below 1000, then,
only for a caller that reads past it, from a fresh sieve that is not kept.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, compress, islice, takewhile

Rational = Fraction

TRIAL_DIVISION_BOUND = 10**6
# Pollard-rho steps one factor() call may take in total: about 1 s at 37
# digits (3 us a step).  It splits off prime factors up to about 10^11: in a
# sample of ten products of two primes each, all split at 11 digits, 7 at 12.
RHO_STEP_BUDGET = 300_000


def _sieve(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[:2] = bytes(2)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((limit - p * p) // p + 1)
    return list(compress(range(limit + 1), flags))


# the 168 primes below 1000: a scan that ends at an early witness reads no more
SMALL_PRIMES = tuple(_sieve(1000))
# is_prime answers below 1000 by membership
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)


def primes_up_to(limit: int) -> Iterator[int]:
    """The primes <= limit, lazily in increasing order: SMALL_PRIMES, then,
    only for a caller that reads past them, one fresh sieve (not kept)."""
    small = takewhile(limit.__ge__, SMALL_PRIMES)
    return chain(small, _sieved_past_table(limit)) if limit > 1000 else small


def _sieved_past_table(limit: int) -> Iterator[int]:
    yield from islice(_sieve(limit), len(SMALL_PRIMES), None)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# bases {2, 3, 5, 7} are proven deterministic below this bound (Jaeschke 1993)
_MR_SMALL_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Whether n is prime: membership in SMALL_PRIMES below 1000, where
    every scan starts, and Miller-Rabin above."""
    return n in _SMALL_PRIME_SET if n < 1000 else _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # the full witness set is proven deterministic for n < 3.3 * 10^24
    for a in _MR_BASES[:4] if n < _MR_SMALL_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FactorBudgetError(ValueError):
    """factor() ran out of its RHO_STEP_BUDGET Pollard-rho steps."""


def _pollard_rho(n: int, steps: int) -> tuple[int, int]:
    """A nontrivial factor of an odd composite n (deterministic restarts) and
    what is left of the given step budget; FactorBudgetError when none is."""
    if n % 2 == 0:
        return 2, steps
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            if steps == 0:
                raise FactorBudgetError(
                    f"no factor of {n} within {RHO_STEP_BUDGET} Pollard-rho steps")
            steps -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, steps
        c += 1


class Record:
    """An immutable record with field-wise ==, hash and repr.

    A subclass names its fields in __match_args__, in repr order, and sets
    them in its own __init__ through self.__dict__.  == and hash read every
    field; records of different classes are never equal.  Assigning or
    deleting any attribute raises AttributeError.  A memo (cached_property)
    writes to the instance dict directly and takes no part in ==, hash or repr.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self, record: "Record") -> tuple:
        """The fields of a record of this class."""
        return tuple(getattr(record, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Factorization(Record):
    """sign * prod(p^e) with strictly increasing primes and e >= 1."""

    __match_args__ = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        self.__dict__.update(sign=sign, factors=factors)

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


def factor(n: int) -> Factorization:
    """Factor a nonzero integer: trial division to 10^6, then Pollard rho
    with a deterministic primality check on the cofactors.  Raises
    FactorBudgetError when the cofactors take more than RHO_STEP_BUDGET
    rho steps."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    powers: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p <= TRIAL_DIVISION_BOUND:
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    steps = RHO_STEP_BUDGET
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            powers[m] = powers.get(m, 0) + 1
            continue
        d, steps = _pollard_rho(m, steps)
        stack.append(d)
        stack.append(m // d)
    return Factorization(sign, tuple(sorted(powers.items())))


def valuation(x: int | Rational, p: int) -> int:
    """The p-adic valuation of a nonzero int or Fraction, read off its
    numerator and denominator; any other type (a str, a float) raises
    TypeError."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"valuation takes an int or a Fraction, not {type(x).__name__}")
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("valuation of 0 is undefined")

    def _val(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return _val(num) - _val(den)


class SquareClass(Record):
    """An element of Q*/Q*^2: a sign and the squarefree prime support."""

    __match_args__ = ("sign", "support")

    def __init__(self, sign: int, support: tuple[int, ...]):
        self.__dict__.update(sign=sign, support=support)

    @staticmethod
    def identity() -> "SquareClass":
        return SquareClass(1, ())

    @property
    def is_identity(self) -> bool:
        return self.sign == 1 and not self.support

    def representative(self) -> int:
        """The canonical squarefree integer representing this class."""
        n = self.sign
        for p in self.support:
            n *= p
        return n


def square_class(x: int | Rational) -> SquareClass:
    """The class of a nonzero rational in Q*/Q*^2."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no square class")
    # x and numerator*denominator differ by the square denominator^2
    f = factor(x.numerator * x.denominator)
    support = tuple(p for p, e in f.factors if e % 2 == 1)
    return SquareClass(f.sign, support)


def sc_mul(u: SquareClass, v: SquareClass) -> SquareClass:
    """Group law of Q*/Q*^2: sign product, symmetric difference of supports."""
    support = tuple(sorted(set(u.support) ^ set(v.support)))
    return SquareClass(u.sign * v.sign, support)


def is_square(n: int) -> bool:
    """Whether the integer n is a perfect square."""
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_rational_square(x: int | Rational) -> bool:
    # a fraction in lowest terms is a square iff both of its terms are
    x = Fraction(x)
    return x > 0 and is_square(x.numerator) and is_square(x.denominator)


def coprime_base(ns) -> list[int]:
    """Pairwise coprime integers > 1, ascending, such that every nonzero n in
    ns is +-1 times a product of their powers.

    Factor refinement by gcds (Bach, Driscoll and Shallit, J. Algorithms 15,
    1993; Bernstein, J. Algorithms 54, 2005): a pair x, c with g = gcd(x, c)
    > 1 is replaced by x/g, g and c/g, which strictly lowers the product of
    all the numbers held, so the loop ends without factoring anything.
    """
    todo = [abs(n) for n in ns if abs(n) > 1]
    base: list[int] = []
    while todo:
        x = todo.pop()
        for i, c in enumerate(base):
            g = math.gcd(x, c)
            if g > 1:
                del base[i]
                todo.extend(v for v in (x // g, g, c // g) if v > 1)
                break
        else:
            base.append(x)
    return sorted(base)


def square_class_bits(n: int, base: list[int]) -> int:
    """The class of a nonzero integer n in Q*/Q*^2 as a bit vector: bit 0 is
    the sign, bit i + 1 the exponent parity of base[i].

    base must be pairwise coprime non-squares (the non-square elements of a
    coprime_base).  An odd power of such an element is never a square, and
    coprime elements share no prime, so distinct classes get distinct
    vectors.  Raises ValueError when what is left of n after dividing out the
    base is not a square, i.e. when n is not in the span of the base.
    """
    if n == 0:
        raise ValueError("0 has no square class")
    bits = int(n < 0)
    n = abs(n)
    for i, c in enumerate(base):
        e = 0
        while n % c == 0:
            n //= c
            e += 1
        bits |= (e & 1) << (i + 1)
    if not is_square(n):
        raise ValueError(f"cofactor {n} is not a square over the base")
    return bits


def bits_of(mask: int) -> list[int]:
    """Indices of set bits of a non-negative mask, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


# -- rational roots ---------------------------------------------------------------

Poly = list[int]  # integer coefficients, constant term first

# rational_roots looks for a prime with no root mod p among this many primes
ROOT_TEST_PRIMES = 6


def poly_eval(f: Poly, x, m: int = 0):
    """f(x), or f(x) mod m for m > 0."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
        if m:
            acc %= m
    return acc


def _has_repeated_root(f: Poly) -> bool:
    """Whether gcd(f, f') has positive degree, by Euclid's algorithm over Q."""
    a = [Fraction(c) for c in f]
    b = [Fraction(i * c) for i, c in enumerate(f)][1:]
    while b:
        while len(a) >= len(b):  # a <- a mod b
            q, k = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[i + k] -= q * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) > 1


def _root_bound(g: Poly) -> int:
    """A power of two M with |y| <= M for every complex root y of the monic
    g of degree n >= 1: Fujiwara's bound 2 max_k |g_(n-k)|^(1/k) (Tohoku
    Math. J. 10, 1916) or more, since |g_(n-k)| < 2^b for b its bit length,
    and so |g_(n-k)|^(1/k) < 2^ceil(b/k)."""
    n = len(g) - 1
    return 2 * max(1 << -(-g[n - k].bit_length() // k) for k in range(1, n + 1))


def rational_roots(f: Poly) -> list[Fraction]:
    """The rational roots of f, an integer polynomial, in increasing order,
    found without factoring.

    y = c x (c the leading coefficient) turns c^(n-1) f(y/c) into a monic
    integer polynomial g, whose rational roots are integers, so each reduces
    to a root of g mod every prime.  The first ROOT_TEST_PRIMES primes
    p >= 5 not dividing c are tried: one with no root mod p proves there is
    none.  Otherwise the roots mod the prime with the fewest roots, all of
    them simple, are Hensel-lifted modulo p^(2^k) > 2M, M = _root_bound(g)
    (Fujiwara's bound on |y|); a lift becomes a root only when |y| <= M,
    y divides g_0 and g(y) = 0 exactly.  ValueError when the leading
    coefficient is 0, or when none of the first ROOT_TEST_PRIMES primes has
    only simple roots or none and f has a repeated root: a repeated
    rational root is a repeated root mod every prime.
    """
    n = len(f) - 1
    c = f[n]
    if c == 0:
        raise ValueError("leading coefficient is 0")
    g = [f[i] * c ** (n - 1 - i) for i in range(n)] + [1]
    dg = [i * g[i] for i in range(1, n + 1)]
    lift: tuple[int, list[int]] | None = None
    p, tried = 3, 0
    while lift is None or tried < ROOT_TEST_PRIMES:
        p += 2
        while not is_prime(p) or c % p == 0:
            p += 2
        gp = [a % p for a in g]
        roots = [r for r in range(p) if poly_eval(gp, r, p) == 0]
        if not roots:
            return []
        tried += 1
        if all(poly_eval(dg, r, p) for r in roots):
            if lift is None or len(roots) < len(lift[1]):
                lift = (p, roots)
        elif tried == ROOT_TEST_PRIMES and lift is None and _has_repeated_root(g):
            raise ValueError("polynomial has a repeated root")
    p, roots = lift
    bound = _root_bound(g)
    out = []
    for r in roots:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - poly_eval(g, r, m) * pow(poly_eval(dg, r, m), -1, m)) % m
        y = r - m if 2 * r > m else r
        # an integer root divides the constant term; that test is cheap
        if abs(y) <= bound and (g[0] % y == 0 if y else g[0] == 0) and poly_eval(g, y) == 0:
            out.append(Fraction(y, c))
    return sorted(out)
