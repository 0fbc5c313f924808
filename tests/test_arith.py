import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from kummer_brauer import arith
from kummer_brauer.arith import (
    SquareClass,
    bits_of,
    coprime_base,
    factor,
    is_prime,
    is_rational_square,
    is_square,
    primes_up_to,
    sc_mul,
    square_class,
    square_class_bits,
    valuation,
)


def trial_division(n):
    """Independent factorization oracle for small inputs."""
    out = {}
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return sorted(out.items())


def test_factor_examples():
    assert factor(1) == factor(1).__class__(1, ())
    assert factor(1).sign == 1 and factor(1).factors == ()
    f = factor(-50)
    assert f.sign == -1 and f.factors == ((2, 1), (5, 2))
    assert factor(4900).factors == tuple(trial_division(4900))
    assert factor(4900).sign == 1


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_roundtrip_random():
    rng = random.Random(12345)
    for _ in range(1000):
        n = rng.randint(-10**9, 10**9)
        if n == 0:
            continue
        f = factor(n)
        assert f.value() == n
        assert all(is_prime(p) for p, _ in f.factors)
        assert all(e >= 1 for _, e in f.factors)
        assert list(f.factors) == sorted(f.factors)


def sieve_flags(limit):
    """Independent primality oracle: a plain sieve of Eratosthenes."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return flags


def test_is_prime_matches_sieve():
    flags = sieve_flags(2 * 10**5)
    assert [n for n in range(len(flags)) if is_prime(n)] == \
        [n for n, f in enumerate(flags) if f]


def test_is_prime_below_1000_is_membership_and_agrees_with_miller_rabin(monkeypatch):
    expected = [arith._miller_rabin(n) for n in range(-5, 1000)]
    assert [is_prime(n) for n in range(-5, 1000)] == expected
    assert sum(expected) == 168
    # below 1000 the answer comes from the table alone

    def no_miller_rabin(n):
        raise AssertionError(f"Miller-Rabin ran on {n}")

    monkeypatch.setattr(arith, "_miller_rabin", no_miller_rabin)
    assert [is_prime(n) for n in range(-5, 1000)] == expected
    with pytest.raises(AssertionError):
        is_prime(1009)


def test_is_prime_strong_pseudoprimes_and_large_inputs():
    # strong pseudoprimes to bases 2, 3, 5, 7 (the first at the small-base
    # bound itself) and to 2, ..., 11
    assert not is_prime(3215031751)
    assert not is_prime(2152302898747)
    assert not is_prime(3474749660383)
    for n in range(3215031731, 3215031772):  # both sides of that bound
        assert is_prime(n) == (trial_division(n) == [(n, 1)])
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))


def test_primes_up_to_matches_sieve():
    flags = sieve_flags(6000)
    for limit in (5000, 0, 1, 2, 10, 997, 1000, 1009, 6000):
        assert list(primes_up_to(limit)) == [n for n in range(limit + 1) if flags[n]]


def test_interleaved_prime_scans_each_read_every_prime():
    """Two scans read in turns, one within the table of small primes and
    one past it, and each gets every prime up to its own limit."""
    flags = sieve_flags(20_000)
    below, past = primes_up_to(900), primes_up_to(20_000)
    read_below, read_past = [], []
    for p, q in zip(below, past):
        read_below.append(p)
        read_past.append(q)
    read_past += past
    assert read_below == [n for n in range(901) if flags[n]]
    assert read_past == [n for n in range(20_001) if flags[n]]


def test_a_scan_that_stops_below_1000_never_sieves(monkeypatch):
    """The primes below 1000 come from the table SMALL_PRIMES; a scan that
    reads past them sieves once, to its own limit."""
    sieve, sieves = arith._sieve, []

    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(arith, "_sieve", refuse)
    primes = primes_up_to(10**6)
    assert [p for _, p in zip(range(168), primes)] == list(arith.SMALL_PRIMES)
    assert arith.SMALL_PRIMES[-1] == 997
    assert list(primes_up_to(1000)) == list(arith.SMALL_PRIMES)

    def counted(limit):
        sieves.append(limit)
        return sieve(limit)

    monkeypatch.setattr(arith, "_sieve", counted)
    assert next(primes) == 1009
    assert sum(1 for _ in primes) == 78498 - 169
    assert sieves == [10**6]


def test_valuation_examples():
    assert valuation(48, 2) == 4
    assert valuation(5, 3) == 0
    assert valuation(Fraction(3796416, 1225), 5) == -2
    assert valuation(Fraction(3796416, 1225), 7) == -2
    assert valuation(-48, 2) == 4
    assert valuation(Fraction(-3, 50), 5) == -2
    assert valuation(10**40, 5) == 40


def test_valuation_errors():
    with pytest.raises(ValueError):
        valuation(0, 5)
    with pytest.raises(ValueError):
        valuation(10, 6)
    with pytest.raises(ValueError):
        valuation(Fraction(0), 5)
    with pytest.raises(ValueError):
        valuation(12, 1)
    # valuation takes an int or a Fraction only: strings, floats and
    # Decimals once passed through Fraction(x)
    for x in ("12", 0.5, 12.0, Decimal("12")):
        with pytest.raises(TypeError):
            valuation(x, 2)


def test_valuation_of_square_is_even():
    rng = random.Random(99)
    for _ in range(200):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        if rng.random() < 0.5:
            x = -x
        for p in (2, 3, 5, 7):
            assert valuation(x * x, p) % 2 == 0


def test_square_class_examples():
    assert square_class(1) == SquareClass.identity()
    assert square_class(18) == SquareClass(1, (2,))
    assert square_class(-50) == SquareClass(-1, (2,))


def test_square_class_idempotent_under_squares():
    rng = random.Random(5)
    for _ in range(200):
        y = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
        x = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
        assert square_class(x * x * y) == square_class(y)
        assert square_class(x * x).is_identity


def test_sc_mul_examples():
    v = SquareClass(-1, (3, 7))
    assert sc_mul(SquareClass.identity(), v) == v
    assert sc_mul(SquareClass(-1, (5,)), SquareClass(-1, (5,))).is_identity
    assert sc_mul(SquareClass(1, (2, 5)), SquareClass(-1, (5, 7))) == SquareClass(-1, (2, 7))


def test_square_class_group_is_two_torsion():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 10**6)
        c = square_class(n)
        assert sc_mul(c, c).is_identity


def test_is_rational_square():
    assert is_rational_square(Fraction(49, 81))
    assert not is_rational_square(Fraction(-49, 81))
    assert not is_rational_square(2)


def test_is_rational_square_matches_square_class():
    rng = random.Random(41)
    assert not is_rational_square(0) and is_rational_square(1)
    assert is_square(0) and not is_square(-4) and is_square(10**40)
    for _ in range(2000):
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60) ** rng.choice((1, 2)),
                     rng.randint(1, 60) ** rng.choice((1, 2)))
        assert is_rational_square(x) == square_class(x).is_identity, x


def test_coprime_base_examples():
    assert coprime_base([]) == [] and coprime_base([1, -1, 0]) == []
    assert coprime_base([12, 18]) == [2, 3]
    assert coprime_base([36, 9, 27]) == [3, 4]
    assert coprime_base([6, 10, 15]) == [2, 3, 5]
    assert coprime_base([-2**40, 2]) == [2]
    p, q = 400000000000000013, 7000000000000000013
    assert coprime_base([p * q, 7, p * 7]) == [7, p, q]


def _is_power_product(n, base):
    n = abs(n)
    for c in base:
        while n % c == 0:
            n //= c
    return n == 1


def test_coprime_base_random():
    rng = random.Random(2005)
    for _ in range(500):
        ns = [rng.choice((-1, 1)) * rng.randint(1, 10**4) * rng.choice((1, 4, 9, 36, 210))
              for _ in range(rng.randint(1, 6))]
        base = coprime_base(ns)
        assert base == sorted(set(base)) and all(c > 1 for c in base)
        assert all(gcd(c, d) == 1 for i, c in enumerate(base) for d in base[i + 1:])
        assert all(_is_power_product(n, base) for n in ns)


def test_square_class_bits_matches_square_class():
    rng = random.Random(2006)
    for _ in range(300):
        ns = [rng.choice((-1, 1)) * rng.randint(1, 500) * rng.choice((1, 4, 9, 36))
              for _ in range(4)]
        base = [c for c in coprime_base(ns) if not is_square(c)]
        # products of the inputs: equal classes exactly when equal bit vectors
        prods = {}
        for mask in range(1, 16):
            n = 1
            for i in range(4):
                if mask >> i & 1:
                    n *= ns[i]
            prods[n] = square_class(n)
        for n, c in prods.items():
            for n2, c2 in prods.items():
                same = square_class_bits(n, base) == square_class_bits(n2, base)
                assert same == (c == c2), (ns, n, n2)
    with pytest.raises(ValueError):
        square_class_bits(0, [2])
    with pytest.raises(ValueError):
        square_class_bits(12, [6])  # 12 = 6 * 2 is outside the span of {6}
    assert square_class_bits(-24, [6]) == 0b11


def test_bits_of():
    assert bits_of(0b1011) == [0, 1, 3]
    assert bits_of(0) == []


def _bits_by_shifting(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def test_bits_of_matches_shift_loop():
    rng = random.Random(11)
    masks = [0, 1, 2, 1 << 479, (1 << 480) - 1]
    masks += [rng.getrandbits(rng.choice((1, 9, 64, 480))) for _ in range(500)]
    for m in masks:
        assert bits_of(m) == _bits_by_shifting(m), m
