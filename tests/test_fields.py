"""Field construction, canonical moduli, and arithmetic laws."""

from __future__ import annotations

from itertools import product

import pytest

from pgtool import (
    SplitMix64,
    create_field,
    element_ops,
    prime_power,
)
from pgtool.cli import main
from pgtool.errors import (
    DegreeZero,
    FieldMismatch,
    NonPrimeP,
    SizeCapExceeded,
    ZeroInverse,
)
from pgtool.fields import field_from_descriptor


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _irreducible_bruteforce(coeffs, p):
    """Oracle: no monic divisor of degree 1..deg-1, checked by polynomial
    long division written independently of the library."""
    deg = len(coeffs) - 1
    if deg <= 1:
        return True
    if deg <= 3:
        # up to cubics, irreducible over GF(p) iff no root
        return all(_poly_eval(coeffs, x, p) for x in range(p))
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            rem = list(coeffs)
            while len(rem) >= len(divisor):
                lead = rem[-1]
                if lead:
                    off = len(rem) - len(divisor)
                    for i, c in enumerate(divisor):
                        rem[off + i] = (rem[off + i] - lead * c) % p
                rem.pop()
            if not any(rem):
                return False
    return True


def _smallest_irreducible(p, k):
    for tail in product(range(p), repeat=k):
        coeffs = list(tail) + [1]
        if _irreducible_bruteforce(coeffs, p):
            return tuple(coeffs)
    raise AssertionError


def test_prime_field_modulus_is_x():
    assert create_field(2, 1).modulus == (0, 1)
    assert create_field(7, 1).modulus == (0, 1)


def test_gf4_modulus_unique_irreducible_quadratic():
    # only one of the 4 monic quadratics over GF(2) has no root
    assert _smallest_irreducible(2, 2) == (1, 1, 1)
    assert create_field(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_lex_smallest():
    assert _smallest_irreducible(3, 2) == (1, 0, 1)
    assert create_field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3), (5, 2), (2, 5)])
def test_modulus_matches_bruteforce_oracle(p, k):
    assert create_field(p, k).modulus == _smallest_irreducible(p, k)


def test_arithmetic_examples():
    gf3 = create_field(3, 1)
    assert gf3.add(2, 2) == 1
    gf4 = create_field(2, 2)
    # omega = code 2; omega^2 reduces to omega + 1 = code 3
    assert gf4.mul(2, 2) == 3
    for q in (2, 3, 4, 5, 9):
        f = create_field(*prime_power(q))
        assert all(f.mul(a, 1) == a for a in f.elements())


def test_create_field_errors():
    with pytest.raises(NonPrimeP):
        create_field(6, 1)
    with pytest.raises(DegreeZero):
        create_field(3, 0)
    with pytest.raises(SizeCapExceeded):
        create_field(2, 21)
    # every field is tabled, so orders stop at the table cap of 256
    with pytest.raises(SizeCapExceeded):
        create_field(257, 1)
    with pytest.raises(SizeCapExceeded):
        create_field(2, 9)


def test_cli_field_over_cap_is_usage_error(capsys):
    assert main(["field", "--p", "2", "--k", "9"]) == 2
    assert "exceeds cap 256" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "--p", "2", "--k", "100000000"],
        ["field", "--p", "100000000000000003"],
        ["enum", "--n", "2", "--q", "1000000007"],
        ["veronese", "--n", "2", "--q", "1000000007"],
        ["closure", "--n", "2", "--q", "1000000007", "--points", "[]"],
        ["gen", "--kind", "veronese", "--n", "2", "--q", "1000000007", "--out", "-"],
    ],
    ids=["huge-k", "huge-prime-p", "enum", "veronese", "closure", "gen"],
)
def test_cli_oversized_field_exits_2_before_any_search(capsys, argv):
    # each of these once trial-divided up to p or q, or built 2^(10^8)
    assert main(argv) == 2
    assert "exceeds cap 256" in capsys.readouterr().err


def test_oversized_fields_are_refused_by_size_first():
    for p, k in [(2, 10**8), (100000000000000003, 1), (257, 1), (10**30, 0)]:
        with pytest.raises(SizeCapExceeded):
            create_field(p, k)
    for q in (1000000007, 1000, 2**64):
        with pytest.raises(SizeCapExceeded, match=f"field order {q} exceeds cap 256"):
            prime_power(q)
    # at and below the cap every message is the one the order, p or k gives
    with pytest.raises(SizeCapExceeded, match="field order 512 exceeds cap 256"):
        create_field(2, 9)
    with pytest.raises(NonPrimeP, match="p = 256 is not prime"):
        create_field(256, 1)
    with pytest.raises(DegreeZero):
        create_field(251, 0)
    with pytest.raises(NonPrimeP, match="255 is not a prime power"):
        prime_power(255)
    assert prime_power(256) == (2, 8)


def test_inverse_errors():
    f = create_field(5, 1)
    with pytest.raises(ZeroInverse):
        f.inv(0)
    with pytest.raises(ZeroInverse):
        element_ops(f, "inv", 0)


def test_element_ops_validation():
    f = create_field(3, 1)
    assert element_ops(f, "add", 2, 2) == 1
    assert element_ops(f, "pow", 2, 4) == 1
    with pytest.raises(FieldMismatch):
        element_ops(f, "add", 3, 0)
    with pytest.raises(FieldMismatch):
        element_ops(f, "frobnicate", 1, 1)
    # bools are ints to isinstance, but not codes or exponents
    bools = [("add", True, True), ("mul", 1, True), ("inv", True, None), ("pow", 2, True)]
    for kind, a, b in bools:
        with pytest.raises(FieldMismatch):
            element_ops(f, kind, a, b)


# every prime power up to the stated bound of 81 with an extension part,
# plus representative prime fields (all prime fields share one code path)
_AXIOM_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64, 81]


@pytest.mark.parametrize("q", _AXIOM_FIELDS)
def test_field_axioms_exhaustive(q):
    f = create_field(*prime_power(q))
    els = list(f.elements())
    add, mul = f.add, f.mul
    for a in els:
        assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
        if a:
            assert f.inv(f.inv(a)) == a
            assert mul(a, f.inv(a)) == 1
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("q", [128, 243, 251, 256])
def test_field_axioms_sampled_near_cap(q):
    f = create_field(*prime_power(q))
    add, mul, inv, frob = f.add, f.mul, f.inv, f.frobenius
    rng = SplitMix64(q)
    for _ in range(2000):
        a, b, c = (rng.randbelow(q) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, f.neg(a)) == 0 and f.sub(add(a, b), b) == a
        if a:
            assert mul(a, inv(a)) == 1
        for m in f.automorphism_exponents():
            assert frob(mul(a, b), m) == mul(frob(a, m), frob(b, m))
            assert frob(add(a, b), m) == add(frob(a, m), frob(b, m))
    # Frobenius by p is x -> x^p, and is the identity exactly on the prime field
    assert [a for a in f.elements() if frob(a, 1) == a] == list(range(f.p))
    assert all(frob(a, 1) == f.pow(a, f.p) for a in f.elements())


def test_automorphism_counts_and_examples():
    assert list(create_field(2, 1).automorphism_exponents()) == [0]
    gf4 = create_field(2, 2)
    assert list(gf4.automorphism_exponents()) == [0, 1]
    assert gf4.frobenius(2, 1) == 3  # omega -> omega + 1
    gf9 = create_field(3, 2)
    assert list(gf9.automorphism_exponents()) == [0, 1]
    fixed = [a for a in gf9.elements() if gf9.frobenius(a, 1) == a]
    assert fixed == [0, 1, 2]  # exactly the prime subfield


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_automorphism_group_structure(q):
    f = create_field(*prime_power(q))
    k = f.k
    for a in f.elements():
        assert f.frobenius(a, k) == a
        # the lookup rows inner loops index are x -> x^(p^m)
        assert [row[a] for row in f.frobenius_table] == [f.pow(a, f.p**m) for m in range(k)]
        for m1 in range(k):
            for m2 in range(k):
                assert f.frobenius(f.frobenius(a, m1), m2) == f.frobenius(a, (m1 + m2) % k)
        # each automorphism respects both operations
        for b in list(f.elements())[:5]:
            for m in range(k):
                assert f.frobenius(f.add(a, b), m) == f.add(f.frobenius(a, m), f.frobenius(b, m))
                assert f.frobenius(f.mul(a, b), m) == f.mul(f.frobenius(a, m), f.frobenius(b, m))


def test_create_field_deterministic():
    a = create_field(3, 2)
    b = create_field(3, 2)
    assert a is b  # cached
    import pgtool.fields as fields_mod

    fresh = fields_mod.GaloisField(3, 2)
    assert fresh.descriptor() == a.descriptor()
    assert field_from_descriptor(a.descriptor()) is a


def test_descriptor_rejects_noncanonical_modulus():
    d = create_field(2, 2).descriptor()
    d["modulus"] = [1, 0, 1]
    with pytest.raises(FieldMismatch):
        field_from_descriptor(d)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(49) == (7, 2)
    with pytest.raises(NonPrimeP):
        prime_power(12)
