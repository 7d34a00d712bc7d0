import numpy as np
import pytest

from deletia.gf2k import (
    GF2k,
    IRREDUCIBLE,
    clmul,
    poly_gcd_gf2,
    poly_is_irreducible,
    polydiv_gf2,
)


def brute_force_irreducible(f: int) -> bool:
    # oracle: no polynomial of degree 1..d/2 divides f
    d = f.bit_length() - 1
    for g in range(2, 1 << (d // 2 + 1)):
        if g.bit_length() - 1 < 1:
            continue
        if polydiv_gf2(f, g)[1] == 0:
            return False
    return True


def test_table_entries_have_right_degree():
    for k, f in IRREDUCIBLE.items():
        assert f.bit_length() - 1 == k


@pytest.mark.parametrize("k", sorted(IRREDUCIBLE))
def test_table_entries_irreducible_rabin(k):
    assert poly_is_irreducible(IRREDUCIBLE[k])


@pytest.mark.parametrize("k", range(1, 11))
def test_rabin_agrees_with_trial_division(k):
    assert brute_force_irreducible(IRREDUCIBLE[k])
    if k >= 2:
        # zeroing the constant term makes x a factor
        assert not poly_is_irreducible((IRREDUCIBLE[k] >> 1) << 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_field_axioms_exhaustive(k):
    F = GF2k(k)
    for a in range(F.size):
        for b in range(F.size):
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(F.size):
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
    for a in range(1, F.size):
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("k", [8, 12, 16])
def test_field_axioms_random(k):
    F = GF2k(k)
    rng = np.random.default_rng(k)
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(1, F.size, size=3))
        assert F.mul(a, F.inv(a)) == 1
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
        assert F.pow(a, F.size - 1) == 1  # Lagrange in the unit group


def test_poly_eval_matches_naive():
    F = GF2k(8)
    rng = np.random.default_rng(1)
    for _ in range(50):
        coeffs = tuple(int(c) for c in rng.integers(0, 256, size=4))
        x = int(rng.integers(0, 256))
        want = 0
        for i, c in enumerate(coeffs):
            want ^= F.mul(c, F.pow(x, i))
        assert F.poly_eval(coeffs, x) == want


@pytest.mark.parametrize("k", range(1, 7))
def test_mul_on_arrays_is_clmul_mod_poly_exhaustive(k):
    F = GF2k(k)
    a, b = np.divmod(np.arange(F.size * F.size), F.size)
    want = [polydiv_gf2(clmul(int(x), int(y)), F.poly)[1] for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == want
    assert [F.mul(int(x), int(y)) for x, y in zip(a, b)] == want


@pytest.mark.parametrize("k", range(7, 17))
def test_mul_on_arrays_is_clmul_mod_poly_random(k):
    F = GF2k(k)
    a, b = np.random.default_rng(k).integers(0, F.size, size=(2, 500))
    want = [polydiv_gf2(clmul(int(x), int(y)), F.poly)[1] for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == want
    assert F.mul(int(a[0]), b).tolist() == [F.mul(int(a[0]), int(y)) for y in b]


def test_poly_eval_on_an_array_is_elementwise():
    for k, coeffs in [(4, (3, 0, 9, 1, 15, 6)), (9, (400, 17)), (16, (1, 65535, 2, 40000))]:
        F = GF2k(k)
        xs = np.arange(F.size)
        assert F.poly_eval(coeffs, xs).tolist() == [F.poly_eval(coeffs, int(x)) for x in xs]


def test_clmul_and_gcd():
    # (x+1)(x+1) = x^2+1 over GF(2)
    assert clmul(0b11, 0b11) == 0b101
    assert poly_gcd_gf2(0b101, 0b11) == 0b11  # x+1 divides x^2+1
