import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deletia import zqcore
from deletia.zqcore import (
    ZqMatrix,
    ZqVector,
    centered,
    centered_array,
    gadget_inverse,
    gadget_matrix,
    gaussian_box_weights,
    gaussian_pmf_1d,
    is_short,
    isis_verify,
    matmul_mod,
    zq_box,
    zq_image_codes,
)


def test_centered_examples():
    assert centered(0, 5) == 0
    assert centered(3, 5) == -2
    # 7 mod 13 maps to -6: congruent and inside (-6.5, 6.5]
    c = centered(7, 13)
    assert c == -6
    assert (c - 7) % 13 == 0
    assert -13 / 2 < c <= 13 / 2


def test_centered_roundtrip_exhaustive():
    for q in range(2, 98):
        for x in range(q):
            c = centered(x, q)
            assert c % q == x
            assert -q / 2 < c <= q / 2


@given(st.integers(min_value=2, max_value=10**6), st.integers())
def test_centered_roundtrip_random(q, x):
    c = centered(x, q)
    assert c % q == x % q
    assert 2 * c <= q and 2 * c > -q


def rho_sigma(x: ZqVector, sigma: float) -> float:
    """Reference: the Gaussian weight exp(-pi ||x||^2 / sigma^2) on centered
    representatives, one vector at a time."""
    return math.exp(-math.pi * sum(centered(int(c), x.q) ** 2 for c in x.entries)
                    / float(sigma) ** 2)


def truncated_gaussian_pmf(sigma: float, q: int, m: int) -> np.ndarray:
    """Reference: D_{Z_q^m, sigma} over Z_q^m in zq_box order, rho_sigma on
    the ball ||centered(x)|| <= sigma sqrt(m), normalized over the ball."""
    w = gaussian_box_weights(q, m, sigma)
    c = centered_array(zq_box(q, m), q)
    w[np.sum(c * c, axis=1) > sigma**2 * m] = 0.0
    return w / w.sum()


def test_rho_sigma_values():
    assert rho_sigma(ZqVector([0, 0], 5), 2.0) == 1.0
    val = rho_sigma(ZqVector([2, 0], 13), 2.0)
    assert val == pytest.approx(math.exp(-math.pi), abs=1e-12)


@given(st.integers(min_value=2, max_value=31), st.data())
def test_rho_sigma_negation_symmetry(q, data):
    m = data.draw(st.integers(min_value=1, max_value=4))
    x = data.draw(st.lists(st.integers(min_value=0, max_value=q - 1),
                           min_size=m, max_size=m))
    v = ZqVector(x, q)
    assert rho_sigma(v, 1.7) == pytest.approx(rho_sigma(ZqVector(-v.entries, q), 1.7), abs=1e-15)


def test_truncated_gaussian_pmf_nearly_uniform():
    p = truncated_gaussian_pmf(10.0, 3, 1)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    nz = p[p > 0]
    assert len(nz) == 3
    assert nz.max() / nz.min() < 1.07


def test_truncated_gaussian_pmf_support():
    sigma, q, m = 1.2, 7, 2
    p = truncated_gaussian_pmf(sigma, q, m)
    for i, x in enumerate(zq_box(q, m)):
        nsq = sum(centered(c, q) ** 2 for c in x)
        if nsq > sigma * sigma * m:
            assert p[i] == 0.0


def test_truncated_gaussian_pmf_point_mass():
    p = truncated_gaussian_pmf(0.05, 5, 2)
    assert p[0] > 0.999


def test_truncated_gaussian_pmf_matches_rho_ratios():
    sigma, q, m = 2.5, 5, 2
    p = truncated_gaussian_pmf(sigma, q, m)
    # independent recomputation straight from the weight function
    raw = np.array([
        rho_sigma(ZqVector(list(x), q), sigma)
        if sum(centered(c, q) ** 2 for c in x) <= sigma * sigma * m else 0.0
        for x in zq_box(q, m)
    ])
    np.testing.assert_allclose(p, raw / raw.sum(), atol=1e-13)


def test_truncated_gaussian_guard():
    with pytest.raises(zqcore.EnumerationTooLarge):
        truncated_gaussian_pmf(3.0, 97, 4)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4))
def test_zq_box_is_the_itertools_product_order(q, w):
    box = zq_box(q, w)
    assert box.dtype == np.int64 and box.shape == (q**w, w)
    assert [tuple(r) for r in box.tolist()] == list(itertools.product(range(q), repeat=w))


@given(st.integers(1, 3), st.integers(1, 6), st.integers(2, 13), st.integers(0, 10**6))
def test_zq_image_codes_match_the_box_product(n, w, q, seed):
    w = min(w, int(math.log(4096, q) + 1e-9))
    A = ZqMatrix(np.random.default_rng(seed).integers(0, q, size=(n, w)), q)
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    want = matmul_mod(zq_box(q, w), A.entries.T, q) @ radix
    got = zq_image_codes(A.entries, q)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # a stack of keys keeps its leading axes, each key's codes its own
    stack = np.stack([A.entries, (A.entries * 3 + 1) % q]).reshape(2, 1, n, w)
    got = zq_image_codes(stack, q)
    assert got.shape == (2, 1, q**w)
    for key, codes in zip(stack[:, 0], got[:, 0]):
        assert np.array_equal(codes, matmul_mod(zq_box(q, w), key.T, q) @ radix)


def _box_weights_reference(q, w, sigma):
    """rho_sigma as exp over the float squared norms of the whole box."""
    digits = centered_array(np.arange(q, dtype=np.int64), q).astype(float)
    nsq = np.zeros(1)
    for _ in range(w):
        nsq = (nsq[:, None] + (digits**2)[None, :]).reshape(-1)
    return np.exp(-math.pi * nsq / sigma**2)


def test_gaussian_box_weights_match_exp_over_the_box():
    sigmas = [0.5, 1.5, math.sqrt(2.0) * 3, 5.0, 12.25, 40.0]
    for q in range(2, 41):
        for w in range(1, 7):
            if q**w > 1 << 14:
                break
            for sigma in sigmas:
                got = gaussian_box_weights(q, w, sigma)
                assert got.dtype == np.float64
                assert np.array_equal(got, _box_weights_reference(q, w, sigma)), (q, w, sigma)


def test_gaussian_box_weights_one_slot_builds_no_table_past_the_box():
    # a norm table at w = 1 would hold ~q^2/4 floats: terabytes at this q
    q = zqcore.ENUM_GUARD - 3
    tracemalloc.start()
    try:
        got = gaussian_box_weights(q, 1, 1000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (q,) and peak <= 4 * got.nbytes
    assert got[0] == 1.0 and got[1000] == got[q - 1000] == pytest.approx(math.exp(-math.pi))


def test_zq_box_guard():
    with pytest.raises(zqcore.EnumerationTooLarge):
        zq_box(13, 7)
    with pytest.raises(zqcore.EnumerationTooLarge):
        gaussian_box_weights(13, 7, 3.0)
    with pytest.raises(zqcore.EnumerationTooLarge):
        zq_image_codes(np.ones((1, 7), dtype=np.int64), 13)


def test_gaussian_pmf_1d():
    vals, probs = gaussian_pmf_1d(2.6, 13)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert set(vals.tolist()) == {-2, -1, 0, 1, 2}
    # large modulus stays windowed
    vals, probs = gaussian_pmf_1d(9.0, 10**9 + 7)
    assert vals.max() == 9 and vals.min() == -9


def test_gadget_matrix_q5_d2():
    G = gadget_matrix(5, 2)
    assert G.entries.tolist() == [[1, 0, 2, 0, 4, 0], [0, 1, 0, 2, 0, 4]]


def test_gadget_inverse_binary_decomposition():
    u = gadget_inverse([3, 0], 5, 2)
    assert u.tolist() == [1, 0, 1, 0, 0, 0]
    G = gadget_matrix(5, 2)
    assert (G @ ZqVector(u, 5)).entries.tolist() == [3, 0]


@pytest.mark.parametrize("q,d", [(2, 1), (3, 2), (5, 2), (7, 1), (8, 2)])
def test_gadget_roundtrip_exhaustive(q, d):
    G = gadget_matrix(q, d)
    for v in zq_box(q, d):
        u = gadget_inverse(list(v), q, d)
        assert set(u.tolist()) <= {0, 1}
        assert (G @ ZqVector(u, q)).entries.tolist() == list(v)


def test_gadget_inverse_matrix_form():
    q, d = 5, 2
    G = gadget_matrix(q, d)
    M = np.array([[3, 1], [0, 4]])
    bits = gadget_inverse(M, q, d)
    assert bits.shape == (6, 2)
    assert (G @ ZqMatrix(bits, q)).entries.tolist() == M.tolist()


def test_isis_verify_cases():
    q = 13
    A = ZqMatrix([[1, 2, 3]], q)
    zero = ZqVector([0, 0, 0], q)
    assert isis_verify(A, ZqVector([0], q), zero, norm_bound_sq=Fraction(100))
    # wrong product fails regardless of norm
    assert not isis_verify(A, ZqVector([1], q), zero, norm_bound_sq=Fraction(10**6))
    # correct product but norm just over the bound
    pi = ZqVector([2, 0, 0], q)
    y = A @ pi
    assert isis_verify(A, y, pi, norm_bound_sq=Fraction(4))
    assert not isis_verify(A, y, pi, norm_bound_sq=Fraction(19, 10) ** 2)  # bound 1.9 < 2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10**6), st.integers(1, 4),
       st.fractions(min_value=-1, max_value=10**12), st.data())
def test_is_short_matches_the_rational_rule_per_vector_and_batch(q, w, bound, data):
    rows = data.draw(st.lists(st.lists(st.integers(-3 * q, 3 * q), min_size=w, max_size=w),
                              min_size=1, max_size=5))
    want = [Fraction(sum(centered(x, q) ** 2 for x in r)) <= bound for r in rows]
    assert is_short(rows, q, bound).tolist() == want
    assert [bool(is_short(r, q, bound)) for r in rows] == want


def test_isis_verify_exact_tie():
    # norm^2 exactly equals bound^2: accepted, no float wobble
    q = 13
    A = ZqMatrix([[0, 0]], q)
    pi = ZqVector([1, 2], q)
    assert isis_verify(A, ZqVector([0], q), pi, norm_bound_sq=Fraction(5))
    assert not isis_verify(A, ZqVector([0], q), pi, norm_bound_sq=Fraction(5) - Fraction(1, 10**12))


def test_isis_verify_stacks_are_one_check_per_row():
    rng = np.random.default_rng(3)
    q, bound = 7, Fraction(5)
    A = rng.integers(0, q, size=(40, 2, 3))
    pi = rng.integers(0, q, size=(40, 3))
    y = matmul_mod(A, pi[..., None], q)[..., 0]
    y[::3, 0] = (y[::3, 0] + 1) % q  # every third witness is outside its coset
    want = [isis_verify(ZqMatrix(a, q), ZqVector(t, q), ZqVector(p, q), norm_bound_sq=bound)
            for a, t, p in zip(A, y, pi)]
    assert 0 < sum(want) < len(want)
    assert isis_verify(A, y, pi, q=q, norm_bound_sq=bound).tolist() == want
    # one key for every witness: a ZqMatrix against a list of ZqVectors
    pis = [ZqVector(p, q) for p in pi]
    shared = [isis_verify(ZqMatrix(A[0], q), ZqVector(t, q), p, norm_bound_sq=bound)
              for t, p in zip(y, pis)]
    assert isis_verify(ZqMatrix(A[0], q), y, pis, norm_bound_sq=bound).tolist() == shared
    with pytest.raises(zqcore.DimensionMismatch):
        isis_verify(ZqMatrix(A[0], q), y, pis[:1] + [ZqVector(pi[1], 11)], norm_bound_sq=bound)
    with pytest.raises(zqcore.DimensionMismatch):
        isis_verify(A, y, pi, norm_bound_sq=bound)  # no modulus at all
    with pytest.raises(zqcore.DimensionMismatch):
        isis_verify(A, y[:, :1], pi, q=q, norm_bound_sq=bound)
    with pytest.raises(zqcore.DimensionMismatch):
        isis_verify(ZqMatrix(A[0], q), y, [ZqVector([1, 2], q), ZqVector([1, 2, 3], q)],
                    norm_bound_sq=bound)


@given(st.integers(min_value=2, max_value=23), st.data())
@settings(max_examples=50)
def test_matrix_algebra(q, data):
    dims = [data.draw(st.integers(min_value=1, max_value=4)) for _ in range(4)]
    ints = st.integers(min_value=0, max_value=q - 1)
    A = ZqMatrix(data.draw(st.lists(st.lists(ints, min_size=dims[1], max_size=dims[1]),
                                    min_size=dims[0], max_size=dims[0])), q)
    B = ZqMatrix(data.draw(st.lists(st.lists(ints, min_size=dims[2], max_size=dims[2]),
                                    min_size=dims[1], max_size=dims[1])), q)
    C = ZqMatrix(data.draw(st.lists(st.lists(ints, min_size=dims[3], max_size=dims[3]),
                                    min_size=dims[2], max_size=dims[2])), q)
    assert ((A @ B) @ C) == (A @ (B @ C))
    u = ZqVector(data.draw(st.lists(ints, min_size=dims[1], max_size=dims[1])), q)
    v = ZqVector(data.draw(st.lists(ints, min_size=dims[1], max_size=dims[1])), q)
    assert (A @ ZqVector(u.entries + v.entries, q)).entries.tolist() == \
        (((A @ u).entries + (A @ v).entries) % q).tolist()


def test_matmul_mod_large_modulus_no_overflow():
    q = 260000011
    rng = np.random.default_rng(0)
    a = rng.integers(0, q, size=(3, 300))
    b = rng.integers(0, q, size=(300, 2))
    got = matmul_mod(a, b, q)
    want = (a.astype(object) @ b.astype(object)) % q
    assert got.tolist() == want.tolist()


def test_is_prime():
    assert zqcore.is_prime(2) and zqcore.is_prime(13) and zqcore.is_prime(260000011)
    assert not zqcore.is_prime(1) and not zqcore.is_prime(4097)


def _int_product(a, b, q):
    """a @ b mod q in Python ints: the reference every Z_q product must equal."""
    return (np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)) % q


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(2, 2**62), st.sampled_from([2, 3, 2**26 + 1, 2**27 + 1, 94906267,
                                                         3037000500, 3037000501, 2**31 - 1,
                                                         4294967311, 2**62])),
       st.integers(1, 3), st.integers(1, 300), st.integers(1, 3),
       st.sampled_from(["canonical", "top", "bits", "signed"]), st.integers(0, 2**32))
def test_matmul_mod_equals_the_python_int_product(q, rows, inner, cols, entries, seed):
    """At every modulus up to 2^62 and inner dimension up to 300, for
    canonical entries, entries at q - 1, bit matrices and entries outside
    [0, q) (negative ones included), the product is the Python-int one."""
    rng = np.random.default_rng(seed)
    lo, hi = {"canonical": (0, q), "top": (max(0, q - 3), q), "bits": (0, 2),
              "signed": (max(-3 * q, -2**63), min(3 * q, 2**63 - 1))}[entries]
    a = rng.integers(lo, hi, size=(rows, inner), dtype=np.int64, endpoint=False)
    b = rng.integers(lo, hi, size=(inner, cols), dtype=np.int64, endpoint=False)
    got = matmul_mod(a, b, q)
    assert got.dtype == np.int64
    assert got.tolist() == _int_product(a, b, q).tolist()
    assert matmul_mod(a[0], b[:, 0], q) == _int_product(a[0], b[:, 0], q)
    # a stack of products, each the product of its pair (the int64 path slices
    # the inner axis of both stacks)
    pairs = [(a, b), (a[::-1], b[::-1]), ((a + 1) % q, b)]
    got = matmul_mod(np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs]), q)
    assert got.tolist() == [_int_product(x, y, q).tolist() for x, y in pairs]


def test_matmul_mod_at_the_float_and_int64_bounds():
    # one product of 2^53 + 1, which float64 rounds to 2^53: past the float bound
    x, y = 321, 28059810762433  # x y = 2^53 + 1
    q = y + 2
    assert matmul_mod([[x]], [[y]], q).tolist() == [[(2**53 + 1) % q]]
    assert matmul_mod([[x, 1]], [[y - 1], [x]], q).tolist() == [[(x * (y - 1) + x) % q]]
    # 2^53 - 1 = 3 * 7^2 * 73 * 127 * 337 * 92737 * 649657: within the float bound
    assert matmul_mod([[6361]], [[1416003655831]], 2**53).tolist() == [[2**53 - 1]]
    # (q - 1)^2 + (q - 1) fits int64 at q = 3037000500, and no product does one above
    for q in (3037000500, 3037000501):
        a = np.full((2, 5), q - 1)
        assert matmul_mod(a, a.T, q).tolist() == _int_product(a, a.T, q).tolist()


def test_matmul_mod_reduces_only_what_lies_outside_and_keeps_its_inputs():
    q = 13
    a = np.array([[-1, 14, 3]])
    b = np.array([[1], [2], [27]])
    assert matmul_mod(a, b, q).tolist() == [[(-1 + 28 + 81) % q]]
    assert a.tolist() == [[-1, 14, 3]] and b.tolist() == [[1], [2], [27]]


def test_vector_dot_is_exact_where_one_int64_sum_wraps():
    """w (q - 1)^2 passes 2^63 at q = 2^31 - 1 with w = 9, and one product
    does at q = 4294967311; the dot product stays the Python-int one."""
    for q, w in ((2**31 - 1, 9), (4294967311, 3)):
        top = ZqVector(np.full(w, q - 1), q)
        assert top.dot(top) == w * (q - 1) ** 2 % q
        rng = np.random.default_rng(q)
        for _ in range(20):
            u, v = (ZqVector(rng.integers(q - 2**20, q, size=w), q) for _ in range(2))
            assert u.dot(v) == sum(int(x) * int(y) for x, y in zip(u.entries, v.entries)) % q


def test_gadget_matrix_is_built_once_and_read_only():
    G = gadget_matrix(260000011, 9)
    assert gadget_matrix(260000011, 9) is G
    assert G.entries.shape == (9, 9 * 28) and not G.entries.flags.writeable
    with pytest.raises(ValueError):
        G.entries[0, 0] = 2
