import inspect
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deletia import configs, dualfhe as fhe, dualregev as dr, qsim
from deletia.zqcore import (
    EnumerationTooLarge,
    ZqMatrix,
    ZqVector,
    centered,
    centered_array,
    gadget_matrix,
    gaussian_box_weights,
    zq_box,
    zq_image_codes,
)
import dualregev_ref
from qsim_ref import drop_segment, prepare_weighted, value_index

PARAMS = configs.DR_EXACT  # (n=1, m=2, q=13, sigma=3)


def _norm_sq(x, q: int) -> int:
    """Reference: squared norm of the centered representative, one entry at a time."""
    return sum(centered(int(c), q) ** 2 for c in x)


def manual_coset_state(A: ZqMatrix, y: ZqVector, sigma: float, b: int,
                       params) -> qsim.QState:
    """Oracle: the phased Gaussian coset state, built by direct enumeration."""
    q, w = A.q, A.cols
    layout = qsim.RegisterLayout([("X", (q,) * w)])
    amps = np.zeros(q**w, dtype=np.complex128)
    g = dr.plaintext_offset(params, b)
    omega = np.exp(2j * np.pi / q)
    for i, x in enumerate(itertools.product(range(q), repeat=w)):
        xv = np.asarray(x, dtype=np.int64)
        if np.array_equal((A.entries @ xv) % q, y.entries):
            ph = omega ** (int(np.dot(xv, (-g) % q)) % q)
            amps[i] = math.exp(-math.pi * _norm_sq(xv, q) / sigma**2) * ph
    return qsim.QState(layout, amps).normalized()


def deletion_certificate_distribution(params, A: ZqMatrix, y: ZqVector) -> dict[tuple, float]:
    """Reference: the exact outcome distribution of Del on Enc(b) for either
    b, the squared Gaussian mass on the coset {x : A x = y}."""
    q, w = params.q, params.width
    ycode = np.ravel_multi_index(tuple(y.entries), (q,) * A.rows)
    coset = np.flatnonzero(zq_image_codes(A.entries, q) == ycode)
    weights = {}
    for xv in np.stack(np.unravel_index(coset, (q,) * w), axis=1):
        c = centered_array(xv, q)
        nsq = float(np.dot(c, c))
        weights[tuple(xv.tolist())] = math.exp(-2 * math.pi * nsq / params.sigma**2)
    total = sum(weights.values())
    return {x: p / total for x, p in weights.items()}


def test_keygen_trapdoor_identity_100_seeds():
    for seed in range(100):
        keys = dr.dr_keygen(PARAMS, np.random.default_rng(seed))
        assert (keys.pk @ keys.sk).entries.tolist() == [0]
        assert keys.pk.rows == 1 and keys.pk.cols == 3


def test_keygen_distinct_secrets_birthday():
    params = dr.dr_params(1, 6, 13, 3)
    collisions = 0
    pairs = 0
    seen = []
    for seed in range(60):
        keys = dr.dr_keygen(params, np.random.default_rng(seed))
        xb = tuple(keys.sk.entries.tolist())
        collisions += sum(xb == other for other in seen)
        pairs += len(seen)
        seen.append(xb)
    # distinct per pair with probability 1 - 2^-m >= 1 - 2^-(m-1)
    assert collisions / pairs <= 2 ** -(params.m - 1)


def gen_gauss_one(A: ZqMatrix, sigma: float, rng) -> tuple[qsim.QState, ZqVector]:
    """gen_gauss on one key: a batch of one."""
    (state,), (y,) = dr.gen_gauss(A.entries[None], A.q, sigma, [rng])
    return state, ZqVector(y, A.q)


def coset_encrypt_one(A: ZqMatrix, sigma: float, g, rng) -> tuple[qsim.QState, ZqVector]:
    """coset_encrypt of one register: a batch of one."""
    (state,), (y,) = dr.coset_encrypt(A, sigma, np.asarray(g)[None], rng)
    return state, ZqVector(y, A.q)


def _gen_gauss_verbatim(A, sigma, rng):
    """GenGauss as literal register operations (prepare, U_A, measure)."""
    n, w = A.rows, A.cols
    q = A.q
    layout = qsim.RegisterLayout([("X", (q,) * w), ("Y", (q,) * n)])
    state = prepare_weighted(layout, "X", gaussian_box_weights(q, w, sigma))

    def f(xval):
        x = ZqVector(np.asarray(xval, dtype=np.int64), q)
        return tuple((A @ x).entries.tolist())

    state = qsim.apply_classical(state, f, "X", "Y")
    out = qsim.measure(state, "Y", rng)
    coset = drop_segment(out.post_state, "Y", out.value)
    return coset, ZqVector(np.asarray(out.value), q)


def test_gen_gauss_matches_verbatim_protocol():
    # the direct sampler and the literal register protocol are one channel:
    # identical image distribution and identical coset state per image
    A = ZqMatrix([[3, 7, 1]], 5)
    sigma = 2.0
    counts_direct, counts_verbatim = {}, {}
    states_direct, states_verbatim = {}, {}
    for seed in range(300):
        st1, y1 = gen_gauss_one(A, sigma, np.random.default_rng(seed))
        st2, y2 = _gen_gauss_verbatim(A, sigma, np.random.default_rng(1000 + seed))
        k1, k2 = tuple(y1.entries.tolist()), tuple(y2.entries.tolist())
        counts_direct[k1] = counts_direct.get(k1, 0) + 1
        counts_verbatim[k2] = counts_verbatim.get(k2, 0) + 1
        states_direct[k1] = st1
        states_verbatim[k2] = st2
    for y in states_direct:
        np.testing.assert_allclose(states_direct[y].amps,
                                   states_verbatim[y].amps, atol=1e-12)
    # image frequencies agree within 4 sigma per cell
    for y in set(counts_direct) | set(counts_verbatim):
        a = counts_direct.get(y, 0)
        b = counts_verbatim.get(y, 0)
        assert abs(a - b) <= 4 * math.sqrt(max(a + b, 1))


def test_encrypt_b0_is_ft_of_coset_exactly():
    rng = np.random.default_rng(5)
    keys = dr.dr_keygen(PARAMS, rng)
    ct = dr.dr_encrypt(keys, 0, rng)
    A, y = ct.vk
    want = qsim.qft(manual_coset_state(A, y, PARAMS.sigma, 0, PARAMS), "X")
    np.testing.assert_allclose(ct.state.amps, want.amps, atol=1e-10)


def test_encrypt_b1_carries_the_pinned_phase():
    rng = np.random.default_rng(6)
    keys = dr.dr_keygen(PARAMS, rng)
    ct = dr.dr_encrypt(keys, 1, rng)
    A, y = ct.vk
    want = qsim.qft(manual_coset_state(A, y, PARAMS.sigma, 1, PARAMS), "X")
    np.testing.assert_allclose(ct.state.amps, want.amps, atol=1e-10)


def test_lemma16_duality_small_td():
    rng = np.random.default_rng(7)
    keys = dr.dr_keygen(PARAMS, rng)
    for b in (0, 1):
        ct = dr.dr_encrypt(keys, b, np.random.default_rng(11))
        ref = dr.dual_ciphertext_sum(ct.vk[0], ct.vk[1],
                                     dr.plaintext_offset(PARAMS, b), PARAMS.sigma)
        assert qsim.trace_distance(ct.state, ref) <= 0.05


def _dual_ciphertext_sum_loop(A, y, g, sigma):
    """Reference: the double Gaussian sum added up one s at a time over the
    whole box of e, with phase w^{+<s,y>}."""
    q, w = A.q, A.cols
    rho_e = gaussian_box_weights(q, w, q / sigma)
    digits = zq_box(q, w)
    radix = q ** np.arange(w - 1, -1, -1, dtype=np.int64)
    amps = np.zeros(q**w, dtype=np.complex128)
    omega = np.exp(2j * np.pi / q)
    for s in zq_box(q, A.rows):
        phase = omega ** (int(np.dot(s, y.entries)) % q)
        target = ((digits + (s @ A.entries) % q + g) % q) @ radix
        amps[target] += phase * rho_e
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("n,w,q,sigma", [(1, 3, 13, 3.0), (2, 3, 5, 2.0), (1, 4, 6, 1.5),
                                         (2, 2, 4, 3.0), (3, 2, 7, 2.5), (1, 1, 2, 0.8)])
def test_dual_ciphertext_sum_matches_the_double_sum_loop(n, w, q, sigma):
    rng = np.random.default_rng(n * 1000 + w * 100 + q)
    for _ in range(3):
        A = ZqMatrix(rng.integers(0, q, size=(n, w)), q)
        # an image of A: for any other y the sum is zero
        y = A @ ZqVector(rng.integers(0, q, size=w), q)
        g = rng.integers(0, q, size=w)
        got = dr.dual_ciphertext_sum(A, y, g, sigma)
        np.testing.assert_allclose(got.amps, _dual_ciphertext_sum_loop(A, y, g, sigma),
                                   rtol=0, atol=1e-12)


def test_dual_ciphertext_sum_rejects_a_y_outside_the_image():
    # outside the image the sum is zero: there is no state to normalise
    A = ZqMatrix([[0]], 2)
    with pytest.raises(ValueError, match="outside the image of A"):
        dr.dual_ciphertext_sum(A, ZqVector([1], 2), np.zeros(1, dtype=np.int64), 1.0)
    A = ZqMatrix([[2, 4]], 6)  # image {0, 2, 4}
    for y in range(6):
        args = (A, ZqVector([y], 6), np.zeros(2, dtype=np.int64), 2.0)
        if y % 2:
            with pytest.raises(ValueError, match="outside the image of A"):
                dr.dual_ciphertext_sum(*args)
        else:
            assert dr.dual_ciphertext_sum(*args).norm() == pytest.approx(1.0)
    # an image whose rho_sigma^2 mass underflows to 0.0 is still an image
    A = ZqMatrix([[1]], 13)
    assert dr.image_masses(A.entries, A.q, 0.1)[2] == 0.0
    state = dr.dual_ciphertext_sum(A, ZqVector([2], 13), np.zeros(1, dtype=np.int64), 0.1)
    assert state.norm() == pytest.approx(1.0)


def test_fourier_domain_outcome_distribution_independent_of_bit():
    keys = dr.dr_keygen(PARAMS, np.random.default_rng(8))
    ct0 = dr.dr_encrypt(keys, 0, np.random.default_rng(21))
    ct1 = dr.dr_encrypt(keys, 1, np.random.default_rng(21))  # same y branch
    p0 = qsim.marginal_probs(qsim.qft_inverse(ct0.state, "X"), "X")
    p1 = qsim.marginal_probs(qsim.qft_inverse(ct1.state, "X"), "X")
    assert 0.5 * np.abs(p0 - p1).sum() <= 1e-10


def test_decrypt_noiseless_plant():
    # classical plant c = s^T A + b.g with e = 0: A sk = 0 kills the s part
    params = configs.DR_PLANT
    rng = np.random.default_rng(3)
    keys = dr.dr_keygen(params, rng)
    q = params.q
    for b in (0, 1):
        s = rng.integers(0, q, size=params.n)
        c = (s @ keys.pk.entries) % q
        c[-1] = (c[-1] + b * (q // 2)) % q
        assert dr.decide_decryption(ZqVector(c, q).dot(keys.sk), q) == b


@pytest.mark.parametrize("b", [2, -1])
def test_out_of_range_plaintext_bit_raises(b):
    # dr_decrypt(dr_encrypt(k, 2)) used to return 0: b was taken mod 2
    keys = dr.dr_keygen(PARAMS, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"bit b must be 0 or 1, got {b}"):
        dr.plaintext_offset(PARAMS, b)
    with pytest.raises(ValueError, match=f"bit b must be 0 or 1, got {b}"):
        dr.dr_encrypt(keys, b, np.random.default_rng(0))


def test_decide_decryption_tie_is_one():
    # only even q can hit |centered| = q/4 exactly; the rule says output 1
    assert dr.decide_decryption(3, 12) == 1
    assert dr.decide_decryption(2, 12) == 0
    assert dr.decide_decryption(np.array([9, 10, 2, 3]), 12).tolist() == [1, 0, 0, 1]


def test_roundtrip_correctness_at_tuned_params():
    params = configs.DR_ROUNDTRIP
    rng = np.random.default_rng(0)
    keys = dr.dr_keygen(params, rng)
    ok = 0
    for t in range(200):
        b = t % 2
        ct = dr.dr_encrypt(keys, b, rng)
        ok += dr.dr_decrypt(keys, ct, rng) == b
    assert ok / 200 >= 0.95


def test_delete_lands_in_coset_always():
    rng = np.random.default_rng(1)
    keys = dr.dr_keygen(PARAMS, rng)
    for t in range(50):
        ct = dr.dr_encrypt(keys, t % 2, rng)
        pi = dr.dr_delete(ct, rng)
        A, y = ct.vk
        assert (A @ pi).entries.tolist() == y.entries.tolist()


def test_certificate_distribution_identical_across_bits():
    keys = dr.dr_keygen(PARAMS, np.random.default_rng(4))
    ct0 = dr.dr_encrypt(keys, 0, np.random.default_rng(33))
    ct1 = dr.dr_encrypt(keys, 1, np.random.default_rng(33))
    d0 = qsim.marginal_probs(qsim.qft_inverse(ct0.state, "X"), "X")
    d1 = qsim.marginal_probs(qsim.qft_inverse(ct1.state, "X"), "X")
    tv = 0.5 * float(np.abs(d0 - d1).sum())
    assert tv <= 1e-10
    # and both match the analytic coset distribution
    A, y = ct0.vk
    ref = deletion_certificate_distribution(PARAMS, A, y)
    lay = ct0.state.layout
    for x, p in ref.items():
        assert d0[value_index(lay, "X", x)] == pytest.approx(p, abs=1e-10)


def test_certificate_norm_tail():
    # exact tail mass of the coset measurement within the Vrfy bound
    params = configs.DR_ROUNDTRIP
    bound = params.cert_bound_sq()
    q, w = params.q, params.width
    total_ok = []
    for seed in range(20):
        keys = dr.dr_keygen(params, np.random.default_rng(seed))
        A = keys.pk
        mass, ok = {}, {}
        for x in itertools.product(range(q), repeat=w):
            xv = np.asarray(x, dtype=np.int64)
            c = centered_array(xv, q)
            p = math.exp(-2 * math.pi * float(c @ c) / float(params.sigma_sq))
            y = tuple((A.entries @ xv) % q)
            mass[y] = mass.get(y, 0.0) + p
            if Fraction(int(c @ c)) <= bound:
                ok[y] = ok.get(y, 0.0) + p
        total_ok.append(sum(ok.values()) / sum(mass.values()))
    assert min(total_ok) >= 0.99


def test_verify_accepts_honest_deletion():
    params = configs.DR_ROUNDTRIP
    rng = np.random.default_rng(2)
    keys = dr.dr_keygen(params, rng)
    acc = 0
    for t in range(200):
        ct = dr.dr_encrypt(keys, t % 2, rng)
        acc += dr.dr_verify(ct.vk, dr.dr_delete(ct, rng), params)
    assert acc / 200 >= 0.99


def test_verify_rejects_zero_cert_for_nonzero_image():
    keys = dr.dr_keygen(PARAMS, np.random.default_rng(9))
    A = keys.pk
    y = ZqVector([5], 13)
    assert not dr.dr_verify((A, y), ZqVector([0, 0, 0], 13), PARAMS)


def test_verify_rejects_long_certificate_with_correct_product():
    rng = np.random.default_rng(10)
    keys = dr.dr_keygen(PARAMS, rng)
    ct = dr.dr_encrypt(keys, 0, rng)
    pi = dr.dr_delete(ct, rng)
    A, y = ct.vk
    assert dr.dr_verify((A, y), pi, PARAMS)
    # shift along the kernel (A sk = 0) until the norm bound breaks
    for c in range(1, 13):
        shifted = ZqVector((pi.entries + c * keys.sk.entries) % 13, 13)
        assert (A @ shifted).entries.tolist() == y.entries.tolist()
        if Fraction(_norm_sq(shifted.entries, 13)) > PARAMS.cert_bound_sq():
            assert not dr.dr_verify((A, y), shifted, PARAMS)
            break
    else:
        pytest.fail("no kernel shift exceeded the bound")


def test_public_verifiability_by_signature():
    names = list(inspect.signature(dr.dr_verify).parameters)
    assert names == ["vk", "pi", "params"]  # no secret key anywhere


def test_gen_gauss_image_distribution_matches_preimage_masses():
    # P(y) is proportional to the rho^2 mass of the preimage set of y
    A = ZqMatrix([[2, 3]], 5)
    sigma = 2.0
    masses = {}
    for x0 in range(5):
        for x1 in range(5):
            y = (2 * x0 + 3 * x1) % 5
            c0, c1 = centered(x0, 5), centered(x1, 5)
            masses[y] = masses.get(y, 0.0) + math.exp(
                -2 * math.pi * (c0 * c0 + c1 * c1) / sigma**2)
    total = sum(masses.values())
    counts = {}
    trials = 4000
    for seed in range(trials):
        _, y = gen_gauss_one(A, sigma, np.random.default_rng(seed))
        k = int(y.entries[0])
        counts[k] = counts.get(k, 0) + 1
    for y, mass in masses.items():
        p = mass / total
        sd = math.sqrt(trials * p * (1 - p))
        assert abs(counts.get(y, 0) - trials * p) <= 4 * sd


def assert_certificate_in_coset(A: ZqMatrix, sigma: float, g, seed: int):
    """Every basis value the deletion measurement can return satisfies A x = y."""
    state, y = coset_encrypt_one(A, sigma, g, np.random.default_rng(seed))
    probs = qsim.marginal_probs(qsim.qft_inverse(state, "X"), "X")
    box = zq_box(A.q, A.cols)
    in_coset = np.all((box @ A.entries.T) % A.q == y.entries, axis=1)
    assert probs[~in_coset].max(initial=0.0) <= 1e-20
    assert probs[in_coset].sum() == pytest.approx(1.0, abs=1e-12)


@st.composite
def small_params(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 11, 13, 16]))
    m = draw(st.integers(min_value=1, max_value=int(math.log(4096, q) + 1e-9) - 1))
    n = draw(st.integers(min_value=1, max_value=3))
    sigma = draw(st.floats(min_value=0.5, max_value=float(q)))
    return n, m, q, sigma


@given(small_params(), st.integers(min_value=0, max_value=1), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pke_certificate_lands_in_coset(nmqs, b, seed):
    n, m, q, sigma = nmqs
    params = dr.dr_params(n, m, q, sigma)
    keys = dr.dr_keygen(params, np.random.default_rng(seed))
    assert_certificate_in_coset(keys.pk, params.sigma, dr.plaintext_offset(params, b), seed)


@given(small_params(), st.integers(min_value=0, max_value=1), st.data())
@settings(max_examples=40, deadline=None)
def test_fhe_column_certificate_lands_in_coset(nmqs, x, data):
    n, m, q, sigma = nmqs
    params = fhe.fhe_params(n, m, q, sigma)
    seed = data.draw(st.integers(0, 2**32 - 1))
    j = data.draw(st.integers(min_value=0, max_value=params.ncols - 1))
    keys = fhe.fhe_keygen(params, np.random.default_rng(seed))
    g = x * gadget_matrix(q, params.width).entries[:, j]
    assert_certificate_in_coset(keys.pk.transpose(), params.sigma, g, seed)


def _gen_gauss_where_reference(A, sigma, rng):
    """GenGauss written as a whole-box np.where over the image codes, with
    QState converting the real amplitudes to complex. The image masses are
    image_masses' (checked against the box's bincount on their own)."""
    n, w, q = A.rows, A.cols, A.q
    weights = gaussian_box_weights(q, w, sigma)
    ycodes = zq_image_codes(A.entries, q)
    mass = dr.image_masses(A.entries, q, sigma)
    code = int(rng.choice(len(mass), p=mass / mass.sum()))
    amps = np.where(ycodes == code, weights / math.sqrt(mass[code]), 0.0)
    coset = qsim.QState(qsim.RegisterLayout([("X", (q,) * w)]), amps)
    return coset, ZqVector(np.asarray(np.unravel_index(code, (q,) * n)), q)


@given(small_params(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gen_gauss_matches_the_where_reference(nmqs, seed):
    n, m, q, sigma = nmqs
    A = ZqMatrix(np.random.default_rng(seed).integers(0, q, size=(n, m + 1)), q)
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    state, y = gen_gauss_one(A, sigma, rng)
    want, want_y = _gen_gauss_where_reference(A, sigma, ref_rng)
    assert y == want_y
    assert np.array_equal(state.amps, want.amps)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def dual_sum_cases(draw):
    """A random n x w matrix over Z_q with q^w <= 4096, sigma and a seed."""
    n = draw(st.sampled_from([1, 2]))
    q = draw(st.integers(min_value=2, max_value=13))
    w = draw(st.integers(min_value=1, max_value=int(math.log(4096, q) + 1e-9)))
    sigma = draw(st.floats(min_value=0.5, max_value=float(q)))
    return n, w, q, sigma, draw(st.integers(0, 2**32 - 1))


@given(dual_sum_cases())
@settings(max_examples=80, deadline=None)
def test_coset_encrypt_matches_the_literal_protocol(case):
    # the dual sum against Fourier(phase(GenGauss)) on the same seed, with
    # an offset on every slot as FHE columns carry
    n, w, q, sigma, seed = case
    rng = np.random.default_rng(seed)
    A = ZqMatrix(rng.integers(0, q, size=(n, w)), q)
    g = rng.integers(0, q, size=w)
    state, y = coset_encrypt_one(A, sigma, g, np.random.default_rng(seed + 1))
    coset, want_y = gen_gauss_one(A, sigma, np.random.default_rng(seed + 1))
    want = qsim.qft(qsim.phase_oracle(coset, "X", tuple((-g) % q)), "X")
    assert y == want_y
    np.testing.assert_allclose(state.amps, want.amps, rtol=0, atol=1e-12)
    weights = gaussian_box_weights(q, w, sigma)
    masses = np.bincount(zq_image_codes(A.entries, q), weights=weights**2, minlength=q**n)
    np.testing.assert_allclose(dr.image_masses(A.entries, q, sigma), masses, rtol=1e-12, atol=0)


@st.composite
def register_batches(draw):
    """n <= 2, q prime, even or composite with q^w <= 2048, sigma, a batch
    size and a seed."""
    n = draw(st.sampled_from([1, 2]))
    q = draw(st.sampled_from([2, 3, 4, 6, 7, 8, 9, 12, 13]))
    w = draw(st.integers(min_value=1, max_value=int(math.log(2048, q) + 1e-9)))
    sigma = draw(st.floats(min_value=0.5, max_value=float(q)))
    return n, w, q, sigma, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


@given(register_batches(), st.sampled_from(["none", "inverse-dft", "random"]))
@settings(max_examples=60, deadline=None)
def test_batched_registers_match_per_register_calls(case, basis):
    """coset_encrypt of a batch of offsets, then measure_register of the
    stack (in the computational basis or in another slot basis), give bit
    for bit the states, images and values of one per-register call each,
    drawing in turn from one generator, which ends in the same state; and
    image_masses and gen_gauss over a stack of keys give each key's own."""
    n, w, q, sigma, regs, seed = case
    rng = np.random.default_rng(seed)
    A = ZqMatrix(rng.integers(0, q, size=(n, w)), q)
    g = rng.integers(0, q, size=(regs, w))
    z = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    u = {"none": None, "inverse-dft": qsim._dft_matrix(q).conj().T,
         "random": np.linalg.qr(z)[0]}[basis]
    got_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    states, y = dr.coset_encrypt(A, sigma, g, got_rng)
    want = [dualregev_ref.coset_encrypt(A, sigma, row, ref_rng) for row in g]
    assert [ZqVector(v, q) for v in y] == [want_y for _, want_y in want]
    assert all(np.array_equal(s.amps, ws.amps) for s, (ws, _) in zip(states, want))
    assert qsim.measure_register(states, got_rng, u).tolist() == \
        [list(dualregev_ref.measure_register(ws, ref_rng, u)) for ws, _ in want]
    assert got_rng.random() == ref_rng.random()

    keys = rng.integers(0, q, size=(regs, n, w))
    rngs, refs = ([np.random.default_rng(seed + 2 + i) for i in range(regs)] for _ in range(2))
    cosets, ys = dr.gen_gauss(keys, q, sigma, rngs)
    for key, mass, coset, yk, got, ref in zip(keys, dr.image_masses(keys, q, sigma), cosets, ys,
                                              rngs, refs):
        A = ZqMatrix(key, q)
        assert np.array_equal(mass, dualregev_ref.image_masses(A, sigma))
        want_coset, want_y = dualregev_ref.gen_gauss(A, sigma, ref)
        assert ZqVector(yk, q) == want_y and np.array_equal(coset.amps, want_coset.amps)
        assert got.random() == ref.random()


def test_pke_lifecycle_is_the_per_register_protocol():
    """dr_encrypt, dr_delete and dr_decrypt play a batch of one register:
    the state (bit for bit), image, certificate and decryption of the
    per-register protocol, up to the benchmark's smaller size (19^4)."""
    for params, seeds in ((PARAMS, range(20)), (dr.dr_params(2, 3, 7, 3), range(10)),
                          (dr.dr_params(1, 3, 19, 5), range(2))):
        q = params.q
        for seed in seeds:
            keys = dr.dr_keygen(params, np.random.default_rng(seed))
            rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            ct = dr.dr_encrypt(keys, seed % 2, rng)
            state, y = dualregev_ref.dr_encrypt(keys.pk, params, seed % 2, ref)
            assert ct.vk[1] == y and np.array_equal(ct.state.amps, state.amps)
            assert dr.dr_delete(ct, rng) == dualregev_ref.coset_delete(state, q, ref)
            c = ZqVector(np.asarray(dualregev_ref.measure_register(state, ref)), q)
            assert dr.dr_decrypt(keys, ct, rng) == dr.decide_decryption(c.dot(keys.sk), q)
            assert rng.random() == ref.random()


@pytest.mark.parametrize("shape", [(1, 23), (23, 1)])
def test_coset_encrypt_rejects_an_oversized_sum_before_allocating(shape):
    # (1, 23): 2^23 amplitudes; (23, 1): an inner dimension of 2^23 images
    A = ZqMatrix(np.ones(shape, dtype=np.int64), 2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    tracemalloc.start()
    with pytest.raises(EnumerationTooLarge, match=re.escape("q^23")):
        dr.coset_encrypt(A, 1.0, np.zeros((1, shape[1]), dtype=np.int64), rng)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 16
    assert rng.bit_generator.state == before


def test_coset_encrypt_runs_no_transform_and_builds_no_box_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("encryption ran a dense transform or built a box table")

    monkeypatch.setattr(qsim, "qft", forbidden)
    monkeypatch.setattr(qsim, "phase_oracle", forbidden)
    monkeypatch.setattr(dr, "zq_image_codes", forbidden)
    # one slot (the slot table) or n = 1 slot (the images) at most
    for name in ("gaussian_box_weights", "zq_box"):
        real = getattr(dr, name)
        monkeypatch.setattr(dr, name, lambda q, w, *rest, real=real:
                            real(q, w, *rest) if w == 1 else forbidden())
    params = dr.dr_params(1, 3, 7, 2)
    rng = np.random.default_rng(12)
    keys = dr.dr_keygen(params, rng)
    ct = dr.dr_encrypt(keys, 1, rng)
    A, y = ct.vk
    assert A @ dr.dr_delete(ct, rng) == y


def test_delete_and_decrypt_build_no_collapsed_state(monkeypatch):
    def collapse(*args):
        raise AssertionError("a collapsed state was built that nobody reads")

    monkeypatch.setattr(qsim, "_collapse", collapse)
    params = dr.dr_params(1, 3, 7, 2)
    rng = np.random.default_rng(11)
    keys = dr.dr_keygen(params, rng)
    ct = dr.dr_encrypt(keys, 1, rng)
    A, y = ct.vk
    assert A @ dr.dr_delete(ct, rng) == y
    assert A @ dr.coset_delete([ct.state], params.q, rng)[0] == y
    assert dr.dr_decrypt(keys, ct, rng) in (0, 1)


def test_measurements_run_no_state_sized_transform(monkeypatch):
    """Deletion, decryption and the FHE measurements measure the register
    slot by slot: qft_inverse and the per-slot matmul never run. 200
    deletions at each of the benchmark's two sizes (19^4 and 13^5
    amplitudes) and at n = 2 land in their cosets."""
    def refuse(*args):
        raise AssertionError("a state-sized transform ran")

    monkeypatch.setattr(qsim, "qft_inverse", refuse)
    monkeypatch.setattr(qsim, "_apply_along_axes", refuse)
    for params in (dr.dr_params(1, 3, 19, 5), dr.dr_params(1, 4, 13, 5), dr.dr_params(2, 3, 7, 3)):
        rng = np.random.default_rng(params.q)
        for t in range(200):
            keys = dr.dr_keygen(params, rng)
            ct = dr.dr_encrypt(keys, t % 2, rng)
            A, y = ct.vk
            assert A @ dr.dr_delete(ct, rng) == y, (params, t)
        assert dr.dr_decrypt(keys, ct, rng) in (0, 1)
    params, rng = configs.FHE_QUANTUM, np.random.default_rng(5)
    keys = fhe.fhe_keygen(params, rng)
    ct = fhe.fhe_encrypt_q(keys, 1, rng)
    At, Y = keys.pk.transpose(), ct.vk[1]
    assert [At @ pi for pi in fhe.fhe_delete(ct, rng)] == [Y.column(i) for i in range(Y.cols)]
    assert fhe.fhe_measure_q(ct, rng).matrix.entries.shape == (params.width, params.ncols)


@pytest.mark.parametrize("field,value,message", [
    ("n", 0, "n must be >= 1, got 0"), ("m", 0, "m must be >= 1, got 0"),
    ("q", 1, "q must be >= 2, got 1"), ("sigma_sq", Fraction(0), "sigma^2 must be > 0"),
    ("sigma_sq", Fraction(-4), "sigma^2 must be > 0"),
])
def test_params_reject_a_bad_field_by_name(field, value, message):
    good = {"n": 1, "m": 2, "q": 13, "sigma_sq": Fraction(9)}
    bad = {**good, field: value}
    for build in (lambda: dr.DRParams(**bad), lambda: fhe.FHEParams(**bad, depth=2),
                  lambda: replace(configs.DR_ROUNDTRIP, **{field: value}),
                  lambda: replace(configs.FHE_QUANTUM, **{field: value})):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    dr.DRParams(**good)


def test_fhe_params_reject_a_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        fhe.fhe_params(1, 1, 7, sigma_sq=Fraction(14), depth=-1)
    assert fhe.fhe_params(1, 1, 7, sigma_sq=Fraction(14), depth=0).depth == 0
