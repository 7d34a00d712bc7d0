import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from deletia import configs, dualfhe as fhe, dualregev as dr, qsim
from deletia.zqcore import (
    DimensionMismatch,
    ZqMatrix,
    ZqVector,
    gadget_inverse,
    gadget_matrix,
    gadget_width,
)
import dualregev_ref
from qsim_ref import value_index

QP = configs.FHE_QUANTUM      # (n=1, m=1, q=7, sigma^2=14)
TP = configs.FHE_TENSOR       # (n=1, m=1, q=5, sigma^2=5)
CP = configs.FHE_CLASSICAL    # (n=2, m=8, q=260000011, L=2)


def test_keygen_identity_50_seeds():
    for seed in range(50):
        keys = fhe.fhe_keygen(QP, np.random.default_rng(seed))
        out = (keys.sk.entries @ keys.pk.entries) % QP.q
        assert not out.any()
        assert keys.pk.entries.shape == (QP.m + 1, QP.n)


def test_ncols_formula():
    assert QP.ncols == (QP.m + 1) * math.ceil(math.log2(QP.q))
    assert CP.ncols == 9 * 28


def test_encrypt_q_x0_columns_are_pke_states():
    rng = np.random.default_rng(1)
    keys = fhe.fhe_keygen(QP, rng)
    ct = fhe.fhe_encrypt_q(keys, 0, rng)
    A, Y = ct.vk
    assert Y.cols == QP.ncols
    # each column equals the PKE b=0 construction for its own image
    At = A.transpose()
    for j, col in enumerate(ct.columns):
        direct = dr.dual_ciphertext_sum(At, Y.column(j), np.zeros(QP.width, dtype=np.int64),
                                        QP.sigma)
        assert qsim.trace_distance(col, direct) <= 0.05


@pytest.mark.parametrize("x", [2, -1])
def test_out_of_range_plaintext_bit_raises(x):
    keys = fhe.fhe_keygen(QP, np.random.default_rng(0))
    for encrypt in (fhe.fhe_encrypt_q, fhe.fhe_encrypt_c):
        with pytest.raises(ValueError, match=f"bit x must be 0 or 1, got {x}"):
            encrypt(keys, x, np.random.default_rng(0))


def test_encrypt_q_guard():
    too_big = fhe.fhe_params(1, 6, 13, 3)  # 13^7 column dimension
    keys = fhe.fhe_keygen(too_big, np.random.default_rng(0))
    with pytest.raises(ValueError):
        fhe.fhe_encrypt_q(keys, 0, np.random.default_rng(0))


def joint_literal_sum(params, A, Y, x, cols) -> qsim.QState:
    """The literal Enc sum over a set of columns jointly: the Kronecker
    product of the per-column literal sums."""
    G = gadget_matrix(params.q, params.width)
    amps = np.ones(1, dtype=np.complex128)
    for j in cols:
        ref = dr.dual_ciphertext_sum(A.transpose(), Y.column(j), (x % 2) * G.entries[:, j],
                                     params.sigma)
        amps = np.kron(amps, ref.amps)
    layout = qsim.RegisterLayout([(f"C{i}", (params.q,) * params.width)
                                  for i in range(len(cols))])
    return qsim.QState(layout, amps)


def test_tensor_product_equivalence_two_columns():
    rng = np.random.default_rng(3)
    keys = fhe.fhe_keygen(TP, rng)
    for x in (0, 1):
        ct = fhe.fhe_encrypt_q(keys, x, np.random.default_rng(17 + x))
        A, Y = ct.vk
        cols = [0, 4]
        joint = joint_literal_sum(TP, A, Y, x, cols)
        kron = qsim.QState(joint.layout,
                           np.kron(ct.columns[cols[0]].amps, ct.columns[cols[1]].amps))
        assert qsim.trace_distance(kron, joint) <= 0.05


def test_joint_direct_sum_is_schmidt_rank_one():
    rng = np.random.default_rng(4)
    keys = fhe.fhe_keygen(TP, rng)
    ct = fhe.fhe_encrypt_q(keys, 1, rng)
    A, Y = ct.vk
    joint = joint_literal_sum(TP, A, Y, 1, [0, 1])
    d = TP.q**TP.width  # one column register
    svals = np.linalg.svd(joint.amps.reshape(d, d), compute_uv=False)
    assert svals[0] == pytest.approx(1.0, abs=1e-9)
    assert svals[1] == pytest.approx(0.0, abs=1e-9)


def test_encrypt_c_shape_and_plant():
    rng = np.random.default_rng(5)
    keys = fhe.fhe_keygen(QP, rng)
    ct = fhe.fhe_encrypt_c(keys, 1, rng)
    assert ct.matrix.entries.shape == (QP.m + 1, QP.ncols)
    # E = 0 plant: sk^T (A S + x G) column N = x 2^(K-1)
    q, w, N = QP.q, QP.m + 1, QP.ncols
    S = rng.integers(0, q, size=(QP.n, N))
    G = gadget_matrix(q, w)
    for x in (0, 1):
        C = (keys.pk.entries @ S + x * G.entries) % q
        got = int((keys.sk.entries @ C[:, -1]) % q)
        assert got == (x * 2 ** (gadget_width(q) - 1)) % q


def test_quantum_measurement_matches_classical_marginal():
    # parameters where the classical sampler's truncation window covers the
    # whole centered box, so the two distributions agree exactly
    params = fhe.fhe_params(1, 1, 5, sigma_sq=Fraction(3))
    rng = np.random.default_rng(6)
    keys = fhe.fhe_keygen(params, rng)
    q, w = params.q, params.m + 1
    # exact classical column distribution for x=0: A s + e
    vals, probs = __import__("deletia").zqcore.gaussian_pmf_1d(
        params.q / (math.sqrt(2) * params.sigma), q)
    pe = {int(v): float(p) for v, p in zip(vals, probs)}
    dist = {}
    for s in range(q):
        As = (keys.pk.entries[:, 0] * s) % q
        for e0 in pe:
            for e1 in pe:
                c = ((As[0] + e0) % q, (As[1] + e1) % q)
                dist[c] = dist.get(c, 0.0) + pe[e0] * pe[e1] / q
    # sample quantum columns
    counts = {}
    nsamp = 2000
    for t in range(nsamp):
        ct = fhe.fhe_encrypt_q(keys, 0, rng)
        out = qsim.measure(ct.columns[0], "X", rng)
        counts[out.value] = counts.get(out.value, 0) + 1
    cells = sorted(dist)
    obs = np.array([counts.get(c, 0) for c in cells], dtype=float)
    exp = np.array([dist[c] * nsamp for c in cells])
    keep = exp > 1.0
    obs_k, exp_k = obs[keep], exp[keep]
    if (~keep).any():
        obs_k = np.append(obs_k, obs[~keep].sum())
        exp_k = np.append(exp_k, exp[~keep].sum())
    obs_k = obs_k * exp_k.sum() / obs_k.sum()
    assert stats.chisquare(obs_k, exp_k).pvalue > 1e-3


def test_eval_nand_noiseless_plants():
    rng = np.random.default_rng(7)
    keys = fhe.fhe_keygen(QP, rng)
    q, w, N = QP.q, QP.m + 1, QP.ncols
    G = gadget_matrix(q, w)

    def plant(x):
        S = rng.integers(0, q, size=(QP.n, N))
        return fhe.FHECiphertextC(ZqMatrix((keys.pk.entries @ S + x * G.entries) % q, q))

    for x in (0, 1):
        for y in (0, 1):
            out = fhe.fhe_eval_nand(plant(x), plant(y))
            assert fhe.fhe_decrypt(keys, out) == 1 - (x & y)


def test_eval_nand_depth2_noisy_100_of_100():
    rng = np.random.default_rng(0)
    keys = fhe.fhe_keygen(CP, rng)
    ok = 0
    for t in range(100):
        leaves = [int(v) for v in rng.integers(0, 2, size=4)]
        dec, exp = fhe.nand_tree_eval(keys, leaves, rng)
        ok += dec == exp
    assert ok == 100


def test_validator_rows():
    rows = {name: status for name, status, _ in fhe.validate_noise_window(CP)}
    assert rows["fhe-noise-window"] == "pass"
    assert rows["fhe-noise-lower-thm"] == "pass"
    # too deep for the same modulus: upper bound collapses below the lower
    deep = fhe.fhe_params(CP.n, CP.m, CP.q, sigma_sq=CP.sigma_sq, depth=6)
    rows = {name: status for name, status, _ in fhe.validate_noise_window(deep)}
    assert rows["fhe-noise-window"] == "fail"


def test_decrypt_plants():
    # q = 13: K = 4, top gadget power 8; |centered(8)| = 5 >= 13/4 decodes 1
    params = fhe.fhe_params(1, 1, 13, 3)
    rng = np.random.default_rng(8)
    keys = fhe.fhe_keygen(params, rng)
    q, w, N = 13, 2, params.ncols
    G = gadget_matrix(q, w)
    S = rng.integers(0, q, size=(1, N))
    for x in (0, 1):
        C = ZqMatrix((keys.pk.entries @ S + x * G.entries) % q, q)
        assert fhe.fhe_decrypt(keys, fhe.FHECiphertextC(C)) == x


def test_measure_then_decrypt_roundtrip():
    rng = np.random.default_rng(9)
    keys = fhe.fhe_keygen(QP, rng)
    ok = 0
    for t in range(200):
        x = t % 2
        ct = fhe.fhe_encrypt_q(keys, x, rng)
        ok += fhe.fhe_decrypt(keys, fhe.fhe_measure_q(ct, rng)) == x
    assert ok / 200 >= 0.95


def test_delete_lands_in_cosets():
    rng = np.random.default_rng(10)
    keys = fhe.fhe_keygen(QP, rng)
    At = keys.pk.transpose()
    for t in range(20):
        ct = fhe.fhe_encrypt_q(keys, t % 2, rng)
        pis = fhe.fhe_delete(ct, rng)
        assert len(pis) == QP.ncols
        for i, pi in enumerate(pis):
            assert (At @ pi).entries.tolist() == ct.vk[1].column(i).entries.tolist()


def test_certificate_distribution_independent_of_plaintext():
    keys = fhe.fhe_keygen(QP, np.random.default_rng(11))
    ct0 = fhe.fhe_encrypt_q(keys, 0, np.random.default_rng(77))
    ct1 = fhe.fhe_encrypt_q(keys, 1, np.random.default_rng(77))  # same images
    assert ct0.vk[1] == ct1.vk[1]
    for c0, c1 in zip(ct0.columns, ct1.columns):
        p0 = qsim.marginal_probs(qsim.qft_inverse(c0, "X"), "X")
        p1 = qsim.marginal_probs(qsim.qft_inverse(c1, "X"), "X")
        assert 0.5 * float(np.abs(p0 - p1).sum()) <= 1e-10


def test_verify_cases():
    rng = np.random.default_rng(12)
    keys = fhe.fhe_keygen(QP, rng)
    acc = 0
    for t in range(100):
        ct = fhe.fhe_encrypt_q(keys, t % 2, rng)
        pis = fhe.fhe_delete(ct, rng)
        acc += fhe.fhe_verify(ct.vk, pis, QP)
    assert acc / 100 >= 0.98
    # single bad column rejects; empty list rejects
    ct = fhe.fhe_encrypt_q(keys, 0, rng)
    pis = fhe.fhe_delete(ct, rng)
    assert fhe.fhe_verify(ct.vk, pis, QP)
    bad = list(pis)
    bad[3] = ZqVector((bad[3].entries + 1) % QP.q, QP.q)
    assert not fhe.fhe_verify(ct.vk, bad, QP)
    assert not fhe.fhe_verify(ct.vk, [], QP)


@pytest.mark.parametrize("params,seeds", [
    (QP, range(200)), (TP, range(30)),
    (fhe.fhe_params(2, 2, 6, sigma=2.0), range(30)),  # n = 2, composite q, 3 x 6 x 3 columns
    (fhe.fhe_params(1, 2, 8, sigma=2.5), range(30)),  # even q
], ids=["quantum", "tensor", "n2-q6", "q8"])
def test_batched_columns_match_the_per_column_protocol(params, seeds):
    """Encryption, computational-basis measurement and deletion of all
    gadget columns at once give the per-column protocol's images, column
    amplitudes (bit for bit), measured matrix and certificates, and leave
    the generator in its state; the verdict is the per-column one, on
    honest and on broken certificates."""
    q = params.q
    for seed in seeds:
        keys = fhe.fhe_keygen(params, np.random.default_rng(seed))
        A, sk = dualregev_ref.structured_ajtai_keygen(params.n, params.width, q,
                                                      np.random.default_rng(seed))
        assert keys.pk == A.transpose() and keys.sk == sk
        rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        ct = fhe.fhe_encrypt_q(keys, seed % 2, rng)
        cols, Y = dualregev_ref.fhe_encrypt_q(keys, seed % 2, ref)
        assert ct.vk[1] == Y and len(ct.columns) == len(cols) == params.ncols
        assert all(np.array_equal(got.amps, want.amps) for got, want in zip(ct.columns, cols))
        assert rng.random() == ref.random()
        assert fhe.fhe_measure_q(ct, rng).matrix == dualregev_ref.fhe_measure_q(cols, q, ref)
        assert rng.random() == ref.random()
        pis = fhe.fhe_delete(ct, rng)
        assert pis == dualregev_ref.fhe_delete(cols, q, ref)
        assert rng.random() == ref.random()
        broken = [pis, pis[:-1], [ZqVector(pi.entries + (i == seed % len(pis)), q)
                                  for i, pi in enumerate(pis)]]
        for certs in broken:
            assert fhe.fhe_verify(ct.vk, certs, params) == \
                dualregev_ref.fhe_verify(ct.vk, certs, params)
    with pytest.raises(DimensionMismatch):
        fhe.fhe_verify(ct.vk, [ZqVector([0], q)] * params.ncols, params)


def test_nand_unitary_is_a_basis_permutation():
    # fixed X: (y, z) -> (y, z + g(X, y)) permutes Z_q^2 x Z_q^2, exhaustively
    q, d = 5, 2
    G = gadget_matrix(q, d)
    rng = np.random.default_rng(13)
    for _ in range(4):
        X = rng.integers(0, q, size=(d, d * gadget_width(q)))
        seen = set()
        for y in itertools.product(range(q), repeat=d):
            gy = gadget_inverse(np.asarray(y), q, d)
            shift = (G.entries[:, 0] - X @ gy) % q
            for z in itertools.product(range(q), repeat=d):
                out = (y, tuple((np.asarray(z) + shift) % q))
                assert out not in seen
                seen.add(out)
        assert len(seen) == q ** (2 * d)


def test_eval_then_decrypt_commutes_with_measuring_first():
    # q = 2 gadget-trivial instance: coherent U_NAND then measure equals
    # measure then classical map, as exact output distributions
    q = 2
    lay = qsim.RegisterLayout([("X", (q,)), ("Y", (q,)), ("Z", (q,))])
    rng = np.random.default_rng(14)
    a = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
    state = qsim.QState(lay, a / np.linalg.norm(a))

    def nand_map(xyz):
        x, y, z = xyz
        return (x, y, (z + 1 - x * y) % q)

    # coherent: permute basis states, then read the joint distribution
    perm_amps = np.zeros(lay.dim, dtype=np.complex128)
    for i, xyz in enumerate(itertools.product(range(q), repeat=3)):
        j = value_index(lay, "X", (nand_map(xyz)[0],)) * 4 \
            + nand_map(xyz)[1] * 2 + nand_map(xyz)[2]
        perm_amps[j] += state.amps[i]
    coherent = np.abs(perm_amps) ** 2
    # measure first, then push through the classical map
    measured = np.abs(state.amps) ** 2
    pushed = np.zeros(lay.dim)
    for i, xyz in enumerate(itertools.product(range(q), repeat=3)):
        x, y, z = nand_map(xyz)
        pushed[x * 4 + y * 2 + z] += measured[i]
    np.testing.assert_allclose(coherent, pushed, atol=1e-12)


def test_decrypt_plants_at_every_modulus():
    """Noiseless plants x G decrypt to x at every q from 2 to 300 and around
    every power of two up to 2^32: the decoded gadget column's entry 2^j
    has the largest centered size, at least q/3, where the last column's
    2^(K-1) centers below q/4 for q in (2^(K-1), (4/3) 2^(K-1))."""
    moduli = [*range(2, 301), *(2**k + d for k in range(9, 33) for d in (-1, 1, 2**k // 3))]
    for q in moduli:
        params = fhe.fhe_params(1, 1, q, sigma_sq=1)
        keys = fhe.fhe_keygen(params, np.random.default_rng(q))
        G = gadget_matrix(q, params.width)
        S = np.random.default_rng(q + 1).integers(0, q, size=(1, params.ncols))
        for x in (0, 1):
            C = ZqMatrix((keys.pk.entries @ S + x * G.entries) % q, q)
            assert fhe.fhe_decrypt(keys, fhe.FHECiphertextC(C)) == x, (q, x)


@pytest.mark.parametrize("q", [65537, 4294967311])
def test_nand_trees_decrypt_just_above_a_power_of_two(q):
    """`fhe nand-tree --q Q --trials 30 --seed 1`'s trees: at q = 2^16 + 1
    and 2^32 + 15 the last gadget column's plaintext term centers to -1 and
    -15, so deciding from it read x = 1 as noise."""
    params = replace(CP, q=q)
    rng = np.random.default_rng(1)
    keys = fhe.fhe_keygen(params, rng)
    for t in range(30):
        leaves = [int(v) for v in rng.integers(0, 2, size=1 << params.depth)]
        dec, exp = fhe.nand_tree_eval(keys, leaves, rng)
        assert dec == exp, (t, leaves)
