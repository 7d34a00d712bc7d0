import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deletia import qsim, zqcore
from deletia.qsim import (
    DensityOp,
    Ensemble,
    RegisterLayout,
    QState,
    ZeroProbabilityProjection,
    apply_classical,
    basis_state,
    controlled_phase_oracle,
    drop_segment,
    ensemble_trace_distance,
    marginal_probs,
    measure,
    pauli_twirl_channel,
    phase_oracle,
    prepare_weighted,
    project,
    project_prob,
    qft,
    qft_inverse,
    trace_distance,
)


def rand_state(layout, rng):
    a = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return QState(layout, a / np.linalg.norm(a))


def test_phase_vector_matches_phase_function():
    rng = np.random.default_rng(12)
    lay = RegisterLayout([("C", (2,)), ("X", (3, 2))])
    st_ = rand_state(lay, rng)
    phases = np.exp(2j * np.pi * rng.random(6))
    by_fn = qsim.controlled_phase_fn(st_, "C", "X", lambda x: phases[2 * x[0] + x[1]])
    by_vec = qsim.controlled_phase_fn(st_, "C", "X", phases)
    np.testing.assert_array_equal(by_fn.amps, by_vec.amps)
    with pytest.raises(ValueError):
        qsim.apply_phase_fn(st_, "X", phases[:5])


def test_value_index_rejects_out_of_range_digits():
    lay = RegisterLayout([("X", (3, 3))])
    assert lay.value_index("X", (2, 2)) == 8
    for bad in [(5, -1), (3, 0), (0, -1)]:
        with pytest.raises(ValueError):
            lay.value_index("X", bad)


def test_layout_basics():
    lay = RegisterLayout([("X", (5, 5)), ("Y", (3,))])
    assert lay.dim == 75
    assert lay.axes("Y") == [2]
    assert lay.seg_dim("X") == 25
    with pytest.raises(KeyError):
        lay.axes("Z")
    with pytest.raises(ValueError):
        RegisterLayout([("X", (2,)), ("X", (2,))])


def test_split_gives_the_dims_around_a_segment():
    lay = RegisterLayout([("X", (5, 5)), ("Y", (3,)), ("Z", (2, 2))])
    assert [lay.split(n) for n in lay.names()] == [(1, 25, 12), (25, 3, 4), (75, 4, 1)]
    with pytest.raises(KeyError):
        lay.split("W")


def test_segment_values_wrap_and_a_wrong_length_raises():
    lay = RegisterLayout([("X", (5, 5)), ("Y", (3,))])
    wrapped = basis_state(lay, {"X": (7, -1), "Y": 4})
    assert np.array_equal(wrapped.amps, basis_state(lay, {"X": (2, 4), "Y": 1}).amps)
    assert drop_segment(wrapped, "X", (7, -1)).amps[1] == 1.0
    with pytest.raises(ValueError):
        basis_state(lay, {"X": (1,)})
    with pytest.raises(ValueError):
        drop_segment(wrapped, "X", (2,))
    with pytest.raises(ValueError):
        apply_classical(wrapped, lambda x: x, "Y", "Y")


def test_layout_guard():
    with pytest.raises(ValueError):
        RegisterLayout([("X", (2,) * 23)])


def test_prepare_weighted_uniform():
    lay = RegisterLayout([("X", (2, 2))])
    st_ = prepare_weighted(lay, "X", np.ones(4))
    np.testing.assert_allclose(st_.amps, 0.5)


def test_prepare_weighted_singleton():
    lay = RegisterLayout([("X", (3, 3))])
    st_ = prepare_weighted(lay, "X", {(2, 1): 1.0})
    want = basis_state(lay, {"X": (2, 1)})
    np.testing.assert_allclose(st_.amps, want.amps)


def test_prepare_weighted_gaussian_matches_pmf():
    # amplitudes prop. to rho_sigma measure as the sigma/sqrt(2) table
    q, m, sigma = 5, 2, 20.0
    lay = RegisterLayout([("X", (q,) * m)])
    w = np.array([zqcore.rho_sigma(zqcore.ZqVector(list(x), q), sigma)
                  for x in itertools.product(range(q), repeat=m)])
    st_ = prepare_weighted(lay, "X", w)
    # wide enough that the table's norm truncation is vacuous
    table = zqcore.truncated_gaussian_pmf(
        zqcore.GaussianParams(sigma / math.sqrt(2), q, m))
    np.testing.assert_allclose(marginal_probs(st_, "X"), table, atol=1e-12)


def test_prepare_weighted_rejects_all_zero():
    lay = RegisterLayout([("X", (2,))])
    with pytest.raises(ValueError):
        prepare_weighted(lay, "X", {0: 0.0})


def test_apply_classical_identity():
    lay = RegisterLayout([("X", (3,)), ("Y", (3,))])
    st_ = basis_state(lay, {"X": (2,)})
    out = apply_classical(st_, lambda x: (x,), "X", "Y")
    want = basis_state(lay, {"X": (2,), "Y": (2,)})
    np.testing.assert_allclose(out.amps, want.amps)


def test_apply_classical_pushforward():
    rng = np.random.default_rng(1)
    lay = RegisterLayout([("X", (4,)), ("Y", (5,))])
    w = rng.random(4) + 0.1
    st_ = prepare_weighted(lay, "X", w)
    f = lambda x: ((2 * x + 1) % 5,)
    out = apply_classical(st_, f, "X", "Y")
    got = marginal_probs(out, "Y")
    want = np.zeros(5)
    probs = w**2 / np.sum(w**2)
    for x in range(4):
        want[f(x)[0]] += probs[x]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_apply_classical_inverse_restores():
    rng = np.random.default_rng(2)
    lay = RegisterLayout([("X", (3, 3)), ("Y", (3,))])
    st_ = rand_state(lay, rng)
    f = lambda x: ((x[0] + 2 * x[1]) % 3,)
    g = lambda x: ((-(x[0] + 2 * x[1])) % 3,)
    out = apply_classical(apply_classical(st_, f, "X", "Y"), g, "X", "Y")
    np.testing.assert_allclose(out.amps, st_.amps, atol=1e-12)


def test_apply_classical_preserves_amplitude_multiset():
    rng = np.random.default_rng(3)
    lay = RegisterLayout([("X", (4,)), ("Y", (4,))])
    st_ = rand_state(lay, rng)
    out = apply_classical(st_, lambda x: ((x * x + 1) % 4,), "X", "Y")
    assert sorted(np.round(np.abs(st_.amps), 12)) == sorted(np.round(np.abs(out.amps), 12))


def test_measure_deterministic_on_basis_state():
    lay = RegisterLayout([("X", (5,)), ("Y", (2,))])
    st_ = basis_state(lay, {"X": (3,)})
    out = measure(st_, "X", np.random.default_rng(0))
    assert out.value == (3,) and out.probability == pytest.approx(1.0)


def test_measure_seed_determinism():
    lay = RegisterLayout([("X", (7,))])
    st_ = prepare_weighted(lay, "X", np.arange(1, 8, dtype=float))
    a = measure(st_, "X", np.random.default_rng(42))
    b = measure(st_, "X", np.random.default_rng(42))
    assert a.value == b.value and a.probability == b.probability


def test_qft_zero_state_uniform():
    lay = RegisterLayout([("X", (5, 5))])
    out = qft(basis_state(lay), "X")
    np.testing.assert_allclose(np.abs(out.amps), 1 / 5, atol=1e-12)


def test_qft_twice_negates():
    q = 5
    lay = RegisterLayout([("X", (q,))])
    for x in range(q):
        out = qft(qft(basis_state(lay, {"X": (x,)}), "X"), "X")
        want = basis_state(lay, {"X": ((-x) % q,)})
        np.testing.assert_allclose(out.amps, want.amps, atol=1e-10)


@pytest.mark.parametrize("q,m", [(q, m) for q in range(2, 14) for m in (1, 2)])
def test_qft_unitarity(q, m):
    lay = RegisterLayout([("X", (q,) * m)])
    dim = q**m
    cols = []
    for i in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[i] = 1.0
        cols.append(qft(QState(lay, amps), "X").amps)
    F = np.stack(cols, axis=1)
    np.testing.assert_allclose(F.conj().T @ F, np.eye(dim), atol=1e-10)


def test_qft_preserves_inner_products():
    rng = np.random.default_rng(4)
    lay = RegisterLayout([("X", (5, 5))])
    a, b = rand_state(lay, rng), rand_state(lay, rng)
    lhs = np.vdot(qft(a, "X").amps, qft(b, "X").amps)
    assert lhs == pytest.approx(np.vdot(a.amps, b.amps), abs=1e-10)
    roundtrip = qft_inverse(qft(a, "X"), "X")
    np.testing.assert_allclose(roundtrip.amps, a.amps, atol=1e-10)


def _random_layout_around(data, d, k, hi=4):
    """A layout of up to three segments whose segment "S" has k slots of
    dimension d and sits first, in the middle or last; the other slots have
    dimensions 2 to hi."""
    others = [("A", tuple(data.draw(st.lists(st.integers(2, hi), min_size=1, max_size=2)))),
              ("B", tuple(data.draw(st.lists(st.integers(2, hi), min_size=1, max_size=2))))]
    others = others[:data.draw(st.integers(0, 2))]
    pos = data.draw(st.integers(0, len(others)))
    return RegisterLayout(others[:pos] + [("S", (d,) * k)] + others[pos:])


def _tensordot_reference(state, segment, u):
    t = state.tensor_view()
    for ax in state.layout.axes(segment):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [ax])), 0, ax)
    return t.reshape(-1)


@given(st.data(), st.integers(2, 5), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_slot_matmul_matches_tensordot_and_qft_inverts(data, d, k, seed):
    rng = np.random.default_rng(seed)
    lay = _random_layout_around(data, d, k)
    state = rand_state(lay, rng)
    u = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    got = qsim._apply_along_axes(state, "S", u).amps
    np.testing.assert_allclose(got, _tensordot_reference(state, "S", u), rtol=0, atol=1e-12)
    back = qft_inverse(qft(state, "S"), "S").amps
    np.testing.assert_allclose(back, state.amps, rtol=0, atol=1e-12)


def _move_segment_last(state, segment):
    """Tensor reshaped to (rest, seg_dim), plus seg_dim: the transpose that
    qsim's segment operations made before the (before, segment, after) view."""
    axes = state.layout.axes(segment)
    t = state.tensor_view()
    rest_axes = [i for i in range(t.ndim) if i not in axes]
    t = np.transpose(t, rest_axes + axes)
    seg_dim = state.layout.seg_dim(segment)
    return t.reshape(-1, seg_dim), seg_dim


def _restore_from_last(mat, layout, segment):
    axes = layout.axes(segment)
    dims = layout.all_dims
    rest_axes = [i for i in range(len(dims)) if i not in axes]
    shape = [dims[i] for i in rest_axes] + [dims[i] for i in axes]
    t = mat.reshape(shape)
    inv = np.argsort(rest_axes + axes)
    return np.transpose(t, inv).reshape(-1)


def _zero_and_copy_reference(state, segment, k):
    mat, _ = _move_segment_last(state, segment)
    out = np.zeros_like(mat)
    out[:, k] = mat[:, k]
    amps = _restore_from_last(out, state.layout, segment)
    return amps / np.linalg.norm(amps)


@given(st.data(), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_collapse_matches_zero_and_copy_reference(data, d, k, seed):
    rng = np.random.default_rng(seed)
    lay = _random_layout_around(data, d, k)
    state = rand_state(lay, rng)
    idx = data.draw(st.integers(0, d**k - 1))
    out = qsim._collapse(state, "S", idx, 0.5)
    assert out.value == tuple(itertools.product(range(d), repeat=k))[idx]
    assert np.array_equal(out.post_state.amps, _zero_and_copy_reference(state, "S", idx))


@given(st.data(), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_measure_and_phase_kernels_match_their_reference_forms(data, d, k, seed):
    """marginal_probs, the measured probability and the post-state are the
    same floats as squaring into a new array, summing over every row and
    collapsing at once; phase_oracle is the same as multiplying into copies."""
    rng = np.random.default_rng(seed)
    state = rand_state(_random_layout_around(data, d, k), rng)
    mat, _ = _move_segment_last(state, "S")
    probs = np.sum(np.abs(mat) ** 2, axis=0)
    assert np.array_equal(marginal_probs(state, "S"), probs)
    probs = probs / probs.sum()
    out = measure(state, "S", np.random.default_rng(seed))
    idx = int(np.random.default_rng(seed).choice(len(probs), p=probs))
    want = qsim._collapse(state, "S", idx, float(probs[idx]))
    assert (out.value, out.probability) == (want.value, want.probability)
    assert np.array_equal(out.post_state.amps, want.post_state.amps)
    v = data.draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k))
    t = state.tensor_view()
    for ax, vi in zip(state.layout.axes("S"), v):
        shape = [1] * t.ndim
        shape[ax] = d
        t = t * (np.exp(2j * np.pi / d) ** ((np.arange(d) * vi) % d)).reshape(shape)
    assert np.array_equal(phase_oracle(state, "S", v).amps, t.reshape(-1))


def test_measure_builds_the_collapsed_state_once_on_read(monkeypatch):
    state = rand_state(RegisterLayout([("X", (3, 2)), ("Y", (2,))]), np.random.default_rng(5))
    calls = []
    collapse = qsim._collapse
    monkeypatch.setattr(qsim, "_collapse", lambda *args: calls.append(args) or collapse(*args))
    out = measure(state, "X", np.random.default_rng(1))
    assert calls == []
    first = out.post_state
    assert out.post_state is first and len(calls) == 1
    assert drop_segment(first, "X", out.value).norm() == pytest.approx(1.0)


def _dims(max_slots=2, lo=2, hi=4):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=max_slots).map(tuple)


@given(st.data(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_apply_classical_permutes_basis_states(data, seed):
    """|x>|t>|e> -> |x>|t + f(x) mod dims>|e> moves every amplitude to the
    image of its basis state under one bijection, exactly."""
    segs = [("X", data.draw(_dims())), ("T", data.draw(_dims()))]
    if data.draw(st.booleans()):
        segs.append(("E", data.draw(_dims(max_slots=1))))
    segs = data.draw(st.permutations(segs))
    lay = RegisterLayout(segs)
    table = {x: tuple(data.draw(st.integers(0, 9)) for _ in lay.seg_dims("T"))
             for x in lay.seg_values("X")}
    state = rand_state(lay, np.random.default_rng(seed))
    out = apply_classical(state, lambda x: table[x if isinstance(x, tuple) else (x,)], "X", "T")
    digits = np.array(np.unravel_index(np.arange(lay.dim), lay.all_dims))
    x_ax, t_ax = lay.axes("X"), lay.axes("T")
    shift = np.array([table[tuple(col)] for col in digits[x_ax].T]).T
    digits[t_ax] = (digits[t_ax] + shift) % np.array(lay.seg_dims("T"))[:, None]
    perm = np.ravel_multi_index(tuple(digits), lay.all_dims)
    assert np.array_equal(np.sort(perm), np.arange(lay.dim))
    moved = np.zeros_like(state.amps)
    moved[perm] = state.amps
    assert np.array_equal(out.amps, moved)


def _random_mixed(lay, rng, n):
    return DensityOp.mixture([(w, rand_state(lay, rng))
                              for w in rng.dirichlet(np.ones(n))])


@given(_dims(max_slots=3, hi=2), st.lists(st.integers(2, 3), max_size=1),
       st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pauli_twirl_is_idempotent(qubits, env, nmix, seed):
    segs = [("Q", qubits)] + ([("E", tuple(env))] if env else [])
    rho = _random_mixed(RegisterLayout(segs), np.random.default_rng(seed), nmix)
    once = pauli_twirl_channel(rho, "Q")
    twice = pauli_twirl_channel(once, "Q")
    np.testing.assert_allclose(twice.matrix, once.matrix, rtol=0, atol=1e-12)
    once.check()


@given(_dims(max_slots=1, hi=3), _dims(max_slots=2, hi=3), st.integers(1, 3),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_trace_distance_is_a_metric_that_partial_trace_contracts(a_dims, b_dims, nmix, seed):
    lay = RegisterLayout([("A", a_dims), ("B", b_dims)])
    rng = np.random.default_rng(seed)
    x, y, z = (_random_mixed(lay, rng, nmix) for _ in range(3))
    dxy, dyz, dxz = trace_distance(x, y), trace_distance(y, z), trace_distance(x, z)
    assert abs(dxy - trace_distance(y, x)) <= 1e-12
    assert 0.0 <= dxy <= 1.0 + 1e-12
    assert dxz <= dxy + dyz + 1e-12
    for keep in (["A"], ["B"]):
        red = trace_distance(qsim.partial_trace(x, keep), qsim.partial_trace(y, keep))
        assert red <= dxy + 1e-12


def test_measure_rejects_unnormalised_state():
    lay = RegisterLayout([("X", (3,)), ("Y", (2,))])
    good = rand_state(lay, np.random.default_rng(8))
    measure(QState(lay, good.amps * (1 + 1e-12)), "X", np.random.default_rng(0))
    for scale in (1.001, 0.5):
        with pytest.raises(ValueError, match="squared norm"):
            measure(QState(lay, good.amps * scale), "X", np.random.default_rng(0))


def test_phase_oracle_zero_vector_is_identity():
    rng = np.random.default_rng(5)
    lay = RegisterLayout([("X", (5, 5))])
    st_ = rand_state(lay, rng)
    out = phase_oracle(st_, "X", (0, 0))
    np.testing.assert_allclose(out.amps, st_.amps)


def test_pauli_z_involution():
    rng = np.random.default_rng(6)
    lay = RegisterLayout([("X", (2, 2, 2))])
    st_ = rand_state(lay, rng)
    out = phase_oracle(phase_oracle(st_, "X", (1, 0, 1)), "X", (1, 0, 1))
    np.testing.assert_allclose(out.amps, st_.amps, atol=1e-12)


def test_controlled_phase_amplitudes():
    # CZ^z on (|0>+|1>)_C |x>: control amplitudes (1, (-1)^{<x,z>})/sqrt2
    lay = RegisterLayout([("C", (2,)), ("X", (2, 2))])
    z = (1, 1)
    for x in itertools.product((0, 1), repeat=2):
        amps = np.zeros(lay.dim, dtype=complex)
        i0 = lay.value_index("X", x)
        amps[i0] = 1 / math.sqrt(2)
        amps[4 + i0] = 1 / math.sqrt(2)
        out = controlled_phase_oracle(QState(lay, amps), "C", "X", z)
        sign = (-1) ** (sum(a * b for a, b in zip(x, z)) % 2)
        assert out.amps[i0] == pytest.approx(1 / math.sqrt(2))
        assert out.amps[4 + i0] == pytest.approx(sign / math.sqrt(2))


def test_pauli_twirl_fixed_point_and_plus_state():
    lay = RegisterLayout([("X", (2,))])
    diag = DensityOp(lay, np.diag([0.3, 0.7]).astype(complex))
    out = pauli_twirl_channel(diag, "X")
    np.testing.assert_allclose(out.matrix, diag.matrix, atol=1e-15)
    plus = QState(lay, np.array([1, 1]) / math.sqrt(2))
    out = pauli_twirl_channel(DensityOp.from_state(plus), "X")
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)


def test_pauli_twirl_equals_diagonal_extraction():
    # oracle: zero the off-diagonal blocks of the twirled segment directly
    rng = np.random.default_rng(7)
    lay = RegisterLayout([("X", (2, 2)), ("Z", (3,))])
    rho = DensityOp.mixture([(0.5, rand_state(lay, rng)), (0.5, rand_state(lay, rng))])
    out = pauli_twirl_channel(rho, "X")
    t = rho.matrix.reshape(2, 2, 3, 2, 2, 3).copy()
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    if (i, j) != (k, l):
                        t[i, j, :, k, l, :] = 0
    np.testing.assert_allclose(out.matrix, t.reshape(12, 12), atol=1e-12)
    # off-diagonal blocks vanish entirely
    got = out.matrix.reshape(2, 2, 3, 2, 2, 3)
    assert np.max(np.abs(got[0, 0, :, 1, 1, :])) < 1e-12


def test_project_examples():
    lay = RegisterLayout([("X", (2,))])
    plus = QState(lay, np.array([1, 1]) / math.sqrt(2))
    minus = QState(lay, np.array([1, -1]) / math.sqrt(2))
    p, post = project(plus, "X", plus)
    assert p == pytest.approx(1.0)
    assert project_prob(plus, "X", minus) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ZeroProbabilityProjection):
        project(plus, "X", minus)
    # |0> onto (|0> + (-1)^s |1>)/sqrt2 always succeeds with prob 1/2
    zero = basis_state(lay)
    for s in (1, -1):
        phi = np.array([1, s]) / math.sqrt(2)
        assert project_prob(zero, "X", phi) == pytest.approx(0.5)


def test_trace_distance_examples():
    lay = RegisterLayout([("X", (2,))])
    zero = DensityOp.from_state(basis_state(lay))
    one = DensityOp.from_state(basis_state(lay, {"X": (1,)}))
    plus = DensityOp.from_state(QState(lay, np.array([1, 1]) / math.sqrt(2)))
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(zero, plus) == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_trace_distance_triangle_and_symmetry():
    rng = np.random.default_rng(8)
    lay = RegisterLayout([("X", (2, 2))])
    rhos = [DensityOp.from_state(rand_state(lay, rng)) for _ in range(3)]
    d01 = trace_distance(rhos[0], rhos[1])
    d12 = trace_distance(rhos[1], rhos[2])
    d02 = trace_distance(rhos[0], rhos[2])
    assert d01 == pytest.approx(trace_distance(rhos[1], rhos[0]), abs=1e-10)
    assert d02 <= d01 + d12 + 1e-9


def test_trace_distance_zero_iff_equal():
    rng = np.random.default_rng(9)
    lay = RegisterLayout([("X", (2, 2))])
    a = DensityOp.from_state(rand_state(lay, rng))
    b = DensityOp(lay, a.matrix.copy())
    assert trace_distance(a, b) < 1e-12
    c = DensityOp.from_state(rand_state(lay, rng))
    if np.max(np.abs(a.matrix - c.matrix)) > 1e-9:
        assert trace_distance(a, c) > 1e-9


def test_trace_distance_monotone_under_partial_trace():
    rng = np.random.default_rng(10)
    lay = RegisterLayout([("A", (2,)), ("B", (3,))])
    for _ in range(5):
        x = DensityOp.from_state(rand_state(lay, rng))
        y = DensityOp.from_state(rand_state(lay, rng))
        full = trace_distance(x, y)
        red = trace_distance(qsim.partial_trace(x, ["A"]), qsim.partial_trace(y, ["A"]))
        assert red <= full + 1e-9


def test_trace_norm_matches_nuclear_norm():
    rng = np.random.default_rng(11)
    for n in (2, 5, 16, 40, 200):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2
        want = np.linalg.norm(h, "nuc")
        assert qsim.trace_norm(h) == pytest.approx(want, rel=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_norm_preserved_under_random_ops(seed):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout([("C", (2,)), ("X", (3, 3))])
    st_ = rand_state(lay, rng)
    st_ = qft(st_, "X")
    st_ = phase_oracle(st_, "X", tuple(rng.integers(0, 3, size=2)))
    st_ = apply_classical(st_, lambda c: ((c + 1) % 2,), "C", "C") \
        if False else st_
    st_ = qft_inverse(st_, "X")
    assert st_.norm() == pytest.approx(1.0, abs=1e-10)


def test_drop_segment():
    lay = RegisterLayout([("X", (3,)), ("Y", (4,))])
    st_ = basis_state(lay, {"X": (2,), "Y": (3,)})
    red = drop_segment(st_, "Y", (3,))
    assert red.layout.names() == ["X"]
    want = basis_state(red.layout, {"X": (2,)})
    np.testing.assert_allclose(red.amps, want.amps)


def test_dump_format():
    lay = RegisterLayout([("X", (2, 2))])
    st_ = QState(lay, np.array([1, 0, 0, 1]) / math.sqrt(2))
    lines = st_.dump().splitlines()
    assert lines[0].startswith("0,0  ")
    assert lines[1].startswith("1,1  ")
    assert len(lines) == 2


def test_ensemble_trace_distance():
    lay = RegisterLayout([("X", (2,))])
    states = np.array([basis_state(lay).amps, basis_state(lay, {"X": (1,)}).amps])
    y, n = 0, 1
    a = Ensemble.from_columns([0.5, 0.5], [y, n], [0, 1], states)
    b = Ensemble.from_columns([0.5, 0.5], [y, n], [0, 1], states)
    assert ensemble_trace_distance(a, b) == pytest.approx(0.0, abs=1e-12)
    c = Ensemble.from_columns([0.5, 0.5], [y, n], [1, 1], states)
    assert ensemble_trace_distance(a, c) == pytest.approx(0.5, abs=1e-12)
    # classical-only branches compare by mass
    d = Ensemble.from_columns([1.0], [y], -1, states)
    e = Ensemble.from_columns([0.25, 0.75], [y, n], -1, states)
    assert ensemble_trace_distance(d, e) == pytest.approx(0.75, abs=1e-12)


def test_ensemble_trace_distance_needs_one_state_table():
    states = np.eye(2, dtype=np.complex128)
    a = Ensemble.from_columns([1.0], [0], [0], states)
    b = Ensemble.from_columns([1.0], [0], [0], np.eye(2, dtype=np.complex128))
    with pytest.raises(ValueError, match="one state table"):
        ensemble_trace_distance(a, b)


def test_dump_golden_file():
    from pathlib import Path

    from deletia import configs, dualregev

    keys = dualregev.dr_keygen(configs.DR_EXACT, np.random.default_rng(0))
    st_, _ = dualregev.gen_gauss(keys.pk, configs.DR_EXACT.sigma,
                                 np.random.default_rng(1))
    golden = Path(__file__).parent / "golden" / "gengauss_coset_seed01.dump"
    assert st_.dump() == golden.read_text()


def _dense_ensemble_td(a: Ensemble, b: Ensemble) -> float:
    """Reference: per label, the dense difference of weighted projectors, a
    branch without a state counting as one more orthogonal basis state."""
    dim = a.states.shape[1]
    none = np.eye(dim + 1)[dim]
    td = 0.0
    for label in set(a.branches["label"].tolist()) | set(b.branches["label"].tolist()):
        m = np.zeros((dim + 1, dim + 1), dtype=np.complex128)
        for sign, ens in ((1.0, a), (-1.0, b)):
            for p, lb, s in ens.branches.tolist():
                if lb == label:
                    v = none if s < 0 else np.append(ens.states[s], 0)
                    m += sign * p * np.outer(v, v.conj())
        td += 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return td


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_rank_k_ensemble_td_matches_dense_reference(seed, nlabels, k):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout([("X", (2, 2, 2))])
    # random int64 label codes; the last one is for classical-only branches
    codes = rng.integers(-2**62, 2**62, size=nlabels + 1)
    pool = [rand_state(lay, rng).amps for _ in range(k)]
    # one shared table with repeated rows: the pool twice, then one more state
    states = np.array(pool + pool + [rand_state(lay, rng).amps])

    def ensemble(rows):
        rows = np.array([*rows, -1, -1])
        label = np.where(rows >= 0, codes[rng.integers(nlabels, size=len(rows))], codes[-1])
        return Ensemble.from_columns(rng.random(len(rows)), label, rows, states)

    a = ensemble([*range(k), k])  # pool[0] twice, through its repeated row
    b = ensemble([*rng.choice(2 * k, int(rng.integers(1, k + 1)), replace=False), 2 * k])
    assert abs(ensemble_trace_distance(a, b) - _dense_ensemble_td(a, b)) <= 1e-12
    # both sides identical: exactly zero
    assert ensemble_trace_distance(a, Ensemble(a.branches.copy(), states)) == 0.0


# The transpose and slice-list bodies that qsim's segment operations had
# before they read the (before, segment, after) view: each view form must
# give the same floats as its reference here.

def _marginal_probs_reference(state, segment):
    mat, _ = _move_segment_last(state, segment)
    probs = np.abs(mat)
    np.square(probs, out=probs)
    return probs[0] if len(probs) == 1 else probs.sum(axis=0)


def _collapse_reference(state, segment, k):
    value = np.unravel_index(k, state.layout.seg_dims(segment))
    t = state.tensor_view()
    sl = [slice(None)] * t.ndim
    for ax, v in zip(state.layout.axes(segment), value):
        sl[ax] = v
    out = np.zeros_like(t)
    out[tuple(sl)] = t[tuple(sl)]
    out[tuple(sl)] /= np.linalg.norm(out.reshape(-1))
    return out.reshape(-1)


def _drop_segment_reference(state, segment, value):
    t = state.tensor_view()
    sl = [slice(None)] * t.ndim
    for ax, v, d in zip(state.layout.axes(segment), value, state.layout.seg_dims(segment)):
        sl[ax] = v % d
    kept = t[tuple(sl)].reshape(-1)
    return kept / float(np.linalg.norm(kept))


def _apply_phase_fn_reference(state, segment, ph):
    mat, _ = _move_segment_last(state, segment)
    return _restore_from_last(mat * ph[None, :], state.layout, segment)


def _controlled_phase_fn_reference(state, control, segment, ph):
    t = state.tensor_view().copy()
    sl = [slice(None)] * t.ndim
    sl[state.layout.axes(control)[0]] = 1
    rest = RegisterLayout([(n, d) for n, d in state.layout.segments if n != control])
    branch = QState(rest, t[tuple(sl)].reshape(-1))
    t[tuple(sl)] = _apply_phase_fn_reference(branch, segment, ph).reshape(t[tuple(sl)].shape)
    return t.reshape(-1)


def _project_reference(state, segment, target):
    tv = target / np.linalg.norm(target)
    mat, _ = _move_segment_last(state, segment)
    ov = mat @ tv.conj()
    prob = float(np.sum(np.abs(ov) ** 2))
    out = np.outer(ov, tv) / math.sqrt(prob)
    return prob, _restore_from_last(out, state.layout, segment)


def _prepare_weighted_reference(layout, segment, w):
    w = np.asarray(w, dtype=np.complex128)
    n = np.linalg.norm(w)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for i, val in enumerate(layout.seg_values(segment)):
        flat = 0
        for name, dims in layout.segments:
            v = val if name == segment else (0,) * len(dims)
            for c, d in zip(v, dims):
                flat = flat * d + (c % d)
        amps[flat] = w[i] / n
    return amps


def _apply_classical_reference(state, f, src, dst):
    layout = state.layout
    src_dim, dst_dim = layout.seg_dim(src), layout.seg_dim(dst)
    dst_dims = layout.seg_dims(dst)
    axes = layout.axes(src) + layout.axes(dst)
    t = state.tensor_view()
    rest_axes = [i for i in range(t.ndim) if i not in axes]
    t2 = np.transpose(t, rest_axes + axes).reshape(-1, src_dim, dst_dim)
    dst_vals = np.array(list(layout.seg_values(dst)), dtype=np.int64)
    gather = np.empty((src_dim, dst_dim), dtype=np.int64)
    radix = np.ones(len(dst_dims), dtype=np.int64)
    for i in range(len(dst_dims) - 2, -1, -1):
        radix[i] = radix[i + 1] * dst_dims[i + 1]
    for sidx, sval in enumerate(layout.seg_values(src)):
        shift = np.asarray(f(sval if len(sval) > 1 else sval[0]), dtype=np.int64)
        pre = (dst_vals - shift[None, :]) % np.asarray(dst_dims, dtype=np.int64)
        gather[sidx, :] = pre @ radix
    out = np.take_along_axis(t2, gather[None, :, :], axis=2)
    out = out.reshape([t.shape[i] for i in rest_axes] + [t.shape[i] for i in axes])
    return np.transpose(out, np.argsort(rest_axes + axes)).reshape(-1)


def _pauli_twirl_reference(rho, segment):
    """The average of Z^z rho Z^z over all z, one Kronecker diagonal per z."""
    axes = rho.layout.axes(segment)
    acc = np.zeros_like(rho.matrix)
    for z in itertools.product((0, 1), repeat=len(axes)):
        diag = np.ones(1)
        for i, dim in enumerate(rho.layout.all_dims):
            flip = i in axes and z[axes.index(i)]
            diag = np.kron(diag, np.array([1.0, -1.0]) if flip else np.ones(dim))
        acc += diag[:, None] * rho.matrix * diag[None, :]
    return acc / 2 ** len(axes)


def _insert(layout, pos, segment):
    return RegisterLayout(layout.segments[:pos] + (segment,) + layout.segments[pos:])


@given(st.data(), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_segment_view_ops_match_their_transpose_forms(data, d, k, seed):
    rng = np.random.default_rng(seed)
    lay = _random_layout_around(data, d, k)
    assert lay.split("S") == (math.prod(lay.all_dims[:lay.axes("S")[0]]), d**k,
                              math.prod(lay.all_dims[lay.axes("S")[-1] + 1:]))
    state = rand_state(lay, rng)
    assert np.array_equal(marginal_probs(state, "S"), _marginal_probs_reference(state, "S"))
    idx = data.draw(st.integers(0, d**k - 1))
    assert np.array_equal(qsim._collapse(state, "S", idx, 0.5).post_state.amps,
                          _collapse_reference(state, "S", idx))
    value = tuple(data.draw(st.lists(st.integers(0, 3 * d), min_size=k, max_size=k)))
    assert np.array_equal(drop_segment(state, "S", value).amps,
                          _drop_segment_reference(state, "S", value))
    ph = np.exp(2j * np.pi * rng.random(d**k))
    assert np.array_equal(qsim.apply_phase_fn(state, "S", ph).amps,
                          _apply_phase_fn_reference(state, "S", ph))
    target = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    prob, post = project(state, "S", target)
    want_prob, want_amps = _project_reference(state, "S", target)
    assert prob == want_prob == project_prob(state, "S", target)
    assert np.array_equal(post.amps, want_amps)
    w = rng.random(d**k) * (rng.random(d**k) < 0.7)
    w[idx] = 1.0
    assert np.array_equal(prepare_weighted(lay, "S", w).amps,
                          _prepare_weighted_reference(lay, "S", w))


@given(st.data(), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_controlled_phase_fn_matches_its_slice_form(data, d, k, seed):
    lay = _random_layout_around(data, d, k)
    lay = _insert(lay, data.draw(st.integers(0, len(lay.segments))), ("C", (2,)))
    rng = np.random.default_rng(seed)
    state = rand_state(lay, rng)
    ph = np.exp(2j * np.pi * rng.random(d**k))
    assert np.array_equal(qsim.controlled_phase_fn(state, "C", "S", ph).amps,
                          _controlled_phase_fn_reference(state, "C", "S", ph))


@pytest.mark.parametrize("src_first", [True, False])
@given(data=st.data(), d=st.integers(2, 4), k=st.integers(1, 2), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_apply_classical_matches_its_transpose_form(src_first, data, d, k, seed):
    lay = _random_layout_around(data, d, k)
    s = lay.names().index("S")
    pos = data.draw(st.integers(0, s) if src_first else st.integers(s + 1, len(lay.segments)))
    lay = _insert(lay, pos, ("X", data.draw(_dims(hi=3))))
    table = {x: tuple(data.draw(st.integers(-9, 9)) for _ in range(k)) for x in lay.seg_values("X")}
    f = lambda x: table[x if isinstance(x, tuple) else (x,)]
    state = rand_state(lay, np.random.default_rng(seed))
    assert np.array_equal(apply_classical(state, f, "X", "S").amps,
                          _apply_classical_reference(state, f, "X", "S"))


@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pauli_twirl_mask_matches_the_sum_over_z(data, k, nmix, seed):
    """Keeping the entries whose two segment values agree is the average over
    all z, to 1e-15, with exact zeros off the block diagonal."""
    lay = _random_layout_around(data, 2, k, hi=2)
    rho = _random_mixed(lay, np.random.default_rng(seed), nmix)
    out = pauli_twirl_channel(rho, "S").matrix
    np.testing.assert_allclose(out, _pauli_twirl_reference(rho, "S"), rtol=0, atol=1e-15)
    digits = np.array(np.unravel_index(np.arange(lay.dim), lay.all_dims))[lay.axes("S")]
    same = np.all(digits[:, :, None] == digits[:, None, :], axis=0)
    assert np.all(out[~same] == 0) and np.array_equal(out[same], rho.matrix[same])
