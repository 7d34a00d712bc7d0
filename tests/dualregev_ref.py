"""The per-register and per-run Dual-Regev protocol: one key, one register,
one column or one SGC run at a time, as ``src/`` ran it before it played
them in batches. The batched code must give the same states, values and
transcripts, and leave every generator in the same state; the tests check
it against these references."""
import math

import numpy as np

from deletia import qsim
from deletia.dualregev import DRParams, plaintext_offset
from deletia.games import GameTranscript
from deletia.zqcore import (
    ZqMatrix,
    ZqVector,
    _check_box,
    check_bit,
    gadget_matrix,
    gaussian_box_weights,
    isis_verify,
    matmul_mod,
    zq_box,
    zq_image_codes,
)


def structured_ajtai_keygen(n, m, q, rng):
    abar = rng.integers(0, q, size=(n, m - 1))
    xbar = rng.integers(0, 2, size=m - 1)
    last = matmul_mod(abar, xbar, q)
    A = ZqMatrix(np.concatenate([abar, last[:, None]], axis=1), q)
    t = ZqVector(np.concatenate([(-xbar) % q, [1]]), q)
    return A, t


def image_masses(A: ZqMatrix, sigma: float) -> np.ndarray:
    n, q = A.rows, A.q
    codes = zq_box(q, n)
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    sq = gaussian_box_weights(q, 1, sigma) ** 2
    x = np.arange(q, dtype=np.int64)
    mass = np.zeros(q**n)
    mass[0] = 1.0
    for col in A.entries.T:
        source = ((codes[None, :, :] - x[:, None, None] * col) % q) @ radix
        mass = sq @ mass[source]
    return mass


def _draw_image(A: ZqMatrix, sigma: float, rng):
    mass = image_masses(A, sigma)
    code = qsim.draw_index(mass / mass.sum(), rng)
    y = ZqVector(np.asarray(np.unravel_index(code, (A.q,) * A.rows)), A.q)
    return code, float(mass[code]), y


def gen_gauss(A: ZqMatrix, sigma: float, rng):
    q, w = A.q, A.cols
    _check_box(q, w)
    code, mass, y = _draw_image(A, sigma, rng)
    members = np.flatnonzero(zq_image_codes(A.entries, q) == code)
    values = gaussian_box_weights(q, w, sigma)[members] / math.sqrt(mass)
    amps = np.zeros(q**w, dtype=np.complex128)
    amps[members] = values
    return qsim.QState(qsim.RegisterLayout([("X", (q,) * w)]), amps), y


def _dual_sum(A: ZqMatrix, y: ZqVector, g, table, scale=1.0):
    q, w = A.q, A.cols
    s = zq_box(q, A.rows)
    shift = (s @ A.entries - np.asarray(g, dtype=np.int64)) % q
    factors = table[(shift[:, :, None] + np.arange(q)) % q]
    phase = scale * np.exp(-2j * np.pi * ((s @ y.entries) % q) / q)
    half = w // 2
    first = _khatri_rao(phase[:, None], factors[:, :half])
    last = _khatri_rao(np.ones((len(s), 1)), factors[:, half:])
    return (first.T @ last).reshape(-1)


def _khatri_rao(start, factors):
    out = start
    for i in range(factors.shape[1]):
        out = (out[:, :, None] * factors[:, i, None, :]).reshape(len(out), -1)
    return out


def coset_encrypt(A: ZqMatrix, sigma: float, g, rng):
    q, n, w = A.q, A.rows, A.cols
    _check_box(q, w)
    _check_box(q, n)
    _, mass, y = _draw_image(A, sigma, rng)
    slot = (qsim._dft_matrix(q) @ gaussian_box_weights(q, 1, sigma)).real
    amps = _dual_sum(A, y, g, slot, scale=1 / (q**n * math.sqrt(mass)))
    return qsim.QState(qsim.RegisterLayout([("X", (q,) * w)]), amps), y


def _search(cdf, r):
    cdf /= cdf[..., -1:]
    return (cdf <= np.asarray(r)[..., None]).sum(axis=-1)


def _draw(weights, r):
    cdf = np.maximum(weights, 0.0).cumsum()
    k = int(_search(cdf, r))
    if k == len(cdf):
        k = int(cdf.searchsorted(1.0))
    low = cdf[k - 1] if k else 0.0
    return k, float((r - low) / (cdf[k] - low))


def _check_norm(total):
    if not abs(total - 1.0) <= qsim.NORM_TOL:
        raise ValueError(f"cannot measure a state of squared norm {total!r}")


def measure_register(state: qsim.QState, rng, u=None) -> tuple[int, ...]:
    dims = state.layout.all_dims
    rest, r, value = np.ascontiguousarray(state.amps), None, []
    for d in dims:
        t = rest.reshape(d, -1) if u is None else u @ rest.reshape(d, -1)
        v = t.view(np.float64)
        weights = np.einsum("ij,ij->i", v, v)
        if r is None:
            _check_norm(weights.sum())
            r = rng.random()
        k, r = _draw(weights, r)
        value.append(k)
        rest = t[k]
    return tuple(value)


def coset_delete(state: qsim.QState, q: int, rng) -> ZqVector:
    value = measure_register(state, rng, qsim._dft_matrix(q).conj().T)
    return ZqVector(np.asarray(value), q)


def dr_encrypt(A: ZqMatrix, params: DRParams, b: int, rng):
    """One PKE ciphertext: its state and its image."""
    return coset_encrypt(A, params.sigma, plaintext_offset(params, b), rng)


# --- the FHE, one gadget column at a time ------------------------------------

def fhe_encrypt_q(keys, x, rng):
    """(columns, Y) of one quantum FHE ciphertext."""
    params = keys.params
    offset = check_bit(x, "x") * gadget_matrix(params.q, params.width).entries
    At = keys.pk.transpose()
    cols, ys = [], []
    for j in range(params.ncols):
        state, yj = coset_encrypt(At, params.sigma, offset[:, j], rng)
        cols.append(state)
        ys.append(yj.entries)
    return cols, ZqMatrix(np.stack(ys, axis=1), params.q)


def fhe_measure_q(columns, q, rng) -> ZqMatrix:
    cols = [np.asarray(measure_register(st, rng), dtype=np.int64) for st in columns]
    return ZqMatrix(np.stack(cols, axis=1), q)


def fhe_delete(columns, q, rng) -> list[ZqVector]:
    return [coset_delete(st, q, rng) for st in columns]


def fhe_verify(vk, pis, params) -> bool:
    A, Y = vk
    if len(pis) != Y.cols:
        return False
    At = A.transpose()
    return all(isis_verify(At, Y.column(i), pis[i], norm_bound_sq=params.cert_bound_sq())
               for i in range(Y.cols))


# --- one run of the strong Gaussian-collapsing experiment ---------------------

def strong_gauss_collapse_exp(params: DRParams, adversary, b: int, rng, seed: int = 0
                              ) -> GameTranscript:
    b = check_bit(b)
    A, sk = structured_ajtai_keygen(params.n, params.width, params.q, rng)
    state, y = gen_gauss(A, params.sigma, rng)
    if b:
        state = qsim.measure(state, "X", rng).post_state

    if adversary.cert == "measure":
        w = ZqVector(np.asarray(qsim.measure(state, "X", rng).value), params.q)
    elif adversary.cert == "zero":
        w = ZqVector(np.zeros(params.width, dtype=np.int64), params.q)
    else:
        raise ValueError(f"adversary {adversary.name} not scripted for this game")

    valid = isis_verify(A, y, w, norm_bound_sq=params.cert_bound_sq())
    trapdoor = ZqVector(-sk.entries, params.q) if valid else None
    bprime = int(rng.integers(0, 2))
    return GameTranscript(
        experiment="sgc", seed=seed, b=b, adversary=adversary.name,
        outputs={
            "y": y.entries.tolist(), "w": w.entries.tolist(),
            "valid": valid,
            "trapdoor": trapdoor.entries.tolist() if trapdoor is not None else None,
            "b_prime": bprime,
        },
        verdict=bprime,
    )
