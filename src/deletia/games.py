"""Executable security experiments with pluggable scripted adversaries.

Every experiment runs in two modes. A sampled target-collapsing,
certified-everlasting, ladder or strong Gaussian-collapsing game takes a
batch of runs, each a challenge bit with its own generator: the runs that
share a key's table play each protocol step as one array step on their
images' fiber columns (the Gaussian-collapsing runs on their stacked keys
and coset rows), and each run draws in the protocol's order, so it gives
the bits it would give alone. Exact mode computes advantages by
enumerating challenger randomness and evolving branch states, feasible
because desk-scale registers are enumerable. Adversaries are channels
described by a certificate behavior and a guess behavior, not arbitrary
programs; "computationally unbounded" here means brute force over the
enumerable domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import qsim
from .dualregev import DRParams, dr_keygen, gen_gauss
from .hashfam import DomainTable, HashFamily
from .zqcore import (
    check_bit,
    gaussian_box_weights,
    is_short,
    isis_verify,
    structured_ajtai_keygen,
    zq_box,
    zq_image_codes,
)


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Adversary:
    """Scripted adversary: how it produces a deletion certificate and how
    the (possibly unbounded) second stage guesses the challenger's bit.

    cert modes: "measure" (honest deletion), "lexfirst" (classical brute
    force for the first preimage, state untouched), "uniform-domain"
    (uniform guess over the whole domain, state untouched), "garbage"
    (a deliberate non-preimage), "zero" (the all-zero string).
    guess modes: "random", "project0" (project the residual onto the
    positive fiber superposition and answer 0 on success).
    """

    name: str
    cert: str = "measure"
    guess: str = "random"


HONEST_DELETER = Adversary("honest-deleter", "measure", "random")
RANDOM_GUESSER = Adversary("random-guesser", "lexfirst", "random")
BRUTE_FORCE_INVERTER = Adversary("brute-force-inverter", "uniform-domain", "random")
OVERLAP_PROJECTOR = Adversary("overlap-projector", "lexfirst", "project0")
GARBAGE_CERTIFIER = Adversary("garbage-certifier", "garbage", "random")
NOOP_CERTIFIER = Adversary("noop", "zero", "random")

ADVERSARIES = {a.name: a for a in [
    HONEST_DELETER, RANDOM_GUESSER, BRUTE_FORCE_INVERTER, OVERLAP_PROJECTOR,
    GARBAGE_CERTIFIER, NOOP_CERTIFIER,
]}


@dataclass
class GameTranscript:
    experiment: str
    seed: int
    b: int
    adversary: str
    outputs: dict
    verdict: object


# ---------------------------------------------------------------------------
# Shared by the sampled and the exact games
# ---------------------------------------------------------------------------

def _keys_for_exact(family: HashFamily) -> list:
    if family.keys is None:
        raise ValueError(
            f"family {family.name} has no enumerable key space; exact mode "
            "needs family.keys()")
    return family.keys()


def _guess_p1(adv: Adversary, target: np.ndarray, xvec, dot=np.matmul):
    """Exact Pr[b'=1] for the unbounded second stage on pure residuals
    (the rows of ``xvec``); ``target`` is the fiber superposition psi_y and
    ``dot`` takes their overlaps."""
    if adv.guess == "random":
        return 0.5
    if adv.guess == "project0":
        return 1.0 - np.abs(dot(xvec, target)) ** 2
    raise ValueError(f"unknown guess mode {adv.guess}")


def _fold(totals: np.ndarray, terms: list) -> np.ndarray:
    """Each totals[i] plus every entry of terms[i], strictly left to right in
    C order, as a scalar loop adds them: one cumsum along the rows of a
    stack per distinct term size, whose first column is the totals. A term
    is an array, or a pair (table, index) that stands for table[index] and
    is gathered into the stack."""
    terms = [t if isinstance(t, tuple) else (t[None], np.zeros(1, dtype=np.int64))
             for t in terms]
    sizes = [len(index) * table[0].size for table, index in terms]
    out = np.empty(len(terms))
    for n in set(sizes):
        at = [i for i, size in enumerate(sizes) if size == n]
        stack = np.empty((len(at), 1 + n))
        stack[:, 0] = totals[at]
        for row, i in zip(stack, at):
            table, index = terms[i]
            np.take(table.reshape(len(table), -1), index, axis=0, mode="clip",
                    out=row[1:].reshape(len(index), -1))
        out[at] = np.cumsum(stack, axis=1, out=stack)[:, -1]
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner products over the last (fiber column) axis, kept as size 1."""
    return np.einsum("...f,...f->...", a, b)[..., None]


def _ladder_branches(adv: Adversary, dom: DomainTable, rows: np.ndarray, mass: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first stage's certificate branches on states whose X marginal on
    the fiber columns is ``mass`` (Y, V, F), for the image rows ``rows``:
    (pc, pi, fpos, valid), pc (Y, V, K) and the others three-axis arrays
    that broadcast to it, with pi's value (-1 for none) and its position in
    the fiber where it is valid. A measured certificate has one branch per
    fiber column, pc = 0.0 where the column's mass is at most 1e-15; the
    other modes leave the state untouched."""
    row = dom.image_ids
    pos, fib = dom.fibers
    shape = mass.shape[:2] + (1,)
    if adv.cert == "measure":
        valid = mass > 1e-15
        return np.where(valid, mass, 0.0), fib[rows][:, None, :], \
            np.arange(mass.shape[2]).reshape(1, 1, -1), valid
    if adv.cert == "uniform-domain":
        n = len(row)
        return np.full(shape[:2] + (n,), 1.0 / n), np.arange(n).reshape(1, 1, -1), \
            pos.reshape(1, 1, -1), row == rows[:, None, None]
    if adv.cert == "lexfirst":  # a fiber's least value is its first
        pi, fpos, valid = fib[rows, 0], 0, True
    elif adv.cert == "garbage":
        # the first value outside the fiber: 0, or in value 0's own fiber the
        # first value of another one
        pi = np.where(rows == row[0], dom.first_outside, 0)
        fpos, valid = 0, False
    elif adv.cert == "zero":
        pi, fpos, valid = 0, pos[0], row[0] == rows
    else:
        raise ValueError(f"unknown cert mode {adv.cert}")
    return np.ones(shape), *(np.reshape(a, (-1, 1, 1)) for a in (pi, fpos, valid))


# ---------------------------------------------------------------------------
# Sampled runs, in batches: the runs on one domain table take each protocol
# step together, each drawing from its own generator in the protocol's order;
# a run that ends early draws nothing more
# ---------------------------------------------------------------------------

def _groups(family: HashFamily, dist: Callable | None, bs: Sequence[int],
            rngs: Sequence[np.random.Generator]):
    """Check every run's bit, then sample the runs' keys in turn and yield
    each stretch of consecutive runs whose keys give the same table: (table,
    the runs' positions in the batch, their bits, their generators). A
    family keeps only its last table, so runs share a table object only
    within such a stretch, and a table is dropped once its runs are played."""
    bs = np.array([check_bit(b) for b in bs], dtype=np.int64)
    dom, at = None, []
    for i, rng in enumerate(rngs):
        table = family.table(family.sample(rng)[0], dist)
        if table is not dom and at:
            yield dom, np.array(at), bs[at], [rngs[j] for j in at]
            at = []
        dom = table
        at.append(i)
    if at:
        yield dom, np.array(at), bs[at], [rngs[j] for j in at]


def _sample_challenge(dom: DomainTable, b: np.ndarray, rngs: list
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Draw each run's image row, and for odd b measure M: (rows, X states
    (runs, F) on the rows' fiber columns)."""
    py, psi = dom.fiber_states
    r = qsim.draw_rows(np.broadcast_to(py, (len(rngs), len(py))), rngs)
    x = psi[r]
    odd = np.flatnonzero(b)
    if odd.size:
        post, pv, _ = dom.m_groups
        x[odd] = post[r[odd], qsim.draw_weights(pv[r[odd]], [rngs[i] for i in odd])]
    return r, x


def _sample_certificate(adv: Adversary, dom: DomainTable, r: np.ndarray, mass: np.ndarray,
                        rngs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first stage on states of the image rows r whose X marginals on
    the fiber columns are ``mass`` (runs, F): per run pi's value (-1 for
    none), the measured fiber position (for a measured certificate; the
    other modes leave the state untouched) and whether pi is valid."""
    pc, pi, fpos, valid = (a.reshape(len(r), -1) for a in np.broadcast_arrays(
        *_ladder_branches(adv, dom, r, mass[:, None])))
    at = np.arange(len(r)), qsim.draw_weights(pc, rngs)
    return pi[at], fpos[at], valid[at]


def _output_bits(rngs: list, p1, ok) -> list[int]:
    """Each run's output bit: [random() < p1] where ``ok``, else the
    uniform fallback bit; p1 and ok broadcast to the runs."""
    p1, ok = np.broadcast_to(p1, len(rngs)), np.broadcast_to(ok, len(rngs))
    return [int(rng.random() < p) if o else int(rng.integers(0, 2))
            for rng, p, o in zip(rngs, p1.tolist(), ok.tolist())]


# ---------------------------------------------------------------------------
# Target-collapsing experiment (Monte Carlo and exact advantage)
# ---------------------------------------------------------------------------

def target_collapse_exp(family: HashFamily, dist: Callable | None,
                        adversary: Adversary, bs: Sequence[int],
                        rngs: Sequence[np.random.Generator]) -> list[int]:
    """Sampled runs, one per (b, generator); returns each run's guess bit."""
    out = np.zeros(len(rngs), dtype=np.int64)
    for dom, at, b, g in _groups(family, dist, bs, rngs):
        r, x = _sample_challenge(dom, b, g)
        out[at] = _output_bits(g, _guess_p1(adversary, dom.fiber_states[1][r], x, np.vecdot), True)
    return out.tolist()


def target_collapse_advantage_exact(family: HashFamily, dist: Callable | None,
                                    adversary: Adversary) -> float:
    """|Pr[out=1 | b=0] - Pr[out=1 | b=1]| over enumerable keys, with every
    image y of a key at once on its fiber columns; the terms are added in
    the (key, y, M outcome) order of the scalar enumeration."""
    totals = np.zeros(2)
    keys = _keys_for_exact(family)
    for key, _ in keys:
        dom = family.table(key, dist)
        py, psi = dom.fiber_states
        post, pv, _ = dom.m_groups
        totals = _fold(totals, [py[:, None] * _guess_p1(adversary, psi, psi, _dot),
                                (py[:, None] * pv)[..., None]
                                * _guess_p1(adversary, psi[:, None], post, _dot)])
    return abs(float(totals[0]) - float(totals[1])) / len(keys)


# ---------------------------------------------------------------------------
# Certified-everlasting target-collapsing experiment
# ---------------------------------------------------------------------------

def ev_target_collapse_exp(family: HashFamily, dist: Callable | None,
                           adv_pair: Adversary, bs: Sequence[int],
                           rngs: Sequence[np.random.Generator],
                           seeds: Sequence[int] | None = None) -> list[GameTranscript]:
    """Sampled runs of the certified-everlasting experiment, one per (b,
    generator), with each transcript's seed from ``seeds`` (0 without);
    each verdict records the fallback: an invalid certificate draws b'
    uniformly."""
    seeds = [0] * len(rngs) if seeds is None else seeds
    out: list = [None] * len(rngs)
    for dom, at, b, g in _groups(family, dist, bs, rngs):
        r, x = _sample_challenge(dom, b, g)
        pi, col, valid = _sample_certificate(adv_pair, dom, r, x ** 2, g)
        psi = dom.fiber_states[1][r]
        if adv_pair.cert == "measure":  # measuring X leaves the basis state of the column
            p1 = _guess_p1(adv_pair, psi[np.arange(len(r)), col], 1.0, np.multiply)
        else:
            p1 = _guess_p1(adv_pair, psi, x, np.vecdot)
        for j, (i, bprime) in enumerate(zip(at, _output_bits(g, p1, valid))):
            out[i] = GameTranscript(
                experiment="evtc", seed=seeds[i], b=int(b[j]), adversary=adv_pair.name,
                outputs={"y": repr(dom.ys[r[j]]), "pi": repr(None if pi[j] < 0 else int(pi[j])),
                         "valid": bool(valid[j]), "b_prime": bprime},
                verdict=bprime)
    return out


def ev_target_collapse_ensembles(family: HashFamily, dist: Callable | None,
                                 adv: Adversary
                                 ) -> tuple[qsim.Ensemble, qsim.Ensemble]:
    """Exact challenger-side output ensembles of the experiment for b=0 and
    b=1: classical labels (key, y, pi, valid) with the residual state the
    second stage would receive. Their trace distance bounds any unbounded
    second stage's advantage.

    A label fixes y, so each residual is given on its fiber's columns, in
    ascending order of value, padded to the widest fiber: an isometric image
    of the state on the whole X register, with the same trace distance. The
    shared table holds the identity (a measured certificate leaves its
    column's basis state) or every key's psi_y and M post states (the start
    states an unmeasured certificate leaves). Branches come in (key, y, M
    outcome, certificate) order, every y of a key at once. On D domain
    values the label code is (key index * D + y's row) * (D + 1) + pi + 1,
    with pi = -1 for none; validity follows from it."""
    keys = _keys_for_exact(family)
    wk = 1.0 / len(keys)
    measured = adv.cert == "measure"
    cols: tuple[list, list] = ([], [])  # per side, (p, label, state) per key
    blocks, base, width = [], 0, 0
    for ki, (key, _) in enumerate(keys):
        dom = family.table(key, dist)
        n = len(dom.images)
        py, psi = dom.fiber_states
        post, pv, _ = dom.m_groups
        ny, width = len(psi), max(width, psi.shape[1])
        for side, x, px in ((0, psi[:, None], np.ones((ny, 1))), (1, post, pv)):
            pc, pi, fpos, valid = _ladder_branches(adv, dom, np.arange(ny), np.abs(x) ** 2)
            w = ((wk * py)[:, None] * px)[..., None] * pc
            # absent M outcomes and measured columns without mass are no branch
            keep = np.broadcast_to((px > 0)[..., None] & (valid | (not measured)), w.shape)
            r, v, _ = np.nonzero(keep)
            pi, fpos, valid = (np.broadcast_to(a, w.shape)[keep] for a in (pi, fpos, valid))
            if measured:
                at = fpos
            else:
                at = base + r * x.shape[1] + v
                blocks.append(x.reshape(-1, x.shape[2]))
                base += len(blocks[-1])
            cols[side].append((w[keep], (ki * n + r) * (n + 1) + pi + 1,
                               np.where(valid, at, -1)))
    states = np.eye(width, dtype=np.complex128) if measured else np.concatenate(
        [np.pad(x, ((0, 0), (0, width - x.shape[1]))) for x in blocks], dtype=np.complex128)
    return tuple(qsim.Ensemble.from_columns(*map(np.concatenate, zip(*c)), states)
                 for c in cols)


# ---------------------------------------------------------------------------
# The hybrid ladder Exp0..Exp3, exact mode
# ---------------------------------------------------------------------------

@dataclass
class LadderResult:
    adv: tuple[float, float, float, float]
    prob1: dict = field(default_factory=dict)  # (exp, b) -> Pr[out=1]
    proj_success: dict = field(default_factory=dict)  # exp -> P(projection ok | valid)


# A chunk of y rows spans about this many (y, z, v, branch, fiber column)
# cells, or one row where a row has more: it bounds the exact ladder's
# working set.
_LADDER_CELLS = 1 << 17


def _safe_sqrt(p: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return np.sqrt(np.where(ok, p, 1.0))


def _exp0_terms(adv: Adversary, dom: DomainTable, rows: np.ndarray, py: np.ndarray,
                x: np.ndarray, pv: np.ndarray, psi: np.ndarray, wk: float) -> np.ndarray:
    """(Y, V, K) Pr[out=1] terms of Exp0 from the X states ``x`` (Y, V, F)
    reached with probabilities ``pv`` (Y, V)."""
    pc, _, _, valid = _ladder_branches(adv, dom, rows, np.abs(x) ** 2)
    if adv.cert == "measure":  # the residual is the basis state of the column
        guess = _guess_p1(adv, psi[:, None, :], 1.0, np.multiply)
    else:
        guess = _guess_p1(adv, psi[:, None, :], x, _dot)
    return (wk * ((py[:, None] * pv)[..., None] * pc)) * np.where(valid, guess, 0.5)


def _c_register_terms(adv: Adversary, dom: DomainTable, rows: np.ndarray, x: np.ndarray,
                      s1: np.ndarray, z: np.ndarray, psi: np.ndarray,
                      w0: np.ndarray, wk: float) -> dict[str, np.ndarray]:
    """(Y, Z, V, K) Pr[out=1] terms after the first stage acts on the C-by-X
    states (|0> x + |1> s1 x)/sqrt2, x (Y, V, F) and s1 broadcasting to
    (Y, Z, V, F), each weighted w0 (Y, V): the projected experiment (Exp2
    or Exp3: project C onto phi_pi^z, then measure it) with its success and
    valid masses, and Exp1 (measure C, require c' = b) for b = 0 and 1 on
    the first state along v only, as (Y, Z, 1, K). A certificate pi enters
    the projection only through the sign that z (broadcasting to (Y, Z, 1,
    1)) puts on it. Axes of length 1 are left to broadcast: the valid mass
    and, for an unmeasured certificate, Exp1 do not depend on z."""
    s2 = math.sqrt(2)
    r0 = (x / s2)[:, None]
    r1 = (s1 * x[:, None]) / s2
    pc, pi, _, valid = _ladder_branches(adv, dom, rows, np.abs(r0[:, 0]) ** 2
                                        + np.abs(r1[:, 0]) ** 2)
    w = ((w0[..., None] * pc) * wk)[:, None]
    t = psi[:, None, None, :]
    spi = dom.sign(z, pi[:, None])
    if adv.cert == "measure":
        # a measured certificate leaves only its column, renormalised: every
        # sum and overlap over X is that one entry, and K runs over columns
        sp = _safe_sqrt(pc, valid)[:, None]
        res, dot = (r0 / sp, r1 / sp), np.multiply
        merged, tm = (res[0] + spi * res[1]) / s2, t
    else:
        # the state is untouched: project for each branch's pi along a new
        # axis before F
        res, dot = (r0, r1), _dot
        merged, tm = (r0[..., None, :] + spi[..., None] * r1[..., None, :]) / s2, t[..., None, :]
    valid = valid[:, None]
    terms = {}
    for b in (0, 1):
        rb, vb, wb = res[b][:, :, :1], valid[:, :, :1], w[:, :, :1]
        pb = dot(rb, rb)
        ok = pb > 1e-15
        guess = np.where(ok, _guess_p1(adv, t, rb / _safe_sqrt(pb, ok), dot), 0.5)
        terms[f"exp1b{b}"] = np.where(vb, wb * (pb * guess + (1 - pb) * 0.5), wb * 0.5)
    ps = dot(merged, merged)
    ok = ps > 1e-15
    guess = _guess_p1(adv, tm, merged / _safe_sqrt(ps, ok), dot)
    # measuring C on phi gives a uniform bit
    succ = np.where(ok, ps * (0.5 * guess + 0.25), 0.0)
    proj = succ + (1 - ps) * 0.5
    if adv.cert != "measure":
        proj, ps = proj[..., 0], ps[..., 0]
    terms["proj"] = np.where(valid, w * proj, w * 0.5)
    terms["succ"] = np.where(valid, w * ps, 0.0)
    terms["valid"] = np.where(valid, w, 0.0)
    return terms


def _z_classes(spi: np.ndarray, real: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the (y, z) cells of the signs ``spi`` (Y, Z, F) by y and by the
    signs on y's fiber positions (``real`` (Y, F) marks those that are not
    padding): (cls, rep), each cell's class in C order of the cells, and one
    cell of each class (any will do: they share y and its signs). One
    ``np.unique`` pass per 8 fiber positions."""
    ny, nz, _ = spi.shape
    cls = np.repeat(np.arange(ny), nz)
    for byte in np.packbits((spi < 0) & real[:, None, :], axis=-1).reshape(ny * nz, -1).T:
        _, cls = np.unique(cls * 256 + byte, return_inverse=True)
    rep = np.empty(cls.max() + 1, dtype=np.int64)
    rep[cls] = np.arange(cls.size)
    return cls, rep


def hybrid_ladder_exact(family: HashFamily, adversary: Adversary,
                        dist: Callable | None = None) -> LadderResult:
    """Exact advantages of the four hybrid experiments under the scripted
    adversary, by full enumeration of (key, y, z, v) and branch evolution.

    Every experiment is evaluated for a chunk of images y at once, on the
    fiber columns only. A term depends on z only through the signs z puts
    on y's fiber positions, so Exp1-Exp3 are evaluated once per class of z
    with equal signs (at most 2^F of them, however many values z takes) and
    gathered back to every z. All terms are added in the (key, y, z, v,
    branch) order of the scalar enumeration; absent branches and padding
    add exactly 0.0.
    """
    keys = _keys_for_exact(family)
    wk = 1.0 / len(keys)
    acc = np.zeros(10)  # exp0b0, exp0b1, exp1b0, exp1b1, then proj, succ, valid of Exp2 and Exp3

    for key, _ in keys:
        dom = family.table(key, dist)
        _, fib = dom.fibers
        py_all, psi_all = dom.fiber_states
        post_all, pv_all, i0_all = dom.m_groups
        nz = 1 << dom.mbits
        wz = 1.0 / nz
        ny, nf = fib.shape
        nv = pv_all.shape[1]
        nk = len(dom.images) if adversary.cert == "uniform-domain" else 1
        step = max(1, _LADDER_CELLS // (nz * (1 + nv) * nk * nf))
        for lo in range(0, ny, step):
            rows = np.arange(lo, min(lo + step, ny))
            py, psi, fr = py_all[rows], psi_all[rows], fib[rows]
            # along v: psi, then each M outcome's post state, reached with pv
            x = np.concatenate([psi[:, None], post_all[rows]], axis=1)  # (Y, 1 + V, F)
            pv = np.concatenate([np.ones((len(rows), 1)), pv_all[rows]], axis=1)
            e0 = _exp0_terms(adversary, dom, rows, py, x, pv, psi, wk)
            # One (y, z) cell per class, as a row u of its own. The phase Z_z
            # puts the signs of the fiber positions on psi (Exp1 and Exp2) and
            # the sign of its outcome on each post state (Exp3).
            cls, rep = _z_classes(dom.sign(np.arange(nz)[None, :, None], fr[:, None, :]),
                                  fr >= 0)
            u, z = rep // nz, (rep % nz)[:, None, None, None]
            at = np.concatenate([fr[:, None], np.repeat(i0_all[rows][..., None], nf, axis=2)],
                                axis=1)
            t = _c_register_terms(adversary, dom, rows[u], x[u], dom.sign(z, at[u][:, None]), z,
                                  psi[u], (py[u] * wz)[:, None] * pv[u], wk)
            names = ("exp1b0", "exp1b1", "proj", "succ", "valid")
            acc = _fold(acc, [e0[:, :1], e0[:, 1:], *((t[n][:, :, 0], cls) for n in names),
                              *((t[n][:, :, 1:], cls) for n in names[2:])])

    exp0b0, exp0b1, exp1b0, exp1b1, proj2, succ2, valid2, proj3, succ3, valid3 = acc.tolist()
    prob1 = {"exp0b0": exp0b0, "exp0b1": exp0b1, "exp1b0": exp1b0, "exp1b1": exp1b1,
             "exp2b0": proj2, "exp2b1": proj2, "exp3b0": proj3, "exp3b1": proj3}
    advs = tuple(abs(prob1[f"exp{e}b0"] - prob1[f"exp{e}b1"]) for e in range(4))
    proj = {e: (succ / valid if valid else 1.0)
            for e, succ, valid in ((2, succ2, valid2), (3, succ3, valid3))}
    return LadderResult(adv=advs, prob1=prob1, proj_success=proj)


# ---------------------------------------------------------------------------
# The hybrid ladder, Monte Carlo mode (on the runs' fiber columns)
# ---------------------------------------------------------------------------

def hybrid_ladder_mc(family: HashFamily, adversary: Adversary, exp: int,
                     bs: Sequence[int], rngs: Sequence[np.random.Generator]) -> list[int]:
    """Sampled runs of Exp_exp(b), one per (b, generator); returns each
    run's output bit. Exp0 is the certified-everlasting experiment."""
    if exp == 0:
        return [t.verdict for t in ev_target_collapse_exp(family, None, adversary, bs, rngs)]
    out = np.zeros(len(rngs), dtype=np.int64)
    for dom, at, b, g in _groups(family, None, bs, rngs):
        out[at] = _ladder_runs(adversary, exp, dom, b, g)
    return out.tolist()


def _ladder_runs(adv: Adversary, exp: int, dom: DomainTable, b: np.ndarray, rngs: list
                 ) -> list[int]:
    """Exp1-Exp3 for runs on one table, on C-by-X rows (runs, 2, F) over
    each run's fiber columns: C in |+>, z's controlled phase on the C = 1
    row, the certificate (a measured one keeps its column, renormalised),
    for Exp2 and Exp3 the projection of C onto phi_pi^z, the measurement of
    C, which must give b, and the guess. The runs that leave ``live`` end
    with the uniform fallback bit."""
    n, s2 = len(rngs), math.sqrt(2)
    r, psi = _sample_challenge(dom, np.zeros(n, dtype=np.int64), rngs)
    z = np.array([rng.integers(0, 1 << dom.mbits) for rng in rngs], dtype=np.int64)
    x = psi
    if exp == 3:
        post, pv, _ = dom.m_groups
        x = post[r, qsim.draw_weights(pv[r], rngs)]
    c = np.stack([x, dom.sign(z[:, None], dom.fibers[1][r]) * x], axis=1) / s2
    mass = np.einsum("ncf,ncf->nf", c, c)
    pi, col, ok = _sample_certificate(adv, dom, r, mass, rngs)
    live = np.flatnonzero(ok)
    c = c[live]
    if adv.cert == "measure":  # only the measured column is left, renormalised
        at = np.arange(len(live)), col[live]
        column = np.zeros_like(c)
        column[at[0], :, at[1]] = c[at[0], :, at[1]] / np.sqrt(mass[live][at])[:, None]
        c = column
    if exp >= 2:
        phi = np.stack([np.ones(len(live)), dom.sign(z[live], pi[live])], axis=1) / s2
        phi /= np.sqrt(np.einsum("nc,nc->n", phi, phi))[:, None]  # a projection's target
        ov = np.einsum("ncf,nc->nf", c, phi)
        p = np.einsum("nf,nf->n", ov, ov)
        kept = np.array([rngs[i].random() for i in live]) < p
        live, ov, phi, p = live[kept], ov[kept], phi[kept], p[kept]
        c = ov[:, None, :] * phi[..., None] / np.sqrt(p)[:, None, None]
    pc = np.einsum("ncf,ncf->nc", c, c)
    total = pc.sum(axis=1)
    qsim._check_norm(total)
    k = qsim.draw_rows(pc / total[:, None], [rngs[i] for i in live])
    kept = k == b[live]
    live, at = live[kept], (np.flatnonzero(kept), k[kept])
    xvec = c[at] / np.sqrt(pc[at])[:, None]
    p1 = np.full(n, 0.5)
    p1[live] = _guess_p1(adv, psi[live], xvec, np.vecdot)
    return _output_bits(rngs, p1, np.isin(np.arange(n), live))


# ---------------------------------------------------------------------------
# Strong Gaussian-collapsing experiment
# ---------------------------------------------------------------------------

def strong_gauss_collapse_exp(params: DRParams, adversary: Adversary, bs: Sequence[int],
                              rngs: Sequence[np.random.Generator],
                              seeds: Sequence[int] | None = None) -> list[GameTranscript]:
    """Sampled runs of the strong Gaussian-collapsing experiment on the
    Dual-Regev scheme's own coset, one per (b, generator), with each
    transcript's seed from ``seeds`` (0 without).

    Each run's challenger draws a key as dr_keygen does and a coset with
    gen_gauss, measures it in the computational basis when b = 1, takes the
    witness w from the adversary, checks it as dr_verify does, and releases
    the trapdoor -sk = (xbar, -1) only on a valid witness; an invalid
    witness ends the game with a uniformly random output bit. The runs play
    each step as one array step over their stacked keys and coset rows,
    and each run draws from its own generator in that order (a measurement
    by qsim.measure's rule: the probabilities over their sum, drawn by
    draw_rows), so it gives the transcript it would give alone. The bits
    and the adversary are checked before any run draws.
    """
    b = np.array([check_bit(x) for x in bs], dtype=np.int64)
    if adversary.cert not in ("measure", "zero"):
        raise ValueError(f"adversary {adversary.name} not scripted for this game")
    if not len(rngs):
        return []
    seeds = [0] * len(rngs) if seeds is None else seeds
    q, w = params.q, params.width
    A, sk = structured_ajtai_keygen(params.n, w, q, rngs)
    states, y = gen_gauss(A, q, params.sigma, rngs)
    p = np.square(np.abs(np.stack([s.amps for s in states])))
    total = p.sum(axis=1)
    qsim._check_norm(total)
    p /= total[:, None]
    ones = np.flatnonzero(b)  # measured: only the drawn basis state is left
    k = qsim.draw_rows(p[ones], [rngs[i] for i in ones])
    p[ones] = 0.0
    p[ones, k] = 1.0
    if adversary.cert == "measure":
        wit = np.stack(np.unravel_index(qsim.draw_rows(p, rngs), (q,) * w), axis=1)
    else:
        wit = np.zeros((len(rngs), w), dtype=np.int64)
    valid = isis_verify(A, y, wit, q=q, norm_bound_sq=params.cert_bound_sq())
    out = []
    for i, rng in enumerate(rngs):
        bprime = int(rng.integers(0, 2))  # the honest deleter guesses blindly
        out.append(GameTranscript(
            experiment="sgc", seed=seeds[i], b=int(b[i]), adversary=adversary.name,
            outputs={"y": y[i].tolist(), "w": wit[i].tolist(), "valid": bool(valid[i]),
                     "trapdoor": ((-sk[i]) % q).tolist() if valid[i] else None,
                     "b_prime": bprime},
            verdict=bprime))
    return out


def sgc_honest_ensembles(params: DRParams, rng: np.random.Generator
                         ) -> tuple[qsim.Ensemble, qsim.Ensemble]:
    """Exact adversary-view ensembles (y, w, trapdoor released) of the
    honest computational-basis deleter for b = 0 versus b = 1, at one
    dr_keygen key. The views are classical after deletion. The label of the
    box value w at index i (zq_box order) is (image code of y * q^width + i)
    * 2 + [w is short, i.e. a valid witness]."""
    q, w = params.q, params.width
    A = dr_keygen(params, rng).pk
    rho2 = gaussian_box_weights(q, w, params.sigma) ** 2
    valid = is_short(zq_box(q, w), q, params.cert_bound_sq())
    label = (zq_image_codes(A.entries, q) * len(valid) + np.arange(len(valid))) * 2 + valid
    states = np.zeros((0, 0), dtype=np.complex128)
    e0 = qsim.Ensemble.from_columns(rho2 / rho2.sum(), label, -1, states)
    # measuring first (b=1) and then deleting produces the same joint law
    return e0, qsim.Ensemble(e0.branches.copy(), states)


# ---------------------------------------------------------------------------
# Projector inequality checker
# ---------------------------------------------------------------------------

FACT35_SLACK = 1e-9  # float room the inequality may miss by and still hold


@dataclass
class Fact35Result:
    lhs: float
    rhs: float
    holds: bool


def fact35_check(D: np.ndarray, Pis: list[np.ndarray], psi: np.ndarray) -> Fact35Result:
    """Check sum_i ||(sum_{j!=i} Pi_j) D Pi_i psi||^2 >=
    (1/N) (||D psi||^2 - sum_i ||D Pi_i psi||^2)^2 for pairwise orthogonal
    projectors and psi in the image of their sum."""
    N = len(Pis)
    for i in range(N):
        for j in range(i + 1, N):
            if np.linalg.norm(Pis[i] @ Pis[j], 2) > 1e-10:
                raise ValueError(f"projectors {i},{j} are not orthogonal")
    total = sum(Pis)
    if np.linalg.norm(total @ psi - psi) > 1e-9:
        raise ValueError("psi is not in the image of the projector sum")
    lhs = 0.0
    inner = float(np.linalg.norm(D @ psi) ** 2)
    for i in range(N):
        rest = total - Pis[i]
        lhs += float(np.linalg.norm(rest @ (D @ (Pis[i] @ psi))) ** 2)
        inner -= float(np.linalg.norm(D @ (Pis[i] @ psi)) ** 2)
    rhs = inner**2 / N
    return Fact35Result(lhs=lhs, rhs=rhs, holds=lhs >= rhs - FACT35_SLACK)


def random_fact35_instance(rng: np.random.Generator, dim: int, nproj: int
                           ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Random (D, {Pi_i}, psi): orthogonal projectors from a random unitary
    frame, a random-rank projector D, and psi inside the projector span."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(a)
    cols = list(range(dim))
    cuts = sorted(rng.choice(np.arange(1, dim), size=nproj - 1, replace=False))
    groups = np.split(np.array(cols), cuts)
    Pis = []
    for g in groups[:nproj]:
        v = u[:, g]
        Pis.append(v @ v.conj().T)
    rank = int(rng.integers(1, dim))
    a2 = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    w, _ = np.linalg.qr(a2)
    D = w @ w.conj().T
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = sum(Pis) @ psi
    return D, Pis, psi / np.linalg.norm(psi)
