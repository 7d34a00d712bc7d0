"""Executable security experiments with pluggable scripted adversaries.

Every experiment runs in two modes: Monte Carlo (one sampled transcript per
call, driven by the state-vector core) and exact (advantages computed by
enumerating challenger randomness and evolving branch states, feasible
because desk-scale registers are enumerable). Adversaries are channels
described by a certificate behavior and a guess behavior, not arbitrary
programs; "computationally unbounded" here means brute force over the
enumerable domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import qsim
from .dualregev import gen_gauss
from .hashfam import HashFamily
from .zqcore import (
    ZqVector,
    centered_array,
    gaussian_box_weights,
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
    kind: str
    cert: str = "measure"
    guess: str = "random"


HONEST_DELETER = Adversary("honest-deleter", "scripted-honest", "measure", "random")
RANDOM_GUESSER = Adversary("random-guesser", "scripted-honest", "lexfirst", "random")
BRUTE_FORCE_INVERTER = Adversary(
    "brute-force-inverter", "brute-force", "uniform-domain", "random")
OVERLAP_PROJECTOR = Adversary(
    "overlap-projector", "brute-force", "lexfirst", "project0")
GARBAGE_CERTIFIER = Adversary(
    "garbage-certifier", "scripted-cheating", "garbage", "random")
NOOP_CERTIFIER = Adversary("noop", "scripted-cheating", "zero", "random")

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

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "b": self.b,
            "adversary": self.adversary,
            "outputs": self.outputs,
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# Per-key domain tables, shared by the sampled and the exact games
# ---------------------------------------------------------------------------

class _Dom:
    """One key's domain table with D-weights. Images are addressed by their
    row, in repr order of y (the rows of ``fibers``), certificates pi by
    their index into ``values``."""

    def __init__(self, family: HashFamily, key, dist: Callable | None):
        self.family = family
        self.dist = dist
        self.table = family.table(key)
        self.values = self.table.values
        d = np.ones(len(self.values)) if dist is None else np.array([dist(x) for x in self.values])
        self.weights = d / d.sum()
        if family.measure is None:
            self.mbits = getattr(family.domain, "bits", None)
            if self.mbits is None:
                raise ValueError("identity-M exact mode needs a bit domain")
        else:
            self.mbits = 1

    def sign(self, z, idx=slice(None)) -> np.ndarray:
        """(-1)^{<M(x), z>} for z packed as an int, at the value indices idx."""
        return 1.0 - 2.0 * (np.bitwise_count(z & self.table.mvals[idx]) & 1)

    @functools.cached_property
    def ys(self) -> list:
        """The images in row order."""
        return [self.table.ys[j] for j in self.table.repr_order()]

    @functools.cached_property
    def fibers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, pos, fib): each value's image row (rows in repr order of y)
        and position in its fiber, and the (ny, F) matrix of every fiber's
        value indices, ascending, padded with -1."""
        ny = len(self.table.ys)
        row = np.argsort(self.table.repr_order())[self.table.image_ids]
        counts = np.bincount(row, minlength=ny)
        by_row = np.argsort(row, kind="stable")
        pos = np.empty_like(row)
        pos[by_row] = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        fib = np.full((ny, counts.max()), -1)
        fib[row, pos] = np.arange(len(row))
        return row, pos, fib

    @functools.cached_property
    def fiber_states(self) -> tuple[np.ndarray, np.ndarray]:
        """(py, psi): Pr[y] and psi_y on the fiber columns, one row per y."""
        row, _, fib = self.fibers
        py = np.bincount(row, weights=self.weights, minlength=len(fib))
        amps = np.where(fib >= 0, np.sqrt(self.weights[fib]), 0.0)
        return py, amps / np.sqrt(_dot(amps, amps))

    @functools.cached_property
    def m_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(post, pv, i0): measuring M on psi_y, outcomes in repr order of
        the outcome along axis 1 (padded with pv = 0): the (ny, V, F) post
        vectors, their probabilities and each outcome's first value index."""
        row, pos, fib = self.fibers
        _, psi = self.fiber_states
        labels, label = np.unique(self.table.mvals, return_inverse=True)
        keys = [repr(self.values[m]) if self.family.measure is None else repr(int(m))
                for m in labels]
        rank = np.argsort(sorted(range(len(keys)), key=keys.__getitem__))
        # one cell per (y, outcome), sorted by y and then by the outcome's repr
        cell, first, inv = np.unique(row * len(keys) + rank[label],
                                     return_index=True, return_inverse=True)
        cell_row = cell // len(keys)
        outcome = np.arange(len(cell)) - np.searchsorted(cell_row, cell_row)
        onehot = np.zeros((len(fib), outcome.max() + 1, fib.shape[1]), dtype=bool)
        onehot[row, outcome[inv], pos] = True
        i0 = np.zeros(onehot.shape[:2], dtype=np.int64)
        i0[cell_row, outcome] = first
        pv = np.cumsum(np.where(onehot, psi[:, None, :] ** 2, 0.0), axis=-1)[..., -1]
        ok = pv > 0
        post = np.where(onehot & ok[..., None], psi[:, None, :], 0.0) \
            / np.sqrt(np.where(ok, pv, 1.0))[..., None]
        return post, pv, i0

    @functools.cached_property
    def first_outside(self) -> int:
        """The first value outside value 0's fiber (-1 when there is one image)."""
        outside = np.flatnonzero(self.fibers[0] != self.fibers[0][0])
        return int(outside[0]) if outside.size else -1

    @functools.cached_property
    def lexfirst_pos(self) -> np.ndarray:
        """Each fiber's position of its least value."""
        _, _, fib = self.fibers
        n = len(self.values)
        vrank = np.argsort(sorted(range(n), key=self.values.__getitem__))
        return np.argmin(np.where(fib >= 0, vrank[fib], n), axis=1)


_last_dom: _Dom | None = None


def _dom(family: HashFamily, key, dist: Callable | None) -> _Dom:
    """The key's _Dom, reused while ``family.table(key)`` and ``dist`` are the
    objects it was built from, so that sampled runs which draw the same key
    build its tables once. Only the last one is kept."""
    global _last_dom
    if _last_dom is None or _last_dom.table is not family.table(key) \
            or _last_dom.dist is not dist:
        _last_dom = _Dom(family, key, dist)
    return _last_dom


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


def _fold(total: float, terms: np.ndarray) -> float:
    """total plus every entry of ``terms``, strictly left to right in C order,
    as a scalar loop adds them."""
    flat = np.array(terms, dtype=np.float64).ravel()
    if flat.size == 0:
        return total
    flat[0] += total
    return float(np.cumsum(flat, out=flat)[-1])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner products over the last (fiber column) axis, kept as size 1."""
    return np.einsum("...f,...f->...", a, b)[..., None]


def _ladder_branches(adv: Adversary, dom: _Dom, rows: np.ndarray, mass: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first stage's certificate branches on states whose X marginal on
    the fiber columns is ``mass`` (Y, V, F), for the image rows ``rows``:
    (pc, pi, fpos, valid), each (Y, V, K), with pi's value index (-1 for
    none) and its position in the fiber where it is valid. A measured
    certificate has one branch per fiber column, pc = 0.0 where the column's
    mass is at most 1e-15; the other modes leave the state untouched."""
    row, pos, fib = dom.fibers
    shape = mass.shape[:2] + (1,)
    if adv.cert == "measure":
        valid = mass > 1e-15
        return np.where(valid, mass, 0.0), np.broadcast_to(fib[rows][:, None, :], mass.shape), \
            np.broadcast_to(np.arange(mass.shape[2]), mass.shape), valid
    if adv.cert == "uniform-domain":
        n = len(row)
        shape = shape[:2] + (n,)
        valid = row == rows[:, None, None]
        return np.full(shape, 1.0 / n), np.broadcast_to(np.arange(n), shape), \
            np.broadcast_to(pos, shape), np.broadcast_to(valid, shape)
    if adv.cert == "lexfirst":
        fpos, valid = dom.lexfirst_pos[rows], True
        pi = fib[rows, fpos]
    elif adv.cert == "garbage":
        # the first value outside the fiber: 0, or in value 0's own fiber the
        # first value of another one
        pi = np.where(rows == row[0], dom.first_outside, 0)
        fpos, valid = 0, False
    elif adv.cert == "zero":
        pi, fpos, valid = 0, pos[0], row[0] == rows
    else:
        raise ValueError(f"unknown cert mode {adv.cert}")
    return np.ones(shape), *(np.broadcast_to(np.reshape(a, (-1, 1, 1)), shape)
                             for a in (pi, fpos, valid))


def _pick(p: np.ndarray, rng: np.random.Generator) -> int:
    """The index of one nonzero entry of ``p``, drawn in proportion to it."""
    k = np.flatnonzero(p)
    return int(k[rng.choice(len(k), p=p[k] / p[k].sum())])


def _sample_challenge(family: HashFamily, dist: Callable | None, b: int,
                      rng: np.random.Generator) -> tuple[_Dom, int, np.ndarray]:
    """Sample h and y, and for odd b measure M: (domain, image row, X state
    on the row's fiber columns)."""
    key, _ = family.sample(rng)
    dom = _dom(family, key, dist)
    py, psi = dom.fiber_states
    r = int(rng.choice(len(py), p=py))
    if b % 2:
        post, pv, _ = dom.m_groups
        return dom, r, post[r, _pick(pv[r], rng)]
    return dom, r, psi[r]


def _sample_certificate(adv: Adversary, dom: _Dom, r: int, mass: np.ndarray,
                        rng: np.random.Generator) -> tuple[int, int | None, bool]:
    """The first stage on a state of image row r whose X marginal on the
    row's fiber columns is ``mass`` (its padding may be left off): pi's value
    index (-1 for none), the measured fiber position (None when the state is
    left untouched) and whether pi is valid."""
    full = np.zeros(dom.fibers[2].shape[1])
    full[:len(mass)] = mass
    pc, pi, fpos, valid = (a.ravel() for a in
                           _ladder_branches(adv, dom, np.array([r]), full[None, None]))
    k = _pick(pc, rng)
    return int(pi[k]), int(fpos[k]) if adv.cert == "measure" else None, bool(valid[k])


# ---------------------------------------------------------------------------
# Target-collapsing experiment (Monte Carlo and exact advantage)
# ---------------------------------------------------------------------------

def target_collapse_exp(family: HashFamily, dist: Callable | None,
                        adversary: Adversary, b: int,
                        rng: np.random.Generator) -> int:
    """One sampled run; returns the adversary's guess bit."""
    dom, r, xvec = _sample_challenge(family, dist, b, rng)
    return int(rng.random() < _guess_p1(adversary, dom.fiber_states[1][r], xvec))


def target_collapse_advantage_exact(family: HashFamily, dist: Callable | None,
                                    adversary: Adversary) -> float:
    """|Pr[out=1 | b=0] - Pr[out=1 | b=1]| over enumerable keys, with every
    image y of a key at once on its fiber columns; the terms are added in
    the (key, y, M outcome) order of the scalar enumeration."""
    totals = [0.0, 0.0]
    keys = _keys_for_exact(family)
    for key, _ in keys:
        dom = _dom(family, key, dist)
        py, psi = dom.fiber_states
        post, pv, _ = dom.m_groups
        totals[0] = _fold(totals[0], py[:, None] * _guess_p1(adversary, psi, psi, _dot))
        totals[1] = _fold(totals[1], (py[:, None] * pv)[..., None]
                          * _guess_p1(adversary, psi[:, None], post, _dot))
    return abs(totals[0] - totals[1]) / len(keys)


# ---------------------------------------------------------------------------
# Certified-everlasting target-collapsing experiment
# ---------------------------------------------------------------------------

def ev_target_collapse_exp(family: HashFamily, dist: Callable | None,
                           adv_pair: Adversary, b: int,
                           rng: np.random.Generator, seed: int = 0
                           ) -> GameTranscript:
    """One sampled run of the certified-everlasting experiment; the verdict
    records the fallback: an invalid certificate draws b' uniformly."""
    dom, r, xvec = _sample_challenge(family, dist, b, rng)
    pi, col, valid = _sample_certificate(adv_pair, dom, r, np.abs(xvec) ** 2, rng)
    if valid:  # measuring X leaves the basis state of the column
        residual = xvec if col is None else np.eye(len(xvec))[col]
        bprime = int(rng.random() < _guess_p1(adv_pair, dom.fiber_states[1][r], residual))
    else:
        bprime = int(rng.integers(0, 2))
    return GameTranscript(
        experiment="evtc", seed=seed, b=b, adversary=adv_pair.name,
        outputs={"y": repr(dom.ys[r]), "pi": repr(None if pi < 0 else dom.values[pi]),
                 "valid": bool(valid), "b_prime": bprime},
        verdict=bprime,
    )


def ev_target_collapse_ensembles(family: HashFamily, dist: Callable | None,
                                 adv: Adversary
                                 ) -> tuple[qsim.Ensemble, qsim.Ensemble]:
    """Exact challenger-side output ensembles of the experiment for b=0 and
    b=1: classical labels (key, y, pi, valid) with the residual state the
    second stage would receive. Their trace distance bounds any unbounded
    second stage's advantage.

    A label fixes y, so each residual is given on its fiber's columns, in
    ascending value index and padded to the widest fiber: an isometric image
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
        dom = _dom(family, key, dist)
        n = len(dom.values)
        py, psi = dom.fiber_states
        post, pv, _ = dom.m_groups
        ny, width = len(psi), max(width, psi.shape[1])
        for side, x, px in ((0, psi[:, None], np.ones((ny, 1))), (1, post, pv)):
            pc, pi, fpos, valid = _ladder_branches(adv, dom, np.arange(ny), np.abs(x) ** 2)
            w = ((wk * py)[:, None] * px)[..., None] * pc
            # absent M outcomes and measured columns without mass are no branch
            keep = np.broadcast_to((px > 0)[..., None] & (valid | (not measured)), w.shape)
            r, v, _ = np.nonzero(keep)
            if measured:
                at = fpos[keep]
            else:
                at = base + r * x.shape[1] + v
                blocks.append(x.reshape(-1, x.shape[2]))
                base += len(blocks[-1])
            cols[side].append((w[keep], (ki * n + r) * (n + 1) + pi[keep] + 1,
                               np.where(valid[keep], at, -1)))
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


# A chunk of y rows spans about this many (y, z, v, branch) cells, or one row
# where a row has more: it bounds the exact ladder's working set.
_LADDER_CELLS = 1 << 13


def _safe_sqrt(p: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return np.sqrt(np.where(ok, p, 1.0))


def _exp0_terms(adv: Adversary, dom: _Dom, rows: np.ndarray, py: np.ndarray,
                x: np.ndarray, pv: np.ndarray, psi: np.ndarray, wk: float) -> np.ndarray:
    """(Y, V, K) Pr[out=1] terms of Exp0 from the X states ``x`` (Y, V, F)
    reached with probabilities ``pv`` (Y, V)."""
    pc, _, _, valid = _ladder_branches(adv, dom, rows, np.abs(x) ** 2)
    if adv.cert == "measure":  # the residual is the basis state of the column
        guess = _guess_p1(adv, psi[:, None, :], 1.0, np.multiply)
    else:
        guess = _guess_p1(adv, psi[:, None, :], x, _dot)
    return (wk * ((py[:, None] * pv)[..., None] * pc)) * np.where(valid, guess, 0.5)


def _c_register_terms(adv: Adversary, dom: _Dom, rows: np.ndarray, x: np.ndarray,
                      s1: np.ndarray, spi: np.ndarray, psi: np.ndarray,
                      w0: np.ndarray, wk: float, with_exp1: bool) -> dict[str, np.ndarray]:
    """(Y, Z, V, K) Pr[out=1] terms after the first stage acts on the C-by-X
    states (|0> x + |1> s1 x)/sqrt2, x (Y, V, F) and s1 broadcasting to
    (Y, Z, V, F), each weighted w0 (Y, V): the projected experiment (Exp2
    or Exp3: project C onto phi_pi^z, then measure it) with its success and
    valid masses, and if asked Exp1 (measure C, require c' = b) for b = 0
    and 1. ``spi`` (Y, Z, F) is the phase sign of the value at each fiber
    position: a certificate pi enters the projection only through it."""
    s2 = math.sqrt(2)
    r0 = (x / s2)[:, None]
    r1 = (s1 * x[:, None]) / s2
    pc, _, fpos, valid = _ladder_branches(adv, dom, rows, np.abs(r0[:, 0]) ** 2
                                       + np.abs(r1[:, 0]) ** 2)
    w = ((w0[..., None] * pc) * wk)[:, None]
    full = w.shape[:1] + r1.shape[1:3] + w.shape[3:]
    t = psi[:, None, None, :]
    spi = spi[:, :, None, :]
    if adv.cert == "measure":
        # a measured certificate leaves only its column, renormalised: every
        # sum and overlap over X is that one entry, and K runs over columns
        sp = _safe_sqrt(pc, valid)[:, None]
        res, dot = (r0 / sp, r1 / sp), np.multiply
        merged, tm = (res[0] + spi * res[1]) / s2, t
    else:
        # the state is untouched: project for pi at every fiber position f
        # along a new axis before F, and pick each branch's f below
        res, dot = (r0, r1), _dot
        merged, tm = (r0[..., None, :] + spi[..., None] * r1[..., None, :]) / s2, t[..., None, :]
    valid = valid[:, None]
    terms = {}
    for b in (0, 1) if with_exp1 else ():
        pb = dot(res[b], res[b])
        ok = pb > 1e-15
        guess = np.where(ok, _guess_p1(adv, t, res[b] / _safe_sqrt(pb, ok), dot), 0.5)
        terms[f"exp1b{b}"] = np.where(valid, w * (pb * guess + (1 - pb) * 0.5), w * 0.5)
    ps = dot(merged, merged)
    ok = ps > 1e-15
    guess = _guess_p1(adv, tm, merged / _safe_sqrt(ps, ok), dot)
    # measuring C on phi gives a uniform bit
    succ = np.where(ok, ps * (0.5 * guess + 0.25), 0.0)
    proj = succ + (1 - ps) * 0.5
    if adv.cert != "measure":
        at = np.broadcast_to(fpos[:, None], full)
        proj, ps = (np.take_along_axis(a[..., 0], at, axis=-1) for a in (proj, ps))
    terms["proj"] = np.where(valid, w * proj, w * 0.5)
    terms["succ"] = np.where(valid, w * ps, 0.0)
    terms["valid"] = np.where(valid, w, 0.0)
    return {name: np.broadcast_to(a, full) for name, a in terms.items()}


def hybrid_ladder_exact(family: HashFamily, adversary: Adversary,
                        dist: Callable | None = None) -> LadderResult:
    """Exact advantages of the four hybrid experiments under the scripted
    adversary, by full enumeration of (key, y, z, v) and branch evolution.

    Every experiment is evaluated for a chunk of images y at once, on the
    fiber columns only, and its terms are added in the (key, y, z, v,
    branch) order of the scalar enumeration; absent branches and padding
    add exactly 0.0.
    """
    keys = _keys_for_exact(family)
    wk = 1.0 / len(keys)
    acc = dict.fromkeys(("exp0b0", "exp0b1", "exp1b0", "exp1b1", "proj2", "succ2",
                         "valid2", "proj3", "succ3", "valid3"), 0.0)

    for key, _ in keys:
        dom = _dom(family, key, dist)
        _, _, fib = dom.fibers
        py_all, psi_all = dom.fiber_states
        post_all, pv_all, i0_all = dom.m_groups
        z = np.arange(1 << dom.mbits)[None, :, None]
        wz = 1.0 / z.size
        ny, nf = fib.shape
        nv = pv_all.shape[1]
        nk = len(dom.values) if adversary.cert == "uniform-domain" else 1
        step = max(1, _LADDER_CELLS // (z.size * nv * max(nk, nf * nf)))
        for lo in range(0, ny, step):
            rows = np.arange(lo, min(lo + step, ny))
            py, psi, post, pv = py_all[rows], psi_all[rows], post_all[rows], pv_all[rows]
            spi = dom.sign(z, fib[rows][:, None, :])  # (Y, Z, F)
            acc["exp0b0"] = _fold(acc["exp0b0"], _exp0_terms(
                adversary, dom, rows, py, psi[:, None], np.ones((len(rows), 1)), psi, wk))
            acc["exp0b1"] = _fold(acc["exp0b1"], _exp0_terms(
                adversary, dom, rows, py, post, pv, psi, wk))
            # Exp1 and Exp2 share the joint state (|0>psi + |1>Z_z psi)/sqrt2
            t12 = _c_register_terms(adversary, dom, rows, psi[:, None], spi[:, :, None],
                                    spi, psi, (py * wz)[:, None], wk, with_exp1=True)
            # Exp3: measure M first, then the same C machinery
            s3 = dom.sign(z, i0_all[rows][:, None, :])[..., None]
            t3 = _c_register_terms(adversary, dom, rows, post, s3, spi, psi,
                                   (py * wz)[:, None] * pv, wk, with_exp1=False)
            for name in ("exp1b0", "exp1b1"):
                acc[name] = _fold(acc[name], t12[name])
            for e, t in ((2, t12), (3, t3)):
                for name in ("proj", "succ", "valid"):
                    acc[f"{name}{e}"] = _fold(acc[f"{name}{e}"], t[name])

    p1 = {(e, b): acc[f"exp{e}b{b}"] if e < 2 else acc[f"proj{e}"]
          for e in range(4) for b in (0, 1)}
    advs = tuple(abs(p1[(e, 0)] - p1[(e, 1)]) for e in range(4))
    proj = {e: (acc[f"succ{e}"] / acc[f"valid{e}"] if acc[f"valid{e}"] else 1.0)
            for e in (2, 3)}
    return LadderResult(adv=advs, prob1={f"exp{e}b{b}": p1[(e, b)]
                                         for e in range(4) for b in (0, 1)},
                        proj_success=proj)


# ---------------------------------------------------------------------------
# The hybrid ladder, Monte Carlo mode (verbatim protocol on qsim states)
# ---------------------------------------------------------------------------

def hybrid_ladder_mc(family: HashFamily, adversary: Adversary, exp: int,
                     b: int, rng: np.random.Generator) -> int:
    """One sampled run of Exp_exp(b); returns the experiment output bit.
    Exp0 is the certified-everlasting experiment."""
    if exp == 0:
        return ev_target_collapse_exp(family, None, adversary, b, rng).verdict

    dom, r, psi = _sample_challenge(family, None, 0, rng)
    fib = dom.fibers[2][r]
    reg = dom.table.reg_index[fib[fib >= 0]]  # the row's fiber columns (padding is last)
    target = psi = psi[:len(reg)]
    layout = qsim.RegisterLayout([("C", (2,)), ("X", family.domain.register_dims())])

    def c_state(rows: np.ndarray) -> qsim.QState:
        amps = np.zeros((2, layout.dim // 2), dtype=np.complex128)
        amps[:, reg] = rows
        return qsim.QState(layout, amps)

    z = int(rng.integers(0, 1 << dom.mbits))
    if exp == 3:
        post, pv, _ = dom.m_groups
        psi = post[r, _pick(pv[r], rng), :len(reg)]

    # C in |+>, controlled phase (-1)^{<M(x), z>}
    phase = np.ones(layout.dim // 2)
    phase[dom.table.reg_index] = dom.sign(z)
    state = qsim.controlled_phase_fn(c_state(np.stack([psi, psi]) / math.sqrt(2)),
                                     "C", "X", phase)

    rows = state.amps.reshape(2, -1)[:, reg]
    mass = np.sum(np.abs(rows) ** 2, axis=0)
    pi, col, valid = _sample_certificate(adversary, dom, r, mass, rng)
    if not valid:
        return int(rng.integers(0, 2))
    if col is not None:  # measuring X keeps the column's C amplitudes, renormalised
        kept = np.zeros_like(rows)
        kept[:, col] = rows[:, col] / math.sqrt(mass[col])
        rows = kept
    state = c_state(rows)

    if exp >= 2:
        phi = np.array([1.0, dom.sign(z, pi)]) / math.sqrt(2)
        p_succ = qsim.project_prob(state, "C", phi)
        if rng.random() >= p_succ:
            return int(rng.integers(0, 2))
        _, state = qsim.project(state, "C", phi)

    out = qsim.measure(state, "C", rng)
    if out.value[0] != b % 2:
        return int(rng.integers(0, 2))
    xvec = qsim.drop_segment(out.post_state, "C", out.value).amps[reg]
    return int(rng.random() < _guess_p1(adversary, target, xvec))


# ---------------------------------------------------------------------------
# Strong Gaussian-collapsing experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SGCParams:
    n: int
    m: int
    q: int
    sigma_sq: Fraction

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.sigma_sq))

    def witness_bound_sq(self) -> Fraction:
        return self.sigma_sq * Fraction(self.m, 2)  # ||w|| <= sigma sqrt(m/2)


def strong_gauss_collapse_exp(params: SGCParams, adversary: Adversary, b: int,
                              rng: np.random.Generator, seed: int = 0
                              ) -> GameTranscript:
    """One sampled run of the strong Gaussian-collapsing experiment.

    The challenger builds the structured Ajtai instance, hands over the
    (possibly measured) coset register, checks the witness exactly, and
    releases the trapdoor (xbar, -1) only on a valid witness; an invalid
    witness ends the game with a uniformly random output bit.
    """
    n, m, q = params.n, params.m, params.q
    A, t_keygen = structured_ajtai_keygen(n, m, q, rng)
    state, y = gen_gauss(A, params.sigma, rng)
    if b % 2:
        out = qsim.measure(state, "X", rng)
        state = out.post_state

    if adversary.cert == "measure":
        wout = qsim.measure(state, "X", rng)
        w = ZqVector(np.asarray(wout.value), q)
    elif adversary.cert == "zero":
        w = ZqVector(np.zeros(m, dtype=np.int64), q)
    else:
        raise ValueError(f"adversary {adversary.name} not scripted for this game")

    ok_image = (A @ w).entries.tolist() == y.entries.tolist()
    ok_norm = Fraction(w.norm_sq()) <= params.witness_bound_sq()
    valid = ok_image and ok_norm
    trapdoor = None
    if valid:
        trapdoor = ZqVector((-t_keygen.entries) % q, q)  # (xbar, -1)
    bprime = int(rng.integers(0, 2))  # the honest deleter guesses blindly
    return GameTranscript(
        experiment="sgc", seed=seed, b=b, adversary=adversary.name,
        outputs={
            "y": y.entries.tolist(), "w": w.entries.tolist(),
            "valid": bool(valid),
            "trapdoor": trapdoor.entries.tolist() if trapdoor is not None else None,
            "b_prime": bprime,
        },
        verdict=bprime,
    )


def sgc_honest_ensembles(params: SGCParams, rng: np.random.Generator
                         ) -> tuple[qsim.Ensemble, qsim.Ensemble]:
    """Exact adversary-view ensembles (y, w, trapdoor released) of the
    honest computational-basis deleter for b = 0 versus b = 1, at one
    sampled structured key. The views are classical after deletion. The
    label of the box value w at index i (zq_box order) is (image code of y
    * q^m + i) * 2 + [w is a valid witness]."""
    n, m, q = params.n, params.m, params.q
    A, _ = structured_ajtai_keygen(n, m, q, rng)
    rho2 = gaussian_box_weights(q, m, params.sigma) ** 2
    c = centered_array(zq_box(q, m), q)
    bound = params.witness_bound_sq()
    valid = np.einsum("ij,ij->i", c, c) * bound.denominator <= bound.numerator
    label = (zq_image_codes(A) * len(c) + np.arange(len(c))) * 2 + valid
    states = np.zeros((0, 0), dtype=np.complex128)
    e0 = qsim.Ensemble.from_columns(rho2 / rho2.sum(), label, -1, states)
    # measuring first (b=1) and then deleting produces the same joint law
    return e0, qsim.Ensemble(e0.branches.copy(), states)


# ---------------------------------------------------------------------------
# Projector inequality checker
# ---------------------------------------------------------------------------

@dataclass
class Fact35Result:
    lhs: float
    rhs: float
    holds: bool


def fact35_check(D: np.ndarray, Pis: list[np.ndarray], psi: np.ndarray,
                 slack: float = 1e-9) -> Fact35Result:
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
    return Fact35Result(lhs=lhs, rhs=rhs, holds=lhs >= rhs - slack)


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
