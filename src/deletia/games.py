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
# Shared exact-mode plumbing over a family's enumerable domain
# ---------------------------------------------------------------------------

class _Dom:
    """One key's domain table with D-weights. Images are addressed by their
    position j in ``ys``, certificates pi by their index into ``values``."""

    def __init__(self, family: HashFamily, key, dist: Callable | None):
        self.family = family
        self.table = family.table(key)
        self.values = self.table.values
        d = np.array([1.0 if dist is None else dist(x) for x in self.values])
        self.weights = d / d.sum()
        if family.measure is None:
            self.mbits = getattr(family.domain, "bits", None)
            if self.mbits is None:
                raise ValueError("identity-M exact mode needs a bit domain")
        else:
            self.mbits = 1

    @functools.cached_property
    def sign(self) -> np.ndarray:
        """(2^mbits x D) matrix of (-1)^{<M(x), z>}, z packed as an int."""
        dots = np.arange(1 << self.mbits)[:, None] & self.table.mvals[None, :]
        parity = np.zeros_like(dots)
        for k in range(self.mbits):
            parity ^= (dots >> k) & 1
        return 1.0 - 2.0 * parity

    def y_distribution(self) -> list[tuple[int, float]]:
        """(position j of y in the table's ys, Pr[y]) in repr order of y."""
        py = np.bincount(self.table.image_ids, weights=self.weights,
                         minlength=len(self.table.ys))
        return [(j, py[j]) for j in self.table.repr_order()]

    def fiber(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.table.image_ids == j)

    def psi_y(self, j: int) -> np.ndarray:
        amps = np.where(self.table.image_ids == j, np.sqrt(self.weights), 0.0)
        return amps / np.linalg.norm(amps)

    def value(self, pi: int | None):
        return None if pi is None else self.values[pi]

    def valid(self, pi: int | None, j: int) -> bool:
        return pi is not None and bool(self.table.image_ids[pi] == j)

    def lexfirst(self, j: int) -> int:
        return int(min(self.fiber(j), key=self.values.__getitem__))

    def garbage(self, j: int) -> int | None:
        outside = np.flatnonzero(self.table.image_ids != j)
        return int(outside[0]) if outside.size else None

    def m_branches(self, j: int) -> list[tuple[int, float, np.ndarray]]:
        """Outcomes of measuring M on psi_y, in repr order of the outcome:
        (index of a value with that outcome, prob, post vector)."""
        psi = self.psi_y(j)
        identity = self.family.measure is None
        groups: dict[object, list[int]] = {}
        for i in self.fiber(j):
            v = self.values[i] if identity else int(self.table.mvals[i])
            groups.setdefault(v, []).append(int(i))
        out = []
        for v in sorted(groups.keys(), key=repr):
            idxs = groups[v]
            p = float(np.cumsum(psi[idxs] ** 2)[-1])
            if p <= 0:
                continue
            post = np.zeros_like(psi)
            post[idxs] = psi[idxs]
            out.append((idxs[0], p, post / math.sqrt(p)))
        return out


def _keys_for_exact(family: HashFamily) -> list:
    if family.keys is None:
        raise ValueError(
            f"family {family.name} has no enumerable key space; exact mode "
            "needs family.keys()")
    return family.keys()


def _guess_p1(adv: Adversary, target: np.ndarray, xvec: np.ndarray):
    """Exact Pr[b'=1] for the unbounded second stage on pure residuals
    (the rows of ``xvec``); ``target`` is the fiber superposition psi_y."""
    if adv.guess == "random":
        return 0.5
    if adv.guess == "project0":
        return 1.0 - np.abs(xvec @ target) ** 2
    raise ValueError(f"unknown guess mode {adv.guess}")


def _cert_branches(adv: Adversary, dom: _Dom, j: int, mass: np.ndarray
                   ) -> list[tuple[float, int | None, int | None]]:
    """(prob, pi, measured X index or None) branches of the first stage on a
    state whose X marginal is ``mass``; None leaves the state untouched."""
    if adv.cert == "measure":
        return [(float(p), i, i) for i, p in enumerate(mass) if p > 1e-15]
    if adv.cert == "lexfirst":
        return [(1.0, dom.lexfirst(j), None)]
    if adv.cert == "uniform-domain":
        n = len(dom.values)
        return [(1.0 / n, i, None) for i in range(n)]
    if adv.cert == "garbage":
        return [(1.0, dom.garbage(j), None)]
    if adv.cert == "zero":
        return [(1.0, 0, None)]
    raise ValueError(f"unknown cert mode {adv.cert}")


def _residual(rows: np.ndarray, col: int | None, pc: float) -> np.ndarray:
    """The state after a certificate branch. Measuring X of a pure X state
    leaves the basis state |x>; a C-by-X state (..., 2, D) keeps its C
    amplitudes on the measured column, renormalised."""
    if col is None:
        return rows
    res = np.zeros_like(rows)
    res[..., col] = 1.0 if rows.ndim == 1 else rows[..., col] / math.sqrt(pc)
    return res


def _pick(branches: list[tuple], rng: np.random.Generator, at: int) -> tuple:
    """One branch, drawn with the probabilities held at position ``at``."""
    probs = np.array([br[at] for br in branches])
    return branches[int(rng.choice(len(branches), p=probs / probs.sum()))]


def _sample_challenge(family: HashFamily, dist: Callable | None, b: int,
                      rng: np.random.Generator) -> tuple[_Dom, int, np.ndarray]:
    """Sample h and y, and for odd b measure M: (domain, y position, X state)."""
    key, _ = family.sample(rng)
    dom = _Dom(family, key, dist)
    js, ps = zip(*dom.y_distribution())
    j = js[int(rng.choice(len(js), p=np.array(ps)))]
    xvec = dom.psi_y(j)
    if b % 2:
        xvec = _pick(dom.m_branches(j), rng, 1)[2]
    return dom, j, xvec


def _sample_certificate(adv: Adversary, dom: _Dom, j: int, xvec: np.ndarray,
                        rng: np.random.Generator) -> tuple[int | None, np.ndarray]:
    """The first stage on a pure X state: (pi, residual X state)."""
    pc, pi, col = _pick(_cert_branches(adv, dom, j, np.abs(xvec) ** 2), rng, 0)
    return pi, _residual(xvec, col, pc)


# ---------------------------------------------------------------------------
# Target-collapsing experiment (Monte Carlo and exact advantage)
# ---------------------------------------------------------------------------

def target_collapse_exp(family: HashFamily, dist: Callable | None,
                        adversary: Adversary, b: int,
                        rng: np.random.Generator) -> int:
    """One sampled run; returns the adversary's guess bit."""
    dom, j, xvec = _sample_challenge(family, dist, b, rng)
    p1 = _guess_p1(adversary, dom.psi_y(j), xvec)
    return int(rng.random() < p1)


def target_collapse_advantage_exact(family: HashFamily, dist: Callable | None,
                                    adversary: Adversary) -> float:
    """|Pr[out=1 | b=0] - Pr[out=1 | b=1]| over enumerable keys."""
    totals = {0: 0.0, 1: 0.0}
    keys = _keys_for_exact(family)
    for key, _ in keys:
        dom = _Dom(family, key, dist)
        for j, py in dom.y_distribution():
            psi = dom.psi_y(j)
            totals[0] += py * _guess_p1(adversary, psi, psi)
            for _, pv, post in dom.m_branches(j):
                totals[1] += py * pv * _guess_p1(adversary, psi, post)
    n = len(keys)
    return abs(totals[0] - totals[1]) / n


# ---------------------------------------------------------------------------
# Certified-everlasting target-collapsing experiment
# ---------------------------------------------------------------------------

def ev_target_collapse_exp(family: HashFamily, dist: Callable | None,
                           adv_pair: Adversary, b: int,
                           rng: np.random.Generator, seed: int = 0
                           ) -> GameTranscript:
    """One sampled run of the certified-everlasting experiment; the verdict
    records the fallback: an invalid certificate draws b' uniformly."""
    dom, j, xvec = _sample_challenge(family, dist, b, rng)
    pi, residual = _sample_certificate(adv_pair, dom, j, xvec, rng)
    valid = dom.valid(pi, j)
    if valid:
        bprime = int(rng.random() < _guess_p1(adv_pair, dom.psi_y(j), residual))
    else:
        bprime = int(rng.integers(0, 2))
    return GameTranscript(
        experiment="evtc", seed=seed, b=b, adversary=adv_pair.name,
        outputs={"y": repr(dom.table.ys[j]), "pi": repr(dom.value(pi)),
                 "valid": bool(valid), "b_prime": bprime},
        verdict=bprime,
    )


def ev_target_collapse_ensembles(family: HashFamily, dist: Callable | None,
                                 adv: Adversary
                                 ) -> tuple[qsim.Ensemble, qsim.Ensemble]:
    """Exact challenger-side output ensembles of the experiment for b=0 and
    b=1: classical labels (key, y, pi, valid) with the residual state the
    second stage would receive. Their trace distance bounds any unbounded
    second stage's advantage."""
    ens = {0: [], 1: []}
    keys = _keys_for_exact(family)
    wk = 1.0 / len(keys)
    layout = qsim.RegisterLayout([("X", family.domain.register_dims())])

    def residual_state(vec: np.ndarray, dom: _Dom) -> qsim.QState:
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[dom.table.reg_index] = vec
        return qsim.QState(layout, amps)

    for ki, (key, _) in enumerate(keys):
        dom = _Dom(family, key, dist)
        for j, py in dom.y_distribution():
            start = {0: [(1.0, dom.psi_y(j))]}
            start[1] = [(pv, post) for _, pv, post in dom.m_branches(j)]
            for b in (0, 1):
                for pv, xvec in start[b]:
                    for pc, pi, col in _cert_branches(adv, dom, j, np.abs(xvec) ** 2):
                        valid = dom.valid(pi, j)
                        label = (ki, repr(dom.table.ys[j]), repr(dom.value(pi)), valid)
                        st = residual_state(_residual(xvec, col, pc), dom) if valid else None
                        ens[b].append((wk * py * pv * pc, label, st))
    return qsim.Ensemble(ens[0]), qsim.Ensemble(ens[1])


def tcr_exp(family: HashFamily, adversary, rng: np.random.Generator,
            dist: Callable | None = None, aux: Callable | None = None):
    """The target-collision-resistance experiment, including the
    auxiliary-information variant: ``aux(td)`` is invoked once and its
    result handed to the adversary alongside (h, y, X). With aux=None this
    is exactly the plain experiment (shared implementation in hashfam)."""
    from .hashfam import tcr_game

    return tcr_game(family, adversary, rng, dist=dist, aux=aux)


# ---------------------------------------------------------------------------
# The hybrid ladder Exp0..Exp3, exact mode
# ---------------------------------------------------------------------------

@dataclass
class LadderResult:
    adv: tuple[float, float, float, float]
    prob1: dict = field(default_factory=dict)  # (exp, b) -> Pr[out=1]
    proj_success: dict = field(default_factory=dict)  # exp -> P(projection ok | valid)


def _fold(total: float, columns: list[np.ndarray]) -> float:
    """total plus every entry of the (nz, branches) stacked columns, z-major
    and strictly left to right, as the scalar loop over (z, branch) adds."""
    if not columns:
        return total
    terms = np.stack(columns, axis=1).ravel()
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _c_register_terms(adv: Adversary, dom: _Dom, j: int, psi: np.ndarray,
                      rows: np.ndarray, w0: float, wk: float,
                      with_exp1: bool) -> dict[str, list]:
    """Per-z Pr[out=1] terms after the first stage acts on the C-by-X states
    ``rows`` (nz, 2, D), one per z, each state weighted w0: the projected
    experiment (Exp2 or Exp3: project C onto phi_pi^z, then measure it)
    with its success and valid masses, and if asked Exp1 (measure C,
    require c' = b) for b = 0 and 1."""
    terms: dict[str, list] = {"exp1b0": [], "exp1b1": [], "proj": [], "succ": [], "valid": []}
    nz = len(rows)
    mass = np.sum(np.abs(rows[0]) ** 2, axis=0)  # the same for every z
    for pc, pi, col in _cert_branches(adv, dom, j, mass):
        w = w0 * pc * wk
        if not dom.valid(pi, j):
            for name in ("exp1b0", "exp1b1", "proj"):
                terms[name].append(np.full(nz, w * 0.5))
            continue
        # a measured certificate leaves only its column: the sums and
        # overlaps over X reduce to it exactly, so work on it alone
        res, target = (rows, psi) if col is None else \
            (rows[..., [col]] / math.sqrt(pc), psi[[col]])
        pr_c = np.sum(np.abs(res) ** 2, axis=-1)
        for b in (0, 1) if with_exp1 else ():
            pb = pr_c[:, b]
            ok = pb > 1e-15
            xv = res[:, b] / np.sqrt(np.where(ok, pb, 1.0))[:, None]
            guess = np.where(ok, _guess_p1(adv, target, xv), 0.5)
            terms[f"exp1b{b}"].append(w * (pb * guess + (1 - pb) * 0.5))
        sgn = dom.sign[:, pi]
        merged = (res[:, 0] + sgn[:, None] * res[:, 1]) / math.sqrt(2)
        ps = np.sum(np.abs(merged) ** 2, axis=-1)
        ok = ps > 1e-15
        guess = _guess_p1(adv, target, merged / np.sqrt(np.where(ok, ps, 1.0))[:, None])
        # measuring C on phi gives a uniform bit
        succ = np.where(ok, ps * (0.5 * guess + 0.25), 0.0)
        terms["proj"].append(w * (succ + (1 - ps) * 0.5))
        terms["succ"].append(w * ps)
        terms["valid"].append(np.full(nz, w))
    return terms


def hybrid_ladder_exact(family: HashFamily, adversary: Adversary,
                        dist: Callable | None = None) -> LadderResult:
    """Exact advantages of the four hybrid experiments under the scripted
    adversary, by full enumeration of (key, y, z, v) and branch evolution.
    Exp1-Exp3 evolve the states of all z at once; their terms are added in
    the (z, v, branch) order of the scalar enumeration.
    """
    keys = _keys_for_exact(family)
    wk = 1.0 / len(keys)
    p1 = {(e, b): 0.0 for e in range(4) for b in (0, 1)}
    proj_mass = {2: [0.0, 0.0], 3: [0.0, 0.0]}  # [success mass, valid mass]
    s2 = math.sqrt(2)

    for key, _ in keys:
        dom = _Dom(family, key, dist)
        sign = dom.sign
        wz = 1.0 / len(sign)
        for j, py in dom.y_distribution():
            psi = dom.psi_y(j)
            mbranches = dom.m_branches(j)

            # Exp0
            for b in (0, 1):
                starts = [(1.0, psi)] if b == 0 else [(pv, post) for _, pv, post in mbranches]
                for pv, xvec in starts:
                    for pc, pi, col in _cert_branches(adversary, dom, j, np.abs(xvec) ** 2):
                        guess = 0.5
                        if dom.valid(pi, j):
                            guess = _guess_p1(adversary, psi, _residual(xvec, col, pc))
                        p1[(0, b)] += wk * (py * pv * pc) * guess

            # Exp1 and Exp2 share the joint state (|0>psi + |1>Z_z psi)/sqrt2
            rows = np.stack([np.broadcast_to(psi, sign.shape), sign * psi], axis=1) / s2
            t12 = _c_register_terms(adversary, dom, j, psi, rows, py * wz, wk, with_exp1=True)
            for b in (0, 1):
                p1[(1, b)] = _fold(p1[(1, b)], t12[f"exp1b{b}"])
                p1[(2, b)] = _fold(p1[(2, b)], t12["proj"])
            # Exp3: measure M first, then the same C machinery
            t3 = {"proj": [], "succ": [], "valid": []}
            for i0, pv, post in mbranches:
                sgn_v = sign[:, i0][:, None]
                rows3 = np.stack([np.broadcast_to(post, sign.shape), sgn_v * post], axis=1) / s2
                terms = _c_register_terms(adversary, dom, j, psi, rows3, py * wz * pv, wk,
                                          with_exp1=False)
                for name in t3:
                    t3[name] += terms[name]
            for b in (0, 1):
                p1[(3, b)] = _fold(p1[(3, b)], t3["proj"])
            for e, t in ((2, t12), (3, t3)):
                proj_mass[e][0] = _fold(proj_mass[e][0], t["succ"])
                proj_mass[e][1] = _fold(proj_mass[e][1], t["valid"])

    advs = tuple(abs(p1[(e, 0)] - p1[(e, 1)]) for e in range(4))
    proj = {e: (proj_mass[e][0] / proj_mass[e][1] if proj_mass[e][1] else 1.0)
            for e in (2, 3)}
    return LadderResult(adv=advs, prob1={f"exp{e}b{b}": p1[(e, b)]
                                         for e in range(4) for b in (0, 1)},
                        proj_success=proj)


# ---------------------------------------------------------------------------
# The hybrid ladder, Monte Carlo mode (verbatim protocol on qsim states)
# ---------------------------------------------------------------------------

def hybrid_ladder_mc(family: HashFamily, adversary: Adversary, exp: int,
                     b: int, rng: np.random.Generator) -> int:
    """One sampled run of Exp_exp(b); returns the experiment output bit."""
    if exp == 0:
        dom, j, xvec = _sample_challenge(family, None, b, rng)
        pi, res = _sample_certificate(adversary, dom, j, xvec, rng)
        if not dom.valid(pi, j):
            return int(rng.integers(0, 2))
        return int(rng.random() < _guess_p1(adversary, dom.psi_y(j), res))

    dom, j, psi = _sample_challenge(family, None, 0, rng)
    target = psi
    reg = dom.table.reg_index
    x_seg = ("X", family.domain.register_dims())
    layout = qsim.RegisterLayout([("C", (2,)), x_seg])

    def c_state(rows: np.ndarray) -> qsim.QState:
        amps = np.zeros((2, layout.dim // 2), dtype=np.complex128)
        amps[:, reg] = rows
        return qsim.QState(layout, amps)

    z = int(rng.integers(0, 1 << dom.mbits))
    if exp == 3:
        psi = _pick(dom.m_branches(j), rng, 1)[2]

    # C in |+>, controlled phase (-1)^{<M(x), z>}
    phase = np.ones(layout.dim // 2)
    phase[reg] = dom.sign[z]
    state = qsim.controlled_phase_fn(c_state(np.stack([psi, psi]) / math.sqrt(2)),
                                     "C", "X", phase)

    rows = state.amps.reshape(2, -1)[:, reg]
    pc, pi, col = _pick(_cert_branches(adversary, dom, j,
                                       np.sum(np.abs(rows) ** 2, axis=0)), rng, 0)
    if not dom.valid(pi, j):
        return int(rng.integers(0, 2))
    state = c_state(_residual(rows, col, pc))

    if exp >= 2:
        phi = np.array([1.0, dom.sign[z, pi]]) / math.sqrt(2)
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
        bprime = int(rng.integers(0, 2))  # honest deleter guesses blindly
    else:
        bprime = int(rng.integers(0, 2))
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
    sampled structured key. The views are classical after deletion."""
    n, m, q = params.n, params.m, params.q
    A, t_keygen = structured_ajtai_keygen(n, m, q, rng)
    rho2 = gaussian_box_weights(q, m, params.sigma) ** 2
    digits = zq_box(q, m)
    images = (digits @ A.entries.T) % q
    total = rho2.sum()
    bound = params.witness_bound_sq()
    branches = []
    for i in range(len(digits)):
        w = digits[i]
        c = centered_array(w, q)
        valid = (Fraction(int(c @ c)) <= bound)
        label = (tuple(images[i].tolist()), tuple(w.tolist()), bool(valid))
        branches.append((rho2[i] / total, label, None))
    # measuring first (b=1) and then deleting produces the same joint law
    return qsim.Ensemble(branches), qsim.Ensemble(list(branches))


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
