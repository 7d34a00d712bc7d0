"""Keyed hash families on bit strings: the f_Delta binary-measurement
family over toy regular one-way functions, Chor-Goldreich universal hashing
with superposition inversion, plus balance estimation and the TCR game
(played in batches of runs over their stacked key tables).

Bit strings are ints; qsim registers use big-endian bit order (bit 0 is the
most significant slot), so each value is its own index in the register and
the lexicographic order used by f_Delta is the order of the ints.
One-wayness of the toy functions is stipulated, not real: every domain here
is brute-forcible by design.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import qsim
from .gf2k import GF2k
from .zqcore import ENUM_GUARD, check_bit


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BitDomain:
    """Domain {0,1}^bits, values as ints, registers as big-endian qubits:
    each value is its own index in the register."""

    bits: int

    @property
    def size(self) -> int:
        return 1 << self.bits

    def contains(self, x) -> bool:
        return isinstance(x, (int, np.integer)) and 0 <= x < self.size


@dataclass(eq=False)
class DomainTable:
    """One key's function tabulated over the domain's values 0, 1, ..., in
    that order, with everything the games and samplers derive from it.

    A value is its own index, in the table and in the domain's register.
    ``images`` holds each value's image. ``mvals`` holds M[h] per value, or
    for identity-measurement families (``measured`` false) the value
    itself. ``domain`` is the domain tabulated, and ``dist`` weighs its
    values, D(x), uniform when None.

    Everything else is built when first read. The images are ranked once:
    ``ys`` holds the distinct images in repr order, the order in which the
    games and samplers enumerate them, and ``image_ids[x]`` is value x's
    row, the position of its image in ``ys``. Certificates pi are values.
    """

    images: np.ndarray
    mvals: np.ndarray
    domain: BitDomain
    measured: bool
    dist: Callable | None

    @functools.cached_property
    def _ranked(self) -> tuple[list, np.ndarray]:
        """(the distinct images in repr order, each value's row among them)."""
        uniq, inverse = dense_unique(self.images)
        order = repr_argsort(uniq)
        return uniq[order].tolist(), _inverse(order)[inverse]

    @property
    def ys(self) -> list:
        return self._ranked[0]

    @property
    def image_ids(self) -> np.ndarray:
        return self._ranked[1]

    def fiber_mask(self, y) -> np.ndarray:
        """Which values map to y; none when y is not a single image."""
        if np.shape(y):
            return np.zeros(len(self.images), dtype=bool)
        return self.images == y

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """D(x) per value, normalised."""
        n = len(self.images)
        d = np.ones(n) if self.dist is None else np.array([self.dist(x) for x in range(n)])
        return d / d.sum()

    @property
    def mbits(self) -> int:
        """The bits of an M outcome z: 1, or the domain's for identity M."""
        return 1 if self.measured else self.domain.bits

    def sign(self, z, idx=slice(None)) -> np.ndarray:
        """(-1)^{<M(x), z>} for z packed as an int, at the values idx."""
        return 1.0 - 2.0 * (np.bitwise_count(z & self.mvals[idx]) & 1)

    @functools.cached_property
    def fibers(self) -> tuple[np.ndarray, np.ndarray]:
        """(pos, fib): each value's position in its fiber, and the (ny, F)
        matrix of every fiber's values, ascending, padded with -1: a
        fiber's least value is at position 0."""
        row = self.image_ids
        counts = np.bincount(row, minlength=len(self.ys))
        by_row = _stable_argsort(row, len(counts))
        pos = np.empty_like(row)
        pos[by_row] = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        fib = np.full((len(counts), counts.max()), -1)
        fib[row, pos] = np.arange(len(row))
        return pos, fib

    @functools.cached_property
    def fiber_states(self) -> tuple[np.ndarray, np.ndarray]:
        """(py, psi): Pr[y] and psi_y on the fiber columns, one row per y."""
        _, fib = self.fibers
        py = np.bincount(self.image_ids, weights=self.weights, minlength=len(fib))
        amps = np.where(fib >= 0, np.sqrt(self.weights[fib]), 0.0)
        return py, amps / np.sqrt(np.einsum("...f,...f->...", amps, amps)[..., None])

    @functools.cached_property
    def m_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(post, pv, i0): measuring M on psi_y, outcomes in repr order of
        the outcome along axis 1 (padded with pv = 0): the (ny, V, F) post
        vectors, their probabilities and each outcome's first value."""
        row = self.image_ids
        pos, fib = self.fibers
        _, psi = self.fiber_states
        labels, label = dense_unique(self.mvals)
        rank = _inverse(repr_argsort(labels))
        # one cell per (y, outcome), sorted by y and then by the outcome's repr
        cell, inv = dense_unique(row * len(rank) + rank[label])
        first = np.full(len(cell), len(row))
        np.minimum.at(first, inv, np.arange(len(row)))
        cell_row = cell // len(rank)
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
        outside = np.flatnonzero(self.image_ids != self.image_ids[0])
        return int(outside[0]) if outside.size else -1


def _stable_argsort(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in [0, n), one 16-bit digit
    at a time from the lowest: numpy sorts 16-bit keys stably by radix, in
    O(len(ids)), where int64 keys take an O(len(ids) log len(ids)) sort."""
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    shift = 16
    while n > 1 << shift:
        order = order[np.argsort((ids[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse permutation: each position's rank in ``order``."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def dense_unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, return_inverse=True)`` for a 1-d array. Integers that
    are nonnegative and below twice the array's size are ranked by marking
    the present ones; anything else is sorted."""
    if a.dtype.kind in "iu" and a.size and 0 <= a.min() and a.max() < 2 * a.size:
        present = np.zeros(a.max() + 1, dtype=bool)
        present[a] = True
        return np.flatnonzero(present), (np.cumsum(present) - 1)[a]
    uniq, inverse = np.unique(a, return_inverse=True)
    return uniq, inverse.reshape(-1)


def repr_argsort(items: np.ndarray) -> np.ndarray:
    """Indices that put the distinct ints ``items`` in repr order, the order
    in which images and M outcomes are enumerated: their decimal strings'."""
    return np.argsort(items.astype(str))


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass
class HashFamily:
    """A sampleable keyed function with optional measurement predicate M[h],
    optional trapdoor inversion, and optional exhaustive key enumeration.

    ``tabulate(key)`` is the function: it returns (images, M-values or
    None) as int arrays over the domain's values, M-values exactly when
    ``measured``. An unmeasured family has the identity measurement: the
    challenger measures the whole input register. ``eval`` and ``measure``
    read single values off the key's table, so the first call on a fresh
    key tabulates the whole domain. ``invert(key, td, y)`` returns the full
    preimage list of y (used for superposition inversion).
    """

    name: str
    domain: BitDomain
    range_bits: int
    sample: Callable  # rng -> (key, td or None)
    tabulate: Callable  # key -> (images, M-values or None)
    measured: bool = False
    invert: Callable | None = None  # (key, td, y) -> list of preimages
    keys: Callable | None = None  # () -> list[(key, td)], exact-mode only
    descriptor: dict = field(default_factory=dict)
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def table(self, key, dist: Callable | None = None) -> DomainTable:
        """The key's domain table, its values weighed by ``dist``.

        This is the family's one per-key cache: the last (key, dist) is
        kept, matched by identity, since keys can be unhashable arrays and
        callers that sample fresh keys must not grow a cache. Each family
        keeps its own, so games that alternate families rebuild nothing.
        """
        if self._last is not None and self._last[0] is key and self._last[1] is dist:
            return self._last[2]
        images, mvals = self._tabulated(key)
        table = DomainTable(images, mvals, self.domain, self.measured, dist)
        self._last = (key, dist, table)
        return table

    def _tabulated(self, key) -> tuple[np.ndarray, np.ndarray]:
        """``tabulate(key)`` as arrays, with each value itself as the
        M-values of an unmeasured family; refuses a domain too large to
        enumerate."""
        if self.domain.size > ENUM_GUARD:
            raise ValueError(f"domain too large to enumerate "
                             f"({self.domain.size} > {ENUM_GUARD})")
        images, mvals = self.tabulate(key)
        images = np.asarray(images)
        return images, np.arange(len(images)) if mvals is None else mvals

    def eval(self, key, x) -> int | None:
        """h(x); None for x outside the domain."""
        if not self.domain.contains(x):
            return None
        return self.table(key).images[int(x)].tolist()

    def measure(self, key, x) -> int | None:
        """M[h](x): the predicate bit, or for an unmeasured family x itself;
        None for x outside the domain."""
        if not self.domain.contains(x):
            return None
        return int(self.table(key).mvals[int(x)]) if self.measured else int(x)

    def fiber(self, key, y) -> list[int]:
        """All domain values mapping to y, by exhaustive enumeration."""
        return np.flatnonzero(self.table(key).fiber_mask(y)).tolist()


def superposition_invert(family: HashFamily, key, td, ys) -> np.ndarray:
    """Uniform superpositions over the preimages of each image of ``ys``,
    via the trapdoor (one ``invert`` call per image): one row of amplitudes
    on the domain's register per image."""
    if family.invert is None:
        raise ValueError(f"family {family.name} has no trapdoor inversion")
    amps = np.zeros((len(ys), family.domain.size), dtype=np.complex128)
    for row, y in zip(amps, ys):
        pre = family.invert(key, td, y)
        if not pre:
            raise ValueError(f"empty preimage set for {y!r}")
        row[pre] = 1.0
    # each row over its norm, the square root of its count of preimages
    return amps / np.sqrt(np.count_nonzero(amps, axis=1))[:, None]


def fiber_state(family: HashFamily, key, ys, signed_bit: int = 0) -> np.ndarray:
    """Fiber superpositions sum_{x : h(x) = y} (+/-)^(b*M(x)) |x>, normalised,
    by enumeration: one row of amplitudes on the domain's register per image
    y of ``ys``."""
    t = family.table(key)
    fiber = t.images == np.asarray(ys)[:, None]
    count = np.count_nonzero(fiber, axis=1)
    if not count.all():
        raise ValueError(f"empty fiber for {ys[int(np.argmin(count))]!r}")
    sign = 1.0
    if check_bit(signed_bit, "signed_bit") and family.measured:
        sign = np.where(t.mvals != 0, -1.0, 1.0)
    amps = np.where(fiber, sign, 0.0).astype(np.complex128)
    return amps / np.sqrt(count)[:, None]


# --- toy regular OWFs ------------------------------------------------------

def toy_regular_owf(m: int, r: int, range_bits: int | None = None) -> HashFamily:
    """Exactly 2^r-regular toy OWF f(x) = g(x >> r) with injective seeded g.

    With range_bits == m - r (the default) g is a bijection, so every range
    point is hit and every fiber has exactly 2^r elements.
    """
    if not 0 <= r < m:
        raise ValueError(f"need 0 <= r < m, got m={m} r={r}")
    ell = m - r if range_bits is None else range_bits
    if ell < m - r:
        raise ValueError("range too small for an injective table")
    domain = BitDomain(m)
    point = np.arange(1 << m) >> r  # each value's argument of g

    def sample(rng: np.random.Generator):
        # g's table is its own trapdoor: only inversion reads it backwards,
        # so balance estimation and the games build no inverse table
        return np.asarray(rng.permutation(1 << ell)[: 1 << (m - r)], dtype=np.int64), None

    def invert(table, td, y: int) -> list[int]:
        u = np.flatnonzero(table == int(y))  # g is injective: one preimage or none
        return [(int(u[0]) << r) | j for j in range(1 << r)] if u.size else []

    fam = HashFamily(
        name="toy-regular-owf",
        domain=domain,
        range_bits=ell,
        sample=sample,
        tabulate=lambda table: (table[point], None),
        invert=invert,
        descriptor={"family": "toy-regular-owf", "m": m, "r": r, "range_bits": ell},
    )
    return fam


def two_to_one_family(bits: int) -> HashFamily:
    """Fixed 2-to-1 toy function x -> x >> 1 (single-key family, identity M)."""
    domain = BitDomain(bits)

    def sample(rng):
        return "fixed", None

    def invert(key, td, y: int) -> list[int]:
        return [2 * y, 2 * y + 1]

    return HashFamily(
        name="two-to-one",
        domain=domain,
        range_bits=bits - 1,
        sample=sample,
        tabulate=lambda key: (np.arange(1 << bits) >> 1, None),
        invert=invert,
        keys=lambda: [("fixed", None)],
        descriptor={"family": "two-to-one", "bits": bits},
    )


# --- f_Delta ---------------------------------------------------------------

def fdelta_family(base: HashFamily) -> HashFamily:
    """h_Delta = f_Delta o f: merge image pairs {z, z xor Delta}, with the
    one-bit predicate M[h](x) = [f(x) > f(x) xor Delta] (lexicographic on
    big-endian bit strings)."""
    n = base.range_bits

    def sample(rng: np.random.Generator):
        bkey, btd = base.sample(rng)
        delta = int(rng.integers(1, 1 << n))  # Delta = 0 excluded
        return (bkey, delta), btd

    def invert(key, td, y: int) -> list[int]:
        bkey, delta = key
        if base.invert is None:
            raise ValueError("base family has no inversion")
        if y > (y ^ delta):
            return []  # outputs are always the lexicographically first element
        return base.invert(bkey, td, y) + base.invert(bkey, td, y ^ delta)

    def tabulate(key):
        bkey, delta = key
        z = base.tabulate(bkey)[0]
        return np.minimum(z, z ^ delta), (z > (z ^ delta)).astype(np.int64)

    keys = None
    if base.keys is not None:
        def keys():
            out = []
            for bkey, btd in base.keys():
                for delta in range(1, 1 << n):
                    out.append(((bkey, delta), btd))
            return out

    return HashFamily(
        name=f"fdelta({base.name})",
        domain=base.domain,
        range_bits=n,
        sample=sample,
        tabulate=tabulate,
        measured=True,
        invert=invert if base.invert is not None else None,
        keys=keys,
        descriptor={"family": "fdelta", "base": base.descriptor},
    )


# --- Chor-Goldreich universal hashing --------------------------------------

def chor_goldreich_family(t: int, field_bits: int, out_bits: int) -> HashFamily:
    """t-universal hash: first out_bits of a degree-(t-1) polynomial over
    GF(2^field_bits); inversion reads the fiber off the key's domain table,
    a brute-force root search over the field."""
    if not 1 <= field_bits <= 16:
        raise ValueError("field_bits must be 1..16 at desk scale")
    if not 1 <= out_bits <= field_bits:
        raise ValueError("need 1 <= out_bits <= field_bits")
    gf = GF2k(field_bits)
    domain = BitDomain(field_bits)
    shift = field_bits - out_bits

    def sample(rng: np.random.Generator):
        coeffs = tuple(int(c) for c in rng.integers(0, gf.size, size=t))
        return coeffs, None

    def tabulate(coeffs):
        return gf.poly_eval(coeffs, np.arange(gf.size)) >> shift, None

    def invert(coeffs, td, y: int) -> list[int]:
        return fam.fiber(coeffs, y)

    fam = HashFamily(
        name="chor-goldreich",
        domain=domain,
        range_bits=out_bits,
        sample=sample,
        tabulate=tabulate,
        invert=invert,
        descriptor={"family": "chor-goldreich", "t": t,
                    "field_bits": field_bits, "out_bits": out_bits},
    )
    return fam


def compose_balanced(owf: HashFamily, uhash: HashFamily) -> HashFamily:
    """f'(x) = u(f(x)): compose a (toy) regular OWF with a universal hash.

    The balance of the result is measured by balance_estimate (on the
    f_Delta wrap), never assumed.
    """
    if uhash.domain.bits != owf.range_bits:
        raise ValueError(
            f"uhash domain ({uhash.domain}) must match owf range ({owf.range_bits} bits)")
    if uhash.range_bits >= owf.range_bits:
        raise ValueError("uhash must compress the owf range")

    def sample(rng: np.random.Generator):
        okey, otd = owf.sample(rng)
        ukey, utd = uhash.sample(rng)
        return (okey, ukey), (otd, utd)

    def invert(key, td, y: int) -> list[int]:
        if owf.invert is None or uhash.invert is None:
            raise ValueError("composition is not invertible")
        (okey, ukey), (otd, utd) = key, td
        pre: list[int] = []
        for w in uhash.invert(ukey, utd, y):
            pre.extend(owf.invert(okey, otd, w))
        return sorted(pre)

    def tabulate(key):
        okey, ukey = key
        return uhash.table(ukey).images[owf.tabulate(okey)[0]], None

    invertible = owf.invert is not None and uhash.invert is not None
    return HashFamily(
        name=f"compose({owf.name},{uhash.name})",
        domain=owf.domain,
        range_bits=uhash.range_bits,
        sample=sample,
        tabulate=tabulate,
        invert=invert if invertible else None,
        descriptor={"family": "compose", "owf": owf.descriptor,
                    "uhash": uhash.descriptor},
    )


# ---------------------------------------------------------------------------
# Balance estimation
# ---------------------------------------------------------------------------

@dataclass
class BalanceReport:
    delta_hat: float
    fraction_ok: float
    samples: int
    ratios: list[float] = field(repr=False, default_factory=list)


def balance_estimate(family: HashFamily, delta: float | None, trials: int,
                     rng: np.random.Generator) -> BalanceReport:
    """Exact fiber counts A0/A1 on sampled (h, x); reports the fraction of
    samples with |A0 - A1| / (A0 + A1) <= 1 - delta.

    delta=None evaluates the bound at the measured delta_hat, which is
    1 - (99.5th percentile of the observed ratios), clamped to [0, 1).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not family.measured:
        raise ValueError(f"family {family.name} has no measurement predicate")
    ratios = []
    for _ in range(trials):
        key, _ = family.sample(rng)
        images, mvals = family._tabulated(key)
        a0, a1 = fiber_split(images, mvals, images[int(rng.integers(0, len(images)))])
        ratios.append(abs(a0 - a1) / (a0 + a1))
    delta_hat = min(max(1.0 - _percentile_995(ratios), 0.0), 1.0 - 1e-12)
    d = delta_hat if delta is None else delta
    ok = sum(1 for r in ratios if r <= 1.0 - d + 1e-12) / len(ratios)
    return BalanceReport(delta_hat=delta_hat, fraction_ok=ok, samples=trials,
                         ratios=ratios)


def _percentile_995(values: list[float]) -> float:
    """``np.percentile(values, 99.5)`` bit for bit: numpy's linear
    interpolation at its virtual index, without the ``np.unique`` inside
    np.percentile that imports numpy.ma (1–2 MB of RSS) on first use."""
    v = sorted(values)
    at = (len(v) - 1) * 0.995
    if at >= len(v) - 1:
        return v[-1]
    i = math.floor(at)
    t, d = at - i, v[i + 1] - v[i]
    return v[i + 1] - d * (1 - t) if t >= 0.5 else v[i] + d * t


def family_from_descriptor(desc: dict) -> HashFamily:
    """Rebuild a family from its JSON-able descriptor, so experiments are
    replayable from config files (same descriptor + same seed = same keys)."""
    kind = desc["family"]
    if kind == "toy-regular-owf":
        return toy_regular_owf(desc["m"], desc["r"], desc.get("range_bits"))
    if kind == "two-to-one":
        return two_to_one_family(desc["bits"])
    if kind == "chor-goldreich":
        return chor_goldreich_family(desc["t"], desc["field_bits"], desc["out_bits"])
    if kind == "fdelta":
        return fdelta_family(family_from_descriptor(desc["base"]))
    if kind == "compose":
        return compose_balanced(family_from_descriptor(desc["owf"]),
                                family_from_descriptor(desc["uhash"]))
    raise ValueError(f"unknown family descriptor {kind!r}")


def fiber_split(images: np.ndarray, mvals: np.ndarray, y) -> tuple[int, int]:
    """(A0, A1): exact counts of the fiber of y on each side of M[h], from a
    key's images and M-values, one per domain value."""
    fiber = images == y
    a1 = int(np.count_nonzero(mvals[fiber]))
    return int(np.count_nonzero(fiber)) - a1, a1


# ---------------------------------------------------------------------------
# TCR game (Definition: challenger-side target collision resistance)
# ---------------------------------------------------------------------------

@dataclass
class TCRTranscript:
    y: object
    v: object
    answer: object
    win: bool
    key: object = None


@dataclass
class TCRChallenge:
    """What a batch of TCR runs hands the adversary, one row per run: the
    keys h, each key's table stacked (``images``, and ``mvals``: M[h] per
    value, or the value itself for identity M), the measured images y and
    the registers X after y and v were measured, as amplitude rows on the
    domain's register."""

    keys: list
    images: np.ndarray  # (runs, D)
    mvals: np.ndarray  # (runs, D)
    ys: list
    states: np.ndarray  # (runs, D) complex


def tcr_game(family: HashFamily, adversary, rngs: Sequence[np.random.Generator],
             aux: Callable | None = None) -> list[TCRTranscript]:
    """Runs of the target-collision-resistance experiment, one per generator.

    The challenger samples h, prepares the uniform superposition, coherently
    hashes and measures the image y, measures the predicate value v (the
    whole register for identity-M families), and hands (h, y, X) to the
    adversary, who answers with x'. Win iff eval(h, x') = y and
    M[h](x') != v.

    The runs are played together: each step is one array step over the
    runs' stacked key tables (no ``DomainTable`` is built for a fresh key),
    and run i draws from rngs[i] what it would draw alone. ``adversary``
    takes (family, a ``TCRChallenge``, the generators, the aux values) and
    answers every run. ``aux``, when given, is called once per run with
    that run's trapdoor, and its result is passed on for the run (the
    auxiliary-information variant); without it each aux value is None.
    """
    if not rngs:
        return []
    keys, tds = (list(a) for a in zip(*(family.sample(rng) for rng in rngs)))
    images, mvals = (np.stack(a) for a in zip(*(family._tabulated(key) for key in keys)))
    runs, dim = images.shape
    uniform = np.full(dim, 1.0 + 0j) / np.sqrt(dim)  # ones over their norm

    # image measurement: branch by classical pushforward, identical to the
    # coherent compute-then-measure since eval is a basis function; each
    # run's images are weighed in domain order and drawn in repr order, as
    # columns of the batch's distinct images (absent ones weigh nothing)
    uniq, inverse = dense_unique(images.reshape(-1))
    order = repr_argsort(uniq)
    col = _inverse(order)[inverse].reshape(runs, dim)
    cells = (np.arange(runs)[:, None] * len(uniq) + col).reshape(-1)
    py = np.bincount(cells, weights=np.tile(np.square(np.abs(uniform)), runs),
                     minlength=runs * len(uniq)).reshape(runs, -1)
    j = qsim.draw_weights(py, rngs)
    ys = uniq[order][j].tolist()

    fiber = col == j[:, None]
    state = np.where(fiber, uniform, 0)
    state /= qsim.row_norms(state)[:, None]
    if not family.measured:
        v, state = qsim.measure_rows(state, rngs)
        v = v.tolist()
    else:
        mass = np.square(np.abs(state))
        run = np.broadcast_to(np.arange(runs)[:, None], fiber.shape)
        sides = [np.bincount(run[at], weights=mass[at], minlength=runs)
                 for at in (fiber & (mvals == 0), fiber & (mvals == 1))]
        p1 = (sides[1] / (sides[0] + sides[1])).tolist()
        v = [int(rng.random() < p) for rng, p in zip(rngs, p1)]
        state = np.where(fiber & (mvals == np.array(v)[:, None]), state, 0)
        state /= qsim.row_norms(state)[:, None]

    aux_values = [aux(td) for td in tds] if aux is not None else [None] * runs
    answers = adversary(family, TCRChallenge(keys, images, mvals, ys, state), rngs, aux_values)
    out = []
    for i, x in enumerate(answers):
        win = (x is not None and family.domain.contains(x)
               and images[i, int(x)] == ys[i] and int(mvals[i, int(x)]) != v[i])
        out.append(TCRTranscript(y=ys[i], v=v[i], answer=x, win=bool(win), key=keys[i]))
    return out


def brute_force_tcr_adversary(family, ch: TCRChallenge, rngs, aux):
    """Outputs a uniformly random preimage of each run's y (unbounded-search
    model)."""
    fiber = ch.images == np.array(ch.ys)[:, None]
    k = [int(rng.integers(0, n)) for rng, n in zip(rngs, fiber.sum(axis=1).tolist())]
    # the k-th value of the fiber: the first at which its count passes k
    return (np.cumsum(fiber, axis=1) > np.array(k)[:, None]).argmax(axis=1).tolist()


def honest_tcr_adversary(family, ch: TCRChallenge, rngs, aux):
    """Measures each handed register and returns the outcome."""
    return qsim.measure_rows(ch.states, rngs)[0].tolist()


def garbage_tcr_adversary(family, ch: TCRChallenge, rngs, aux):
    """Returns, for each run, the first domain value outside y's fiber, when
    there is one."""
    outside = ch.images != np.array(ch.ys)[:, None]
    return [x if any_ else None for x, any_ in
            zip(outside.argmax(axis=1).tolist(), outside.any(axis=1).tolist())]


# The TCR game's adversaries by name.
TCR_ADVERSARIES = {"brute-force-inverter": brute_force_tcr_adversary,
                   "honest-deleter": honest_tcr_adversary,
                   "garbage-certifier": garbage_tcr_adversary}
