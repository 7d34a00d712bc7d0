"""Exact state-vector simulation of heterogeneous qudit registers.

A register layout is an ordered list of named segments, each a list of
per-slot dimensions. States are dense complex amplitude vectors indexed in
mixed radix (row-major over all slots); everything here is exact up to
float64, and every public operation renormalizes or preserves norm.

A segment's slots are contiguous, so every state is a (before, segment,
after) array without a copy (``RegisterLayout.split``, ``_view``), and every
one-segment operation is an index or a product on axis 1 of that view.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .zqcore import ENUM_GUARD

NORM_TOL = 1e-10
PROJECT_EPS = 1e-14
_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p)
_BELOW_ONE = math.nextafter(1.0, 0.0)  # the largest float below 1


class ZeroProbabilityProjection(ValueError):
    pass


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named segments; total dimension is the product of all dims.

    The layout is frozen, so ``dim``, ``all_dims`` and each segment's
    ``split`` are computed once, when it is built; equality compares the
    segments only."""

    segments: tuple[tuple[str, tuple[int, ...]], ...]
    dim: int = field(init=False, repr=False, compare=False)
    all_dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _splits: dict[str, tuple[int, int, int]] = field(init=False, repr=False, compare=False)

    def __init__(self, segments: Iterable[tuple[str, Sequence[int]]]):
        segs = tuple([(name, tuple(map(int, dims))) for name, dims in segments])
        names = [s[0] for s in segs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate segment names in {names}")
        for name, dims in segs:
            if not dims or min(dims) < 2:
                raise ValueError(f"segment {name!r} needs dims >= 2, got {dims}")
        sizes = [math.prod(dims) for _, dims in segs]
        dim = math.prod(sizes)
        if dim > ENUM_GUARD:
            raise ValueError(f"total dimension {dim} exceeds {ENUM_GUARD}")
        splits, before = {}, 1
        for name, size in zip(names, sizes):
            splits[name] = (before, size, dim // (before * size))
            before *= size
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "all_dims", tuple(d for _, dims in segs for d in dims))
        object.__setattr__(self, "_splits", splits)

    def names(self) -> list[str]:
        return [name for name, _ in self.segments]

    def seg_dims(self, name: str) -> tuple[int, ...]:
        for n, dims in self.segments:
            if n == name:
                return dims
        raise KeyError(f"no segment named {name!r}")

    def seg_dim(self, name: str) -> int:
        return self.split(name)[1]

    def split(self, name: str) -> tuple[int, int, int]:
        """(before, d, after): the dimensions of the slots before the segment,
        of the segment and of the slots after it."""
        if name not in self._splits:
            raise KeyError(f"no segment named {name!r}")
        return self._splits[name]

    def axes(self, name: str) -> list[int]:
        """Indices of this segment's slots within the full tensor shape."""
        pos = 0
        for n, dims in self.segments:
            if n == name:
                return list(range(pos, pos + len(dims)))
            pos += len(dims)
        raise KeyError(f"no segment named {name!r}")

    def seg_values(self, name: str) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.seg_dims(name)))


def _as_tuple(value) -> tuple[int, ...]:
    if isinstance(value, (int, np.integer)):
        return (int(value),)
    return tuple(int(v) for v in value)


@dataclass
class QState:
    """Normalized pure state over a RegisterLayout."""

    layout: RegisterLayout
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if a.size != self.layout.dim:
            raise ValueError(f"amplitude length {a.size} != layout dim {self.layout.dim}")
        self.amps = a

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "QState":
        n = self.norm()
        if n < 1e-300:
            raise ValueError("cannot normalize the zero vector")
        return QState(self.layout, self.amps / n)

    def tensor_view(self) -> np.ndarray:
        return self.amps.reshape(self.layout.all_dims)

    def copy(self) -> "QState":
        return QState(self.layout, self.amps.copy())


@dataclass
class MeasureOutcome:
    """A measured value, its probability and the collapsed post-state.

    The post-state may be passed as a function of no arguments; it is then
    called on the first read of ``post_state`` only, so a caller that keeps
    just the value never builds a state-sized copy.
    """

    value: tuple[int, ...]
    probability: float
    _post_state: QState | Callable[[], QState] = field(repr=False, compare=False)

    @property
    def post_state(self) -> QState:
        if not isinstance(self._post_state, QState):
            self._post_state = self._post_state()
        return self._post_state


def _view(state: QState, segment: str) -> np.ndarray:
    """The amplitudes as a (before, segment, after) array; no copy."""
    return state.amps.reshape(state.layout.split(segment))


def _rows(state: QState, segment: str) -> np.ndarray:
    """The amplitudes as (rest, segment) rows, the rest in register order.

    A sum or a matmul over these rows adds in row order wherever the segment
    sits; a sum of the view over axes (0, 2) can add in another order and
    change the last bit."""
    v = _view(state, segment)
    return v.swapaxes(1, 2).reshape(-1, v.shape[1])


def apply_classical(state: QState, f: Callable, src: str, dst: str) -> QState:
    """|x>|t> -> |x>|t + f(x) mod dims>, a basis permutation.

    ``f`` maps a src value tuple to a dst value tuple (ints allowed for
    single-slot segments).
    """
    layout = state.layout
    if src == dst:
        raise ValueError(f"src and dst are both {src!r}")
    dst_dims = layout.seg_dims(dst)
    shifts = []
    for sval in layout.seg_values(src):
        shift = _as_tuple(f(sval if len(sval) > 1 else sval[0]))
        if len(shift) != len(dst_dims):
            raise ValueError(f"f output length {len(shift)} != dst slots {len(dst_dims)}")
        shifts.append(shift)
    # new |t'> receives the old amplitude at t' - f(x): gather[x, t']
    dst_vals = np.array(list(layout.seg_values(dst)), dtype=np.int64)
    pre = (dst_vals[None] - np.array(shifts, dtype=np.int64)[:, None]) % np.array(dst_dims)
    gather = np.ravel_multi_index(tuple(np.moveaxis(pre, 2, 0)), dst_dims)
    # one axis per segment; the gather index spans the src and dst axes
    names = layout.names()
    t = state.amps.reshape([layout.seg_dim(name) for name in names])
    s, d = names.index(src), names.index(dst)
    shape = [1] * t.ndim
    shape[s], shape[d] = gather.shape
    index = (gather if s < d else gather.T).reshape(shape)
    return QState(layout, np.take_along_axis(t, index, axis=d).reshape(-1))


def marginal_probs(state: QState, segment: str) -> np.ndarray:
    probs = np.abs(_rows(state, segment))
    np.square(probs, out=probs)
    return probs[0] if len(probs) == 1 else probs.sum(axis=0)


def measure(state: QState, segment: str, rng: np.random.Generator) -> MeasureOutcome:
    """Born-rule measurement of one segment in the computational basis.

    The collapsed state is built on the first read of the outcome's
    ``post_state``. Raises ValueError when the state's norm is off by more
    than NORM_TOL.
    """
    probs = marginal_probs(state, segment)[None]
    k = int(_born_draw(probs, [rng])[0])
    prob = float(probs[0, k])
    value = tuple(int(v) for v in np.unravel_index(k, state.layout.seg_dims(segment)))
    return MeasureOutcome(value, prob, lambda: _collapse(state, segment, k, prob).post_state)


def measure_rows(amps: np.ndarray, rngs: Sequence[np.random.Generator]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Measure every row of ``amps``, a (rows, dim) stack of registers, whole
    in the computational basis, row i drawing one uniform number from
    rngs[i] (a generator may serve several rows; it draws for them in row
    order).

    Returns the index that ``measure`` draws on each row and the collapsed
    rows, as its post_state: the drawn amplitude over its modulus, at its
    index. Every row's norm is checked before the first draw.
    """
    k = _born_draw(np.square(np.abs(amps)), rngs)
    at = np.arange(len(k)), k
    post = np.zeros_like(amps)
    post[at] = amps[at]
    post[at] /= row_norms(post)
    return k, post


def _born_draw(probs: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """``measure``'s draw on each row of the Born weights ``probs`` (rows,
    outcomes), row i from rngs[i]: every row's total is checked against
    NORM_TOL before the first draw, then each row is divided by it, in
    place, and ``_search`` picks by its uniform number."""
    total = probs.sum(axis=1)
    _check_norm(total)
    probs /= total[:, None]
    return _search(probs.cumsum(axis=1), [rng.random() for rng in rngs])


def row_norms(amps: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a 2-d complex array, bit for bit:
    the same BLAS dot of its real parts plus that of its imaginary parts,
    one stacked product per part."""
    re, im = amps.real, amps.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def measure_register(states: Sequence[QState], rng: np.random.Generator,
                     u: np.ndarray | None = None) -> np.ndarray:
    """Measure every slot of a stack of one-segment registers, all on one
    layout, in the basis of ``u``'s rows (the computational basis without
    ``u``), one slot at a time. Returns one row of slot values per register.

    Row i is the value that measure(<u on every slot>(states[i])) draws
    (in exact arithmetic; rounding can differ only where the uniform
    number lies within rounding of an interval's edge), with the registers
    drawing in order from the one generator, which is left in the state
    those measurements leave it in: one uniform number per register.

    Each slot's outcome weights are the row norms of the remaining
    amplitudes as a (d, rest) matrix m per register, taken in the basis
    first: t = u @ m (t = m without u). The drawn row t[k] is what the next
    slot measures. That is O(N d) for the first slot with u and O(N) after
    it, with no transform of the whole register, conjugate copy or
    cumulative sum over it. Every register's norm is checked before the
    first draw: ValueError when one is off by more than NORM_TOL. The
    uniform numbers then go through ``_draw``'s nested inverse CDF.
    """
    layout = states[0].layout
    if len(layout.segments) != 1:
        raise ValueError(f"measure_register needs one segment, got {layout.names()}")
    if any(s.layout != layout for s in states[1:]):
        raise ValueError("measure_register needs registers on one layout")
    dims = layout.all_dims
    if u is not None and any(u.shape != (d, d) for d in dims):
        raise ValueError(f"a {u.shape} basis does not fit slots {dims}")
    # one register is read in place; a stack is one copy
    rest = np.ascontiguousarray(states[0].amps)[None] if len(states) == 1 else \
        np.stack([s.amps for s in states])
    r, values = None, []
    for d in dims:
        t = rest.reshape(len(rest), d, -1)
        if u is not None:
            t = u @ t
        v = t.reshape(-1, t.shape[-1]).view(np.float64)  # a row per (register, value)
        weights = np.einsum("ij,ij->i", v, v).reshape(len(t), d)
        if r is None:
            _check_norm(weights.sum(axis=1))
            r = rng.random(len(rest)).tolist()  # as many scalar draws, in order
        k, r = _draw(weights, r)
        values.append(k)
        # a view where every register drew the same row (one register always does)
        rest = t[:, k[0]] if len(set(k)) == 1 else t[np.arange(len(t)), k]
    return np.array(values, dtype=np.int64).T


def draw_rows(p, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One index per row of ``p``, each drawn with its row's probabilities
    from its own generator: row i gives the index that
    rngs[i].choice(p.shape[1], p=p[i]) returns, and leaves rngs[i] in the
    same state.

    Every row gets choice's checks before any generator draws, and
    ValueError is raised where choice raises: p must be 2-d with one
    nonempty row per generator, hold no NaN and no negative entry, and each
    row must sum to 1 within sqrt(eps) (a float16 or float32 p within its
    own sqrt(eps)). Then each row's uniform number picks its index by
    ``_search``, choice's own rule.
    """
    cdf = _checked_cdf(p, len(rngs))
    return _search(cdf, np.array([rng.random() for rng in rngs]))


def draw_weights(p: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """For each row of the nonnegative weights ``p``, the index of one of
    its nonzero entries, drawn in proportion to them from the row's
    generator. A row is divided by the sum of its nonzero entries, added as
    a 1-d sum over them adds (one pass per count of nonzero entries), so a
    row padded with zeros draws what its nonzero entries draw alone."""
    nonzero = p != 0
    count = nonzero.sum(axis=1)
    total = np.zeros(len(p))
    for n in set(count.tolist()):
        rows = count == n
        total[rows] = p[rows][nonzero[rows]].reshape(-1, n).sum(axis=1)
    return draw_rows(p / total[:, None], rngs)


def draw_index(p, rng: np.random.Generator) -> int:
    """One index drawn with probabilities ``p``: the index that
    rng.choice(len(p), p=p) returns, leaving the generator in the same
    state. It is ``draw_rows``' one-row case; p must be 1-d."""
    if np.ndim(p) != 1:
        raise ValueError(f"probabilities must be a 1-d array, got shape {np.shape(p)}")
    cdf = _checked_cdf(p[None] if isinstance(p, np.ndarray) else [p], 1)
    return int(_search(cdf, rng.random())[0])


def _checked_cdf(p, rows: int) -> np.ndarray:
    """The cumulative sums of ``p``'s rows, after choice's checks on every
    row (see draw_rows)."""
    tol = _SUM_TOL
    if isinstance(p, np.ndarray) and p.dtype.kind == "f" and p.dtype.itemsize < 8:
        tol = max(tol, math.sqrt(np.finfo(p.dtype).eps))
    p = np.asarray(p).astype(np.float64, casting="safe", copy=False)
    if p.ndim != 2 or not p.shape[1] or len(p) != rows:
        raise ValueError(f"probabilities must be {rows} nonempty rows, got shape {p.shape}")
    cdf = np.add.accumulate(p, axis=1)  # cumsum, with less call overhead
    total = cdf[:, -1]
    low = p.min(initial=0.0)
    if not (low >= 0 and all(abs(t - 1.0) <= tol for t in total.tolist())):  # NaN fails both
        if np.isnan(total).any():
            raise ValueError("probabilities contain NaN")
        if low < 0:
            raise ValueError("probabilities are not non-negative")
        off = ~(np.abs(total - 1.0) <= tol)
        raise ValueError(f"probabilities sum to {float(total[off][0])!r}, not 1")
    return cdf


def _check_norm(total) -> None:
    """ValueError unless every squared norm in ``total`` (one or an array
    of them, perhaps none) lies within NORM_TOL of 1; a NaN one fails."""
    for t in np.ravel(total).tolist():
        if not abs(t - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"cannot measure a state of squared norm {t!r}")


def _draw(weights: np.ndarray, r: Sequence[float]) -> tuple[list[int], list[float]]:
    """For each row of ``weights``, the index that its uniform number r
    picks by ``_search``, and where r falls in that index's interval,
    rescaled to [0, 1].

    Passing that second number to a draw over the chosen index's sub-weights
    picks, in exact arithmetic, the index that one flat inverse CDF over
    all the levels picks. Tiny negative weights count as 0, and the index
    always has nonzero weight: when rounding puts r past the last interval,
    it is the last entry of nonzero weight.
    """
    cdf = np.add.accumulate(np.maximum(weights, 0.0), axis=1)
    # r at or past 1 picks what the largest float below 1 picks: the first
    # entry at 1, the last of nonzero weight
    k = _search(cdf, [min(x, _BELOW_ONE) for x in r]).tolist()  # each row of cdf is now normalised
    # the rows' intervals in Python floats: the same IEEE arithmetic as
    # numpy scalars, without numpy's per-call cost
    rest = []
    for row, ki, ri in zip(cdf.tolist(), k, r):
        low = row[ki - 1] if ki else 0.0
        rest.append((ri - low) / (row[ki] - low))
    return k, rest


def _search(cdf: np.ndarray, r):
    """The one draw rule, rng.choice's: divide the cumulative sums ``cdf``
    (in place, along the last axis) by their last entry and return the first
    index whose entry exceeds the uniform number r < 1 (the last entry, now
    1, always does), which for ascending entries is choice's count of the
    entries at most r. A 2-d cdf takes one r per row (or one r for all rows)
    and gives one index per row."""
    cdf /= cdf[..., -1:]
    return (cdf <= np.asarray(r)[..., None]).argmin(axis=-1)


def _collapse(state: QState, segment: str, k: int, prob: float) -> MeasureOutcome:
    """Keep the slice where ``segment`` holds its k-th value, renormalised."""
    value = tuple(int(v) for v in np.unravel_index(k, state.layout.seg_dims(segment)))
    v = _view(state, segment)
    out = np.zeros_like(v)
    out[:, k] = v[:, k]
    # the rest is zeros, and 0 / x is 0.0: divide only the kept slice
    out[:, k] /= np.linalg.norm(out.reshape(-1))
    return MeasureOutcome(value, prob, QState(state.layout, out.reshape(-1)))


@functools.lru_cache(maxsize=64)
def _dft_matrix(q: int) -> np.ndarray:
    """The unitary q x q DFT, built once per q and shared, so read-only."""
    idx = np.arange(q)
    dft = np.exp(2j * np.pi * np.outer(idx, idx) / q) / math.sqrt(q)
    dft.flags.writeable = False
    return dft


def _apply_along_axes(state: QState, segment: str, u: np.ndarray) -> QState:
    """Apply the d x d matrix ``u`` to every slot of ``segment``: one matmul
    per slot on the (prefix, d, suffix) view, so nothing is transposed."""
    dims = state.layout.all_dims
    t = state.amps
    for ax in state.layout.axes(segment):
        t3 = t.reshape(math.prod(dims[:ax]), dims[ax], -1)
        t = u @ t3 if t3.shape[2] > 1 else t3[:, :, 0] @ u.T
    return QState(state.layout, t.reshape(-1))


def qft(state: QState, segment: str) -> QState:
    """m-qudit q-ary Fourier transform |x> -> q^{-m/2} sum_y w^{<x,y>} |y>."""
    dims = state.layout.seg_dims(segment)
    if len(set(dims)) != 1:
        raise ValueError(f"qft needs uniform slot dimensions, got {dims}")
    return _apply_along_axes(state, segment, _dft_matrix(dims[0]))


def qft_inverse(state: QState, segment: str) -> QState:
    dims = state.layout.seg_dims(segment)
    if len(set(dims)) != 1:
        raise ValueError(f"qft needs uniform slot dimensions, got {dims}")
    return _apply_along_axes(state, segment, _dft_matrix(dims[0]).conj().T)


def phase_oracle(state: QState, segment: str, v: Sequence[int]) -> QState:
    """|x> -> w_d^{<x,v>} |x> with d the common slot dimension.

    d = 2 reproduces the Pauli-Z string Z^v.
    """
    dims = state.layout.seg_dims(segment)
    if len(set(dims)) != 1:
        raise ValueError(f"phase_oracle needs uniform slot dimensions, got {dims}")
    d = dims[0]
    v = _as_tuple(v)
    if len(v) != len(dims):
        raise ValueError(f"phase vector length {len(v)} != slot count {len(dims)}")
    t = state.tensor_view().copy()
    axes = state.layout.axes(segment)
    w = np.exp(2j * np.pi / d)
    for ax, vi in zip(axes, v):
        if vi % d == 0:
            continue
        ph = w ** ((np.arange(d) * vi) % d)
        shape = [1] * t.ndim
        shape[ax] = d
        t *= ph.reshape(shape)
    return QState(state.layout, t.reshape(-1))


def project_prob(state: QState, segment: str, target: QState | np.ndarray) -> float:
    """Success probability of projecting one segment onto |target><target|
    (may be 0)."""
    return _overlaps(state, segment, target)[2]


def _overlaps(state: QState, segment: str, target: QState | np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """(normalised target, <target|psi> per rest index, success probability)."""
    seg_dim = state.layout.seg_dim(segment)
    tv = target.amps if isinstance(target, QState) else np.asarray(target, dtype=np.complex128)
    tv = tv.reshape(-1)
    if tv.size != seg_dim:
        raise ValueError(f"target dim {tv.size} != segment dim {seg_dim}")
    tv = tv / np.linalg.norm(tv)
    ov = _rows(state, segment) @ tv.conj()
    return tv, ov, float(np.sum(np.abs(ov) ** 2))


# ---------------------------------------------------------------------------
# Density operators
# ---------------------------------------------------------------------------

@dataclass
class DensityOp:
    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValueError(f"density matrix shape {m.shape} != ({d},{d})")
        self.matrix = m

    @classmethod
    def from_state(cls, state: QState) -> "DensityOp":
        return cls(state.layout, np.outer(state.amps, state.amps.conj()))

    @classmethod
    def mixture(cls, pairs: Iterable[tuple[float, QState]]) -> "DensityOp":
        pairs = list(pairs)
        layout = pairs[0][1].layout
        m = sum(p * np.outer(s.amps, s.amps.conj()) for p, s in pairs)
        return cls(layout, m)


def pauli_twirl_channel(rho: DensityOp, segment: str) -> DensityOp:
    """Exact average of Z^z rho Z^z over all z in {0,1}^m on a qubit segment."""
    dims = rho.layout.seg_dims(segment)
    if any(d != 2 for d in dims):
        raise ValueError(f"pauli twirl needs qubit slots, got {dims}")
    # the average of (-1)^{<z, x xor x'>} over z is 1 if x = x', else 0
    _, seg_dim, after = rho.layout.split(segment)
    x = np.arange(rho.layout.dim) // after % seg_dim
    return DensityOp(rho.layout, np.where(x[:, None] == x[None, :], rho.matrix, 0))


def trace_distance(a: DensityOp | QState, b: DensityOp | QState) -> float:
    """TD(rho, sigma) = (1/2) sum |eig(rho - sigma)|."""
    if isinstance(a, QState) and isinstance(b, QState):
        ov = abs(np.vdot(a.amps, b.amps)) ** 2
        return math.sqrt(max(0.0, 1.0 - min(1.0, ov)))
    ra = a if isinstance(a, DensityOp) else DensityOp.from_state(a)
    rb = b if isinstance(b, DensityOp) else DensityOp.from_state(b)
    if ra.layout.all_dims != rb.layout.all_dims:
        raise ValueError("layout mismatch in trace_distance")
    return 0.5 * trace_norm(ra.matrix - rb.matrix)


def trace_norm(m: np.ndarray) -> float:
    if np.max(np.abs(m)) == 0:
        return 0.0
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) < 1e-15:
        return float(np.sum(np.abs(np.diag(m).real)))
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


# ---------------------------------------------------------------------------
# Classical-quantum ensembles (exact challenger views)
# ---------------------------------------------------------------------------

BRANCH = np.dtype([("p", np.float64), ("label", np.int64), ("state", np.int64)])


@dataclass
class Ensemble:
    """Mixture of (probability, classical label, optional pure state), one
    ``BRANCH`` row per branch: its weight ``p``, an int64 ``label`` code
    (equal codes are one classical label) and the row of the (S, F)
    ``states`` table that holds its state (-1 for none). Two ensembles that
    are compared share one table.

    Classical labels are perfectly distinguishable, so the trace distance
    between two ensembles decomposes per label.
    """

    branches: np.ndarray
    states: np.ndarray

    @classmethod
    def from_columns(cls, p, label, state, states: np.ndarray) -> "Ensemble":
        """The ensemble whose branches are the broadcast 1-d columns p, label, state."""
        branches = np.empty(np.broadcast(p, label, state).size, BRANCH)
        branches["p"], branches["label"], branches["state"] = p, label, state
        return cls(branches, states)


def ensemble_trace_distance(a: Ensemble, b: Ensemble) -> float:
    """Exact TD between two classical-quantum ensembles on one state table.

    Each (label, state) pair's a-side minus b-side weight w (each side
    summed on its own, so equal sides give exactly 0) leaves, per label, the
    operator sum_v w_v |v><v| plus |w| for no state. A label with one
    surviving state adds |w| ||v||^2; one with k >= 2 the trace norm of its
    k x k image R diag(w) R^dagger, where V = QR stacks its states, batched
    over the labels with the same k."""
    if a.states is not b.states:
        raise ValueError("the two ensembles must share one state table")
    br, n, s = np.concatenate([a.branches, b.branches]), len(a.branches), len(a.states) + 1
    codes, label = np.unique(br["label"], return_inverse=True)
    pairs, at = np.unique(label * s + br["state"] + 1, return_inverse=True)
    w = np.bincount(at[:n], a.branches["p"], len(pairs)) \
        - np.bincount(at[n:], b.branches["p"], len(pairs))
    label, state = np.divmod(pairs[w != 0], s)
    w, state = w[w != 0], state - 1
    norm = np.zeros(len(codes))  # each label's trace norm
    norm[label[state < 0]] = np.abs(w[state < 0])
    w, label, state = w[state >= 0], label[state >= 0], state[state >= 0]
    # pairs are sorted by label: each label's surviving states are one run
    _, start, k = np.unique(label, return_index=True, return_counts=True)
    for kk in set(k.tolist()):  # not np.unique(k): its first call imports numpy.ma
        first = start[k == kk]
        if kk == 1:
            v = a.states[state[first]]
            norm[label[first]] += np.abs(w[first]) * np.einsum("sf,sf->s", v.conj(), v).real
            continue
        idx = first[:, None] + np.arange(kk)
        r = np.linalg.qr(a.states[state[idx]].swapaxes(1, 2), mode="r")
        g = (r * w[idx][:, None, :]) @ r.conj().swapaxes(1, 2)
        norm[label[first]] += np.abs(np.linalg.eigvalsh(g)).sum(axis=1)
    # added left to right in label order, as a loop over the labels adds them
    return 0.5 * float(np.cumsum(norm)[-1]) if norm.size else 0.0
