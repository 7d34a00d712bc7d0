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

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .zqcore import ENUM_GUARD

NORM_TOL = 1e-10
PROJECT_EPS = 1e-14


class ZeroProbabilityProjection(ValueError):
    pass


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named segments; total dimension is the product of all dims."""

    segments: tuple[tuple[str, tuple[int, ...]], ...]

    def __init__(self, segments: Iterable[tuple[str, Sequence[int]]]):
        segs = tuple((name, tuple(int(d) for d in dims)) for name, dims in segments)
        names = [s[0] for s in segs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate segment names in {names}")
        for name, dims in segs:
            if not dims or any(d < 2 for d in dims):
                raise ValueError(f"segment {name!r} needs dims >= 2, got {dims}")
        object.__setattr__(self, "segments", segs)
        if self.dim > ENUM_GUARD:
            raise ValueError(f"total dimension {self.dim} exceeds {ENUM_GUARD}")

    @property
    def dim(self) -> int:
        return math.prod(d for _, dims in self.segments for d in dims)

    @property
    def all_dims(self) -> tuple[int, ...]:
        return tuple(d for _, dims in self.segments for d in dims)

    def names(self) -> list[str]:
        return [name for name, _ in self.segments]

    def seg_dims(self, name: str) -> tuple[int, ...]:
        for n, dims in self.segments:
            if n == name:
                return dims
        raise KeyError(f"no segment named {name!r}")

    def seg_dim(self, name: str) -> int:
        return math.prod(self.seg_dims(name))

    def split(self, name: str) -> tuple[int, int, int]:
        """(before, d, after): the dimensions of the slots before the segment,
        of the segment and of the slots after it."""
        names = self.names()
        if name not in names:
            raise KeyError(f"no segment named {name!r}")
        sizes = [math.prod(dims) for _, dims in self.segments]
        i = names.index(name)
        return math.prod(sizes[:i]), sizes[i], math.prod(sizes[i + 1:])

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

    def value_index(self, name: str, value: Sequence[int]) -> int:
        dims = self.seg_dims(name)
        if len(value) != len(dims):
            raise ValueError(f"value {value} does not fit dims {dims}")
        idx = 0
        for v, d in zip(value, dims):
            if not 0 <= v < d:
                raise ValueError(f"digit {v} out of range for dims {dims}")
            idx = idx * d + v
        return idx


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

    def dump(self, eps: float = 1e-12) -> str:
        """Debug dump: lines "index-tuple  re  im" for |amp| > eps, index order."""
        lines = []
        for flat in np.nonzero(np.abs(self.amps) > eps)[0]:
            tup = ",".join(str(i) for i in np.unravel_index(flat, self.layout.all_dims))
            a = self.amps[flat]
            lines.append(f"{tup}  {a.real:+.12e}  {a.imag:+.12e}")
        return "\n".join(lines) + ("\n" if lines else "")


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


def basis_state(layout: RegisterLayout, assignment: dict[str, Sequence[int]] | None = None) -> QState:
    """Computational basis state; unassigned segments sit at |0>."""
    assignment = assignment or {}
    digits = [v for name, dims in layout.segments
              for v in _as_tuple(assignment.get(name, (0,) * len(dims)))]
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[np.ravel_multi_index(digits, layout.all_dims, mode="wrap")] = 1.0
    return QState(layout, amps)


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


def prepare_weighted(layout: RegisterLayout, segment: str, weights) -> QState:
    """State with amplitude(x) proportional to weights[x] on one segment.

    ``weights`` is a mapping from segment value to nonnegative weight, or an
    array over the segment in mixed-radix order. Other segments start at |0>.
    """
    seg_dim = layout.seg_dim(segment)
    w = np.zeros(seg_dim, dtype=np.complex128)
    if isinstance(weights, dict):
        for val, wt in weights.items():
            w[layout.value_index(segment, _as_tuple(val))] = wt
    else:
        arr = np.asarray(weights, dtype=np.complex128).reshape(-1)
        if arr.size != seg_dim:
            raise ValueError(f"weight table size {arr.size} != segment dim {seg_dim}")
        w = arr
    if np.any(w.real < -1e-15) or np.any(np.abs(w.imag) > 1e-15):
        raise ValueError("weights must be nonnegative reals")
    n = np.linalg.norm(w)
    if n == 0:
        raise ValueError("all-zero weight table")
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps.reshape(layout.split(segment))[0, :, 0] = w / n
    return QState(layout, amps)


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


def apply_phase_fn(state: QState, segment: str, phase: Callable | np.ndarray) -> QState:
    """|x> -> phase(x)|x> on one segment; phase values must be unit modulus.

    ``phase`` is a function of the segment value or the vector of phases
    over the segment's values in mixed-radix order.
    """
    seg_dim = state.layout.seg_dim(segment)
    if callable(phase):
        phase = [phase(v if len(v) > 1 else v[0]) for v in state.layout.seg_values(segment)]
    ph = np.asarray(phase, dtype=np.complex128)
    if ph.shape != (seg_dim,):
        raise ValueError(f"phase vector shape {ph.shape} != ({seg_dim},)")
    if np.any(np.abs(np.abs(ph) - 1.0) > 1e-9):
        raise ValueError("phase function must return unit-modulus values")
    return QState(state.layout, (_view(state, segment) * ph[:, None]).reshape(-1))


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
    probs = marginal_probs(state, segment)
    total = probs.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"cannot measure a state of squared norm {total!r}")
    probs /= total
    k = int(rng.choice(len(probs), p=probs))
    prob = float(probs[k])
    value = tuple(int(v) for v in np.unravel_index(k, state.layout.seg_dims(segment)))
    return MeasureOutcome(value, prob, lambda: _collapse(state, segment, k, prob).post_state)


def _collapse(state: QState, segment: str, k: int, prob: float) -> MeasureOutcome:
    """Keep the slice where ``segment`` holds its k-th value, renormalised."""
    value = tuple(int(v) for v in np.unravel_index(k, state.layout.seg_dims(segment)))
    v = _view(state, segment)
    out = np.zeros_like(v)
    out[:, k] = v[:, k]
    # the rest is zeros, and 0 / x is 0.0: divide only the kept slice
    out[:, k] /= np.linalg.norm(out.reshape(-1))
    return MeasureOutcome(value, prob, QState(state.layout, out.reshape(-1)))


def drop_segment(state: QState, segment: str, value) -> QState:
    """Remove a segment that was just measured, keeping the slice at value."""
    dims = state.layout.seg_dims(segment)
    k = state.layout.value_index(segment, [v % d for v, d in zip(_as_tuple(value), dims)])
    rest = RegisterLayout([(n, d) for n, d in state.layout.segments if n != segment])
    out = QState(rest, _view(state, segment)[:, k].reshape(-1))
    nrm = out.norm()
    if nrm < 1e-12:
        raise ZeroProbabilityProjection(f"segment {segment} is not {value} with any amplitude")
    return QState(rest, out.amps / nrm)


def _dft_matrix(q: int) -> np.ndarray:
    idx = np.arange(q)
    return np.exp(2j * np.pi * np.outer(idx, idx) / q) / math.sqrt(q)


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


def _on_control_one(state: QState, control: str, op: Callable[[QState], QState]) -> QState:
    """Apply ``op`` to the slice of the state where the qubit ``control`` is |1>."""
    cdims = state.layout.seg_dims(control)
    if cdims != (2,):
        raise ValueError(f"control segment must be a single qubit, got {cdims}")
    out = state.copy()
    one = _view(out, control)[:, 1]
    rest = RegisterLayout([(n, d) for n, d in state.layout.segments if n != control])
    one[...] = op(QState(rest, one.reshape(-1))).amps.reshape(one.shape)
    return out


def controlled_phase_oracle(state: QState, control: str, segment: str, v: Sequence[int]) -> QState:
    """CZ^v: applies the phase oracle on ``segment`` only where control is |1>."""
    return _on_control_one(state, control, lambda branch: phase_oracle(branch, segment, v))


def controlled_phase_fn(state: QState, control: str, segment: str,
                        phase: Callable | np.ndarray) -> QState:
    """Apply |x> -> phase(x)|x> on ``segment`` only where control is |1>.

    Equivalent to coherently computing a classical function of the segment
    into an ancilla, phasing the ancilla controlled on ``control``, and
    uncomputing.
    """
    return _on_control_one(state, control, lambda branch: apply_phase_fn(branch, segment, phase))


def project(state: QState, segment: str, target: QState | np.ndarray) -> tuple[float, QState]:
    """Project onto |target><target| on one segment.

    Returns (success probability, renormalized post-state); raises
    ZeroProbabilityProjection below 1e-14.
    """
    tv, ov, prob = _overlaps(state, segment, target)
    if prob < PROJECT_EPS:
        raise ZeroProbabilityProjection(f"projection probability {prob} < {PROJECT_EPS}")
    before, _, after = state.layout.split(segment)
    out = ov.reshape(before, after)[:, None, :] * tv[:, None] / math.sqrt(prob)
    return prob, QState(state.layout, out.reshape(-1))


def project_prob(state: QState, segment: str, target: QState | np.ndarray) -> float:
    """Success probability of ``project`` without the post-state (may be 0)."""
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

    def check(self, tol: float = 1e-9):
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1) > tol:
            raise ValueError(f"trace is {np.trace(m)}, expected 1")
        if np.min(np.linalg.eigvalsh(m)) < -1e-9:
            raise ValueError("density matrix has a significantly negative eigenvalue")


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


def partial_trace(rho: DensityOp, keep: Sequence[str]) -> DensityOp:
    """Trace out every segment not named in ``keep``."""
    layout = rho.layout
    dims = layout.all_dims
    keep_axes = [ax for name in layout.names() if name in keep for ax in layout.axes(name)]
    drop_axes = [i for i in range(len(dims)) if i not in keep_axes]
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    for ax in sorted(drop_axes, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + n)
        n -= 1
    d = math.prod(dims[i] for i in keep_axes)
    new_layout = RegisterLayout([(name, layout.seg_dims(name)) for name in layout.names() if name in keep])
    return DensityOp(new_layout, t.reshape(d, d))


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
    for kk in np.unique(k):
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
