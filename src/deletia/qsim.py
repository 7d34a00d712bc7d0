"""Exact state-vector simulation of heterogeneous qudit registers.

A register layout is an ordered list of named segments, each a list of
per-slot dimensions. States are dense complex amplitude vectors indexed in
mixed radix (row-major over all slots); everything here is exact up to
float64, and every public operation renormalizes or preserves norm.
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
        dims = self.layout.all_dims
        lines = []
        for flat in np.nonzero(np.abs(self.amps) > eps)[0]:
            idx, rem = [], int(flat)
            for d in reversed(dims):
                idx.append(rem % d)
                rem //= d
            tup = ",".join(str(i) for i in reversed(idx))
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
    flat = 0
    for name, dims in layout.segments:
        val = _as_tuple(assignment.get(name, (0,) * len(dims)))
        for v, d in zip(val, dims):
            flat = flat * d + (v % d)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[flat] = 1.0
    return QState(layout, amps)


def _move_segment_last(state: QState, segment: str) -> tuple[np.ndarray, int]:
    """Tensor reshaped to (rest, seg_dim), plus seg_dim."""
    axes = state.layout.axes(segment)
    t = state.tensor_view()
    rest_axes = [i for i in range(t.ndim) if i not in axes]
    t = np.transpose(t, rest_axes + axes)
    seg_dim = state.layout.seg_dim(segment)
    return t.reshape(-1, seg_dim), seg_dim


def _restore_from_last(mat: np.ndarray, layout: RegisterLayout, segment: str) -> np.ndarray:
    axes = layout.axes(segment)
    dims = layout.all_dims
    rest_axes = [i for i in range(len(dims)) if i not in axes]
    shape = [dims[i] for i in rest_axes] + [dims[i] for i in axes]
    t = mat.reshape(shape)
    inv = np.argsort(rest_axes + axes)
    return np.transpose(t, inv).reshape(-1)


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
    if len(layout.segments) == 1:
        return QState(layout, w / n)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for i, val in enumerate(layout.seg_values(segment)):
        flat = 0
        for name, dims in layout.segments:
            v = val if name == segment else (0,) * len(dims)
            for c, d in zip(v, dims):
                flat = flat * d + (c % d)
        amps[flat] = w[i] / n
    return QState(layout, amps)


def apply_classical(state: QState, f: Callable, src: str, dst: str) -> QState:
    """|x>|t> -> |x>|t + f(x) mod dims>, a basis permutation.

    ``f`` maps a src value tuple to a dst value tuple (ints allowed for
    single-slot segments).
    """
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
        shift = np.asarray(_as_tuple(f(sval if len(sval) > 1 else sval[0])), dtype=np.int64)
        if shift.size != len(dst_dims):
            raise ValueError(f"f output length {shift.size} != dst slots {len(dst_dims)}")
        # new|t'> receives old amplitude at t' - f(x)
        pre = (dst_vals - shift[None, :]) % np.asarray(dst_dims, dtype=np.int64)
        gather[sidx, :] = pre @ radix
    out = np.take_along_axis(t2, gather[None, :, :], axis=2)
    shape = [t.shape[i] for i in rest_axes] + [t.shape[i] for i in axes]
    out = out.reshape(shape)
    inv = np.argsort(rest_axes + axes)
    return QState(layout, np.transpose(out, inv).reshape(-1))


def apply_phase_fn(state: QState, segment: str, phase: Callable | np.ndarray) -> QState:
    """|x> -> phase(x)|x> on one segment; phase values must be unit modulus.

    ``phase`` is a function of the segment value or the vector of phases
    over the segment's values in mixed-radix order.
    """
    mat, seg_dim = _move_segment_last(state, segment)
    if callable(phase):
        phase = [phase(v if len(v) > 1 else v[0]) for v in state.layout.seg_values(segment)]
    ph = np.asarray(phase, dtype=np.complex128)
    if ph.shape != (seg_dim,):
        raise ValueError(f"phase vector shape {ph.shape} != ({seg_dim},)")
    if np.any(np.abs(np.abs(ph) - 1.0) > 1e-9):
        raise ValueError("phase function must return unit-modulus values")
    out = mat * ph[None, :]
    return QState(state.layout, _restore_from_last(out, state.layout, segment))


def marginal_probs(state: QState, segment: str) -> np.ndarray:
    mat, _ = _move_segment_last(state, segment)
    probs = np.abs(mat)
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
    t = state.tensor_view()
    sl = [slice(None)] * t.ndim
    for ax, v in zip(state.layout.axes(segment), value):
        sl[ax] = v
    out = np.zeros_like(t)
    out[tuple(sl)] = t[tuple(sl)]
    # the rest is zeros, and 0 / x is 0.0: divide only the kept slice
    out[tuple(sl)] /= np.linalg.norm(out.reshape(-1))
    return MeasureOutcome(value, prob, QState(state.layout, out.reshape(-1)))


def drop_segment(state: QState, segment: str, value) -> QState:
    """Remove a segment that was just measured, keeping the slice at value."""
    axes = state.layout.axes(segment)
    dims = state.layout.seg_dims(segment)
    val = _as_tuple(value)
    t = state.tensor_view()
    sl = [slice(None)] * t.ndim
    for ax, v, d in zip(axes, val, dims):
        sl[ax] = v % d
    rest = RegisterLayout([(n, d) for n, d in state.layout.segments if n != segment])
    out = QState(rest, t[tuple(sl)].reshape(-1))
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
    cax = state.layout.axes(control)[0]
    t = state.tensor_view().copy()
    sl = [slice(None)] * t.ndim
    sl[cax] = 1
    branch = QState(
        RegisterLayout([(n, d) for n, d in state.layout.segments if n != control]),
        t[tuple(sl)].reshape(-1),
    )
    t[tuple(sl)] = op(branch).amps.reshape(t[tuple(sl)].shape)
    return QState(state.layout, t.reshape(-1))


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
    seg_dim = state.layout.seg_dim(segment)
    tv = target.amps if isinstance(target, QState) else np.asarray(target, dtype=np.complex128)
    tv = tv.reshape(-1)
    if tv.size != seg_dim:
        raise ValueError(f"target dim {tv.size} != segment dim {seg_dim}")
    tv = tv / np.linalg.norm(tv)
    mat, _ = _move_segment_last(state, segment)
    ov = mat @ tv.conj()  # <target|psi> per rest index
    prob = float(np.sum(np.abs(ov) ** 2))
    if prob < PROJECT_EPS:
        raise ZeroProbabilityProjection(f"projection probability {prob} < {PROJECT_EPS}")
    out = np.outer(ov, tv) / math.sqrt(prob)
    return prob, QState(state.layout, _restore_from_last(out, state.layout, segment))


def project_prob(state: QState, segment: str, target: QState | np.ndarray) -> float:
    """Success probability of ``project`` without the post-state (may be 0)."""
    seg_dim = state.layout.seg_dim(segment)
    tv = target.amps if isinstance(target, QState) else np.asarray(target, dtype=np.complex128)
    tv = tv.reshape(-1) / np.linalg.norm(tv)
    if tv.size != seg_dim:
        raise ValueError(f"target dim {tv.size} != segment dim {seg_dim}")
    mat, _ = _move_segment_last(state, segment)
    return float(np.sum(np.abs(mat @ tv.conj()) ** 2))


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
    m = len(dims)
    d = rho.layout.dim
    axes = rho.layout.axes(segment)
    all_dims = rho.layout.all_dims

    def z_diag(z: tuple[int, ...]) -> np.ndarray:
        diag = np.ones(1)
        for i, dim in enumerate(all_dims):
            if i in axes and z[axes.index(i)]:
                diag = np.kron(diag, np.array([1.0, -1.0]))
            else:
                diag = np.kron(diag, np.ones(dim))
        return diag

    acc = np.zeros((d, d), dtype=np.complex128)
    for z in itertools.product((0, 1), repeat=m):
        diag = z_diag(z)
        acc += diag[:, None] * rho.matrix * diag[None, :]
    return DensityOp(rho.layout, acc / 2**m)


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

@dataclass
class Ensemble:
    """Mixture of (probability, classical label, optional quantum state).

    Classical labels are perfectly distinguishable, so the trace distance
    between two ensembles decomposes per label.
    """

    branches: list[tuple[float, tuple, QState | DensityOp | None]]

    def total(self) -> float:
        return sum(p for p, _, _ in self.branches)

    def group(self) -> dict[tuple, list[tuple[float, QState | DensityOp | None]]]:
        out: dict[tuple, list] = {}
        for p, label, st in self.branches:
            out.setdefault(label, []).append((p, st))
        return out


def _label_density(entries: list[tuple[float, QState | DensityOp]], dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=np.complex128)
    for p, s in entries:
        if isinstance(s, DensityOp):
            m += p * s.matrix
        else:
            m += p * np.outer(s.amps, s.amps.conj())
    return m


def _pure_trace_norm(sa: list[tuple[float, QState]],
                     sb: list[tuple[float, QState]]) -> float:
    """Trace norm of sum_a p|v><v| - sum_b p|v><v| from its k x k image
    R W R^dagger, where V = QR stacks the k distinct states and W holds each
    state's a-side minus b-side weight (exactly 0 when the sides agree). One
    state left with a nonzero weight needs no QR."""
    merged: dict[bytes, list] = {}
    for side, entries in ((0, sa), (1, sb)):
        for p, s in entries:
            merged.setdefault(s.amps.tobytes(), [0.0, 0.0, s.amps])[side] += p
    pairs = [(wa - wb, v) for wa, wb, v in merged.values() if wa != wb]
    if not pairs:
        return 0.0
    if len(pairs) == 1:
        w, v = pairs[0]
        return abs(w) * float(np.vdot(v, v).real)
    _, r = np.linalg.qr(np.stack([v for _, v in pairs], axis=1))
    g = (r * np.array([w for w, _ in pairs])) @ r.conj().T
    return float(np.sum(np.abs(np.linalg.eigvalsh(g))))


def ensemble_trace_distance(a: Ensemble, b: Ensemble) -> float:
    """Exact TD between two classical-quantum ensembles, label by label in
    order of first appearance. A label whose entries are all pure states
    takes the rank-k path; one with a DensityOp the dense D x D path."""
    ga, gb = a.group(), b.group()
    td = 0.0
    for label in list(ga) + [lb for lb in gb if lb not in ga]:
        ea, eb = ga.get(label, []), gb.get(label, [])
        sa = [(p, s) for p, s in ea if s is not None]
        sb = [(p, s) for p, s in eb if s is not None]
        if not sa and not sb:
            td += 0.5 * abs(sum(p for p, _ in ea) - sum(p for p, _ in eb))
        elif any(isinstance(s, DensityOp) for _, s in sa + sb):
            dim = (sa or sb)[0][1].layout.dim
            td += 0.5 * trace_norm(_label_density(sa, dim) - _label_density(sb, dim))
        else:
            td += 0.5 * _pure_trace_norm(sa, sb)
    return td
