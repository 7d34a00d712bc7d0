"""qsim operations that the per-run reference protocols in the tests use and
``src/`` no longer needs: weighted state preparation, a projection with its
post-state, phases on one segment, controlled on a qubit, the index of a
segment value, and dropping a measured segment."""
import math

import numpy as np

from deletia import qsim


def prepare_weighted(layout: qsim.RegisterLayout, segment: str, weights: np.ndarray
                     ) -> qsim.QState:
    """State with amplitude(x) proportional to weights[x] on one segment.

    ``weights`` is an array of nonnegative weights over the segment in
    mixed-radix order. Other segments start at |0>.
    """
    seg_dim = layout.seg_dim(segment)
    w = np.asarray(weights, dtype=np.complex128).reshape(-1)
    if w.size != seg_dim:
        raise ValueError(f"weight table size {w.size} != segment dim {seg_dim}")
    if np.any(w.real < -1e-15) or np.any(np.abs(w.imag) > 1e-15):
        raise ValueError("weights must be nonnegative reals")
    n = np.linalg.norm(w)
    if n == 0:
        raise ValueError("all-zero weight table")
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps.reshape(layout.split(segment))[0, :, 0] = w / n
    return qsim.QState(layout, amps)


def project(state: qsim.QState, segment: str, target: qsim.QState | np.ndarray
            ) -> tuple[float, qsim.QState]:
    """Project onto |target><target| on one segment.

    Returns (success probability, renormalized post-state); raises
    ZeroProbabilityProjection below 1e-14.
    """
    tv, ov, prob = qsim._overlaps(state, segment, target)
    if prob < qsim.PROJECT_EPS:
        raise qsim.ZeroProbabilityProjection(
            f"projection probability {prob} < {qsim.PROJECT_EPS}")
    before, _, after = state.layout.split(segment)
    out = ov.reshape(before, after)[:, None, :] * tv[:, None] / math.sqrt(prob)
    return prob, qsim.QState(state.layout, out.reshape(-1))


def apply_phase_fn(state: qsim.QState, segment: str, phase: np.ndarray) -> qsim.QState:
    """|x> -> phase[x]|x> on one segment, ``phase`` the vector of unit-modulus
    phases over the segment's values in mixed-radix order."""
    seg_dim = state.layout.seg_dim(segment)
    ph = np.asarray(phase, dtype=np.complex128)
    if ph.shape != (seg_dim,):
        raise ValueError(f"phase vector shape {ph.shape} != ({seg_dim},)")
    if np.any(np.abs(np.abs(ph) - 1.0) > 1e-9):
        raise ValueError("phase function must return unit-modulus values")
    return qsim.QState(state.layout, (qsim._view(state, segment) * ph[:, None]).reshape(-1))


def _on_control_one(state: qsim.QState, control: str, op) -> qsim.QState:
    """Apply ``op`` to the slice of the state where the qubit ``control`` is |1>."""
    cdims = state.layout.seg_dims(control)
    if cdims != (2,):
        raise ValueError(f"control segment must be a single qubit, got {cdims}")
    out = state.copy()
    one = qsim._view(out, control)[:, 1]
    rest = qsim.RegisterLayout([(n, d) for n, d in state.layout.segments if n != control])
    one[...] = op(qsim.QState(rest, one.reshape(-1))).amps.reshape(one.shape)
    return out


def controlled_phase_fn(state: qsim.QState, control: str, segment: str,
                        phase: np.ndarray) -> qsim.QState:
    """Apply |x> -> phase[x]|x> on ``segment`` only where control is |1>."""
    return _on_control_one(state, control, lambda branch: apply_phase_fn(branch, segment, phase))


def value_index(layout: qsim.RegisterLayout, segment: str, value) -> int:
    """The index of a segment's value (its digits in mixed radix) among the
    segment's values; a wrong length or a digit out of range raises."""
    dims = layout.seg_dims(segment)
    if len(value) != len(dims):
        raise ValueError(f"value {value} does not fit dims {dims}")
    idx = 0
    for v, d in zip(value, dims):
        if not 0 <= v < d:
            raise ValueError(f"digit {v} out of range for dims {dims}")
        idx = idx * d + v
    return idx


def drop_segment(state: qsim.QState, segment: str, value) -> qsim.QState:
    """Remove a segment that was just measured, keeping the slice at value."""
    dims = state.layout.seg_dims(segment)
    k = value_index(state.layout, segment,
                    [v % d for v, d in zip(qsim._as_tuple(value), dims)])
    rest = qsim.RegisterLayout([(n, d) for n, d in state.layout.segments if n != segment])
    out = qsim.QState(rest, qsim._view(state, segment)[:, k].reshape(-1))
    nrm = out.norm()
    if nrm < 1e-12:
        raise qsim.ZeroProbabilityProjection(f"segment {segment} is not {value} with any amplitude")
    return qsim.QState(rest, out.amps / nrm)
