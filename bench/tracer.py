"""In-memory span tracer that wraps deletia's public functions from outside.

The tracer rebinds every ``deletia.*`` module attribute that holds a traced
function object (so ``from .zqcore import isis_verify`` copies are caught
too), records one span per call, and restores the originals on exit. Self
time is a span's duration minus the time of the traced spans directly
below it. A function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "deletia"
# Functions reported by name, per layer (module).
REPORTED = {
    "zqcore": ["matmul_mod", "isis_verify"],
    "qsim": ["qft", "qft_inverse", "phase_oracle", "measure", "apply_classical",
             "project_prob", "trace_norm", "ensemble_trace_distance"],
    "gf2k": ["GF2k.poly_eval"],
    "hashfam": ["balance_estimate", "fiber_state"],
    "dualregev": ["gen_gauss", "dr_encrypt", "dr_delete", "dr_decrypt", "dr_verify"],
    "dualfhe": ["fhe_encrypt_q", "fhe_delete", "fhe_encrypt_c", "fhe_eval_nand"],
    "pvdcore": ["commit", "pvd_keygen", "pvd_encrypt", "pvd_decrypt"],
    "games": ["hybrid_ladder_exact", "ev_target_collapse_ensembles",
              "strong_gauss_collapse_exp", "hybrid_ladder_mc"],
    "configs": ["validate_scheme"],
    "cli": ["main"],
}
# Entry points the CLI calls, wrapped so that their work counts in their own
# layer's self time and not in cli.main's.
ENTRY_POINTS = {
    "hashfam": ["tcr_game"],
    "dualregev": ["dr_keygen"],
    "dualfhe": ["fhe_keygen", "nand_tree_eval", "fhe_measure_q", "fhe_decrypt", "fhe_verify"],
    "pvdcore": ["open_accept_prob", "commit_ver", "pvd_delete", "pvd_verify"],
    "games": ["target_collapse_exp", "ev_target_collapse_exp"],
}


def _state_dim(x) -> int:
    """Dimension of a qsim argument: a state's layout or a square matrix."""
    layout = getattr(x, "layout", None)
    if layout is not None:
        return int(layout.dim)
    if isinstance(x, np.ndarray) and x.ndim:
        return int(x.shape[0])
    return 0


def aliases(fn) -> list[tuple[object, str]]:
    """Every (deletia module, attribute name) pair that holds ``fn``."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    return [(m, key) for m in modules for key, val in list(vars(m).items()) if val is fn]


class Tracer:
    """Collects spans, call counts, self times and the peak state dimension."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.peak_dim = 0
        self.op = None  # id of the op whose calls are being recorded
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for table in (REPORTED, ENTRY_POINTS):
            for layer, names in table.items():
                for qual in names:
                    self._install_one(layer, qual)

    def _install_one(self, layer: str, qual: str) -> None:
        owner_path, _, attr = qual.rpartition(".")
        owner = sys.modules.get(f"{PACKAGE}.{layer}")
        for part in owner_path.split(".") if owner_path else []:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        name = f"{layer}.{attr}"
        if not callable(fn):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, fn, measure_dim=(layer == "qsim"))
        if owner_path:  # a method: rebinding the class attribute is enough
            self._rebind(owner, attr, wrapper)
            return
        for m, key in aliases(fn):
            self._rebind(m, key, wrapper)

    def count_calls(self, obj, attr: str, name: str) -> None:
        """Count calls of a per-instance callable, such as HashFamily.eval."""
        fn = getattr(obj, attr, None)
        if fn is None:
            return
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        self._rebind(obj, attr, counted)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def _rebind(self, obj, attr: str, new) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _wrap(self, name: str, fn, measure_dim: bool):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure_dim and args:
                tracer.peak_dim = max(tracer.peak_dim, _state_dim(args[0]))
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                tracer.spans.append((frame[0], name, start, end, parent, tracer.op))

        return traced

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def write_spans(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent", "op"]})
                     + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps([sid, name, round(start - self._t0, 7),
                                     round(end - self._t0, 7), parent, op]) + "\n")
