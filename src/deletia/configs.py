"""Shipped desk-scale parameter sets, the parameter validator, and the flat
key/value config file format used by the CLI.

Each lattice command of the CLI runs one of these sets with the fields its
flags or config file give put in by ``dataclasses.replace``; a config file
holds only keys that are parameter flags of the command it is passed to.

Desk parameters are chosen so every quantum register stays enumerable
(q^(m+1) <= 2^22) and the relevant exact probabilities have margin over the
acceptance thresholds; the calibration script under scripts/ reproduces the
numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dualfhe import FHEParams, fhe_params, validate_noise_window
from .dualregev import DRParams, dr_params
from .zqcore import ENUM_GUARD, is_prime

# Dual-Regev PKE: quantum-exact runs (duality checks) and tuned roundtrips.
DR_EXACT = dr_params(n=1, m=2, q=13, sigma=3)
DR_ROUNDTRIP = dr_params(n=1, m=2, q=19, sigma=5)
# classical-plant correctness runs (no quantum state, any size works)
DR_PLANT = DRParams(n=2, m=8, q=257, sigma_sq=Fraction(25))

# Dual-Regev FHE: big-modulus classical NAND evaluation, small-modulus
# quantum per-column runs, and the tiny tensor-equivalence instance.
FHE_CLASSICAL = fhe_params(n=2, m=8, q=260000011, sigma=260000011 / 140.0, depth=2)
FHE_QUANTUM = fhe_params(n=1, m=1, q=7, sigma_sq=Fraction(14))
FHE_TENSOR = fhe_params(n=1, m=1, q=5, sigma_sq=Fraction(5))

# Strong Gaussian-collapsing experiment desk instance (width 3, bound 6).
SGC_DESK = dr_params(n=1, m=2, q=7, sigma=2)

# Commitments / PKE-with-PVD defaults.
COMMIT_REPS = 6
PVD_REPS = 8

# The block `deletia validate` checks when no parameter is given:
# DR_ROUNDTRIP's with NAND depth 2.
VALIDATE_DEFAULTS = fhe_params(n=1, m=2, q=19, sigma=5, depth=2)


def parse_config_file(path: str) -> dict:
    """Flat "key = value" lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def validate_scheme(scheme: str, params: FHEParams) -> list[tuple[str, str, str]]:
    """pass/warn/fail rows for the parameter block of one scheme; the NAND
    depth is read for ``fhe`` only."""
    rows = []
    q, m, sigma = params.q, params.m, params.sigma
    rows.append(("q-prime", "pass" if is_prime(q) else "fail", f"q = {q}"))
    lo, hi = math.sqrt(8 * m), q / math.sqrt(8 * m)
    if lo < sigma < hi:
        rows.append(("sigma-interval", "pass", f"{lo:.4g} < sigma = {sigma:.4g} < {hi:.4g}"))
    else:
        rows.append(("sigma-interval", "warn",
                     f"sigma = {sigma:.4g} outside (sqrt(8m), q/sqrt(8m)) = ({lo:.4g}, {hi:.4g})"))
    lo2, hi2 = math.sqrt(2 * m), q / math.sqrt(2 * m)
    rows.append(("sigma-interval-loose", "pass" if lo2 < sigma < hi2 else "warn",
                 f"sigma = {sigma:.4g} vs (sqrt(2m), q/sqrt(2m)) = ({lo2:.4g}, {hi2:.4g})"))
    if scheme == "dr":
        dim = q ** (m + 1)
        rows.append(("state-size", "pass" if dim <= ENUM_GUARD else "fail",
                     f"q^(m+1) = {dim} vs {ENUM_GUARD}"))
    elif scheme == "fhe":
        rows.extend(validate_noise_window(params))
    return rows
