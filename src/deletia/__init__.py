"""deletia: desk-scale exact simulation of publicly-verifiable deletion
cryptosystems (Dual-Regev PKE/FHE, commitments and PKE from balanced
binary-measurement hashes, and executable security experiments)."""

from . import (  # noqa: F401
    configs,
    dualfhe,
    dualregev,
    games,
    gf2k,
    hashfam,
    pvdcore,
    qsim,
    zqcore,
)

__version__ = "0.1.0"
