#!/usr/bin/env python3
"""Exact calibration tables for Dual-Regev desk parameters.

For each candidate (n, m, q, sigma) this prints two exact probabilities,
built from the library's own kernels: the Z_q box and its Gaussian tables,
dr_keygen, the decoder's rule (decide_decryption) and the short-vector rule
(is_short).

- Decryption correctness per trial, for the key of each of `--seeds` seeds.
  A measured ciphertext is c = sA + e + b g, so the decoder reads
  <e, sk> + b floor(q/2); the probability sums the noise law of e over the
  whole box.
- Deletion-certificate acceptance. A certificate always lands in its coset,
  so it is accepted when it is short, and averaged over the image that is
  the ball's share of the Gaussian mass rho_sigma^2 over the box. That does
  not depend on the key, so it is computed once per candidate.

The shipped DR_ROUNDTRIP parameters were picked from this table.

Usage: python scripts/calibrate_dualregev.py [--seeds 20]
"""

import argparse

import numpy as np

from deletia import dualregev as dr
from deletia.zqcore import centered_array, gaussian_box_weights, is_short, zq_box

CANDIDATES = [
    (1, 2, 13, 3),
    (1, 2, 13, 4),
    (1, 2, 17, 4),
    (1, 2, 17, 5),
    (1, 2, 19, 5),
    (1, 2, 23, 6),
]


def exact_probabilities(params: dr.DRParams, seeds: int) -> tuple[float, float, float]:
    """(mean, min) over the seeds' keys of P(correct), and P(cert accept)."""
    q, w = params.q, params.width
    box = zq_box(q, w)
    rho2 = gaussian_box_weights(q, w, params.sigma) ** 2
    accept = rho2[is_short(box, q, params.cert_bound_sq())].sum() / rho2.sum()
    noise = gaussian_box_weights(q, w, q / params.sigma) ** 2
    noise /= noise.sum()
    cent = centered_array(box, q)
    corr = []
    for seed in range(seeds):
        sk = dr.dr_keygen(params, np.random.default_rng(seed)).sk
        inner = cent @ sk.entries  # <e, sk> for every noise vector e
        corr.append(sum(noise[dr.decide_decryption(inner + b * (q // 2), q) == b].sum()
                        for b in (0, 1)) / 2)
    return float(np.mean(corr)), float(np.min(corr)), float(accept)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()
    print(f"{'params':>22s}  {'P(correct)':>22s}  {'P(cert accept)':>22s}")
    for n, m, q, sigma in CANDIDATES:
        params = dr.dr_params(n, m, q, sigma)
        cm, cmin, acc = exact_probabilities(params, args.seeds)
        print(f"  n={n} m={m} q={q:3d} s={sigma}   mean {cm:.4f} min {cmin:.4f}"
              f"      mean {acc:.5f} min {acc:.5f}")


if __name__ == "__main__":
    main()
