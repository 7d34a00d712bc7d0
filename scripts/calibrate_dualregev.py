#!/usr/bin/env python3
"""Exact calibration tables for Dual-Regev desk parameters.

For each candidate (n, m, q, sigma) this enumerates every ciphertext
branch and prints the exact per-trial decryption-correctness probability
and the exact deletion-certificate acceptance probability (Gaussian tail
mass inside the verification ball). The shipped DR_ROUNDTRIP parameters
were picked from this table.

Usage: python scripts/calibrate_dualregev.py [--seeds 20]
"""

import argparse
from fractions import Fraction

import numpy as np

from deletia import dualregev as dr
from deletia.zqcore import centered, centered_array, gaussian_box_weights, zq_box

CANDIDATES = [
    (1, 2, 13, 3),
    (1, 2, 13, 4),
    (1, 2, 17, 4),
    (1, 2, 17, 5),
    (1, 2, 19, 5),
    (1, 2, 23, 6),
]


def exact_probabilities(params: dr.DRParams, seeds: int) -> tuple[float, float, float, float]:
    q, w = params.q, params.width
    bound = params.cert_bound_sq()
    digits = zq_box(q, w)
    cent = centered_array(digits, q)
    rho2 = gaussian_box_weights(q, w, params.sigma) ** 2
    dual_rho2 = gaussian_box_weights(q, w, q / params.sigma) ** 2
    corr, acc = [], []
    for seed in range(seeds):
        keys = dr.dr_keygen(params, np.random.default_rng(seed))
        A, sk = keys.pk, keys.sk
        images = (digits @ A.entries.T) % q
        ok_norm = np.array([Fraction(int(c @ c)) <= bound for c in cent])
        # acceptance: coset-conditional tail mass, weighted by image mass
        mass: dict[tuple, float] = {}
        good: dict[tuple, float] = {}
        for i in range(len(digits)):
            yk = tuple(images[i].tolist())
            mass[yk] = mass.get(yk, 0.0) + rho2[i]
            if ok_norm[i]:
                good[yk] = good.get(yk, 0.0) + rho2[i]
        total = sum(mass.values())
        acc.append(sum(good.get(y, 0.0) for y in mass) / total)
        # correctness: measured ciphertext c = sA + e + b g; only <e, sk>
        # and the plaintext offset reach the decoder
        noise_mass: dict[int, float] = {}
        for i in range(len(digits)):
            nz = int(np.dot(cent[i], sk.entries))
            noise_mass[nz] = noise_mass.get(nz, 0.0) + dual_rho2[i]
        z = sum(noise_mass.values())
        hit = 0.0
        for b in (0, 1):
            off = b * (q // 2)
            for nz, p in noise_mass.items():
                val = centered((nz + off) % q, q)
                dec = 0 if 4 * abs(val) < q else 1
                if dec == b:
                    hit += p / (2 * z)
        corr.append(hit)
    return (float(np.mean(corr)), float(np.min(corr)),
            float(np.mean(acc)), float(np.min(acc)))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()
    print(f"{'params':>22s}  {'P(correct)':>22s}  {'P(cert accept)':>22s}")
    for n, m, q, sigma in CANDIDATES:
        params = dr.dr_params(n, m, q, sigma)
        cm, cmin, am, amin = exact_probabilities(params, args.seeds)
        print(f"  n={n} m={m} q={q:3d} s={sigma}   mean {cm:.4f} min {cmin:.4f}"
              f"      mean {am:.5f} min {amin:.5f}")


if __name__ == "__main__":
    main()
