"""Regenerate perfbench/reference.json: frozen Monte Carlo references for the
block-sampler commands of the `sampling` workload.

Each entry estimates E||Z|| for the complex Gaussian Cayley series
Z = sum_g z_g rho(g) without the block sampler under test:
  - psl2:7 by a dense SVD of every drawn n x n matrix;
  - cyclic groups by the character identity ||Z|| = max_k |DFT(z)_k|.
The estimate is seed-independent, so it is frozen here rather than recomputed
on every run. Regenerate from the repository root (about four minutes on 2 cores):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""
import json
import os

import numpy as np

import cayleylab

SEED = 20221201
DENSE = {"psl2:7": 20_000}
FFT = {"cyclic:16": 200_000, "cyclic:64": 200_000, "cyclic:256": 200_000}
BATCH = 500


def dense_norms(spec, trials, rng):
    G = cayleylab.make_group(spec)
    inverse = np.argmax(G.table == 0, axis=1)
    div = G.table[:, inverse]
    out = []
    for start in range(0, trials, BATCH):
        m = min(BATCH, trials - start)
        z = rng.standard_normal((m, G.n)) + 1j * rng.standard_normal((m, G.n))
        out.append(np.linalg.svd(z[:, div], compute_uv=False)[:, 0])
    return np.concatenate(out)


def fft_norms(n, trials, rng):
    out = []
    for start in range(0, trials, BATCH * 20):
        m = min(BATCH * 20, trials - start)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        out.append(np.abs(np.fft.fft(z, axis=1)).max(axis=1))
    return np.concatenate(out)


def entry(vals, method):
    return {"mean": float(vals.mean()), "sd": float(vals.std(ddof=1)),
            "std_error": float(vals.std(ddof=1) / np.sqrt(vals.size)),
            "trials": int(vals.size), "method": method}


def main():
    rng = np.random.default_rng(SEED)
    ref = {"seed": SEED, "expected_norm": {}}
    for spec, trials in DENSE.items():
        ref["expected_norm"][spec] = entry(dense_norms(spec, trials, rng), "dense_svd")
    for spec, trials in FFT.items():
        n = int(spec.split(":")[1])
        ref["expected_norm"][spec] = entry(fft_norms(n, trials, rng), "dft_max")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
