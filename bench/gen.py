"""Seeded synthetic problem files for the benchmark.

Two families, both written in the problem-file schema that
``csepsolve.harness.load_problem`` reads, with the planted solution as a
``singleton`` ``known_solution``:

* ``vi_system``: N monotone affine variational inequalities
  A_i(x) = M_i x + q_i with M_i = B_i B_i^T + 0.1 I + (K_i - K_i^T)/2,
  sharing an interior planted point x* through q_i = -M_i x*.  The 0.1 I
  term makes every operator strongly monotone, so x* is the only common
  solution.  No ``L`` is written, so loading estimates each spectral norm.
* ``aq_system``: N affine-quadratic bifunctions
  f_i(x, y) = <P_i x + Q_i y + q_i, y - x> with a dense PSD Q_i, so the
  prox takes the projected-gradient route, and
  P_i = Q_i + B_i B_i^T + 0.1 I + (K_i - K_i^T)/2, which makes f_i strongly
  monotone; q_i = -(P_i + Q_i) x* plants x*.

The feasible set is the box [-1, 1]^d; x* lies in [-0.5, 0.5]^d and x0 in
the box, so the baselines' requirement x0 in C also holds.
"""

from __future__ import annotations

import json

import numpy as np

BOX = 1.0


def _monotone_part(rng, d, rank):
    B = rng.standard_normal((d, rank)) / np.sqrt(d)
    K = rng.standard_normal((d, d)) / np.sqrt(d)
    return B @ B.T + 0.1 * np.eye(d) + 0.5 * (K - K.T)


def _document(d, bifunctions, x_star, x0, provenance):
    return {
        "provenance": provenance,
        "dimension": d,
        "set": {"type": "box", "lower": [-BOX] * d, "upper": [BOX] * d},
        "bifunctions": bifunctions,
        "x0": x0.tolist(),
        "known_solution": {"type": "singleton", "point": x_star.tolist()},
    }


def vi_system(seed: int, d: int, n: int) -> dict:
    """Problem document for N monotone affine VIs with a planted solution."""
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-0.5 * BOX, 0.5 * BOX, d)
    x0 = rng.uniform(-BOX, BOX, d)
    bifunctions = []
    for _ in range(n):
        M = _monotone_part(rng, d, max(1, d // 2))
        bifunctions.append(
            {"type": "vi_affine", "M": M.tolist(), "q": (-M @ x_star).tolist()}
        )
    return _document(d, bifunctions, x_star, x0,
                     f"synthetic monotone affine VI system, seed {seed}, d={d}, N={n}")


def aq_system(seed: int, d: int, n: int) -> dict:
    """Problem document for N affine-quadratic bifunctions with dense PSD Q."""
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-0.5 * BOX, 0.5 * BOX, d)
    x0 = rng.uniform(-BOX, BOX, d)
    bifunctions = []
    for _ in range(n):
        C = rng.standard_normal((d, d)) / np.sqrt(d)
        Q = C @ C.T
        P = Q + _monotone_part(rng, d, max(1, d // 2))
        bifunctions.append({
            "type": "affine_quadratic",
            "P": P.tolist(),
            "Q": Q.tolist(),
            "q": (-(P + Q) @ x_star).tolist(),
        })
    return _document(d, bifunctions, x_star, x0,
                     f"synthetic affine-quadratic system, seed {seed}, d={d}, N={n}")


def write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
