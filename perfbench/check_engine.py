"""Independent check of the cooling results of the ratio_sweep workload.

The program propagates by stepping a cached propagator over the sample
grid.  This check takes the program's Hamiltonian and collapse-operator
matrices, builds the Liouvillian with its own column-major Kronecker
construction, and propagates in one shot, rho(T) = expm(L T) vec rho0.  It
shares no code with the program's Liouvillian, stepping, subspace or
batching paths, so it stays valid when those change.

Run as a script it checks the records of one run, outside the timed
phase and in a process of its own:

    check_engine.py RECORDS_JSON

and prints {"problems": [...per op...], "selftest": {...}} as JSON.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.linalg import expm

from spincool.srmodel import ModelParams, collapse_ops, hamiltonian, qubit_vectors

TOL = 1e-9
# ops compared with the reference per run; every other op gets the cheap
# checks only.  A reference costs about 0.04 s.
MAX_REFERENCE_OPS = 100


def _liouvillian_colmajor(H: np.ndarray, cs: list[np.ndarray]) -> np.ndarray:
    """L with vec(drho/dt) = L vec(rho) for column-major vec.

    vec(A rho B) = (B^T kron A) vec(rho) in column-major order.
    """
    n = H.shape[0]
    eye = np.eye(n)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for c in cs:
        cd = c.conj().T
        cdc = cd @ c
        L += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    return L


def reference(params: ModelParams, ratios: list[float], t_final: float
              ) -> list[tuple[float, float]]:
    """(fidelity, pop_perp) at t_final for alpha:beta = r:1, one per ratio."""
    H = np.asarray(hamiltonian(params), dtype=complex)
    n = H.shape[0]
    cs = [op.matrix(n).astype(complex) for op in collapse_ops(params)]
    P = expm(_liouvillian_colmajor(H, cs) * t_final)
    out = []
    for r in ratios:
        psi0, psi_f, psi_perp = qubit_vectors(r, 1.0)
        rho0 = np.outer(psi0, psi0.conj())
        rho = (P @ rho0.reshape(-1, order="F")).reshape(n, n, order="F")
        out.append((float(np.real(psi_f.conj() @ rho @ psi_f)),
                    float(np.real(psi_perp.conj() @ rho @ psi_perp))))
    return out


def problems(expected: list[tuple[float, float]], got: list[tuple[float, float]]
             ) -> list[str]:
    """Mismatches between reference and program (fidelity, pop_perp) pairs."""
    if len(expected) != len(got):
        return [f"{len(got)} results, expected {len(expected)}"]
    out = []
    for k, ((f_ref, p_ref), (f, p)) in enumerate(zip(expected, got)):
        if not abs(f - f_ref) <= TOL:
            out.append(f"run {k}: fidelity {f!r} vs reference {f_ref!r}")
        if not abs(p - p_ref) <= TOL:
            out.append(f"run {k}: pop_perp {p!r} vs reference {p_ref!r}")
    return out


def check(records: list[dict]) -> list[list[str]]:
    """Problems per op record ({"input", "output", "error"}).

    Every op must have succeeded with one (fidelity, pop_perp) pair per run,
    each a probability; every k-th op, at most MAX_REFERENCE_OPS of them
    spread over the run, is also compared with the one-shot reference.
    """
    stride = -(-len(records) // MAX_REFERENCE_OPS)
    out = []
    for i, rec in enumerate(records):
        if rec["error"] is not None:
            out.append([f"raised {rec['error']}"])
            continue
        runs = len(rec["input"])
        pairs = rec["output"]
        if len(pairs) != runs or not all(0.0 <= x <= 1.0 for pair in pairs for x in pair):
            out.append([f"output {pairs!r}: want {runs} (fidelity, pop_perp) probabilities"])
            continue
        if i % stride:
            out.append([])
            continue
        expected = reference(ModelParams(), list(rec["input"]), 20.0)
        out.append(problems(expected, [tuple(x) for x in rec["output"]]))
    return out


def selftest(records: list[dict]) -> dict[str, bool]:
    """Feed perturbed results to the check; True means the check caught it."""
    rec = next((r for r in records if r["error"] is None), None)
    if rec is None:
        return {"no op succeeded": False}
    caught = {}
    for what, delta in (("fidelity+1e-6", (1e-6, 0.0)), ("pop_perp+1e-6", (0.0, 1e-6))):
        bad = [(f + delta[0], p + delta[1]) for f, p in rec["output"]]
        caught[what] = bool(check([{**rec, "output": bad}])[0])
    caught["truncated output"] = bool(check([{**rec, "output": rec["output"][:-1]}])[0])
    caught["fidelity > 1"] = bool(check([{**rec, "output": [(1.5, 0.0)] * len(
        rec["output"])}])[0])
    caught["op raised"] = bool(check([{**rec, "output": None,
                                                "error": "RuntimeError()"}])[0])
    return caught


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        records = json.load(f)
    print(json.dumps({"problems": check(records), "selftest": selftest(records)}))
