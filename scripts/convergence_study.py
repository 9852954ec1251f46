#!/usr/bin/env python3
"""Empirical convergence of the fractional Adams solver.

Solves the scalar Riccati-Volterra equation with rough-Heston-style
coefficients, and the matrix equation with the BPT10 Wishart coefficients
(as in the bpt10_wishart preset), on a sequence of grids against a fine
reference, for the fractional kernel and the gamma kernel (c = 1,
lambda = 1).  Each table prints the terminal-time error (the largest entry
error for the matrix) together with the running empirical order.  The
terminal error exhibits the scheme's 1+alpha rate; the sup norm over all
nodes is also shown, sitting in the reduced-order boundary-layer regime near
t = 0.  The matrix references have 8000 steps, as in the acceptance tests.
"""

import argparse

import numpy as np

from volterra_merton.experiments import load_config
from volterra_merton.kernels import Kernel, TimeGrid
from volterra_merton.riccati import VectorRiccatiRHS, solve_riccati_matrix, solve_riccati_vector, wishart_rhs


def study(label: str, solve, n_ref: int, steps) -> None:
    """Print the errors of ``solve(n)`` against ``solve(n_ref)``, the values on a unit-horizon grid."""
    reference = solve(n_ref)
    print(f"\n{label}, reference {n_ref} steps")
    print(f"{'n':>6} {'err(T)':>12} {'order':>7} {'sup err':>12}")
    prev = None
    for n in steps:
        path = solve(n)
        err_t = float(np.max(np.abs(path[-1] - reference[-1])))
        sup = float(np.max(np.abs(path - reference[:: n_ref // n])))
        order = f"{np.log2(prev / err_t):7.2f}" if prev else "      -"
        print(f"{n:>6} {err_t:>12.3e} {order} {sup:>12.3e}")
        prev = err_t


SCALAR_STEPS = (250, 500, 1000, 2000, 4000)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.6)
    parser.add_argument("--n-ref", type=int, default=16000, help="steps of the scalar references")
    args = parser.parse_args(argv)
    if not 0.0 < args.alpha <= 1.0:
        parser.error(f"--alpha must lie in (0, 1], got {args.alpha}")
    # every grid must sample the reference's nodes and be coarser than it
    finest = SCALAR_STEPS[-1]
    if args.n_ref <= finest or args.n_ref % finest:
        parser.error(f"--n-ref must be a multiple of {finest} above {finest}, got {args.n_ref}")
    vector_rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.15]], quad=[0.05625])
    matrix_rhs = wishart_rhs(load_config("bpt10_wishart").model)
    print(f"alpha = {args.alpha}, theoretical order 1+alpha = {1 + args.alpha:.2f}")
    for kernel in (Kernel.fractional(1.0, args.alpha), Kernel.gamma(1.0, 1.0, args.alpha)):
        study(
            f"scalar, {kernel.family}",
            lambda n: solve_riccati_vector(kernel, vector_rhs, TimeGrid(1.0, n)).values,
            args.n_ref,
            SCALAR_STEPS,
        )
        study(
            f"matrix BPT10, {kernel.family}",
            lambda n: solve_riccati_matrix(kernel, matrix_rhs, TimeGrid(1.0, n)).values,
            8000,
            (250, 500, 1000, 2000),
        )


if __name__ == "__main__":
    main()
