"""Regenerate the frozen high-resolution reference values used by the tests.

Computes the first leader Riccati matrix at t=0 on a 100000-step grid for
the benchmark model (order-of-convergence reference) and the follower filter
state at t=T for the filter self-convergence oracle, then prints them with
full precision alongside an independent adaptive-integrator cross-check.

Run from the repository root:  python scripts/make_reference.py
"""

import time

import numpy as np

from lqstack.filtering import solve_follower_filter
from lqstack.model import LQModel, TimeGrid
from lqstack.riccati import assemble_leader_blocks, solve_follower_P, solve_leader_riccati


def benchmark_model(steps: int) -> LQModel:
    return LQModel(A=0.1, B1=1.0, B2=1.0, C=0.2, D1=0.0, D2=0.0, h=1.0,
                   Q1=1.0, R1=1.0, Q2=1.0, R2=1.0, G1=1.0, G2=1.0, x0=1.0,
                   grid=TimeGrid(1.0, steps))


def filter_model(steps: int) -> LQModel:
    return LQModel(A=0.0, B1=1.0, B2=1.0, C=0.0, D1=0.0, D2=0.0, h=1.0,
                   Q1=1.0, R1=1.0, Q2=1.0, R2=1.0, G1=0.0, G2=1.0, x0=1.0,
                   grid=TimeGrid(1.0, steps))


def main():
    t0 = time.time()
    model = benchmark_model(100000)
    P = solve_follower_P(model)
    blocks = assemble_leader_blocks(model, P)
    leader = solve_leader_riccati(model, blocks)
    print(f"# {time.time() - t0:.0f}s, benchmark first Riccati at t=0, 100000 steps")
    print("P1_REF = np.array([")
    for row in leader.p1[0]:
        print(f"    [{row[0]!r}, {row[1]!r}],")
    print("])")

    t0 = time.time()
    fmodel = filter_model(100000)
    fP = solve_follower_P(fmodel)
    fp = solve_follower_filter(fmodel, fP, np.ones(100001))
    print(f"# {time.time() - t0:.0f}s, filter state at t=T, 100000 steps, unit filtered control")
    print(f"XHAT_T_REF = {fp.xhat[-1]!r}")

    try:
        from scipy.integrate import solve_ivp
        import math

        # Independent cross-check: adaptive integration of the same pair.
        T = 1.0

        def theta_rhs(t, y):
            p = math.tanh(T - t)
            return [p * y[0] - p]

        th = solve_ivp(theta_rhs, (T, 0.0), [0.0], rtol=1e-12, atol=1e-14, dense_output=True)

        def xhat_rhs(t, y):
            p = math.tanh(T - t)
            return [-p * y[0] - th.sol(t)[0] + 1.0]

        xh = solve_ivp(xhat_rhs, (0.0, T), [1.0], rtol=1e-12, atol=1e-14)
        print(f"# scipy cross-check: {xh.y[0, -1]!r}")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
