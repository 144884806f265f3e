#!/usr/bin/env python3
"""Resolution study: how the fuzzy return and variance move as the
quadrature nodes and variance panels double.

The sup-norm of the fuzzy-return change should fall with order >= 1 in the
node count, and the variance should settle well below the 1e-4 level by
1024 panels.
"""

import numpy as np

from bpv_effect import FutureValueDist, trapezoid
from bpv_effect.returns import (
    LOGARITHMIC,
    SIMPLE,
    ReturnGrid,
    expected_return,
    expected_return_distribution,
    return_variance,
)

MU = trapezoid(85, 95, 105, 120)
DIST = FutureValueDist.lognormal(float(np.log(100.0)), 0.15, (0.005, 0.995))


def node_study(conv) -> None:
    grid = ReturnGrid.spanning(MU, DIST.make_nodes(2048), conv, 801)
    print(f"  nodes   sup|rho_n - rho_2n|   ({conv.kind})")
    previous = None
    for n in (64, 128, 256, 512, 1024):
        values = expected_return_distribution(MU, conv, DIST.make_nodes(n), grid).values
        if previous is not None:
            print(f"  {n // 2:5d}   {np.max(np.abs(values - previous)):.3e}")
        previous = values


def panel_study(conv) -> None:
    nodes = DIST.make_nodes(256)
    grid = ReturnGrid.spanning(MU, nodes, conv, 801)
    rho = expected_return_distribution(MU, conv, nodes, grid)
    center = expected_return(rho)
    print(f"  panels  variance        |delta vs 2x|   ({conv.kind})")
    for m in (256, 512, 1024, 2048):
        base = return_variance(MU, conv, nodes, center, grid, m)
        refined = return_variance(MU, conv, nodes, center, grid, 2 * m)
        print(f"  {m:6d}  {base:.10f}  {abs(base - refined):.3e}")


def main() -> None:
    print("fuzzy-return convergence under node doubling")
    for conv in (SIMPLE, LOGARITHMIC):
        node_study(conv)
    print("\nvariance convergence under panel doubling")
    for conv in (SIMPLE, LOGARITHMIC):
        panel_study(conv)


if __name__ == "__main__":
    main()
