#!/usr/bin/env python3
"""Screen a small demo universe and print profiles and effectiveness scores.

Same securities as fixtures/portfolio3.json, driven through the library API.
"""

import numpy as np

from bpv_effect import (
    CONVENTIONS,
    FutureValueDist,
    MembershipFn,
    build_report,
    profile,
    trapezoid,
)

SECURITIES = [
    (
        "alpha",
        "simple",
        trapezoid(88, 94, 104, 112),
        FutureValueDist.discrete([92.0, 101.0, 109.0], [0.25, 0.5, 0.25]),
    ),
    (
        "beta",
        "logarithmic",
        trapezoid(90, 97, 103, 110),
        FutureValueDist.lognormal(4.615, 0.08, (0.005, 0.995)),
    ),
    (
        "gamma",
        "simple",
        MembershipFn([85, 95, 100, 108, 118], [0.0, 0.7, 1.0, 0.7, 0.0]),
        FutureValueDist.normal(103.0, 6.0, (0.01, 0.99)),
    ),
]


def main() -> None:
    ids, profiles = [], []
    for sec_id, kind, mu, dist in SECURITIES:
        profiles.append(profile(mu, dist, CONVENTIONS[kind]))
        ids.append(sec_id)

    print(f"{'id':<8} {'E[r]':>9} {'variance':>10} {'energy':>8} {'entropy':>8}")
    for sec_id, prof in zip(ids, profiles):
        print(
            f"{sec_id:<8} {prof.expected_return:9.5f} {prof.variance:10.6f}"
            f" {prof.energy:8.5f} {prof.entropy:8.5f}"
        )

    report = build_report(profiles)
    print("\noutranking degrees (row vs column):")
    header = " " * 8 + "".join(f"{sec_id:>8}" for sec_id in ids)
    print(header)
    for i, sec_id in enumerate(ids):
        row = "".join(f"{report.outranking[i, j]:8.4f}" for j in range(len(ids)))
        print(f"{sec_id:<8}{row}")

    print(f"\n{'id':<8} {'effective':>10} {'strictly':>10}")
    for i, sec_id in enumerate(ids):
        print(
            f"{sec_id:<8} {report.effectiveness[i]:10.4f}"
            f" {report.strict_effectiveness[i]:10.4f}"
        )

    best = ids[int(np.argmax(report.effectiveness))]
    print(f"\nhighest effectiveness: {best}")


if __name__ == "__main__":
    main()
