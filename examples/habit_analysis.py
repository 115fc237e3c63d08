"""Habit analysis: reproduce the paper's Section III motivation study.

Generates the 8-user, 3-week profiling cohort and runs every analysis
behind Figs. 1-5: the screen-off traffic share, transfer-rate
percentiles, screen-on utilization, the cross-user and intra-user
Pearson structure, and Special-App dominance.

Run:  python examples/habit_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import HabitModel, generate_cohort
from repro.habits import cross_user_matrix, day_matrix, intra_user_average, mean_offdiagonal
from repro.traces import (
    cohort_traffic_split,
    cohort_utilization,
    rate_percentile,
)


def main() -> None:
    cohort = generate_cohort(21, seed=2014)

    print("=== Fig 1(a): screen-off share of network activities ===")
    splits, avg_off = cohort_traffic_split(cohort)
    for split in splits:
        print(f"  {split.user_id}: {split.off_fraction:.1%} "
              f"({split.off_count}/{split.total_count} activities)")
    print(f"  average: {avg_off:.1%}   (paper: 40.98%)")

    print("\n=== Fig 1(b): transfer-rate percentiles ===")
    print(f"  p90 screen-off rate: {rate_percentile(cohort, 0.9, screen_on=False):.2f} kBps"
          "   (paper: < 1 kBps)")
    print(f"  p90 screen-on  rate: {rate_percentile(cohort, 0.9, screen_on=True):.2f} kBps"
          "   (paper: < 5 kBps)")

    print("\n=== Fig 2: screen-on time utilization ===")
    stats, avg_util = cohort_utilization(cohort)
    for stat in stats:
        print(f"  {stat.user_id}: avg session {stat.avg_session_s:5.1f}s, "
              f"utilized {stat.avg_utilized_s:4.1f}s "
              f"({stat.utilization_ratio:.0%})")
    print(f"  average utilization: {avg_util:.1%}   (paper: 45.14%)")

    print("\n=== Fig 3: cross-user Pearson (habits differ across users) ===")
    matrix = cross_user_matrix(cohort)
    print("  " + "\n  ".join(" ".join(f"{v:5.2f}" for v in row) for row in matrix))
    print(f"  average: {mean_offdiagonal(matrix):.4f}   (paper: 0.1353)")

    print("\n=== Fig 4: day-to-day Pearson (one user's habit is stable) ===")
    for trace in cohort:
        print(f"  {trace.user_id}: {intra_user_average(trace):.3f}")
    user4 = day_matrix(cohort[3], n_days=8)
    print(f"  user4 over 8 days: {mean_offdiagonal(user4):.4f}   (paper: 0.8171)")
    print(f"  cohort mean: {np.mean([intra_user_average(t) for t in cohort]):.3f}"
          "   (paper: 0.54)")

    print("\n=== Fig 5: Special Apps (user 3) ===")
    registry = HabitModel.fit(cohort[2]).special_apps
    print(f"  {len(registry.special)} of 23 installed apps are special")
    for app, share in sorted(registry.usage_share().items(), key=lambda kv: -kv[1]):
        print(f"  {app:35s} {share:6.1%}")
    dominant = registry.dominant_app()
    assert dominant is not None
    print(f"  dominant: {dominant[0]} at {dominant[1]:.0%}   (paper: weChat, 59%)")


if __name__ == "__main__":
    main()
