"""Future work, implemented: the extensions the paper names but defers.

Runs the four extension studies:

1. channel-aware batch placement (the "peak rate" item of Section VI-A);
2. the "hidden impact" of deferral on push latency (Limitations);
3. cohort scaling over randomized personas ("recruit more volunteers");
4. the habit model's learning curve and online (incremental) updates.

Run:  python examples/future_work.py
"""

from __future__ import annotations

from repro import generate_volunteers
from repro.evaluation import (
    channel_extension,
    cohort_scale,
    hidden_impact,
    learning_curve,
)
from repro.stream import OnlineHabitModel, stream_trace


def main() -> None:
    print("=== 1. channel-aware batch placement ===")
    channel = channel_extension()
    print(f"  {channel.n_batches} slot batches placed")
    print(f"  per-byte energy multiplier reduced by {channel.energy_multiplier_gain:.3f}")
    print(f"  effective batch rate improved {channel.rate_gain:.2f}x")
    print("  (the paper: 'the peak rate is determined by the channel state...'"
          " — scheduling into good-channel windows lifts that ceiling)")

    print("\n=== 2. hidden impact: how late do pushes arrive? ===")
    impact = hidden_impact()
    print(f"  {impact.deferred_fraction:.0%} of screen-off transfers are deferred")
    print(f"  delay: mean {impact.mean_delay_s / 60:.1f} min, "
          f"median {impact.p50_delay_s / 60:.1f} min, "
          f"p95 {impact.p95_delay_s / 3600:.1f} h, "
          f"max {impact.max_delay_s / 3600:.1f} h")

    print("\n=== 3. cohort scaling: 10 randomized personas ===")
    scale = cohort_scale(n_users=10)
    print("  savings:", " ".join(f"{s:.2f}" for s in sorted(scale.savings)))
    print(f"  mean {scale.mean_saving:.3f}, range "
          f"[{scale.min_saving:.3f}, {scale.max_saving:.3f}]")

    print("\n=== 4. learning curve + online updates ===")
    curve = learning_curve()
    for days, accuracy in zip(curve.history_days, curve.accuracy):
        print(f"  {days:2d} training days -> {accuracy:.3f} slot-prediction accuracy")
    trace = generate_volunteers(14, seed=43)[0]
    online = OnlineHabitModel(trace.user_id, start_weekday=trace.start_weekday)
    online.observe_many(stream_trace(trace))  # the monitoring component's records
    for day in range(trace.n_days):
        online.close_day(day)  # nightly refresh: the fit of days 0..day, bit for bit
    model = online.to_model()
    print(f"  online model now covers {model.n_weekdays} weekdays + "
          f"{model.n_weekends} weekend days without a batch refit")


if __name__ == "__main__":
    main()
