"""JSON serialization for middleware configs.

Stream checkpoints (:mod:`repro.stream`) persist the
:class:`~repro.core.netmaster.NetMasterConfig` driving the scheduler
(:func:`config_to_dict` / :func:`config_from_dict`, δ strategy
included) and restore it **exactly**: the resumed stream has to make
byte-identical decisions.  Python's ``json`` emits floats with
shortest-round-trip ``repr``, so every finite float64 survives a
dump/load cycle bit-exactly; the helpers here only have to map the
dataclasses onto plain JSON types and back.
"""

from __future__ import annotations

from repro.habits.threshold import (
    DeltaStrategy,
    FixedDelta,
    ImpactBasedDelta,
    WeekdayWeekendDelta,
)

_CONFIG_FORMAT = 1


def delta_to_dict(strategy: DeltaStrategy | None) -> dict | None:
    """JSON tag for the bundled δ strategies (``None`` passes through)."""
    if strategy is None:
        return None
    if isinstance(strategy, FixedDelta):
        return {"kind": "fixed", "delta": strategy.delta}
    if isinstance(strategy, WeekdayWeekendDelta):
        return {
            "kind": "weekday_weekend",
            "weekday": strategy.weekday,
            "weekend": strategy.weekend,
        }
    if isinstance(strategy, ImpactBasedDelta):
        return {"kind": "impact", "interrupt_budget": strategy.interrupt_budget}
    raise TypeError(
        f"cannot serialize delta strategy {type(strategy).__name__}; "
        "only the bundled FixedDelta/WeekdayWeekendDelta/ImpactBasedDelta round-trip"
    )


def delta_from_dict(data: dict | None) -> DeltaStrategy | None:
    """Inverse of :func:`delta_to_dict`."""
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "fixed":
        return FixedDelta(float(data["delta"]))
    if kind == "weekday_weekend":
        return WeekdayWeekendDelta(float(data["weekday"]), float(data["weekend"]))
    if kind == "impact":
        return ImpactBasedDelta(float(data["interrupt_budget"]))
    raise ValueError(f"unknown delta strategy kind: {kind!r}")


def config_to_dict(config) -> dict:
    """JSON-safe dump of a :class:`~repro.core.netmaster.NetMasterConfig`."""
    from repro.radio.power import RadioPowerModel

    power: RadioPowerModel = config.power
    return {
        "format": _CONFIG_FORMAT,
        "power": {
            "name": power.name,
            "p_idle_w": power.p_idle_w,
            "p_dch_w": power.p_dch_w,
            "p_fach_w": power.p_fach_w,
            "promo_idle_dch_s": power.promo_idle_dch_s,
            "promo_idle_dch_w": power.promo_idle_dch_w,
            "promo_fach_dch_s": power.promo_fach_dch_s,
            "promo_fach_dch_w": power.promo_fach_dch_w,
            "dch_tail_s": power.dch_tail_s,
            "fach_tail_s": power.fach_tail_s,
        },
        "link": {"bandwidth_bps": config.link.bandwidth_bps},
        "et_w": config.et_w,
        "eps": config.eps,
        "delta": delta_to_dict(config.delta),
        "duty_initial_s": config.duty_initial_s,
        "duty_factor": config.duty_factor,
        "duty_max_s": config.duty_max_s,
        "wake_window_s": config.wake_window_s,
        "guard_s": config.guard_s,
        "optimize_in_slot_traffic": config.optimize_in_slot_traffic,
        "min_history_days": config.min_history_days,
        "degrade_on_insufficient_history": config.degrade_on_insufficient_history,
        "enable_circuit_breaker": config.enable_circuit_breaker,
        "breaker_threshold": config.breaker_threshold,
        "breaker_min_interactions": config.breaker_min_interactions,
        "breaker_cooldown_days": config.breaker_cooldown_days,
    }


def config_from_dict(data: dict):
    """Inverse of :func:`config_to_dict`; round-trips to an equal config."""
    from repro.core.netmaster import NetMasterConfig
    from repro.radio.bandwidth import LinkModel
    from repro.radio.power import RadioPowerModel

    fmt = data.get("format")
    if fmt != _CONFIG_FORMAT:
        raise ValueError(
            f"unsupported config format: {fmt!r} "
            f"(this build reads format {_CONFIG_FORMAT})"
        )
    p = data["power"]
    return NetMasterConfig(
        power=RadioPowerModel(
            name=str(p["name"]),
            p_idle_w=float(p["p_idle_w"]),
            p_dch_w=float(p["p_dch_w"]),
            p_fach_w=float(p["p_fach_w"]),
            promo_idle_dch_s=float(p["promo_idle_dch_s"]),
            promo_idle_dch_w=float(p["promo_idle_dch_w"]),
            promo_fach_dch_s=float(p["promo_fach_dch_s"]),
            promo_fach_dch_w=float(p["promo_fach_dch_w"]),
            dch_tail_s=float(p["dch_tail_s"]),
            fach_tail_s=float(p["fach_tail_s"]),
        ),
        link=LinkModel(bandwidth_bps=float(data["link"]["bandwidth_bps"])),
        et_w=float(data["et_w"]),
        eps=float(data["eps"]),
        delta=delta_from_dict(data["delta"]),
        duty_initial_s=float(data["duty_initial_s"]),
        duty_factor=float(data["duty_factor"]),
        duty_max_s=float(data["duty_max_s"]),
        wake_window_s=float(data["wake_window_s"]),
        guard_s=float(data["guard_s"]),
        optimize_in_slot_traffic=bool(data["optimize_in_slot_traffic"]),
        min_history_days=int(data["min_history_days"]),
        degrade_on_insufficient_history=bool(data["degrade_on_insufficient_history"]),
        enable_circuit_breaker=bool(data["enable_circuit_breaker"]),
        breaker_threshold=float(data["breaker_threshold"]),
        breaker_min_interactions=int(data["breaker_min_interactions"]),
        breaker_cooldown_days=int(data["breaker_cooldown_days"]),
    )
