"""Exact-comparison views of a replayed day (:class:`DayExecution`).

``SlotPrediction`` holds a NumPy vector, which ``==`` cannot compare
inside a dataclass; these views turn it into a list so a whole day,
plan parts and runtime admission state included, compares with one
exact ``==``.
"""

from __future__ import annotations


def prediction_fields(prediction) -> tuple:
    return (prediction.hour_probs.tolist(), prediction.delta, prediction.slots)


def plan_fields(plan) -> dict | None:
    """Every field of a :class:`DayPlan`: shared parts and its own state."""
    if plan is None:
        return None
    instance = {
        **vars(plan.instance),
        "prediction": prediction_fields(plan.instance.prediction),
    }
    return {
        **vars(plan),
        "prediction": prediction_fields(plan.prediction),
        "instance": instance,
    }


def execution_fields(execution) -> dict:
    return {**vars(execution), "plan": plan_fields(execution.plan)}
