"""Habit mining: intensity vectors, Pearson analysis, slot prediction."""

from repro.habits.intensity import usage_intensity_matrix, usage_intensity_vector
from repro.habits.pearson import (
    cross_user_matrix,
    day_matrix,
    intra_user_average,
    mean_offdiagonal,
    pairwise_matrix,
    pearson,
)
from repro.habits.prediction import (
    DataSufficiency,
    HabitModel,
    Slot,
    SlotPrediction,
    prediction_accuracy,
)
from repro.habits.serialization import config_from_dict, config_to_dict
from repro.habits.special_apps import SpecialAppRegistry
from repro.habits.threshold import (
    DeltaStrategy,
    FixedDelta,
    ImpactBasedDelta,
    WeekdayWeekendDelta,
)

__all__ = [
    "DataSufficiency",
    "DeltaStrategy",
    "FixedDelta",
    "HabitModel",
    "ImpactBasedDelta",
    "Slot",
    "SlotPrediction",
    "SpecialAppRegistry",
    "WeekdayWeekendDelta",
    "config_from_dict",
    "config_to_dict",
    "cross_user_matrix",
    "day_matrix",
    "intra_user_average",
    "mean_offdiagonal",
    "pairwise_matrix",
    "pearson",
    "prediction_accuracy",
    "usage_intensity_matrix",
    "usage_intensity_vector",
]
