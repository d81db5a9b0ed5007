"""The domain rules (RPR001, RPR002, RPR005, RPR006 and RPR008).

Importing this package registers every rule with
:data:`repro.lint.base.RULES`.
"""

from __future__ import annotations

from repro.lint.rules.caching import CachingContractRule
from repro.lint.rules.numpy_hygiene import NumpyHygieneRule
from repro.lint.rules.randomness import RandomnessRule
from repro.lint.rules.sleeps import SleepRetryRule
from repro.lint.rules.units import UnitsDisciplineRule

__all__ = [
    "CachingContractRule",
    "NumpyHygieneRule",
    "RandomnessRule",
    "SleepRetryRule",
    "UnitsDisciplineRule",
]
