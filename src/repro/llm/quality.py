"""Quality model: prompt features + model profile → error probability.

This module is the calibrated heart of the simulation.  Each structural
prompt feature multiplies the profile's base error rate by a factor < 1
(better prompts → fewer mistakes), fused multi-task prompts multiply it by
the profile's interference penalty (> 1), and the result is floored at the
profile's ``min_error``.  A per-item, per-prompt-fingerprint seeded RNG
turns the probability into deterministic decisions, so two runs of an
experiment — or two strategies sharing a prompt — agree exactly.

The multipliers were calibrated once so the Table 3 / Table 4 / Figure 1
shapes match the paper (see EXPERIMENTS.md); they are plain data and can
be overridden per profile via ``ModelProfile.feature_overrides``.
"""

from __future__ import annotations

import random
import zlib
from _random import Random as _CRandom

from repro.llm.features import PromptFeatures
from repro.llm.profiles import ModelProfile

__all__ = [
    "FEATURE_MULTIPLIERS",
    "error_rate",
    "noisy_bool",
    "confidence_for",
    "item_rng",
]

#: Multiplicative effect of each prompt feature on the error rate.
FEATURE_MULTIPLIERS: dict[str, float] = {
    "has_instruction": 0.75,
    "has_view_structure": 0.90,
    "has_focus_hint": 0.95,
    "has_adaptive_hint": 0.92,
    "has_examples": 0.90,
    "has_output_format": 0.95,
    "has_reasoning": 0.92,
    "has_guidance": 0.80,
    "per_criterion": 0.90,  # applied criteria_count times
    "per_hint_term": 0.98,  # applied per matched topical term
}

_MAX_ERROR = 0.49


def error_rate(
    features: PromptFeatures,
    profile: ModelProfile,
    *,
    fused_order: str | None = None,
    difficulty: float = 0.5,
) -> float:
    """Per-item error probability for a prompt with ``features``.

    Args:
        features: extracted structural features of the prompt.
        profile: the simulated backend.
        fused_order: ``"map_filter"`` or ``"filter_map"`` when the prompt
            fuses two pipeline stages (applies the profile's interference
            penalty); None for single-stage prompts.
        difficulty: item difficulty in [0, 1]; 0.5 is neutral.
    """
    multipliers = dict(FEATURE_MULTIPLIERS)
    multipliers.update(profile.feature_overrides)

    rate = profile.base_error
    for flag in (
        "has_instruction",
        "has_view_structure",
        "has_focus_hint",
        "has_adaptive_hint",
        "has_examples",
        "has_output_format",
        "has_reasoning",
        "has_guidance",
    ):
        if getattr(features, flag):
            rate *= multipliers[flag]
    rate *= multipliers["per_criterion"] ** features.criteria_count
    rate *= multipliers["per_hint_term"] ** len(features.hint_terms)

    if fused_order == "map_filter":
        rate *= profile.fusion_penalty_map_filter
    elif fused_order == "filter_map":
        rate *= profile.fusion_penalty_filter_map
    elif fused_order is not None:
        raise ValueError(f"unknown fused_order: {fused_order!r}")

    # Difficulty scales the rate: an easy item (0.0) roughly halves it, a
    # hard item (1.0) roughly doubles it relative to neutral difficulty.
    rate *= 0.5 + difficulty

    return min(max(rate, profile.min_error), _MAX_ERROR)


def item_rng(item_uid: str, fingerprint: int, model_name: str) -> random.Random:
    """Deterministic RNG for one (item, prompt-features, model) triple.

    The state is ``random.Random(seed)``'s, built without the Python
    ``__init__`` / ``seed`` layer: an int seed goes straight to the C
    seeding (``init_by_array``), and ``gauss_next`` is cleared as
    ``seed`` would clear it.
    """
    seed = zlib.crc32(f"{item_uid}|{fingerprint}|{model_name}".encode("utf-8"))
    rng = random.Random.__new__(random.Random)
    _CRandom.seed(rng, seed)
    rng.gauss_next = None
    return rng


def noisy_bool(
    correct: bool,
    p_error: float,
    item_uid: str,
    fingerprint: int,
    model_name: str,
) -> bool:
    """Return ``correct``, flipped with probability ``p_error``.

    The flip decision is a pure function of (item, prompt features, model),
    so identical prompts always make identical mistakes — the property that
    makes strategy comparisons in the experiments meaningful.
    """
    rng = item_rng(item_uid, fingerprint, model_name)
    if rng.random() < p_error:
        return not correct
    return correct


def confidence_for(
    p_error: float,
    item_uid: str,
    fingerprint: int,
    model_name: str,
) -> float:
    """A calibrated-ish confidence signal in [0.05, 0.99].

    Centered on ``1 - p_error`` with small deterministic jitter, so CHECK
    conditions like ``M["confidence"] < 0.7`` fire more often exactly when
    the prompt is weaker — mirroring how verbalized confidence correlates
    with quality in real systems.
    """
    rng = item_rng(item_uid + "#conf", fingerprint, model_name)
    jitter = rng.uniform(-0.08, 0.08)
    return min(max(1.0 - p_error + jitter, 0.05), 0.99)
