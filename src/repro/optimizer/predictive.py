"""Predictive refinement: act before failure, not after (paper §5).

"Instead of waiting for failures or low quality outputs to trigger
recovery, SPEAR uses predictive models, either trained or heuristic, to
anticipate risks such as low confidence ... and initiate targeted
refinements ahead of execution, minimizing costly retries."

Two predictors are provided:

- :class:`HeuristicRiskModel` — scores the *rendered* prompt's features
  through the same quality model the backend uses (the heuristic case);
- :class:`OnlineRiskModel` — learns a running mean confidence per prompt
  feature fingerprint from observed GEN outcomes (the trained case),
  falling back to the heuristic for unseen fingerprints.

:class:`PredictiveRefine` is the operator: before a GEN, if predicted risk
exceeds the threshold, apply the configured refinement immediately —
saving the failed call + retry that reactive CHECK-based repair would pay.
"""

from __future__ import annotations

from typing import Callable

from repro.core.algebra import Operator, Steps
from repro.core.state import ExecutionState
from repro.llm.features import extract_features
from repro.llm.profiles import ModelProfile
from repro.llm.quality import error_rate
from repro.runtime.events import EventKind

__all__ = ["HeuristicRiskModel", "OnlineRiskModel", "PredictiveRefine"]


class HeuristicRiskModel:
    """Risk = expected error rate of the rendered prompt under a profile."""

    def __init__(self, profile: ModelProfile, *, difficulty: float = 0.5) -> None:
        self.profile = profile
        self.difficulty = difficulty

    def predict(self, state: ExecutionState, prompt_key: str) -> float:
        """Predicted failure risk in [0, 1] for generating with this prompt."""
        rendered = state.render_prompt(prompt_key)
        features = extract_features(rendered)
        return error_rate(features, self.profile, difficulty=self.difficulty)


class OnlineRiskModel:
    """Learns risk from observed outcomes, keyed by feature fingerprint."""

    def __init__(self, fallback: HeuristicRiskModel) -> None:
        self.fallback = fallback
        self._sums: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def observe(self, state: ExecutionState, prompt_key: str, confidence: float) -> None:
        """Record one observed GEN outcome for this prompt's feature class."""
        rendered = state.render_prompt(prompt_key)
        fingerprint = extract_features(rendered).fingerprint()
        self._sums[fingerprint] = self._sums.get(fingerprint, 0.0) + confidence
        self._counts[fingerprint] = self._counts.get(fingerprint, 0) + 1

    def predict(self, state: ExecutionState, prompt_key: str) -> float:
        """Risk = 1 - mean observed confidence; heuristic when unseen."""
        rendered = state.render_prompt(prompt_key)
        fingerprint = extract_features(rendered).fingerprint()
        count = self._counts.get(fingerprint, 0)
        if count == 0:
            return self.fallback.predict(state, prompt_key)
        return 1.0 - self._sums[fingerprint] / count

    def observations(self) -> int:
        """Total outcomes observed so far."""
        return sum(self._counts.values())


class PredictiveRefine(Operator):
    """Apply a refinement *before* generation when predicted risk is high."""

    def __init__(
        self,
        prompt_key: str,
        risk_model: HeuristicRiskModel | OnlineRiskModel,
        refinement: Operator | Callable[[], Operator],
        *,
        threshold: float = 0.2,
    ) -> None:
        self.prompt_key = prompt_key
        self.risk_model = risk_model
        self._refinement = refinement
        self.threshold = threshold
        self.label = f'PREDICT["{prompt_key}", risk>{threshold}]'

    def _steps(self, state: ExecutionState) -> Steps:
        risk = self.risk_model.predict(state, self.prompt_key)
        state.metadata.set("predicted_risk", risk)
        state.events.emit(
            EventKind.PLAN,
            self.label,
            at=state.clock.now,
            risk=risk,
            threshold=self.threshold,
            refined=risk > self.threshold,
        )
        if risk > self.threshold:
            refinement = (
                self._refinement()
                if not isinstance(self._refinement, Operator)
                else self._refinement
            )
            state = yield from refinement.steps(state)
            state.metadata.increment("predictive_refinements")
        return state
