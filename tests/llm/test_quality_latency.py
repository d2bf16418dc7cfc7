"""Tests for the quality (error) model and latency model."""

import random
import zlib

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.features import PromptFeatures, extract_features
from repro.llm.latency import estimate_continuous_step, estimate_latency
from repro.llm.profiles import get_profile
from repro.llm.quality import confidence_for, error_rate, item_rng, noisy_bool

QWEN = get_profile("qwen2.5-7b-instruct")


class TestErrorRate:
    def test_bare_prompt_gets_base_error(self):
        features = PromptFeatures()
        assert error_rate(features, QWEN) == pytest.approx(QWEN.base_error)

    def test_each_feature_reduces_error(self):
        bare = error_rate(PromptFeatures(), QWEN)
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
            improved = error_rate(PromptFeatures(**{flag: True}), QWEN)
            assert improved < bare, flag

    def test_criteria_and_hint_terms_compound(self):
        few = error_rate(PromptFeatures(criteria_count=1), QWEN)
        many = error_rate(PromptFeatures(criteria_count=4), QWEN)
        assert many < few
        with_terms = error_rate(
            PromptFeatures(hint_terms=("school", "exam")), QWEN
        )
        assert with_terms < error_rate(PromptFeatures(), QWEN)

    def test_fusion_penalty_increases_error(self):
        features = PromptFeatures(has_instruction=True)
        single = error_rate(features, QWEN)
        fused_mf = error_rate(features, QWEN, fused_order="map_filter")
        fused_fm = error_rate(features, QWEN, fused_order="filter_map")
        assert fused_mf > single
        assert fused_fm > single
        assert fused_mf > fused_fm  # qwen's map_filter penalty is larger

    def test_unknown_fused_order_rejected(self):
        with pytest.raises(ValueError):
            error_rate(PromptFeatures(), QWEN, fused_order="sideways")

    def test_difficulty_scales(self):
        features = PromptFeatures(has_instruction=True)
        easy = error_rate(features, QWEN, difficulty=0.0)
        hard = error_rate(features, QWEN, difficulty=1.0)
        assert easy < hard
        assert hard / easy == pytest.approx(3.0)

    def test_floor_at_min_error(self):
        features = PromptFeatures(
            has_instruction=True,
            has_view_structure=True,
            has_focus_hint=True,
            has_adaptive_hint=True,
            has_examples=True,
            has_output_format=True,
            has_reasoning=True,
            has_guidance=True,
            criteria_count=6,
            hint_terms=("a", "b", "c", "d", "e"),
        )
        assert error_rate(features, QWEN, difficulty=0.0) == QWEN.min_error

    def test_profile_overrides_respected(self):
        from dataclasses import replace

        custom = replace(
            QWEN, feature_overrides={"has_instruction": 1.0}
        )
        features = PromptFeatures(has_instruction=True)
        assert error_rate(features, custom) == pytest.approx(custom.base_error)


class TestNoiseChannel:
    def test_determinism(self):
        fingerprint = extract_features("Classify. Respond with yes or no.").fingerprint()
        first = noisy_bool(True, 0.3, "t001", fingerprint, "qwen")
        second = noisy_bool(True, 0.3, "t001", fingerprint, "qwen")
        assert first == second

    def test_zero_error_never_flips(self):
        for index in range(50):
            assert noisy_bool(True, 0.0, f"t{index}", 1, "m") is True

    def test_probability_one_always_flips(self):
        for index in range(50):
            assert noisy_bool(True, 1.0, f"t{index}", 1, "m") is False

    def test_flip_rate_tracks_probability(self):
        flips = sum(
            1
            for index in range(2000)
            if not noisy_bool(True, 0.2, f"t{index:05d}", 42, "m")
        )
        assert 0.15 < flips / 2000 < 0.25

    def test_confidence_tracks_error_rate(self):
        high = sum(confidence_for(0.05, f"i{k}", 1, "m") for k in range(100)) / 100
        low = sum(confidence_for(0.40, f"i{k}", 1, "m") for k in range(100)) / 100
        assert high > low
        assert 0.05 <= low <= 0.99

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.text(min_size=1, max_size=10),
    )
    def test_confidence_bounds(self, p_error, uid):
        value = confidence_for(p_error, uid, 7, "m")
        assert 0.05 <= value <= 0.99


class TestItemRng:
    """``item_rng`` skips ``random.Random``'s Python seeding layer but
    must reach the state ``random.Random(crc32(...))`` reaches."""

    @settings(max_examples=300)
    @given(
        st.text(max_size=40),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.text(max_size=20),
    )
    def test_same_state_and_draws_as_random_random(self, uid, fingerprint, model):
        seed = zlib.crc32(f"{uid}|{fingerprint}|{model}".encode("utf-8"))
        fast, slow = item_rng(uid, fingerprint, model), random.Random(seed)
        assert type(fast) is random.Random
        assert fast.getstate() == slow.getstate()
        for draw in (
            lambda rng: rng.random(),
            lambda rng: rng.uniform(-0.08, 0.08),
            lambda rng: rng.gauss(0.0, 1.0),
            lambda rng: rng.gauss(0.0, 1.0),  # the cached second normal
            lambda rng: rng.random(),
        ):
            assert draw(fast) == draw(slow)
        assert fast.getstate() == slow.getstate()


class TestLatencyModel:
    def test_breakdown_components(self):
        breakdown = estimate_latency(
            QWEN, prompt_tokens=100, cached_tokens=60, output_tokens=10
        )
        assert breakdown.overhead == QWEN.overhead_s
        assert breakdown.prefill == pytest.approx(40 * QWEN.prefill_s_per_token)
        assert breakdown.cached_prefill == pytest.approx(
            60 * QWEN.cached_prefill_s_per_token
        )
        assert breakdown.decode == pytest.approx(10 * QWEN.decode_s_per_token)
        assert breakdown.total == pytest.approx(
            breakdown.overhead
            + breakdown.prefill
            + breakdown.cached_prefill
            + breakdown.decode
        )

    def test_cached_tokens_cheaper_than_uncached(self):
        cold = estimate_latency(QWEN, prompt_tokens=200, cached_tokens=0, output_tokens=0)
        warm = estimate_latency(QWEN, prompt_tokens=200, cached_tokens=200, output_tokens=0)
        assert warm.total < cold.total

    def test_cached_exceeding_prompt_rejected(self):
        with pytest.raises(ValueError):
            estimate_latency(QWEN, prompt_tokens=5, cached_tokens=6, output_tokens=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            estimate_latency(QWEN, prompt_tokens=-1, cached_tokens=0, output_tokens=0)

    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=10000),
        st.integers(min_value=0, max_value=10000),
    )
    def test_latency_monotone_in_tokens(self, prompt_tokens, output_tokens):
        base = estimate_latency(
            QWEN, prompt_tokens=prompt_tokens, cached_tokens=0, output_tokens=output_tokens
        )
        more = estimate_latency(
            QWEN,
            prompt_tokens=prompt_tokens + 10,
            cached_tokens=0,
            output_tokens=output_tokens + 10,
        )
        assert more.total > base.total


class TestContinuousStepDedup:
    REQUESTS = [(200, 0, 20), (200, 128, 20), (200, 128, 20)]
    ARRIVALS = [0.0, 0.0, 0.0]

    def test_omitted_and_zero_dedup_identical(self):
        base = estimate_continuous_step(QWEN, self.REQUESTS, self.ARRIVALS)
        zeros = estimate_continuous_step(
            QWEN, self.REQUESTS, self.ARRIVALS, dedup_tokens=[0, 0, 0]
        )
        assert zeros.completions == base.completions
        assert zeros.per_request == base.per_request
        assert base.total_dedup_tokens == 0

    def test_dedup_tokens_charged_zero_not_cached_rate(self):
        base = estimate_continuous_step(QWEN, self.REQUESTS, self.ARRIVALS)
        dedup = estimate_continuous_step(
            QWEN, self.REQUESTS, self.ARRIVALS, dedup_tokens=[0, 128, 128]
        )
        saved = QWEN.cached_prefill_s_per_token * 128
        assert dedup.per_request[1].cached_prefill == pytest.approx(0.0)
        assert dedup.completions[1] == pytest.approx(
            base.completions[1] - saved
        )
        # The serial pipe frees earlier, so savings compound downstream.
        assert dedup.prefill_free_at < base.prefill_free_at
        assert dedup.total_dedup_tokens == 256
        assert dedup.dedup_tokens == (0, 128, 128)

    def test_partial_dedup_remainder_pays_cached_rate(self):
        step = estimate_continuous_step(
            QWEN, self.REQUESTS, self.ARRIVALS, dedup_tokens=[0, 64, 0]
        )
        assert step.per_request[1].cached_prefill == pytest.approx(
            QWEN.cached_prefill_s_per_token * (128 - 64)
        )

    def test_single_request_degenerates_to_direct_call(self):
        step = estimate_continuous_step(
            QWEN, [(200, 64, 20)], [0.0], dedup_tokens=[0]
        )
        direct = estimate_latency(
            QWEN, prompt_tokens=200, cached_tokens=64, output_tokens=20
        )
        assert step.completions[0] == pytest.approx(direct.total)

    def test_dedup_validation(self):
        with pytest.raises(ValueError):
            estimate_continuous_step(
                QWEN, self.REQUESTS, self.ARRIVALS, dedup_tokens=[0, 0]
            )
        with pytest.raises(ValueError):
            estimate_continuous_step(
                QWEN, self.REQUESTS, self.ARRIVALS, dedup_tokens=[0, -1, 0]
            )
        with pytest.raises(ValueError):
            # Dedup beyond the request's own cached tokens is impossible:
            # only a cached trunk can be shared.
            estimate_continuous_step(
                QWEN, self.REQUESTS, self.ARRIVALS, dedup_tokens=[0, 129, 0]
            )
