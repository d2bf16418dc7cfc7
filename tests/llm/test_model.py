"""Tests for the SimulatedLLM facade."""

import pytest

from repro.errors import ModelError, TokenBudgetExceededError
from repro.llm import SimulatedLLM, get_profile
from repro.llm.profiles import PROFILES


class TestGenerate:
    def test_result_carries_full_accounting(self, llm, tweet_corpus):
        tweet = tweet_corpus[0]
        result = llm.generate(
            f"Summarize the tweet in at most 30 words.\nTweet:\n{tweet.text}"
        )
        assert result.prompt_tokens > 0
        assert result.output_tokens > 0
        assert result.latency.total > 0
        assert 0.0 <= result.confidence <= 1.0
        assert result.cache_hit_rate == 0.0  # cold cache

    def test_clock_advances_by_latency(self, llm, tweet_corpus):
        result = llm.generate(
            f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        )
        assert llm.clock.now == pytest.approx(result.latency.total)

    def test_repeated_prompt_hits_prefix_cache(self, llm, tweet_corpus):
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        cold = llm.generate(prompt)
        warm = llm.generate(prompt)
        assert warm.cached_tokens > 0
        assert warm.latency.total < cold.latency.total

    def test_use_cache_false_bypasses(self, llm, tweet_corpus):
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        llm.generate(prompt)
        bypassed = llm.generate(prompt, use_cache=False)
        assert bypassed.cached_tokens == 0

    def test_disabled_cache_instance(self, tweet_corpus):
        model = SimulatedLLM(enable_prefix_cache=False)
        model.bind_tweets(tweet_corpus)
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        model.generate(prompt)
        assert model.generate(prompt).cached_tokens == 0

    def test_max_tokens_truncates(self, llm, tweet_corpus):
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        result = llm.generate(prompt, max_tokens=5)
        assert result.output_tokens == 5

    def test_empty_prompt_rejected(self, llm):
        with pytest.raises(ModelError):
            llm.generate("")

    def test_context_window_enforced(self, tweet_corpus):
        from dataclasses import replace

        tiny = replace(get_profile("qwen2.5-7b-instruct"), context_window=10)
        model = SimulatedLLM(tiny)
        with pytest.raises(TokenBudgetExceededError):
            model.generate("word " * 50)

    def test_unknown_profile_name_rejected(self):
        with pytest.raises(ModelError):
            SimulatedLLM("gpt-17")

    def test_all_registered_profiles_construct(self):
        for name in PROFILES:
            assert SimulatedLLM(name).profile.name == name


class TestAggregates:
    def test_counters_accumulate(self, llm, tweet_corpus):
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        llm.generate(prompt)
        llm.generate(prompt)
        assert llm.calls == 2
        assert llm.total_prompt_tokens > 0
        assert llm.overall_cache_hit_rate > 0

    def test_reset_stats(self, llm, tweet_corpus):
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        llm.generate(prompt)
        llm.reset_stats()
        assert llm.calls == 0
        assert llm.overall_cache_hit_rate == 0.0
        # Cache kept by default: next call still hits.
        assert llm.generate(prompt).cached_tokens > 0

    def test_reset_stats_clear_cache(self, llm, tweet_corpus):
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        llm.generate(prompt)
        llm.reset_stats(clear_cache=True)
        assert llm.generate(prompt).cached_tokens == 0


class TestDeterminism:
    def test_same_inputs_same_outputs_across_instances(self, tweet_corpus):
        prompt = (
            "Select the tweet only if its sentiment is negative. Respond with "
            f"yes or no.\nTweet:\n{tweet_corpus[3].text}"
        )
        model_1 = SimulatedLLM()
        model_1.bind_tweets(tweet_corpus)
        model_2 = SimulatedLLM()
        model_2.bind_tweets(tweet_corpus)
        result_1 = model_1.generate(prompt)
        result_2 = model_2.generate(prompt)
        assert result_1.text == result_2.text
        assert result_1.confidence == result_2.confidence
        assert result_1.latency.total == result_2.latency.total

    def test_different_profiles_may_disagree_on_latency(self, tweet_corpus):
        prompt = f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
        qwen = SimulatedLLM("qwen2.5-7b-instruct")
        gpt = SimulatedLLM("gpt-4o-mini")
        qwen.bind_tweets(tweet_corpus)
        gpt.bind_tweets(tweet_corpus)
        assert qwen.generate(prompt).latency.total != gpt.generate(prompt).latency.total


class TestResultCacheKey:
    def test_profile_and_corpora_identity(self, tweet_corpus, clinical_corpus):
        bare = SimulatedLLM("qwen2.5-7b-instruct")
        assert bare.result_cache_key == "qwen2.5-7b-instruct"

        bound = SimulatedLLM("qwen2.5-7b-instruct")
        bound.bind_tweets(tweet_corpus)
        bound.bind_clinical(clinical_corpus)
        key = bound.result_cache_key
        assert key.startswith("qwen2.5-7b-instruct/tweets:")
        assert "/clinical:" in key

    def test_same_corpus_objects_alias(self, tweet_corpus):
        first = SimulatedLLM("qwen2.5-7b-instruct")
        second = SimulatedLLM("qwen2.5-7b-instruct")
        first.bind_tweets(tweet_corpus)
        second.bind_tweets(tweet_corpus)
        # Same profile + same corpus object => interchangeable backends.
        assert first.result_cache_key == second.result_cache_key

    def test_equal_corpus_contents_alias(self, tweet_corpus):
        from repro.data import make_tweet_corpus

        first = SimulatedLLM("qwen2.5-7b-instruct")
        second = SimulatedLLM("qwen2.5-7b-instruct")
        first.bind_tweets(tweet_corpus)
        # A rebuilt corpus is another object with the same tweets.
        second.bind_tweets(make_tweet_corpus(60, seed=7))
        assert first.result_cache_key == second.result_cache_key

    def test_different_corpus_contents_never_alias(self, tweet_corpus):
        from repro.data import make_tweet_corpus

        first = SimulatedLLM("qwen2.5-7b-instruct")
        second = SimulatedLLM("qwen2.5-7b-instruct")
        first.bind_tweets(tweet_corpus)
        second.bind_tweets(make_tweet_corpus(60, seed=11))
        assert first.result_cache_key != second.result_cache_key

    def test_different_profiles_never_alias(self, tweet_corpus):
        qwen = SimulatedLLM("qwen2.5-7b-instruct")
        gpt = SimulatedLLM("gpt-4o-mini")
        qwen.bind_tweets(tweet_corpus)
        gpt.bind_tweets(tweet_corpus)
        assert qwen.result_cache_key != gpt.result_cache_key
