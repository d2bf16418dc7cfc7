"""Shape assertions for the paper's Table 3, Table 4, and Figure 1.

Run at reduced corpus sizes for speed; the shape claims (who wins, signs,
crossovers) are scale-independent by construction and asserted here, each
at the sizes it is claimed for.  ``python -m repro.experiments.<module>``
regenerates the full-size tables; ``test_expected.py`` pins their cells.
"""

import json

import pytest

from repro.data.tweets import make_tweet_corpus
from repro.experiments.fusion_models import MODELS, run_point
from repro.experiments.fusion_selectivity import SELECTIVITIES, run_cell
from repro.experiments.refinement_strategies import (
    PAPER_TABLE3,
    STRATEGIES,
    run_strategy,
    run_table3,
)
from repro.obs import ObsCollector, build_report
from repro.obs.exporters import write_json_report


@pytest.fixture(scope="module")
def table3():
    return run_table3(n=250, seed=7)


@pytest.fixture(scope="module")
def figure1_at_400():
    return {
        (model, order): run_point(model, order, n=400)
        for model in MODELS
        for order in ("map_filter", "filter_map")
    }


class TestTable3Shape:
    def test_static_and_agentic_get_no_cache_reuse(self, table3):
        assert table3.results["static"].filter_cache_hit < 0.05
        assert table3.results["agentic"].filter_cache_hit < 0.05

    def test_refinement_modes_get_high_cache_reuse(self, table3):
        for strategy in ("manual", "assisted", "auto"):
            assert table3.results[strategy].filter_cache_hit > 0.75, strategy

    def test_refinement_modes_speed_up_over_static(self, table3):
        for strategy in ("manual", "assisted", "auto"):
            assert table3.speedup(strategy) > 1.15, strategy

    def test_agentic_small_speedup(self, table3):
        assert 1.0 < table3.speedup("agentic") < 1.2

    def test_manual_is_fastest(self, table3):
        manual_time = table3.results["manual"].mean_item_seconds
        for strategy in ("static", "agentic", "assisted", "auto"):
            assert manual_time <= table3.results[strategy].mean_item_seconds

    def test_every_refinement_strategy_beats_static_f1(self, table3):
        static_f1 = table3.results["static"].f1
        for strategy in ("agentic", "manual", "assisted", "auto"):
            assert table3.results[strategy].f1 > static_f1, strategy

    def test_auto_refinement_has_best_f1(self, table3):
        auto_f1 = table3.results["auto"].f1
        for strategy in ("static", "manual", "assisted"):
            assert auto_f1 >= table3.results[strategy].f1, strategy
        # Agentic is the closest competitor (paper: 0.79 vs 0.81); allow
        # small-sample noise at reduced n.
        assert auto_f1 >= table3.results["agentic"].f1 - 0.02

    def test_f1_gain_column_consistent(self, table3):
        assert table3.f1_gain_pct("static") == 0.0
        assert table3.f1_gain_pct("auto") > 5.0

    def test_absolute_f1_in_plausible_band(self, table3):
        for strategy, result in table3.results.items():
            assert 0.55 < result.f1 < 0.95, strategy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_cache_reuse_and_f1_band_at_200(self, strategy):
        result = run_strategy(strategy, make_tweet_corpus(200, seed=7))
        # Refinement modes reuse the filter prefix, the others do not.
        if PAPER_TABLE3[strategy]["cache_hit"] > 50:
            assert result.filter_cache_hit > 0.75
        else:
            assert result.filter_cache_hit < 0.05
        assert 0.5 < result.f1 < 0.95

    @pytest.mark.parametrize("n", [200, 60])
    def test_headline_speedups_and_auto_f1(self, n):
        table = run_table3(n=n, seed=7)
        for strategy in ("manual", "assisted", "auto"):
            assert table.speedup(strategy) > 1.15, strategy
        assert 1.0 < table.speedup("agentic") < 1.25
        assert table.results["auto"].f1 >= table.results["static"].f1

    def test_run_report_matches_registry_at_200(self, tmp_path):
        """The observed run's JSON report equals its in-process registry."""
        collector = ObsCollector()
        table = run_table3(n=200, seed=7, collector=collector)
        assert table.results["auto"].f1 >= table.results["manual"].f1
        path = write_json_report(
            build_report(collector), tmp_path / "table3_run_report.json"
        )
        loaded = json.loads(path.read_text())
        registry = collector.registry
        assert loaded["totals"]["model_gen_calls"] == int(
            registry.sum_counter("spear_model_gen_calls_total")
        )
        for strategy in STRATEGIES:
            label = f"qwen2.5-7b-instruct/{strategy}"
            section = loaded["model"][label]
            # Map + Filter per item, plus any strategy-specific rewrites.
            assert section["calls"] >= 2 * 200
            assert section["calls"] == int(
                registry.get("spear_model_gen_calls_total", model=label).value
            )
            assert section["prompt_tokens"] == int(
                registry.get("spear_model_prompt_tokens_total", model=label).value
            )


class TestTable4Shape:
    def test_map_filter_gain_positive_at_all_selectivities(self):
        for selectivity in (0.1, 0.5, 1.0):
            cell = run_cell("map_filter", selectivity, n=120)
            assert cell.gain_pct > 10.0, selectivity

    def test_filter_map_negative_at_low_selectivity(self):
        cell = run_cell("filter_map", 0.1, n=120)
        assert cell.gain_pct < 0.0

    def test_filter_map_positive_at_high_selectivity(self):
        cell = run_cell("filter_map", 1.0, n=120)
        assert cell.gain_pct > 10.0

    def test_filter_map_gain_increases_with_selectivity(self):
        gains = [
            run_cell("filter_map", s, n=120).gain_pct for s in (0.1, 0.5, 1.0)
        ]
        assert gains == sorted(gains)

    @pytest.mark.parametrize("selectivity", SELECTIVITIES)
    def test_map_filter_gain_above_ten_pct_at_150(self, selectivity):
        assert run_cell("map_filter", selectivity, n=150).gain_pct > 10.0

    @pytest.mark.parametrize("selectivity", [0.1, 0.8, 1.0])
    def test_filter_map_gain_sign_at_150(self, selectivity):
        gain = run_cell("filter_map", selectivity, n=150).gain_pct
        if selectivity <= 0.1:
            assert gain < 0.0
        else:
            assert gain > 5.0

    def test_filter_map_gain_monotone_over_every_selectivity(self):
        gains = [run_cell("filter_map", s, n=100).gain_pct for s in SELECTIVITIES]
        assert gains == sorted(gains)


class TestFigure1Shape:
    @pytest.mark.parametrize(
        "model",
        ["qwen2.5-7b-instruct", "mistral-7b-instruct", "gpt-4o-mini"],
    )
    def test_map_filter_speedup_with_accuracy_cost(self, model):
        point = run_point(model, "map_filter", n=150)
        assert point.speedup > 1.15
        assert point.accuracy_drop_pct > 0.0

    @pytest.mark.parametrize(
        "model",
        ["qwen2.5-7b-instruct", "mistral-7b-instruct", "gpt-4o-mini"],
    )
    def test_filter_map_speedup_smaller_than_map_filter(self, model):
        map_filter = run_point(model, "map_filter", n=150)
        filter_map = run_point(model, "filter_map", n=150)
        assert filter_map.speedup < map_filter.speedup

    def test_filter_map_accuracy_drop_modest(self):
        for model in ("qwen2.5-7b-instruct", "gpt-4o-mini"):
            point = run_point(model, "filter_map", n=150)
            assert point.accuracy_drop_pct < 8.0

    @pytest.mark.parametrize("model", MODELS)
    def test_map_filter_point_in_paper_band_at_400(self, model, figure1_at_400):
        """Paper: every model speeds up (up to ~1.33x) at a 4-8pp cost."""
        point = figure1_at_400[model, "map_filter"]
        assert point.speedup > 1.15
        assert 0.0 < point.accuracy_drop_pct < 12.0

    @pytest.mark.parametrize("model", MODELS)
    def test_filter_map_point_below_map_filter_at_400(self, model, figure1_at_400):
        """Paper: smaller or negative speedups, accuracy drops 0.3-6pp."""
        point = figure1_at_400[model, "filter_map"]
        assert point.speedup < figure1_at_400[model, "map_filter"].speedup
        assert point.accuracy_drop_pct < 9.0
