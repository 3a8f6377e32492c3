"""Continuous perf tracking: store, detector soundness, scenarios, CLI.

The detector tests are the load-bearing ones: a degradation checker that
cries wolf (flags identical or merely-resampled distributions) or stays
silent on a real 1.5x/3x slowdown would make the CI gate worthless in
both directions.  Samples here are synthetic -- the detector is a pure
function of its inputs, so no actual timing (and no timing flakiness)
is involved; the end-to-end CLI tests inject a deterministic delay
through the fault harness instead of relying on machine speed.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.obs.export import check_schema
from repro.perf import (
    PROFILE_SCHEMA,
    PerfStoreError,
    Profile,
    ProfileStore,
    SCENARIOS,
    Verdict,
    adversarial_families,
    compare_samples,
    diff_runs,
    environment_fingerprint,
    perf_summary,
    rank_sum_p_value,
    record_profiles,
    render_diff_markdown,
    render_trend_markdown,
    run_scenario,
    select_scenarios,
    trend_rows,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_profile(scenario="s", run=1, commit="c1", samples=(0.01, 0.011, 0.012),
                 env=None, **kwargs):
    return Profile(
        commit=commit,
        run=run,
        scenario=scenario,
        family=scenario.split(".")[0],
        samples=tuple(samples),
        env=env or environment_fingerprint(),
        **kwargs,
    )


# --------------------------------------------------------------------------- #
# detector soundness
# --------------------------------------------------------------------------- #


class TestDetectorSoundness:
    def test_identical_batches_are_no_change(self):
        samples = (0.010, 0.011, 0.010, 0.012, 0.011)
        result = compare_samples(samples, samples)
        assert result.verdict == Verdict.NO_CHANGE
        assert result.severity is None

    @given(st.lists(st.floats(0.005, 0.1), min_size=3, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_identical_batches_never_degrade(self, samples):
        result = compare_samples(samples, samples)
        assert result.verdict == Verdict.NO_CHANGE

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_resampled_same_distribution_never_degrades(self, seed):
        # two draws from one distribution must never confirm a degradation
        rng = random.Random(seed)
        base = 0.050
        baseline = [base + rng.uniform(-0.002, 0.002) for _ in range(5)]
        target = [base + rng.uniform(-0.002, 0.002) for _ in range(5)]
        result = compare_samples(baseline, target)
        assert result.verdict != Verdict.DEGRADATION

    def test_1_5x_slowdown_is_major_degradation(self):
        baseline = [0.0100, 0.0102, 0.0101, 0.0103, 0.0099]
        target = [value * 1.5 for value in baseline]
        result = compare_samples(baseline, target)
        assert result.verdict == Verdict.DEGRADATION
        assert result.severity == "major"
        assert result.p_value is not None and result.p_value <= 0.05

    def test_3x_slowdown_is_severe_degradation(self):
        baseline = [0.0100, 0.0102, 0.0101, 0.0103, 0.0099]
        target = [value * 3.0 for value in baseline]
        result = compare_samples(baseline, target)
        assert result.verdict == Verdict.DEGRADATION
        assert result.severity == "severe"

    def test_mild_slowdown_below_ratio_is_no_change(self):
        baseline = [0.0100, 0.0102, 0.0101, 0.0103, 0.0099]
        target = [value * 1.1 for value in baseline]
        assert compare_samples(baseline, target).verdict == Verdict.NO_CHANGE

    def test_big_speedup_is_optimization(self):
        baseline = [0.0300, 0.0302, 0.0301, 0.0303, 0.0299]
        target = [value / 2 for value in baseline]
        result = compare_samples(baseline, target)
        assert result.verdict == Verdict.OPTIMIZATION

    def test_jitter_floor_masks_micro_deltas(self):
        # a 2x ratio entirely under min_delta_s must stay NoChange
        baseline = [0.0005, 0.0005, 0.0005]
        target = [0.0010, 0.0010, 0.0010]
        assert compare_samples(baseline, target).verdict == Verdict.NO_CHANGE

    def test_tripped_screen_without_significance_is_maybe(self):
        # medians differ 1.5x but the batches interleave: rank test can't
        # confirm, so the verdict must stay Maybe (reported, not gating)
        baseline = [0.010, 0.030, 0.010, 0.030]
        target = [0.030, 0.010, 0.030, 0.010, 0.030]
        result = compare_samples(baseline, target)
        assert result.verdict in (Verdict.MAYBE_DEGRADATION, Verdict.NO_CHANGE)

    @given(
        st.lists(st.floats(0.005, 0.05), min_size=3, max_size=8),
        st.lists(st.floats(0.005, 0.05), min_size=3, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_comparisons_are_byte_identical_across_reruns(self, baseline, target):
        runs = [compare_samples(baseline, target) for _ in range(3)]
        payloads = {json.dumps(run.to_json(), sort_keys=True) for run in runs}
        assert len(payloads) == 1
        assert runs[0].verdict in Verdict.ALL

    def test_rank_sum_exact_matches_known_value(self):
        # fully separated 5-vs-5: the observed rank sum is the unique
        # maximum, so the exact mid-p is 1 / (2 * C(10,5)) = 1/504
        baseline = [1.0, 2.0, 3.0, 4.0, 5.0]
        target = [6.0, 7.0, 8.0, 9.0, 10.0]
        assert rank_sum_p_value(baseline, target) == pytest.approx(1 / 504)

    def test_rank_sum_all_tied_is_half(self):
        assert rank_sum_p_value([1.0] * 5, [1.0] * 5) == pytest.approx(0.5)

    def test_normal_approximation_agrees_in_direction(self):
        # beyond the exact-state cap: a clear shift still confirms
        baseline = [0.010 + 0.0001 * i for i in range(40)]
        target = [value * 2 for value in baseline]
        result = compare_samples(baseline, target)
        assert result.verdict == Verdict.DEGRADATION
        assert result.p_value is not None and result.p_value < 0.001

    def test_empty_batches_rejected(self):
        with pytest.raises(ValueError):
            compare_samples([], [0.01])
        with pytest.raises(ValueError):
            rank_sum_p_value([0.01], [])


# --------------------------------------------------------------------------- #
# profile store
# --------------------------------------------------------------------------- #


class TestProfileStore:
    def test_round_trip(self, tmp_path):
        store = ProfileStore(str(tmp_path / ".perf"))
        written = [make_profile("a.one", metrics={"counters": {"x": 1}}),
                   make_profile("b.two", samples=(0.5,))]
        store.append(written)
        loaded = store.profiles()
        assert [p.scenario for p in loaded] == ["a.one", "b.two"]
        assert loaded[0].metrics == {"counters": {"x": 1}}
        assert loaded[0].samples == written[0].samples
        assert store.last_run() == 1
        assert store.commits() == ["c1"]

    def test_records_conform_to_golden_schema(self, tmp_path):
        golden_path = os.path.join(
            REPO, "docs", "schemas", "perf_profile.schema.json"
        )
        with open(golden_path) as handle:
            golden = json.load(handle)
        assert golden == PROFILE_SCHEMA, (
            "docs/schemas/perf_profile.schema.json has drifted from "
            "repro.perf.store.PROFILE_SCHEMA -- regenerate the golden file"
        )
        assert check_schema(make_profile().to_json(), golden) == []

    def test_append_refuses_invalid_profile(self, tmp_path):
        store = ProfileStore(str(tmp_path / ".perf"))
        bad = make_profile(env={"digest": "x"})  # missing fingerprint fields
        with pytest.raises(PerfStoreError):
            store.append([bad])
        assert not store.exists()

    def test_torn_tail_is_ignored_then_healed(self, tmp_path):
        store = ProfileStore(str(tmp_path / ".perf"))
        store.append([make_profile("a.one")])
        with open(store.data_path, "a") as handle:
            handle.write('{"format": "pgschema-perf-prof')  # torn append
        assert [p.scenario for p in store.profiles()] == ["a.one"]
        assert store.summary()["profiles"] == 1
        store.append([make_profile("b.two", run=2)])
        loaded = store.profiles()
        assert [p.scenario for p in loaded] == ["a.one", "b.two"]
        with open(store.data_path) as handle:
            assert all(json.loads(line) for line in handle)

    def test_mid_file_corruption_raises_with_line(self, tmp_path):
        store = ProfileStore(str(tmp_path / ".perf"))
        store.append([make_profile("a.one")])
        with open(store.data_path, "a") as handle:
            handle.write("not json\n")
            handle.write(json.dumps(make_profile("b.two").to_json()) + "\n")
        with pytest.raises(PerfStoreError, match=":2"):
            store.profiles()

    @pytest.mark.parametrize(
        "line",
        [b"\xff\n", b"[" * 100_000 + b"\n", b'{"format": "pgschema-perf-profile"}\n'],
        ids=["invalid-utf8", "too-deep", "schema-violation"],
    )
    def test_bad_line_raises_with_line(self, tmp_path, line):
        store = ProfileStore(str(tmp_path / ".perf"))
        store.append([make_profile("a.one")])
        with open(store.data_path, "ab") as handle:
            handle.write(line)
        with pytest.raises(PerfStoreError, match=r"profiles\.jsonl:2: "):
            store.profiles()

    def test_torn_tail_cut_inside_a_character_is_ignored(self, tmp_path):
        store = ProfileStore(str(tmp_path / ".perf"))
        store.append([make_profile("a.one")])
        with open(store.data_path, "ab") as handle:
            handle.write('{"format": "pgschema-perf-profile", "commit": "\u00fc'.encode()[:-1])
        assert [p.scenario for p in store.profiles()] == ["a.one"]

    def test_empty_store_summary(self, tmp_path):
        summary = ProfileStore(str(tmp_path / "nope")).summary()
        assert summary["profiles"] == 0
        assert summary["last_commit"] is None

    def test_profile_requires_samples(self):
        with pytest.raises(PerfStoreError):
            make_profile(samples=())

    def test_environment_fingerprint_is_stable(self):
        first, second = environment_fingerprint(), environment_fingerprint()
        assert first == second
        assert len(first["digest"]) == 16


# --------------------------------------------------------------------------- #
# scenario registry
# --------------------------------------------------------------------------- #


class TestScenarios:
    def test_at_least_four_adversarial_families(self):
        families = adversarial_families()
        assert len(families) >= 4
        assert {
            "adversarial.lattice",
            "adversarial.union_fanout",
            "adversarial.key_collision",
            "adversarial.cardinality_web",
        } <= set(families)

    def test_registry_spans_every_engine(self):
        families = {entry.family for entry in SCENARIOS.values()}
        assert {
            "parse", "lint", "analysis", "validate", "sat", "cdc", "service"
        } <= families
        ids = set(SCENARIOS)
        assert {
            "validate.indexed", "validate.parallel", "validate.stream",
        } <= ids

    def test_select_by_prefix_family_and_exact(self):
        assert [e.id for e in select_scenarios(["parse.corpus"])] == ["parse.corpus"]
        assert len(select_scenarios(["validate."])) == 3
        assert all(
            entry.adversarial for entry in select_scenarios(["adversarial"])
        )
        with pytest.raises(ValueError, match="unknown scenario"):
            select_scenarios(["nope"])

    @pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
    def test_every_scenario_runs_quick(self, scenario_id):
        samples, metrics = run_scenario(
            SCENARIOS[scenario_id], quick=True, repeats=2
        )
        assert len(samples) == 2
        assert all(value >= 0 for value in samples)
        assert isinstance(metrics, dict)

    def test_run_scenario_restores_prior_observation(self):
        with obs.observed(metrics=True) as outer:
            run_scenario(SCENARIOS["parse.corpus"], quick=True, repeats=1)
            assert obs.active() is not None
            assert obs.active().registry is outer.registry
        assert obs.active() is None

    def test_record_profiles_stamps_run_and_meta(self, tmp_path):
        store = ProfileStore(str(tmp_path / ".perf"))
        profiles = record_profiles(
            commit="abc", run=1, quick=True, repeats=2, only=["parse.corpus"]
        )
        store.append(profiles)
        (loaded,) = store.profiles()
        assert loaded.run == 1 and loaded.commit == "abc" and loaded.quick
        assert loaded.meta["repeats"] == 2
        assert loaded.metrics is not None


# --------------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------------- #


class TestReports:
    def fill(self, tmp_path, target_scale=1.0):
        store = ProfileStore(str(tmp_path / ".perf"))
        base = (0.010, 0.0102, 0.0101, 0.0103, 0.0099)
        store.append([
            make_profile("a.one", run=1, commit="c1", samples=base),
            make_profile("b.two", run=1, commit="c1", samples=base),
        ])
        store.append([
            make_profile(
                "a.one", run=2, commit="c2",
                samples=tuple(v * target_scale for v in base),
            ),
            make_profile("b.two", run=2, commit="c2", samples=base),
        ])
        return store

    def test_diff_flags_scaled_scenario_only(self, tmp_path):
        report = diff_runs(self.fill(tmp_path, target_scale=2.0))
        assert report.has_degradation
        assert [entry.scenario for entry in report.degradations] == ["a.one"]
        by_name = {entry.scenario: entry for entry in report.entries}
        assert by_name["b.two"].comparison.verdict == Verdict.NO_CHANGE
        rendered = render_diff_markdown(report)
        assert "Degradation (major)" in rendered and "| a.one |" in rendered

    def test_diff_unperturbed_is_all_no_change(self, tmp_path):
        report = diff_runs(self.fill(tmp_path))
        assert not report.has_degradation
        assert report.verdict_counts()[Verdict.NO_CHANGE] == 2

    def test_diff_reports_added_removed_incomparable(self, tmp_path):
        store = ProfileStore(str(tmp_path / ".perf"))
        other_env = dict(environment_fingerprint(), digest="ffff000011112222")
        store.append([
            make_profile("gone", run=1),
            make_profile("both", run=1),
        ])
        store.append([
            make_profile("both", run=2, env=other_env),
            make_profile("new", run=2),
        ])
        statuses = {e.scenario: e.status for e in diff_runs(store).entries}
        assert statuses == {
            "gone": "removed", "both": "incomparable", "new": "added"
        }

    def test_diff_unknown_run_raises(self, tmp_path):
        with pytest.raises(ValueError, match="baseline run 7"):
            diff_runs(self.fill(tmp_path), baseline_run=7)

    def test_trend_rows_and_render(self, tmp_path):
        history = trend_rows(self.fill(tmp_path, target_scale=2.0))
        rows = history["a.one"]
        assert [row["run"] for row in rows] == [1, 2]
        assert rows[0]["delta_pct"] is None
        assert rows[1]["delta_pct"] == pytest.approx(100.0, abs=1.0)
        rendered = render_trend_markdown(history)
        assert "### a.one" in rendered and "+100.0%" in rendered
        with pytest.raises(ValueError, match="no recorded profiles"):
            trend_rows(ProfileStore(str(tmp_path / ".perf")), "missing")

    def test_perf_summary_shapes(self, tmp_path):
        summary = perf_summary(self.fill(tmp_path, target_scale=2.0))
        assert summary["scenarios"] == 2
        assert summary["last_commit"] == "c2"
        assert summary["verdicts"]["degradations"] == ["a.one"]
        empty = perf_summary(ProfileStore(str(tmp_path / "none")))
        assert empty["profiles"] == 0 and empty["verdicts"] is None


# --------------------------------------------------------------------------- #
# CLI end to end
# --------------------------------------------------------------------------- #


@pytest.fixture
def perf_store_path(tmp_path):
    return str(tmp_path / ".perf")


def record_args(store, commit, *extra, repeats=3):
    return [
        "perf", "record", "--store", store, "--quick", "--repeats", str(repeats),
        "--commit", commit, "--scenario", "validate.parallel",
        "--scenario", "parse.corpus", *extra,
    ]


class TestPerfCLI:
    def test_record_diff_check_clean(self, perf_store_path, capsys):
        assert main(record_args(perf_store_path, "base")) == 0
        assert "recorded run 1 at base" in capsys.readouterr().out
        assert main(record_args(perf_store_path, "head", "--json")) == 0
        assert json.loads(capsys.readouterr().out)["run"] == 2

        assert main(["perf", "diff", "--store", perf_store_path]) == 0
        assert "perf diff: run 1 -> run 2" in capsys.readouterr().out
        assert main(["perf", "check", "--store", perf_store_path]) == 0
        assert "perf check: OK" in capsys.readouterr().out

    def test_injected_delay_trips_the_gate(self, perf_store_path, capsys):
        from repro.resilience import faults

        # 3-vs-3 batches cannot confirm anything (the exact null's smallest
        # p-value is 1/C(6,3) = alpha); 5-vs-5 can, after Holm over the two
        # scenarios (1/C(10,5) < alpha/2)
        delay = 0.03
        assert main(record_args(perf_store_path, "base", repeats=5)) == 0
        faults.install(f"delay@parallel.merge:seconds={delay}")
        try:
            assert main(record_args(perf_store_path, "slow", repeats=5)) == 0
        finally:
            faults.uninstall()
        capsys.readouterr()

        # the gate and its verdict are deterministic across reruns: the
        # detector is a pure function of the recorded samples
        payloads = set()
        for _ in range(3):
            assert main(["perf", "check", "--store", perf_store_path,
                         "--json"]) == 1
            out = capsys.readouterr()
            payloads.add(out.out)
            assert "perf check: FAIL" in out.err
            assert "validate.parallel" in out.err
        assert len(payloads) == 1
        report = json.loads(payloads.pop())
        assert report["has_degradation"]
        by_name = {e["scenario"]: e for e in report["entries"]}
        degraded = by_name["validate.parallel"]["comparison"]
        assert degraded["verdict"] == Verdict.DEGRADATION
        # every slow sample carries the delay: allow it 80% of its nominal size
        base = degraded["baseline_median_s"]
        assert degraded["ratio"] >= (base + 0.8 * delay) / base
        assert by_name["parse.corpus"]["comparison"]["verdict"] != (
            Verdict.DEGRADATION
        )

    def test_trend_and_scenario_filter(self, perf_store_path, capsys):
        assert main(record_args(perf_store_path, "base")) == 0
        assert main(record_args(perf_store_path, "head")) == 0
        capsys.readouterr()
        assert main(["perf", "trend", "--store", perf_store_path,
                     "--scenario", "parse.corpus", "--json"]) == 0
        history = json.loads(capsys.readouterr().out)
        assert list(history) == ["parse.corpus"]
        assert len(history["parse.corpus"]) == 2

    def test_unknown_scenario_is_usage_error(self, perf_store_path, capsys):
        assert main(["perf", "record", "--store", perf_store_path,
                     "--scenario", "nope"]) == 2
        assert "error[E_PERF]" in capsys.readouterr().err

    def test_check_on_empty_store_is_usage_error(self, perf_store_path, capsys):
        assert main(["perf", "check", "--store", perf_store_path]) == 2
        assert "error[E_PERF]" in capsys.readouterr().err

    def test_stats_json_includes_perf_block(self, perf_store_path, tmp_path,
                                            capsys):
        assert main(record_args(perf_store_path, "base")) == 0
        graph_path = tmp_path / "graph.json"
        graph_path.write_text('{"nodes": [], "edges": []}')
        capsys.readouterr()
        assert main(["stats", str(graph_path), "--json",
                     "--perf-store", perf_store_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        perf = payload["perf"]
        assert perf["runs"] == 1 and perf["scenarios"] == 2
        assert perf["last_commit"] == "base"
        assert perf["verdicts"] is None  # one run: nothing to diff yet
        # the metrics schema tolerates the extra top-level key
        with open(os.path.join(REPO, "docs", "schemas",
                               "metrics.schema.json")) as handle:
            assert check_schema(payload, json.load(handle)) == []


# --------------------------------------------------------------------------- #
# service surface
# --------------------------------------------------------------------------- #


def test_service_stats_includes_perf_block(tmp_path):
    from repro.service import ServiceClient, ServiceThread

    store = ProfileStore(str(tmp_path / ".perf"))
    store.append([make_profile("a.one", commit="deadbeef")])
    thread = ServiceThread(port=0, perf_store=store.root)
    host, port = thread.start()
    try:
        with ServiceClient(host, port) as client:
            status, payload = client.request("GET", "/v1/stats", None)
    finally:
        thread.stop()
    assert status == 200
    assert payload["perf"]["profiles"] == 1
    assert payload["perf"]["last_commit"] == "deadbeef"


# --------------------------------------------------------------------------- #
# benchmark collector stamp
# --------------------------------------------------------------------------- #


def test_bench_artifacts_carry_the_fingerprint(tmp_path, monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "collect_results",
        os.path.join(REPO, "benchmarks", "collect_results.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    module.write_bench_json("unit", {"series": [1, 2, 3]})
    with open(tmp_path / "BENCH_unit.json") as handle:
        payload = json.load(handle)
    assert payload["env"] == environment_fingerprint()
    assert payload["series"] == [1, 2, 3]
