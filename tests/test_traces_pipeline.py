"""End-to-end trace factory: synth -> ingest -> fit -> emit -> replay ->
validate, plus registry wiring, persistence, CLI and the serving bridge."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.lifecycle.observations import ObservationLog
from repro.traces import (
    RateSchedule,
    RateStep,
    ScenarioFamily,
    emit_family,
    fit_trace,
    ingest,
    replay_family,
    run_three_tier,
    trace_shaped_requests,
    validate_family,
)
from repro.traces.cli import main as ingest_main
from repro.traces.synthetic import (
    SyntheticTraceSpec,
    TracePhase,
    default_sample_spec,
    generate_synthetic_trace,
)
from repro.workload.scenarios import (
    available_scenarios,
    scenario,
    unregister_scenario,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SAMPLE_CSV = REPO_ROOT / "data" / "sample_trace.csv"
SAMPLE_CLF = REPO_ROOT / "data" / "sample_access.log"


def quick_spec(seed=7):
    """A small two-phase spec that keeps pipeline tests fast."""
    return SyntheticTraceSpec(
        phases=[TracePhase(20.0, 30.0), TracePhase(20.0, 60.0)],
        classes=[("browse", 0.7, 1.0), ("checkout", 0.3, 2.0)],
        service_mean=0.04,
        seed=seed,
    )


@pytest.fixture
def family(tmp_path):
    path = generate_synthetic_trace(tmp_path / "t.csv", quick_spec())
    trace = ingest(path)
    fit = fit_trace(trace, window_s=20.0)
    return emit_family(fit, "unittest", class_counts=trace.class_counts()), trace


class TestEmission:
    def test_family_recovers_generator_structure(self, family):
        fam, trace = family
        assert fam.base_rate == pytest.approx(45.0, rel=0.15)
        assert set(fam.class_weights) == {"browse", "checkout"}
        assert len(fam.windows) == 2
        # checkout's service scale is 2x browse's.
        browse = fam.class_service["browse"].mean
        checkout = fam.class_service["checkout"].mean
        assert checkout / browse == pytest.approx(2.0, rel=0.25)

    def test_classes_are_simulator_ready(self, family):
        fam, _ = family
        classes = fam.classes()
        assert sum(c.mix_weight for c in classes) == pytest.approx(1.0)
        names = {c.name for c in classes}
        assert names == {"trace_browse", "trace_checkout"}
        for cls in classes:
            assert cls.deadline > 0

    def test_registration_round_trip(self, family):
        fam, _ = family
        name = fam.register()
        try:
            assert name == "trace:unittest"
            assert name in available_scenarios()
            classes = scenario(name)
            assert {c.name for c in classes} == {
                "trace_browse",
                "trace_checkout",
            }
        finally:
            unregister_scenario(name)
        assert name not in available_scenarios()

    def test_json_round_trip(self, family, tmp_path):
        fam, _ = family
        path = fam.save(tmp_path / "fam.json")
        clone = ScenarioFamily.load(path)
        assert clone.to_dict() == fam.to_dict()

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            ScenarioFamily.load(path)


class TestRateSchedule:
    def test_profile_matches_windows(self, family):
        fam, _ = family
        schedule = fam.rate_schedule()
        assert schedule.duration == pytest.approx(40.0)
        # Phase rates: 30/s then 60/s.
        assert schedule.rate_at(5.0) == pytest.approx(30.0, rel=0.2)
        assert schedule.rate_at(30.0) == pytest.approx(60.0, rel=0.2)
        assert schedule.multiplier_at(100.0) == 1.0

    def test_disturbances_offset_and_restore(self, family):
        fam, _ = family
        steps = fam.rate_schedule().disturbances(offset=2.0)
        assert steps[0].start == pytest.approx(2.0)
        assert not steps[0].restore and steps[-1].restore
        with pytest.raises(ValueError):
            fam.rate_schedule().disturbances(offset=-1.0)

    def test_rate_step_validation(self):
        with pytest.raises(ValueError):
            RateStep(start=0.0, duration=1.0, multiplier=0.0)

    def test_empty_schedule(self):
        schedule = RateSchedule(base_rate=10.0)
        assert schedule.duration == 0.0
        assert schedule.rate_at(1.0) == 10.0


class TestReplay:
    def test_deterministic_for_fixed_seed(self, family):
        fam, _ = family
        a = replay_family(fam, seed=3)
        b = replay_family(fam, seed=3)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)
        np.testing.assert_array_equal(a.service_samples, b.service_samples)
        assert a.class_names == b.class_names

    def test_seed_changes_the_draw(self, family):
        fam, _ = family
        a = replay_family(fam, seed=3)
        b = replay_family(fam, seed=4)
        assert not np.array_equal(a.arrival_times, b.arrival_times)

    def test_arrivals_monotone_and_window_shaped(self, family):
        fam, _ = family
        replay = replay_family(fam, seed=0)
        assert np.all(np.diff(replay.arrival_times) >= 0)
        # Second window runs twice as hot as the first.
        first, second = replay.per_window_counts
        assert second / first == pytest.approx(2.0, rel=0.3)

    def test_validation_passes_on_own_trace(self, family):
        fam, trace = family
        report = validate_family(fam, trace, seed=0)
        assert report.passed, report.to_text()

    def test_three_tier_replay_returns_metrics(self, family):
        fam, _ = family
        metrics = run_three_tier(fam, warmup=1.0, duration=6.0, seed=1)
        assert metrics.completed > 0
        assert set(metrics.indicators) == {
            "manufacturing_rt",
            "dealer_purchase_rt",
            "dealer_manage_rt",
            "dealer_browse_rt",
            "effective_tps",
        }
        assert metrics.indicators["effective_tps"] > 0


class TestBundledSample:
    def test_sample_csv_validates_within_tolerance(self):
        trace = ingest(SAMPLE_CSV)
        fit = fit_trace(trace, window_s=40.0)
        fam = emit_family(fit, "sample", class_counts=trace.class_counts())
        report = validate_family(fam, trace, seed=0, tolerance=0.10)
        assert report.passed, report.to_text()

    def test_sample_csv_is_deterministic(self, tmp_path):
        regenerated = generate_synthetic_trace(
            tmp_path / "regen.csv", default_sample_spec()
        )
        assert regenerated.read_bytes() == SAMPLE_CSV.read_bytes()

    def test_sample_clf_quantization_fallback(self):
        trace = ingest(SAMPLE_CLF)
        assert trace.zero_gap_fraction() > 0.25
        fit = fit_trace(trace, window_s=30.0)
        assert fit.arrival_verdict == "quantized"
        fam = emit_family(fit, "clf", class_counts=trace.class_counts())
        report = validate_family(fam, trace, seed=0)
        assert report.passed, report.to_text()


class TestServingBridge:
    def test_trace_shaped_requests(self, family):
        fam, _ = family
        requests = trace_shaped_requests(fam, n=50, seed=0, time_scale=0.1)
        assert len(requests) == 50
        times = [at for at, _ in requests]
        assert times == sorted(times)
        assert times[-1] <= fam.duration * 0.1 + 1e-9
        for _, vector in requests:
            assert vector.shape == (4,)
            assert vector[0] > 0  # instantaneous rate

    def test_observation_log_export_reingests(self, tmp_path):
        log = ObservationLog(capacity=64)
        for i in range(30):
            log.record(
                "paper-mlp",
                [500.0 + i, 10, 16, 20],
                predicted=[0.1, 0.2, 0.2, 0.1, 450.0],
                measured=[0.12, 0.22, 0.18, 0.11, 440.0],
            )
        path = tmp_path / "observations.csv"
        assert log.export_trace(path, time_scale=0.5) == 30
        trace = ingest(path)
        assert len(trace) == 30
        assert trace.class_counts() == {"paper-mlp": 30}
        assert trace.duration == pytest.approx(14.5)  # (30-1) * 0.5
        # Service time = mean of the four measured response times.
        assert trace.service_samples[0] == pytest.approx(
            np.mean([0.12, 0.22, 0.18, 0.11])
        )

    def test_export_trace_falls_back_to_prediction(self, tmp_path):
        log = ObservationLog()
        log.record("m", [1.0], predicted=[0.3, 0.5, 100.0])
        log.record("m", [2.0])  # neither measured nor predicted
        path = tmp_path / "obs.csv"
        assert log.export_trace(path) == 2
        trace = ingest(path)
        assert len(trace) == 2
        assert trace.service_samples.tolist() == pytest.approx([0.4])
        with pytest.raises(ValueError):
            log.export_trace(path, time_scale=0.0)


class TestCli:
    def run(self, *argv):
        return ingest_main([str(a) for a in argv])

    def test_ingest_fit_emit_validate(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        assert self.run("ingest", SAMPLE_CSV, "--json") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["arrivals"] == 6889
        assert self.run("fit", SAMPLE_CSV, "--window", 40) == 0
        assert (
            self.run(
                "emit", SAMPLE_CSV, "--name", "cli-sample", "--out", out,
                "--window", 40,
            )
            == 0
        )
        unregister_scenario("trace:cli-sample")
        assert out.is_file()
        assert (
            self.run("validate", SAMPLE_CSV, "--window", 40, "--seed", 0) == 0
        )
        assert self.run("replay", out, "--duration", 10) == 0

    def test_synth_then_validate(self, tmp_path):
        trace = tmp_path / "synth.csv"
        assert self.run("synth", trace, "--seed", 99) == 0
        assert self.run("validate", trace, "--window", 40) == 0

    def test_validate_fails_loudly_on_degenerate_input(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "tiny.csv"
        path.write_text("timestamp,class,service_time\n1.0,a,0.1\n")
        # ValueError -> exit 1
        assert main(["ingest", "validate", str(path)]) == 1

    def test_far_future_timestamp_exits_1_not_hangs(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "far.csv"
        path.write_text(
            "timestamp,class,service_time\n"
            "0,a,0.1\n1,a,0.1\n1000000000000,a,0.1\n2,a,0.1\n3,a,0.1\n"
        )
        assert main(["ingest", "ingest", str(path)]) == 1
        assert "error: 277777778 windows" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        from repro.cli import main

        assert main(["ingest", "ingest", "/nonexistent/trace.csv"]) == 1
        assert capsys.readouterr().err == (
            "error: trace file not found: /nonexistent/trace.csv\n"
        )
