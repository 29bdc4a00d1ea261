"""Tests of the benchmark's own helpers: python3 -m pytest perfbench/tests"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import checks  # noqa: E402
import spans  # noqa: E402

NOISE_CSV = """# experiment = noise-sweep
# seed = 3
sigma_uev,fidelity_mean_percent,fidelity_std_percent,n
0.001,99.3,0.001,3
5,97.1,0.4,3
"""


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has [6, 8]
        s = [(0.0, 10.0, None), (1.0, 4.0, 0), (5.0, 9.0, 0), (6.0, 8.0, 2)]
        assert spans.self_times(s) == pytest.approx([3.0, 3.0, 2.0, 2.0])

    def test_overlapping_children_count_once(self):
        s = [(0.0, 10.0, None), (2.0, 6.0, 0), (4.0, 8.0, 0)]
        assert spans.self_times(s)[0] == pytest.approx(4.0)

    def test_tracer_records_parent_and_self(self):
        t = spans.Tracer()
        with t.span("runner"):
            with t.span("inner"):
                pass
        assert [s[0] for s in t.spans] == ["runner", "inner"]
        assert t.spans[1][3] == 0
        own = spans.self_times([(s[1], s[2], s[3]) for s in t.spans])
        assert own[0] == pytest.approx(
            (t.spans[0][2] - t.spans[0][1]) - (t.spans[1][2] - t.spans[1][1]))


def test_layer_metrics_cover_every_listed_metric():
    assert spans.Tracer().layer_metrics().keys() == spans.LAYER_METRICS.keys()


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_highest_with_ten_beyond(self, n, expected):
        assert spans.tail_percentile(n) == expected

    def test_nearest_rank(self):
        vals = list(range(1, 101))
        assert spans.percentile(vals, 50.0) == 50
        assert spans.percentile(vals, 90.0) == 90
        assert spans.percentile([7.0], 99.0) == 7.0


class TestFailureCounting:
    def test_boundary_exception_counted_and_reraised(self):
        t = spans.Tracer()

        class GeometryError(Exception):
            pass

        def boom():
            raise GeometryError("no dots")

        with pytest.raises(GeometryError):
            t.call("noise.perturbed_spin_params", boom, (), {}, boundary=True)
        assert t.failures["GeometryError"] == 1
        assert t.spans[0][2] is not None

    def test_unknown_class_is_other(self):
        t = spans.Tracer()
        with pytest.raises(KeyError):
            t.call("dynamics.evolve.rwa", {}.__getitem__, ("x",), {},
                   boundary=True)
        assert t.failures == {"other": 1}


class TestOutputChecks:
    def test_clean_noise_output(self):
        assert checks.noise_sweep_failures(NOISE_CSV, (0.001, 5.0), 3) == 0

    def test_short_n_fails_the_sigma(self):
        text = NOISE_CSV.replace("5,97.1,0.4,3", "5,97.1,0.4,2")
        assert checks.noise_sweep_failures(text, (0.001, 5.0), 3) == 3

    def test_missing_or_corrupted_row_fails(self):
        text = NOISE_CSV.replace("0.001,99.3", "0.001,nan")
        assert checks.noise_sweep_failures(text, (0.001, 5.0), 3) == 3
        assert checks.noise_sweep_failures("", (0.001, 5.0), 3) == 6

    def test_body_ignores_header_only(self):
        other_header = NOISE_CSV.replace("# seed = 3", "# seed = 4")
        assert checks.csv_body(other_header) == checks.csv_body(NOISE_CSV)
        corrupted = NOISE_CSV.replace("97.1", "97.2")
        assert checks.csv_body(corrupted) != checks.csv_body(NOISE_CSV)

    def test_lab_vs_rwa(self):
        keys = [("gate",), ("tau", 1.0)]
        rwa = {("gate",): 99.3, ("tau", 1.0): 67.75}
        assert checks.lab_gate_failures(
            {("gate",): 99.301, ("tau", 1.0): 67.75}, rwa, keys) == 0
        assert checks.lab_gate_failures(
            {("gate",): 99.32, ("tau", 1.0): math.nan}, rwa, keys) == 2

    def test_gate_fidelities_parse(self):
        gate = "# fidelity_percent = 99.338251\nt_ns,p_uu\n0,0\n"
        sweep = "tau_tr_ns,fidelity_mean_percent,fidelity_std_percent,n\n1,67.7,0,1\n"
        assert checks.gate_fidelities(gate, sweep) == {
            ("gate",): 99.338251, ("tau", 1.0): 67.7}

    def test_anchors(self):
        good = {400.0: {"e_zl_hz": 18.31e9, "e_zr_hz": 18.45e9, "j_hz": 72e3},
                408.0: {"e_zl_hz": 0.0, "e_zr_hz": 0.0, "j_hz": 18.3e6}}
        assert checks.anchor_failures(good) == set()
        bad = {**good, 408.0: {"j_hz": 10e6}}
        assert checks.anchor_failures(bad) == {408.0}


class TestNoiseWorkloadFailures:
    """A corrupted body or a short n in one runner call is a failed operation."""

    def _workload(self, tmp_path):
        import workloads
        return workloads.NoiseMC(str(tmp_path), seed=3)

    def _csv(self, wl, n=3, fid="99.3"):
        rows = "".join(f"{s!r},{fid},0.01,{n}\n" for s in wl.sigmas)
        return ("# seed = 3\n"
                "sigma_uev,fidelity_mean_percent,fidelity_std_percent,n\n" + rows)

    def test_counts(self, tmp_path):
        wl = self._workload(tmp_path)
        good = [(0, self._csv(wl))]
        assert wl.failures(None, None, [good, good]) == 0
        corrupted = [(0, self._csv(wl, fid="99.4"))]
        assert wl.failures(None, None, [good, corrupted]) == 9
        short = [(0, self._csv(wl, n=2))]
        assert wl.failures(None, None, [short, short]) == 18
        crashed = [(None, "")]
        assert wl.failures(None, None, [good, crashed]) == 9


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == spans.LAYER_METRICS
    import run
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
