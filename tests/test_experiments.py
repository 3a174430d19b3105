"""Smoke tests for the fast experiment runners (the slow app-scale
runners are exercised by the benchmark suite), for the sharing of the
app-scale runs between figures, and for the CLI."""

from collections import Counter

import pytest

from repro.apps import HdfsRun, SwiftRun
from repro.experiments import (run_fig11, run_fig12_hdfs, run_fig12_swift,
                               run_fig13, run_fig3, run_fig8, run_headline,
                               run_sweep, run_table1, run_table3, run_table4)
from repro.experiments import __main__ as cli
from repro.experiments import common, fig12
from repro.experiments.result import ExperimentResult
from repro.sim.session import installed


class TestResultContainer:
    def test_render_includes_rows_and_metrics(self):
        result = ExperimentResult(name="demo", headers=["a", "b"])
        result.add_row("x", 1)
        result.metrics["k"] = 2.5
        result.notes.append("a note")
        text = result.render()
        assert "demo" in text
        assert "k = 2.500" in text
        assert "note: a note" in text


class TestTables:
    def test_table1_rows(self):
        result = run_table1()
        assert len(result.rows) == 4
        assert result.metrics["dcs_functions"] == 6

    def test_table3_matches_paper_averages(self):
        result = run_table3()
        assert result.metrics["avg_lut_pct"] == pytest.approx(3.28, abs=0.15)
        assert result.metrics["avg_reg_pct"] == pytest.approx(1.02, abs=0.10)

    def test_table4_matches_paper(self):
        result = run_table4()
        assert result.metrics["lut_pct"] == pytest.approx(38, abs=1)
        assert result.metrics["bram_pct"] == pytest.approx(43, abs=1)
        assert result.metrics["fits_all_ndp"] == 1.0


class TestMicrobenchFigures:
    def test_fig8_ordering(self):
        result = run_fig8()
        assert (result.metrics["dcs_vs_linux"]
                < result.metrics["swopt_vs_linux"] < 1.0)

    def test_fig11_headline_bands(self):
        result = run_fig11()
        assert 0.35 < result.metrics["fig11a_software_reduction"] < 0.70
        assert 0.55 < result.metrics["fig11b_software_reduction"] < 0.85
        assert len(result.rows) == 6  # 3 schemes x 2 panels

    def test_fig3_integrated_wins(self):
        result = run_fig3()
        assert result.metrics["integrated_vs_swopt_cpu"] < 0.5
        assert result.metrics["integrated_total_us"] < result.metrics[
            "sw_opt_total_us"]


def _planes_off():
    return installed("tracer") is None and installed("metrics") is None


class TestCli:
    def test_traced_and_metered_run_writes_both_outputs(self, tmp_path,
                                                        capsys):
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.csv"
        assert cli.main(["--trace-jsonl", str(trace), "--metrics",
                         str(metrics), "fig3"]) == 0
        assert trace.stat().st_size > 0
        assert metrics.stat().st_size > 0
        assert _planes_off()
        assert "[Fig 3 regenerated in" in capsys.readouterr().out

    def test_sessions_uninstalled_when_a_runner_raises(self, tmp_path,
                                                       monkeypatch):
        def boom():
            assert not _planes_off()
            raise RuntimeError("runner failed")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig3", ("Fig 3", boom, True))
        with pytest.raises(RuntimeError, match="runner failed"):
            cli.main(["--trace-jsonl", str(tmp_path / "t.jsonl"),
                      "--metrics", str(tmp_path / "m.csv"), "fig3"])
        assert _planes_off()

    def test_unknown_slug_returns_2(self, capsys):
        assert cli.main(["no-such-figure"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unwritable_output_returns_2_before_running(self, tmp_path,
                                                       monkeypatch, capsys):
        ran = []
        monkeypatch.setitem(cli.EXPERIMENTS, "fig3",
                            ("Fig 3", lambda: ran.append(1), True))
        missing = tmp_path / "no-such-dir" / "m.csv"
        assert cli.main(["--metrics", str(missing), "fig3"]) == 2
        assert ran == []
        assert "cannot write metrics output" in capsys.readouterr().err
        assert _planes_off()


# Plausible per-scheme CPU shares: DCS-ctrl cheapest, the two software
# designs close together.
_CPU = {"sw-opt": 0.30, "sw-p2p": 0.27, "dcs-ctrl": 0.10}


@pytest.fixture
def built(monkeypatch):
    """Counts the app-scale runs made, on fake Swift/HDFS models."""
    built = Counter()

    def fake_swift(scheme, config):
        built["swift", scheme.name] += 1
        cpu = {"application": _CPU[scheme.name]}
        return SwiftRun(scheme=scheme.name, duration_ns=10 ** 8,
                        bytes_get=20_000_000, bytes_put=7_500_000,
                        requests_done=60, server_cpu=cpu)

    def fake_hdfs(scheme, config):
        built["hdfs", scheme.name] += 1
        cpu = {"network": _CPU[scheme.name]}
        return HdfsRun(scheme=scheme.name, duration_ns=4 * 10 ** 7,
                       bytes_moved=24 << 20, sender_cpu=cpu,
                       receiver_cpu=cpu)

    monkeypatch.setattr(fig12, "run_swift", fake_swift)
    monkeypatch.setattr(fig12, "run_hdfs_balancer", fake_hdfs)
    fig12.app_run.cache_clear()
    yield built
    fig12.app_run.cache_clear()


@pytest.fixture
def measured(monkeypatch):
    """Counts the microbenchmark sends measured, by (scheme, processing,
    size); the sends themselves are real."""
    measured = Counter()
    real = common.measure_send

    def counting(scheme_cls, processing, size):
        measured[scheme_cls.name, processing, size] += 1
        return real(scheme_cls, processing, size)

    monkeypatch.setattr(common, "measure_send", counting)
    common.send_run.cache_clear()
    yield measured
    common.send_run.cache_clear()


class TestAppRunSharing:
    """Fig 12, Fig 13 and the headline read one run per (app, scheme);
    sw-p2p's HDFS run is sw-opt's (HDFS sends carry no processing)."""

    def test_each_app_scheme_pair_built_once(self, built):
        run_fig12_swift()
        run_fig12_hdfs()
        run_fig13()
        headline = run_headline()
        assert built == {**{("swift", scheme): 1 for scheme in fig12.SCHEMES},
                         ("hdfs", "sw-opt"): 1, ("hdfs", "dcs-ctrl"): 1}
        assert headline.metrics["cpu_reduction_swift"] == pytest.approx(
            1 - _CPU["dcs-ctrl"] / _CPU["sw-opt"])

    def test_aliased_hdfs_run_keeps_its_scheme_name(self, built):
        run = fig12.app_run("hdfs", "sw-p2p")
        assert run.scheme == "sw-p2p"
        assert run.sender_cpu == fig12.app_run("hdfs", "sw-opt").sender_cpu


class TestSendRunSharing:
    """Figs 3, 8 and 11, the sweep and the headline measure each
    (scheme, processing, size) once."""

    def test_each_send_measured_once(self, built, measured):
        run_fig3()
        run_fig8()
        run_fig11()
        run_sweep()
        run_headline()
        assert set(measured.values()) == {1}
        # Fig 3: 3, Fig 8: 2, Fig 11: 6, sweep: 12 less its 4 KiB row,
        # which is Fig 11(b).
        assert len(measured) == 3 + 2 + 6 + 12 - 3

    def test_main_starts_from_empty_run_memos(self, built, measured,
                                              capsys):
        # A traced main() after an untraced one must simulate again, or
        # its trace would be empty.
        for _ in range(2):
            assert cli.main(["fig8", "fig12b"]) == 0
        assert set(measured.values()) == {2}
        assert built == {("hdfs", "sw-opt"): 2, ("hdfs", "dcs-ctrl"): 2}
