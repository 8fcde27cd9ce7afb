"""Report rendering and CLI tests."""

import argparse
import io
import re

import pytest

from repro.common.config import small_config
from repro.harness.report import figure_with_bars, render_bars, write_report
from repro.core import Session
from repro.__main__ import build_parser, main


def _command_paths(parser, prefix=()):
    """Every subcommand path ``build_parser()`` registers, nested ones
    included, read from the subparsers' choices."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield prefix + (name,)
                yield from _command_paths(child, prefix + (name,))


COMMAND_PATHS = list(_command_paths(build_parser()))


@pytest.fixture(scope="module")
def mini_suite():
    return Session(small_config(2)).suite(scale=0.1,
                                          workloads=["arraybw", "snap"])


class TestBars:
    def test_bar_lengths_scale(self):
        text = render_bars(["a", "b"], [1.0, 2.0])
        line_a, line_b = text.splitlines()
        assert line_b.count("#") > line_a.count("#")

    def test_reference_line_marked(self):
        text = render_bars(["x"], [0.5], reference=1.0)
        assert "|" in text

    def test_values_printed(self):
        text = render_bars(["x"], [1.23])
        assert "1.23" in text

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])

    def test_title(self):
        assert render_bars([], [], title="T").startswith("T")


class TestReport:
    def test_full_report_contains_every_figure(self, mini_suite):
        out = io.StringIO()
        write_report(mini_suite, out)
        text = out.getvalue()
        for fragment in ("Figure 1", "Figure 5", "Figure 9", "Table 6",
                         "Table 7", "all verified"):
            assert fragment in text

    def test_subset_keys(self, mini_suite):
        out = io.StringIO()
        write_report(mini_suite, out, keys=["fig09"])
        text = out.getvalue()
        assert "Figure 9" in text
        assert "Figure 5" not in text

    def test_figure_with_bars_shape(self, mini_suite):
        from repro.harness.figures import figure09_ib_flushes

        text = figure_with_bars(figure09_ib_flushes(mini_suite))
        assert "#" in text or "0.00" in text


    def test_failed_pair_stays_out_of_the_bar_view(self):
        """A pair whose run failed has a ``nan`` ratio: the table says
        ``n/a`` and the bars skip the row instead of crashing on it."""
        data = ("Figure X", ["Workload", "HSAIL", "GCN3", "GCN3/HSAIL"],
                [["good", 10, 20, 2.0], ["failed", 10, 0, float("nan")]])
        table, bars = figure_with_bars(data).split("\n\n")
        assert "failed" in table and "n/a" in table
        assert "good" in bars and "failed" not in bars


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "-w", "snap", "-i", "gcn3"])
        assert args.workload == "snap"
        args = parser.parse_args(["figures", "--only", "fig09"])
        assert args.only == "fig09"

    @pytest.mark.parametrize("path", COMMAND_PATHS,
                             ids=["_".join(p) for p in COMMAND_PATHS])
    def test_every_subcommand_prints_help(self, path, capsys):
        # An argparse flag conflict (a shared flag group plus the same
        # flag declared by the command) raises while the parser builds.
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "arraybw" in out and "xsbench" in out

    def test_run_command(self, capsys):
        code = main(["run", "-w", "snap", "-s", "0.1", "--cus", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HSAIL" in out and "GCN3" in out

    def test_per_kernel_command_goes_through_the_request_path(self, capsys):
        from repro.__main__ import build_parser, run_request_from_args

        argv = ["per-kernel", "-w", "arraybw", "-s", "0.1", "--cus", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "arraybw: per-kernel statistics" in out
        args = build_parser().parse_args(argv)
        runs = {isa: run_request_from_args(args, isa).execute()
                for isa in ("hsail", "gcn3")}
        for name, stats in runs["gcn3"].per_kernel_totals().items():
            row = next(line for line in out.splitlines() if name in line)
            hsail = runs["hsail"].per_kernel_totals()[name]
            assert f"{stats.cycles:,}" in row
            assert f"{hsail.dynamic_instructions:,}" in row

    def test_trace_command(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        code = main(["trace", "arraybw", "-s", "0.1", "--cus", "2",
                     "--categories", "issue,stall", "-o", str(out_file)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "arraybw/gcn3 @ scale 0.1" in captured
        assert f"events to {out_file}" in captured
        assert out_file.stat().st_size > 0

    def test_disasm_command(self, capsys):
        code = main(["disasm", "-w", "spmv", "-i", "gcn3", "-s", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s_endpgm" in out

    def test_disasm_unknown_kernel(self, capsys):
        code = main(["disasm", "-w", "spmv", "-k", "nope", "-s", "0.1"])
        assert code == 2

    def test_figures_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(["figures", "-s", "0.1", "--only", "fig09",
                     "-o", str(target)])
        assert code == 0
        assert "Figure 9" in target.read_text()


class TestJsonExport:
    def test_suite_to_json(self, mini_suite):
        import json

        payload = json.loads(mini_suite.to_json())
        assert len(payload["runs"]) == 4
        run = payload["runs"][0]
        assert run["verified"] is True
        assert "cycles" in run["stats"]
        assert run["instr_footprint_bytes"] > 0

    def test_cli_figures_json(self, capsys):
        import json

        code = main(["figures", "-s", "0.1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["scale"] == 0.1


class TestSweepCli:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "-a", "l1i.size_bytes=8k,16k,32k", "-w", "lulesh",
             "-j", "4"])
        assert args.axis == ["l1i.size_bytes=8k,16k,32k"]
        assert args.mode == "grid"
        assert args.report == "all"
        assert args.response == "ratio:ifetch_misses"
        assert args.resume is None

    def test_parser_resume_forms(self):
        parser = build_parser()
        assert parser.parse_args(
            ["sweep", "-a", "x=1", "--resume"]).resume is True
        assert parser.parse_args(
            ["sweep", "-a", "x=1", "--resume", "abc123def456"]
        ).resume == "abc123def456"

    def test_dry_run_lists_points(self, capsys):
        code = main(["sweep", "-a", "l1i.size_bytes=8k,16k", "--cus", "2",
                     "-w", "lulesh", "--dry-run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "l1i.size_bytes=8192" in out
        assert "l1i.size_bytes=16384" in out
        assert "sweep id:" in out
        assert "no cells simulated" in out

    def test_dry_run_flags_invalid_points(self, capsys):
        code = main(["sweep", "-a", "l1i.size_bytes=8k,100", "--cus", "2",
                     "--dry-run"])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID" in captured.out

    def test_bad_axis_spec_is_an_error(self, capsys):
        code = main(["sweep", "-a", "no_equals_sign", "--dry-run"])
        assert code == 2
        assert "bad axis spec" in capsys.readouterr().err

    def test_tiny_sweep_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SWEEPS_DIR", raising=False)
        argv = ["sweep", "-a", "cu.vrf_banks=2,4", "--cus", "2",
                "-w", "arraybw", "-s", "0.1", "--quiet"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 point(s), 0 from journal, 0 failed" in captured.err
        assert "Tornado" in captured.out
        # Same command with --resume replays everything from the journal.
        assert main(argv + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "2 from journal" in captured.err

    @pytest.mark.parametrize("engine", [[], ["--engine", "vector"]])
    def test_dry_run_prints_the_real_runs_id(self, engine, tmp_path, capsys,
                                             monkeypatch):
        """The engine knob folds into the swept base config, so it is
        part of the sweep id; the dry run must resolve it the same way."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SWEEPS_DIR", raising=False)
        argv = ["sweep", "-a", "cu.vrf_banks=2,4", "--cus", "2",
                "-w", "arraybw", "-s", "0.1", "--quiet"] + engine
        assert main(argv + ["--dry-run"]) == 0
        dry = re.search(r"sweep id: (\w+)", capsys.readouterr().out).group(1)
        assert main(argv) == 0
        real = re.search(r"^sweep (\w+):", capsys.readouterr().err,
                         re.M).group(1)
        assert dry == real

    def test_sweep_csv_output_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SWEEPS_DIR", raising=False)
        target = tmp_path / "sweep.csv"
        assert main(["sweep", "-a", "cu.vrf_banks=2,4", "--cus", "2",
                     "-w", "arraybw", "-s", "0.1", "--quiet",
                     "-f", "csv", "-o", str(target)]) == 0
        capsys.readouterr()
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("point_id,workload,status")
        assert len(lines) == 3


class TestCachePruneCli:
    def test_prune_flag(self, tmp_path, capsys):
        code = main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-older-than", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 0 entrie(s)" in out

    @pytest.mark.parametrize("days", ["nan", "-1"])
    def test_bad_prune_days_is_an_error_and_deletes_nothing(
            self, tmp_path, capsys, days):
        entry = tmp_path / "0123456789abcdef.json"
        entry.write_text("{}")
        code = main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-older-than", days])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: --prune-older-than" in err
        assert entry.exists()

    def test_breakdown_listed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SWEEPS_DIR", raising=False)
        assert main(["sweep", "-a", "cu.vrf_banks=2,4", "--cus", "2",
                     "-w", "arraybw", "-s", "0.1", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-config usage" in out
        assert "entries:" in out
