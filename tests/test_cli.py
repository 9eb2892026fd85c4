"""Unit tests for the gae-repro command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure5_defaults(self):
        args = build_parser().parse_args(["figure5"])
        assert args.seed == 1995
        assert args.history == 100
        assert args.tests == 20

    def test_figure7_flags(self):
        args = build_parser().parse_args(["figure7", "--poll", "10", "--checkpoint"])
        assert args.poll == 10.0
        assert args.checkpoint is True

    @pytest.mark.parametrize("argv", [["--calls", "0"], ["--clients", "1", "0"]])
    def test_figure6_refuses_a_zero_count(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["figure6", *argv])
        assert exc.value.code == 2
        assert "must be at least 1, got 0" in capsys.readouterr().err

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.task_id is None
        assert args.n is None
        assert args.export == "gae_trace_export.jsonl"


class TestCommands:
    def test_figure5_prints_figure_and_table(self, capsys):
        assert main(["figure5", "--tests", "10"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "mean |% error|" in out
        assert "13.53" in out

    def test_figure7_prints_comparison(self, capsys):
        assert main(["figure7", "--poll", "20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "steered completion" in out
        assert "~369" in out

    def test_trace_to_stdout(self, capsys):
        assert main(["trace", "--n", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("account,login")
        assert len(lines) == 6

    def test_trace_to_file(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main(["trace", "--n", "7", "--out", str(path)]) == 0
        assert "wrote 7 accounting records" in capsys.readouterr().out
        from repro.workloads.traces import read_trace_csv

        assert len(read_trace_csv(path)) == 7

    def test_trace_deterministic_per_seed(self, capsys):
        main(["trace", "--n", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["trace", "--n", "3", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_without_args_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "task id" in capsys.readouterr().err

    def test_trace_missing_export_errors(self, tmp_path, capsys):
        assert main(["trace", "task-000001",
                     "--export", str(tmp_path / "nope.jsonl")]) == 1
        assert "no trace export" in capsys.readouterr().err

    def test_demo_runs_to_completion(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "scheduled" in out
        assert "completed" in out
        assert (tmp_path / "gae_trace_export.jsonl").exists()

    def test_demo_then_trace_prints_steered_span_tree(self, tmp_path, capsys):
        export = tmp_path / "demo.jsonl"
        assert main(["demo", "--trace-export", str(export)]) == 0
        out = capsys.readouterr().out
        task_id = next(
            line.split()[1] for line in out.splitlines()
            if line.startswith("scheduled ")
        )
        assert main(["trace", task_id, "--export", str(export)]) == 0
        tree = capsys.readouterr().out
        # One trace covers the whole steered life of the job.
        assert f"task:{task_id}" in tree
        assert "flock" in tree and "to=siteB" in tree
        assert "steer:pause" in tree and "steer:move" in tree
        assert "rpc:steering.move" in tree
        assert "monalisa:publish" in tree
        assert "run@siteA" in tree and "run@siteB" in tree
        assert "| completed |" in tree  # timeline table reaches the end

    def test_trace_unknown_task_errors(self, tmp_path, capsys):
        export = tmp_path / "demo.jsonl"
        assert main(["demo", "--trace-export", str(export)]) == 0
        capsys.readouterr()
        assert main(["trace", "task-999999", "--export", str(export)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_demo_export_validates_against_schema(self, tmp_path, capsys):
        from repro.observability import validate_export_file

        export = tmp_path / "demo.jsonl"
        assert main(["demo", "--trace-export", str(export)]) == 0
        rows = validate_export_file(
            export, "docs/schemas/trace_export.schema.json"
        )
        assert rows > 20

    def test_figure6_small_sweep(self, capsys):
        assert main(["figure6", "--clients", "1", "2", "--calls", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "mean latency (ms)" in out


class TestStatsCommand:
    def test_stats_prints_latency_table_and_trace(self, capsys):
        assert main(["stats", "--calls", "2"]) == 0
        out = capsys.readouterr().out
        assert "p95 (ms)" in out
        assert "jobmon.job_info" in out
        assert "system.multicall" in out
        assert "calls in the recent-calls ring" in out

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.calls == 5
        assert args.seed == 7


class TestJournalTail:
    """``journal tail --n N`` prints the newest N rows: 0 is none, and a
    negative count is refused rather than read as "all but the first"."""

    FIXTURE = str(Path(__file__).parent / "store" / "fixtures" / "format2_full.sqlite")
    ROWS = 104  # the fixture's journal rows, seq 0..103

    def tail(self, capsys, n):
        assert main(["journal", "tail", "--checkpoint", self.FIXTURE, "--n", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        return lines[0], [int(line.split("|")[1]) for line in lines[3:] if line.startswith("|")]

    def test_zero_prints_the_header_and_no_rows(self, capsys):
        header, seqs = self.tail(capsys, 0)
        assert header.startswith(f"0 of {self.ROWS} event(s)")
        assert seqs == []

    @pytest.mark.parametrize("n", [1, 3, 104, 500])
    def test_n_prints_the_newest_n(self, capsys, n):
        header, seqs = self.tail(capsys, n)
        shown = min(n, self.ROWS)
        assert header.startswith(f"{shown} of {self.ROWS} event(s)")
        assert seqs == list(range(self.ROWS - shown, self.ROWS))

    def test_a_negative_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["journal", "tail", "--checkpoint", self.FIXTURE, "--n", "-3"])
        assert exc.value.code == 2
        assert "must not be negative" in capsys.readouterr().err
