"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"

    def test_preprocess_defaults(self):
        args = build_parser().parse_args(["preprocess", "--dataset", "flights"])
        assert args.algorithm == "G-O"
        assert args.facts == 3
        assert args.max_query_length == 1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["preprocess", "--dataset", "imdb"])


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for name in ("ACS NY", "Flights", "Primaries", "Stack Overflow"):
            assert name in output

    def test_preprocess_and_save(self, capsys, tmp_path):
        store_path = tmp_path / "speeches.json"
        code = main(
            [
                "preprocess",
                "--dataset", "flights",
                "--rows", "200",
                "--dimensions", "origin_region", "season",
                "--targets", "cancellation",
                "--algorithm", "G-B",
                "--max-problems", "5",
                "--output", str(store_path),
            ]
        )
        assert code == 0
        assert store_path.exists()
        output = capsys.readouterr().out
        assert "generated 5 speeches" in output
        assert str(store_path) in output

    def test_preprocess_with_workers_matches_serial(self, capsys, tmp_path):
        common = [
            "preprocess",
            "--dataset", "flights",
            "--rows", "200",
            "--dimensions", "origin_region", "season",
            "--targets", "cancellation",
            "--algorithm", "G-B",
        ]
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(common + ["--output", str(serial_path)]) == 0
        assert main(common + ["--workers", "2", "--output", str(parallel_path)]) == 0
        capsys.readouterr()
        assert serial_path.read_text() == parallel_path.read_text()

    def test_ask_answers_questions(self, capsys):
        code = main(
            [
                "ask",
                "--dataset", "flights",
                "--rows", "200",
                "--dimensions", "origin_region", "season",
                "--targets", "cancellation",
                "--algorithm", "G-B",
                "what is the cancellation for Winter",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "user : what is the cancellation for Winter" in output
        assert "voice:" in output

    def test_ask_from_saved_store(self, capsys, tmp_path):
        store_path = tmp_path / "speeches.json"
        main(
            [
                "preprocess",
                "--dataset", "flights",
                "--rows", "200",
                "--dimensions", "origin_region", "season",
                "--targets", "cancellation",
                "--algorithm", "G-B",
                "--output", str(store_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "ask",
                "--dataset", "flights",
                "--rows", "200",
                "--dimensions", "origin_region", "season",
                "--targets", "cancellation",
                "--store", str(store_path),
                "cancellation in Winter",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "loaded" in output
        assert "voice:" in output

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output
        assert "ACS NY" in output

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestBadInput:
    """Bad option values exit 2 with one usage line, not a traceback."""

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--algorithm", "G-X"], "invalid choice: 'G-X'"),
            (["--facts", "0"], "max_facts_per_speech must be at least 1"),
            (["--max-query-length", "-1"], "max_query_length must be non-negative"),
        ],
    )
    def test_rejected_with_usage_error(self, capsys, option, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["preprocess", "--dataset", "flights", "--rows", "120", *option])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("usage:") == 1
        assert message in err
        assert "Traceback" not in err


class TestMaintainCommand:
    COMMON = [
        "maintain",
        "--dataset", "flights",
        "--rows", "160",
        "--dimensions", "origin_region", "season",
        "--targets", "cancellation",
        "--algorithm", "G-B",
        "--append-rows", "15",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["maintain", "--dataset", "flights"])
        assert args.command == "maintain"
        assert args.append_rows == 25
        assert args.pool == "fresh"
        assert not args.verify_serial

    def test_pool_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["maintain", "--dataset", "flights", "--pool", "forever"]
            )

    def test_serial_maintenance_pass(self, capsys):
        assert main(self.COMMON) == 0
        output = capsys.readouterr().out
        assert "appended 15 rows" in output
        assert "speeches rebuilt" in output
        assert "workers=0" in output

    def test_parallel_pass_verifies_against_serial(self, capsys, tmp_path):
        store_path = tmp_path / "maintained.json"
        code = main(
            self.COMMON
            + [
                "--workers", "2",
                "--pool", "keep",
                "--verify-serial",
                "--output", str(store_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "workers=2, pool=keep" in output
        assert "serial parity verified" in output
        assert store_path.exists()


class TestServeCommand:
    COMMON = [
        "serve",
        "--dataset", "flights",
        "--rows", "160",
        "--dimensions", "origin_region", "season",
        "--targets", "cancellation",
        "--algorithm", "G-B",
        "--append-rows", "15",
        "--requests", "40",
        "--maintain-every", "15",
        "--concurrency", "4",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--dataset", "flights"])
        assert args.command == "serve"
        assert args.requests == 120
        assert args.concurrency == 8
        assert args.queue_depth == 64
        assert args.maintain_every == 40
        assert args.append_rows == 25

    def test_serve_with_background_maintenance(self, capsys):
        assert main(self.COMMON) == 0
        output = capsys.readouterr().out
        assert "served 40 requests" in output
        assert "maintenance job 1 (attempt 1): completed" in output
        assert "snapshot v" in output
        assert "0 errors" in output

    def test_serve_without_maintenance(self, capsys):
        assert main(self.COMMON[:-4] + ["--maintain-every", "0"]) == 0
        output = capsys.readouterr().out
        assert "0 maintenance passes" in output
        assert "maintenance job" not in output
