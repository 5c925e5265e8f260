import json

import pytest

from railho import csvio
from railho.cli import main

TINY = {
    "layout": {"environment": "viaduct", "spans": 2, "rrh_spacing_m": 400.0},
    "kinematics": {"speed_kmh": 300.0},
    "runs": 4,
    "seed": 99,
}


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


class TestSimulateCommand:
    def test_writes_outputs(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(tiny_config_path), "--out", str(out)])
        assert code == 0
        assert (out / "records.csv").exists()
        assert (out / "stats.csv").exists()
        assert (out / "start_hist.csv").exists()
        rows = csvio.read_records_csv(out / "records.csv")
        assert rows and all(r.environment == "viaduct" for r in rows)
        assert "handovers succeeded" in capsys.readouterr().out

    def test_flag_overrides_reach_output(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config", str(tiny_config_path),
                "--env", "urban",
                "--speed", "500",
                "--offset-db", "4",
                "--runs", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = csvio.read_records_csv(out / "records.csv")
        assert all(r.environment == "urban" for r in rows)
        assert all(r.speed_kmh == 500.0 for r in rows)
        assert all(r.offset_db == 4.0 for r in rows)
        assert {r.run_id for r in rows} == {0, 1}

    def test_configuration_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_invalid_override_exits_2(self, tiny_config_path):
        assert main(["simulate", "--config", str(tiny_config_path), "--ttt-ms", "50"]) == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 3

    def test_unwritable_output_exits_3(self, tiny_config_path, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(
            ["simulate", "--config", str(tiny_config_path), "--out", str(blocker / "sub")]
        )
        assert code == 3

    def test_unknown_env_rejected_by_parser(self, tiny_config_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(tiny_config_path), "--env", "tunnel"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_grid_outputs(self, tiny_config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(tiny_config_path),
                "--speeds", "100,300",
                "--offsets", "0,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        stats_lines = (out / "sweep_stats.csv").read_text().splitlines()
        assert len(stats_lines) == 1 + 4  # 2 speeds x 2 offsets
        rows = csvio.read_records_csv(out / "sweep_records.csv")
        assert {(r.speed_kmh, r.offset_db) for r in rows} == {
            (100.0, 0.0), (100.0, 2.0), (300.0, 0.0), (300.0, 2.0),
        }

    def test_env_list(self, tiny_config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(tiny_config_path),
                "--speeds", "300",
                "--offsets", "2",
                "--envs", "viaduct,urban",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = csvio.read_records_csv(out / "sweep_records.csv")
        assert {r.environment for r in rows} == {"viaduct", "urban"}

    def test_empty_speed_list_exits_2(self, tiny_config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(tiny_config_path), "--speeds", "", "--out", str(out)]
        )
        assert code == 2

    def test_worker_count_is_byte_identical(self, tiny_config_path, tmp_path):
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            code = main(
                [
                    "sweep",
                    "--config", str(tiny_config_path),
                    "--speeds", "300,500",
                    "--offsets", "0,2",
                    "--workers", workers,
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for name in ("sweep_stats.csv", "sweep_records.csv", "sweep_hist.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestTraceCommand:
    def test_trace_csv_written(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "trace"
        code = main(
            ["trace", "--config", str(tiny_config_path), "--run", "1", "--out", str(out)]
        )
        assert code == 0
        path = out / "trace_run1.csv"
        assert path.exists()
        assert "run 1:" in capsys.readouterr().out

    def test_run_index_validated(self, tiny_config_path):
        assert main(["trace", "--config", str(tiny_config_path), "--run", "99"]) == 2
