import argparse
import json
import math

import pytest

from railho import cli, csvio, ici, simulate
from railho.cli import main
from railho.config import apply_overrides, load_config

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

    def test_configuration_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in (
            "{not json",
            '{"runs": 2.5}',
            '{"seed": 1.5}',
            '{"kinematics": [1, 2]}',
            '{"kinematics": {"speed_kmh": "fast"}}',
            '{"profiles": {"urban": 5}}',
            '{"layout": {"beamwidth_3db_deg": "wide"}}',
            '{"layout": {"segments": [{"start": 0}]}}',
            '{"layout": {"segments": [[0, "1732", "cutting"], ["1732", 3464, "urban"]]}}',
            '{"layout": {"segments": [[0, 1732, "urban", 5]]}}',
            '{"layout": {"segments": [[0, 1732]]}}',
            '{"budget": {"rrh_tx_power_dbm": "x"}}',
            '{"handover": {"snr_gate_db": "x"}}',
            '{"profiles": {"urban": {"rician_k_db": "x"}}}',
            '{"layout": {"environment": "urban", "max_gain_db": "x"}}',
            '{"kinematics": {"speed_kmh": 100, "start_position_m": 6000}}',
            '{"kinematics": {"speed_kmh": 100, "start_position_m": 5196.5}}',
            '{"kinematics": {"speed_kmh": Infinity}}',
            '{"handover": {"preparation_delay_s": NaN}}',
            '{"handover": {"snr_gate_db": NaN}}',
            '{"budget": {"rrh_tx_power_dbm": NaN}}',
            '{"budget": {"rrh_tx_power_dbm": Infinity}}',
            '{"handover": {"preparation_delay_s": Infinity}}',
            '{"handover": {"snr_gate_db": -Infinity}}',
            '{"layout": {"pattern_floor_db": Infinity}}',
            '{"l1": {"noise_sigma_db": Infinity}}',
            '{"handover": {"hysteresis_db": 1%s}}' % ("0" * 400),
            '{"ici": {"alpha2": 5}}',
            # values that load but take a computed quantity out of the float range
            '{"ici": {"symbol_duration_s": 1e200}}',
            '{"ici": {"carrier_frequency_hz": 1e300}}',
            '{"budget": {"rrh_tx_power_dbm": 1e300}}',
            '{"budget": {"ue_tx_power_dbm": 1e300}}',
            '{"budget": {"noise_figure_db": -1e300}}',
            '{"budget": {"bandwidth_hz": 1e-300}}',
            '{"profiles": {"viaduct": {"shadow_sigma_db": 1e300}}}',
            '{"profiles": {"viaduct": {"pathloss_intercept_db": -1e300}}}',
            '{"layout": {"max_gain_db": 1e300}}',
            # sampling grids that cannot be indexed
            '{"kinematics": {"snapshot_interval_m": 5e-324}}',
            '{"kinematics": {"snapshot_interval_m": 1e-300}}',
            '{"layout": {"rrh_spacing_m": 1e300}}',
            '{"l1": {"sample_period_s": 1e307, "window_s": 1e307}, "handover": {"ttt_s": 1e307},'
            ' "kinematics": {"speed_kmh": 1e10}}',
            '{"kinematics": {"speed_mps": 27.0}}',
            '{"layout": {"beamwidth_3db_deg": 1e-320}}',  # no normal float in radians
        ):
            bad.write_text(text)
            assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2, text
            assert capsys.readouterr().err.startswith("configuration error:"), text
        for data in (b"\xff\xfe{}", b'{"runs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"):
            bad.write_bytes(data)  # not UTF-8, and nested beyond the recursion limit
            assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2, data[:12]
            assert capsys.readouterr().err.startswith("configuration error:"), data[:12]
        assert not list(tmp_path.glob("*.csv"))
        assert main(["simulate", "--ttt-ms", "1" + "0" * 400, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_grid_that_cannot_be_allocated_exits_2(self, tmp_path, capsys):
        # 8.1e17 snapshots can be indexed, but numpy refuses the 5.6 EiB grid at once,
        # allocating nothing; the error is raised while the run goes, so no --out is made
        bad = tmp_path / "bad.json"
        bad.write_text('{"kinematics": {"snapshot_interval_m": 6.4e-15}}')
        for flags in (["simulate"], ["sweep", "--speeds", "100", "--offsets", "0", "--runs", "1"], ["trace"]):
            out = tmp_path / flags[0]
            assert main([*flags, "--config", str(bad), "--out", str(out)]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and "does not fit in memory" in err, flags
            assert not out.exists(), flags

    @pytest.mark.parametrize(
        "flags",
        [
            ["simulate", "--speed", "nan"],
            ["simulate", "--speed", "inf"],
            ["simulate", "--offset-db", "nan"],
            ["sweep", "--speeds", "100,nan"],
            ["sweep", "--offsets", "nan"],
            ["simulate", "--offset-db", "inf"],
            ["simulate", "--offset-db=-inf"],
            ["sweep", "--speeds", "100,inf"],
            ["sweep", "--offsets", "inf"],
            # finite, but the ICI power overflows while the run goes
            ["simulate", "--speed", "1e160"],
            ["sweep", "--speeds", "100,1e160", "--offsets", "0", "--runs", "1"],
            ["trace", "--speed", "1e160"],
        ],
    )
    def test_non_finite_flag_exits_2(self, tiny_config_path, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = main([*flags, "--config", str(tiny_config_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, tiny_config_path, tmp_path, monkeypatch, capsys, command, workers):
        calls = []
        monkeypatch.setattr(cli, "monte_carlo", lambda cfg, **kwargs: calls.append(cfg))
        code = main(
            [command, "--config", str(tiny_config_path), "--workers", workers, "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert calls == []

    def test_kinematics_without_speed_runs(self, tmp_path):
        path = tmp_path / "no_speed.json"
        path.write_text(json.dumps({**TINY, "kinematics": {"snapshot_interval_m": 2.0}, "runs": 2}))
        for flags, speed in (([], 100.0), (["--speed", "500"], 500.0)):
            out = tmp_path / f"out{speed:g}"
            assert main(["simulate", "--config", str(path), *flags, "--out", str(out)]) == 0
            assert {r.speed_kmh for r in csvio.read_records_csv(out / "records.csv")} == {speed}

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
    def test_grid_outputs(self, tiny_config_path, tmp_path, capsys):
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
        summaries = [line for line in capsys.readouterr().out.splitlines() if "handovers succeeded" in line]
        assert [line.split(" offset")[0] for line in summaries] == [
            "100 km/h viaduct", "100 km/h viaduct", "300 km/h viaduct", "300 km/h viaduct",
        ]

    def test_one_monte_carlo_call_per_config_in_grid_order(self, tiny_config_path, tmp_path, monkeypatch):
        inner, calls = cli.monte_carlo, []

        def capture(cfg, **kwargs):
            stats = inner(cfg, **kwargs)
            calls.append((cfg, stats))
            return stats

        monkeypatch.setattr(cli, "monte_carlo", capture)
        argv = ["sweep", "--config", str(tiny_config_path), "--speeds", "100,300", "--offsets", "4,0,4",
                "--envs", "viaduct,urban", "--out", str(tmp_path)]
        assert main(argv) == 0
        base = load_config(tiny_config_path)
        expected = [
            apply_overrides(base, speed_kmh=speed, environment=env, offset_db=offset)
            for env in ("viaduct", "urban")
            for speed in (100.0, 300.0)
            for offset in (4.0, 0.0, 4.0)
        ]
        assert [cfg for cfg, _ in calls] == expected
        for cfg, stats in calls:
            assert stats == simulate.monte_carlo(cfg)
        assert len(csvio.read_records_csv(tmp_path / "sweep_records.csv")) == sum(
            stats.n_records for _, stats in calls
        )

    def test_equal_grid_points_drive_one_machine(self, tiny_config_path, tmp_path, monkeypatch):
        inner, offsets = simulate.HandoverFsm.run, []

        def counting(fsm, *arrays):
            offsets.append(fsm.cfg.hysteresis_db)
            return inner(fsm, *arrays)

        monkeypatch.setattr(simulate.HandoverFsm, "run", counting)
        argv = ["sweep", "--config", str(tiny_config_path), "--speeds", "300", "--offsets", "0,2,2,6",
                "--runs", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert sorted(offsets) == [0.0, 0.0, 2.0, 2.0, 6.0, 6.0]  # 2 runs x 3 distinct offsets
        stats_lines = (tmp_path / "sweep_stats.csv").read_text().splitlines()
        assert len(stats_lines) == 1 + 4 and stats_lines[2] == stats_lines[3]
        twos = [r for r in csvio.read_records_csv(tmp_path / "sweep_records.csv") if r.offset_db == 2.0]
        assert twos and twos[: len(twos) // 2] == twos[len(twos) // 2 :]

    def test_one_record_row_call_per_records_line(self, tiny_config_path, tmp_path, monkeypatch):
        # the benchmark's span tracer times csvio.record_row per call, as the cost of one record
        inner, calls = csvio.record_row, []

        def counting(record, config_cells):
            calls.append(record)
            return inner(record, config_cells)

        monkeypatch.setattr(csvio, "record_row", counting)
        argv = ["sweep", "--config", str(tiny_config_path), "--speeds", "100,300", "--offsets", "0,2",
                "--envs", "viaduct,mixed", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = csvio.read_records_csv(tmp_path / "sweep_records.csv")
        assert len(calls) == len(rows) > 0
        assert [(rec.run_id, rec.outcome.value) for rec in calls] == [(row.run_id, row.outcome) for row in rows]

    def test_env_list(self, tiny_config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(tiny_config_path),
                "--speeds", "300",
                "--offsets", "2",
                "--envs", "viaduct,,urban,",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = csvio.read_records_csv(out / "sweep_records.csv")
        assert {r.environment for r in rows} == {"viaduct", "urban"}

    def test_unknown_env_exits_2_before_any_run(self, tiny_config_path, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "monte_carlo", lambda cfg, **kwargs: calls.append(cfg))
        code = main(
            ["sweep", "--config", str(tiny_config_path), "--envs", "viaduct,foo", "--out", str(tmp_path)]
        )
        assert code == 2
        assert calls == []

    def test_empty_speed_list_exits_2(self, tiny_config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(tiny_config_path), "--speeds", "", "--out", str(out)]
        )
        assert code == 2

    @pytest.mark.parametrize("envs", [",", "", " , "])
    def test_env_list_without_env_exits_2_before_any_run(
        self, tiny_config_path, tmp_path, monkeypatch, capsys, envs
    ):
        calls = []
        monkeypatch.setattr(cli, "monte_carlo", lambda cfg, **kwargs: calls.append(cfg))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(tiny_config_path), "--envs", envs, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert calls == []
        assert not out.exists()

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

    def test_run_index_validated(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        for run in ("-1", str(2**32)):  # a run index is one 32-bit word of its streams' seed
            assert main(["trace", "--config", str(tiny_config_path), "--run", run, "--out", str(out)]) == 2
        assert not out.exists()

    def test_run_index_beyond_the_configured_runs(self, tiny_config_path, tmp_path):
        # a run is a function of the seed and its index alone, so any index can be traced
        assert main(["trace", "--config", str(tiny_config_path), "--run", "99", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trace_run99.csv").exists()

    def test_workers_flag_rejected(self, tiny_config_path, tmp_path):
        # trace runs one simulate_run: a worker count would have no effect
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--config", str(tiny_config_path), "--workers", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--speed", "200"],  # a sweep's grid comes only from --speeds, --offsets and --envs
        ["sweep", "--offset-db", "7"],
        ["sweep", "--env", "viaduct"],
        ["simulate", "--spe", "300"],  # no flag may be abbreviated
        ["trace", "--runs", "2"],  # trace runs one run, whatever the run count
    ],
    ids="_".join,
)
def test_flag_the_command_does_not_take_exits_2(tiny_config_path, tmp_path, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, "monte_carlo", lambda cfg, **kwargs: calls.append(cfg))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(tiny_config_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert calls == []


@pytest.mark.parametrize("command", ["simulate", "sweep", "trace"])
def test_out_under_a_file_exits_3_before_any_run(tiny_config_path, tmp_path, monkeypatch, capsys, command):
    calls = []
    for name in ("run_batch", "monte_carlo", "simulate_run"):
        def counting(*args, _fn=getattr(cli, name), **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main([command, "--config", str(tiny_config_path), "--out", str(blocker / "sub" / "dir")]) == 3
    assert calls == []
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("i/o error:")
    assert sorted(tmp_path.iterdir()) == [blocker, tiny_config_path]  # nothing made


_ICI_WARNING = "warning: the ICI power bound is 1 or more at "


@pytest.mark.parametrize(
    "argv, warned",
    [
        (["simulate", "--speed", "500"], "500 km/h"),
        (["sweep", "--speeds", "500,100,300", "--offsets", "0"], "300, 500 km/h"),
        (["trace", "--speed", "500"], "500 km/h"),
        (["simulate", "--speed", "100"], None),
        (["sweep", "--speeds", "100", "--offsets", "0"], None),
        (["trace", "--speed", "100"], None),
    ],
    ids=lambda v: "_".join(v) if isinstance(v, list) else str(v),
)
def test_ici_bound_out_of_range_warns_once_on_stderr(tiny_config_path, tmp_path, monkeypatch, capsys, argv, warned):
    writes = []
    for name in ("write_records_csv", "write_trace_csv"):
        def noting(*args, _fn=getattr(csvio, name), **kwargs):
            writes.append(capsys.readouterr().err)  # stderr so far, when the first CSV is written
            return _fn(*args, **kwargs)

        monkeypatch.setattr(csvio, name, noting)
    assert main([*argv, "--config", str(tiny_config_path), "--out", str(tmp_path / "out")]) == 0
    expected = "" if warned is None else f"{_ICI_WARNING}{warned}, outside the range of its Taylor expansion\n"
    assert writes == [expected]
    assert "warning" not in capsys.readouterr().out


def test_ici_warning_reads_the_power_the_run_uses(tiny_config_path, tmp_path, monkeypatch, capsys):
    # a model whose ICI power is 1 or more at every speed: the run uses it, and the warning names 100 km/h
    monkeypatch.setattr(ici, "ici_power", lambda speed_mps, params: 1.5)
    out = tmp_path / "out"
    assert main(["trace", "--speed", "100", "--config", str(tiny_config_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == f"{_ICI_WARNING}100 km/h, outside the range of its Taylor expansion\n"
    cfg = apply_overrides(load_config(tiny_config_path), speed_kmh=100.0)
    trace = simulate.simulate_run(cfg, 0, want_trace=True).trace
    assert trace.p_ici == 1.5
    assert trace.effective_snr_db.max() < -10.0 * math.log10(1.5)


def test_configuration_error_comes_before_the_ici_warning(tiny_config_path, tmp_path, capsys):
    argv = ["sweep", "--speeds", "500,1e160", "--offsets", "0", "--config", str(tiny_config_path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "warning" not in err


# A valid value of each value flag that differs from the tiny config and from the flag's default.
_FLAG_VALUES = {
    "--speed": "500", "--env": "urban", "--offset-db": "6", "--ttt-ms": "160", "--runs": "1", "--seed": "7",
    "--speeds": "500", "--offsets": "6", "--envs": "urban", "--run": "2",
}


def _value_flags() -> list[tuple[str, str]]:
    """Each (subcommand, flag) that takes a value, except the output directory, config file and workers."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, flag)
        for command, parser in sub.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if action.nargs != 0 and flag not in ("--out", "--config", "--workers")
    ]


@pytest.mark.parametrize(("command", "flag"), _value_flags())
def test_every_value_flag_changes_the_result(tiny_config_path, tmp_path, command, flag):
    def result(*flags):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        code = main([command, "--config", str(tiny_config_path), *flags, "--out", str(out)])
        return code, {path.name: path.read_bytes() for path in out.glob("*.csv")}

    assert result(flag, _FLAG_VALUES[flag]) != result()
