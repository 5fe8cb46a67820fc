import json

import pytest

from conftest import require_dataset
from fckan.cli import main
from fckan.models import ModelConfig
from fckan.report import make_record, write_record
from fckan.training import RunMetrics, TrainConfig, aggregate_runs


def fake_record(path, dataset="mnist", kind="mlp", vals=(97.0, 97.5, 98.0), fns=()):
    runs = [
        RunMetrics(seed=i, train_loss=[0.1], train_acc=[99.0], val_acc=[v],
                   final_val_acc=v, final_f1=v - 0.02, wall_seconds=100.0 + i)
        for i, v in enumerate(vals)
    ]
    model_cfg = ModelConfig(kind=kind, functions=fns)
    train_cfg = TrainConfig(dataset=dataset, runs=len(vals),
                            seeds=tuple(range(len(vals))))
    write_record(make_record(model_cfg, train_cfg, runs, aggregate_runs(runs),
                             0.0, 1.0), path)


class TestParams:
    def test_mlp_expected_count(self, capsys):
        assert main(["params", "--model", "mlp", "--expect", "52512"]) == 0
        out = capsys.readouterr().out
        assert "52512" in out

    def test_efficient_kan_exact(self, capsys):
        assert main(["params", "--model", "efficient-kan", "--expect", "508160"]) == 0

    def test_fckan_within_tolerance_of_published(self):
        rc = main(
            ["params", "--model", "fc-kan", "--functions", "sin,cos",
             "--expect", "52496", "--tolerance", "0.05%"]
        )
        assert rc == 0

    def test_mismatch_fails(self, capsys):
        rc = main(["params", "--model", "mlp", "--expect", "1000"])
        assert rc == 1
        assert "1000" in capsys.readouterr().err

    def test_bad_widths_usage_error(self):
        assert main(["params", "--model", "mlp", "--widths", "78a,64"]) == 2

    def test_grid_flags_change_the_spline_count(self, capsys):
        # per layer: base + scaler in*out, spline in*(G+k)*out with G+k = 5
        rc = main(["params", "--model", "efficient-kan", "--widths", "16,8,4",
                   "--grid-size", "3", "--spline-order", "2", "--expect", "1120"])
        assert rc == 0
        assert "1120" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["--model", "fast-kan", "--spline-order", "7"], "RBFGrid takes no --spline-order"),
        (["--model", "mlp", "--grid-size", "3"], "only apply to spline models"),
        (["--model", "efficient-kan", "--grid-size", "0"], "grid_size >= 1"),
    ])
    def test_grid_flags_the_model_cannot_use(self, capsys, argv, message):
        assert main(["params", "--widths", "16,8,4"] + argv) == 2
        assert message in capsys.readouterr().err

    def test_per_layer_breakdown(self, capsys):
        main(["params", "--model", "mlp"])
        out = capsys.readouterr().out
        assert "layer 0" in out and "layer 1" in out and "total" in out


class TestUsageValidation:
    def test_combine_without_functions(self):
        assert main(["train", "--model", "fc-kan", "--combine", "sum"]) == 2

    def test_combine_with_single_function(self):
        rc = main(["train", "--model", "fc-kan", "--functions", "sin",
                   "--combine", "sum"])
        assert rc == 2

    def test_functions_on_non_fckan(self):
        assert main(["train", "--model", "mlp", "--functions", "sin"]) == 2

    def test_unknown_model(self):
        assert main(["train", "--model", "cnn"]) == 2

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 2

    def test_bad_function_name(self):
        assert main(["params", "--model", "fc-kan", "--functions", "sin,log"]) == 2


class TestBench:
    def test_writes_csv_with_eight_rows(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--n", "1000", "--repeats", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "function,mean_us,std_us,repeats,n,checksum"
        assert len(lines) == 9
        assert all(",1000," in ln for ln in lines[1:])


class TestReport:
    def test_renders_aggregate_cells(self, tmp_path, capsys):
        fake_record(tmp_path / "a.json")
        rc = main(["report", "--inputs", str(tmp_path / "*.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| Dataset | Model |" in out
        assert "97.50 ± 0.50" in out

    def test_bolds_group_maxima(self, tmp_path, capsys):
        fake_record(tmp_path / "a.json", kind="mlp", vals=(97.0, 97.0, 97.0))
        fake_record(tmp_path / "b.json", kind="fc-kan", fns=("sin", "cos"),
                    vals=(98.0, 98.0, 98.0))
        main(["report", "--inputs", str(tmp_path / "*.json")])
        out = capsys.readouterr().out
        assert "**98.00 ± 0.00**" in out
        assert "**97.00 ± 0.00**" not in out

    def test_empty_glob_fails(self, tmp_path, capsys):
        rc = main(["report", "--inputs", str(tmp_path / "none-*.json")])
        assert rc == 1

    def test_malformed_json_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        rc = main(["report", "--inputs", str(bad)])
        assert rc == 1
        assert "bad.json" in capsys.readouterr().err

    def test_writes_output_file(self, tmp_path):
        fake_record(tmp_path / "a.json")
        out = tmp_path / "table.md"
        assert main(["report", "--inputs", str(tmp_path / "a.json"),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("| Dataset |")


class TestFetchData:
    def test_print_urls_lists_all_files(self, capsys, tmp_path):
        rc = main(["fetch-data", "--print-urls", "--data-dir", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8  # 2 datasets x 4 files
        assert all(" -> " in ln for ln in lines)
        assert sum("fashion-mnist" in ln for ln in lines) == 4


class TestTrainCommand:
    def test_missing_data_is_actionable(self, tmp_path, capsys):
        rc = main(
            ["train", "--model", "mlp", "--data-dir", str(tmp_path),
             "--out", str(tmp_path / "r.json"), "--quiet"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "train-images-idx3-ubyte" in err and "fetch-data" in err

    @pytest.mark.parametrize("flag,value", [("--runs", "0"), ("--batch", "0"),
                                            ("--epochs", "-1")])
    def test_invalid_train_config_is_usage_error(self, tmp_path, capsys, flag, value):
        # exits 2 before looking for data; the empty data dir would give 1
        rc = main(["train", "--model", "mlp", "--data-dir", str(tmp_path), flag, value])
        assert rc == 2
        assert "must be >=" in capsys.readouterr().err

    def test_zero_epoch_run_writes_schema_complete_record(self, tmp_path, capsys):
        data_dir = require_dataset("mnist")
        out = tmp_path / "record.json"
        rc = main(
            ["train", "--model", "mlp", "--dataset", "mnist", "--epochs", "0",
             "--runs", "2", "--seeds", "0,1", "--data-dir", data_dir,
             "--out", str(out), "--quiet"]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert set(record) == {"model", "train", "runs", "aggregate", "meta"}
        assert len(record["runs"]) == 2
        acc = record["aggregate"]["val_acc"]["mean"]
        assert 10 - 5 < acc < 10 + 5  # untrained nets sit at chance level
        assert record["meta"]["artifact_version"]

    def test_rerun_is_idempotent_modulo_timing(self, tmp_path):
        data_dir = require_dataset("mnist")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                ["train", "--model", "fc-kan", "--functions", "cos",
                 "--dataset", "mnist", "--epochs", "0", "--runs", "1",
                 "--seeds", "0", "--data-dir", data_dir, "--out", str(out),
                 "--quiet"]
            )
            assert rc == 0
            outs.append(json.loads(out.read_text()))
        a, b = outs
        assert a["aggregate"]["val_acc"] == b["aggregate"]["val_acc"]
        assert a["runs"][0]["final_f1"] == b["runs"][0]["final_f1"]
