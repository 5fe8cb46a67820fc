import argparse
import contextlib
import io
import json
import math
import tracemalloc
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BROKEN_PLAIN, require_dataset, write_broken_plain_layout, write_damaged_layout
from fckan.cli import build_parser, main
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
    train_cfg = TrainConfig(dataset=dataset, seeds=tuple(range(len(vals))))
    write_record(make_record(model_cfg, train_cfg, runs, 0.0, 1.0), path)


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
        assert capsys.readouterr().err == (
            "error: expected 1000 ± 0.05% but counted 52512 (off by 51512)\n")

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
        (["--model", "efficient-kan", "--grid-size", "0"], "grid_size must be >= 1"),
    ])
    def test_grid_flags_the_model_cannot_use(self, capsys, argv, message):
        assert main(["params", "--widths", "16,8,4"] + argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 1.12 TiB for an array"),
         "error: Unable to allocate 1.12 TiB for an array\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_out_of_memory_is_an_error_line(self, capsys, monkeypatch, error, line):
        # as a layout too large to list would fail, without listing one
        def param_shapes(cfg):
            raise error

        monkeypatch.setattr("fckan.cli.param_shapes", param_shapes)
        assert main(["params", "--model", "efficient-kan", "--widths", "4,3"]) == 1
        assert capsys.readouterr().err == line

    def test_per_layer_breakdown(self, capsys):
        main(["params", "--model", "mlp"])
        out = capsys.readouterr().out
        assert "layer 0" in out and "layer 1" in out and "total" in out

    def test_counts_a_wide_model_without_building_it(self, capsys):
        # building mlp (784, 20000) would allocate 60 MiB of weights
        tracemalloc.start()
        try:
            rc = main(["params", "--model", "mlp", "--widths", "784,20000",
                       "--expect", "15681568", "--tolerance", "0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 1 << 20
        assert "layer 0      15681568" in capsys.readouterr().out


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

    @pytest.mark.parametrize("argv,message", [
        (["bench", "--n", "0"], "n must be >= 1"),
        (["bench", "--repeats", "1"], "repeats must be >= 3"),
        (["params", "--model", "mlp", "--expect", "52512", "--tolerance", "-1"],
         "argument --tolerance"),
        (["params", "--model", "mlp", "--expect", "52512", "--tolerance", "nan"],
         "argument --tolerance"),
        (["params", "--model", "mlp", "--expect", "52512", "--tolerance", "inf%"],
         "argument --tolerance"),
        (["params", "--model", "mlp", "--widths", ","], "argument --widths"),
        (["train", "--model", "mlp", "--seeds", "0,x"], "argument --seeds"),
        (["train", "--model", "mlp", "--combine", "product"],
         "--combine needs at least 2 functions"),
        (["params", "--model", "fc-kan"], "fc-kan needs between 1 and 4 functions"),
        (["params", "--model", "mlp", "--expect", "-5"], "expect must be >= 0"),
    ])
    def test_bad_values_are_usage_errors(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestOutPath:
    @pytest.mark.parametrize("argv", [
        ["train", "--model", "mlp", "--epochs", "1", "--seeds", "0", "--quiet"],
        ["bench", "--n", "1000", "--repeats", "3"],
        ["report", "--inputs", "*.json"],
    ], ids=lambda argv: argv[0])
    def test_a_missing_out_directory_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                           argv):
        def called(*args, **kwargs):
            raise AssertionError("ran before --out was checked")

        for name in ("load_dataset", "bench_suite", "load_record"):
            monkeypatch.setattr(f"fckan.cli.{name}", called)
        monkeypatch.chdir(tmp_path)
        fake_record("r.json")  # a record for report to load
        out = tmp_path / "missing" / "out.json"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()


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

    def test_renders_a_record_with_the_old_optimiser_keys(self, tmp_path, capsys):
        # records written before AdamW's betas and eps became constants hold
        # them in their train block; the report reads only train.dataset, so
        # the old record and a new one with the same runs give the same row
        fake_record(tmp_path / "new.json")
        record = json.loads((tmp_path / "new.json").read_text())
        assert not {"beta1", "beta2", "adam_eps"} & set(record["train"])
        train = {}
        for key, value in record["train"].items():
            train[key] = value
            if key == "weight_decay":
                train.update(beta1=0.9, beta2=0.999, adam_eps=1e-8)
        (tmp_path / "old.json").write_text(json.dumps({**record, "train": train}))
        assert main(["report", "--inputs", str(tmp_path / "*.json")]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("| mnist |")]
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_empty_glob_fails(self, tmp_path, capsys):
        pattern = str(tmp_path / "none-*.json")
        rc = main(["report", "--inputs", pattern])
        assert rc == 1
        assert capsys.readouterr().err == f"error: no experiment records match {[pattern]}\n"

    def test_malformed_json_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        rc = main(["report", "--inputs", str(bad)])
        assert rc == 1
        assert "bad.json" in capsys.readouterr().err

    def test_undecodable_bytes_name_file(self, tmp_path, capsys):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"model": "\xff"}')
        assert main(["report", "--inputs", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "latin.json" in err and "UTF-8" in err

    def test_record_that_is_not_an_object_fails(self, tmp_path, capsys):
        bad = tmp_path / "three.json"
        bad.write_text("3")
        assert main(["report", "--inputs", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "three.json" in err

    @pytest.mark.parametrize("field, value", [
        ("val_acc", None),
        ("val_acc", {"mean": 97.0}),
        ("val_acc", {"mean": "high", "std": 0.5}),
        ("wall_seconds_mean", [1.0]),
        ("val_acc", {"mean": math.nan, "std": 0.5}),
        ("f1", {"mean": 90.0, "std": math.inf}),
        ("wall_seconds_mean", -math.inf),
    ], ids=["missing", "missing-std", "string-mean", "list-time", "nan-mean", "inf-std",
            "inf-time"])
    def test_malformed_nested_field_fails(self, tmp_path, capsys, field, value):
        path = tmp_path / "a.json"
        fake_record(path)
        record = json.loads(path.read_text())
        if value is None:
            del record["aggregate"][field]
        else:
            record["aggregate"][field] = value
        path.write_text(json.dumps(record))
        assert main(["report", "--inputs", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err and "a.json" in err

    def test_malformed_record_is_named_by_its_file(self, tmp_path, capsys):
        fake_record(tmp_path / "a.json")
        bad = tmp_path / "b.json"
        fake_record(bad)
        record = json.loads(bad.read_text())
        del record["aggregate"]["val_acc"]
        bad.write_text(json.dumps(record))
        assert main(["report", "--inputs", str(tmp_path / "*.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "a.json" not in err

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

    def test_a_failed_download_is_an_error_line_per_file(self, capsys, tmp_path, monkeypatch):
        def no_network(url, dest):
            raise OSError("no network in tests")

        monkeypatch.setattr(urllib.request, "urlretrieve", no_network)
        rc = main(["fetch-data", "--dataset", "mnist", "--data-dir", str(tmp_path)])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4  # one per IDX file, each tried in turn
        assert all(ln.startswith("error: download failed: no network in tests; ")
                   and ln.endswith(str(tmp_path / "mnist")) for ln in lines)


class TestTrainCommand:
    def test_missing_data_is_actionable(self, tmp_path, capsys):
        rc = main(
            ["train", "--model", "mlp", "--data-dir", str(tmp_path),
             "--out", str(tmp_path / "r.json"), "--quiet"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "train-images-idx3-ubyte" in err and "fetch-data" in err

    @pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--epochs", "-1")])
    def test_invalid_train_config_is_usage_error(self, tmp_path, capsys, flag, value):
        # exits 2 before looking for data; the empty data dir would give 1
        rc = main(["train", "--model", "mlp", "--data-dir", str(tmp_path), flag, value])
        assert rc == 2
        assert "must be >=" in capsys.readouterr().err

    def test_the_seeds_set_the_run_count(self, tmp_path, capsys):
        # one seed is one run, not a usage error: only the data is missing
        rc = main(["train", "--model", "mlp", "--seeds", "0", "--data-dir", str(tmp_path),
                   "--quiet"])
        assert rc == 1
        assert "fetch-data" in capsys.readouterr().err

    def test_runs_is_not_a_flag(self, tmp_path, capsys):
        rc = main(["train", "--model", "mlp", "--seeds", "0", "--runs", "1",
                   "--data-dir", str(tmp_path)])
        assert rc == 2
        assert "unrecognized arguments: --runs 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0,-1", "0,1,-2", "0,0"])
    def test_invalid_seed_is_usage_error(self, tmp_path, capsys, seeds):
        # every seed is checked before looking for data; the empty data dir
        # would give 1
        rc = main(["train", "--model", "mlp", "--seeds", seeds, "--data-dir", str(tmp_path)])
        assert rc == 2
        assert "seeds must be non-negative ints" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "mlp", "--seeds", "0,-1"],
        ["params", "--model", "mlp", "--grid-size", "3"],
        ["bench", "--n", "0"],
    ], ids=lambda argv: argv[0])
    def test_usage_error_shows_the_subcommand_usage(self, tmp_path, capsys, argv):
        # raised by the handler after parsing, through its own subparser
        data_dir = ["--data-dir", str(tmp_path)] if argv[0] == "train" else []
        assert main(argv + data_dir) == 2
        assert capsys.readouterr().err.startswith(f"usage: fckan {argv[0]} ")

    @pytest.mark.parametrize("flag,value,field", [
        ("--lr", "nan", "lr0"), ("--lr", "0", "lr0"), ("--gamma", "-1", "gamma"),
        ("--weight-decay", "-5", "weight_decay"),
    ])
    def test_invalid_optimiser_setting_is_usage_error(self, tmp_path, capsys, flag,
                                                      value, field):
        # exits 2 before looking for data; the empty data dir would give 1
        rc = main(["train", "--model", "mlp", "--data-dir", str(tmp_path), flag, value])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_model_flags_parse_and_only_the_data_is_missing(self, tmp_path, capsys):
        rc = main(["train", "--model", "efficient-kan", "--grid-size", "3",
                   "--spline-order", "2", "--widths", "784,16,10",
                   "--data-dir", str(tmp_path), "--quiet"])
        assert rc == 1
        assert "fetch-data" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["truncated", "header", "deflate"])
    def test_damaged_gz_is_a_typed_error(self, tmp_path, capsys, how):
        bad = write_damaged_layout(tmp_path, how)
        assert main(["train", "--model", "mlp", "--data-dir", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad} is not a whole gzip file: ")

    @pytest.mark.parametrize("stem,how", BROKEN_PLAIN)
    def test_broken_plain_file_is_a_typed_error_naming_it(self, tmp_path, capsys, stem, how):
        bad = write_broken_plain_layout(tmp_path, stem, how)
        assert main(["train", "--model", "mlp", "--data-dir", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_data_dir_defaults_to_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FCKAN_DATA_DIR", str(tmp_path / "from-env"))
        assert main(["train", "--model", "mlp", "--quiet"]) == 1
        assert "from-env" in capsys.readouterr().err

    def test_zero_epoch_run_writes_schema_complete_record(self, tmp_path, capsys):
        data_dir = require_dataset("mnist")
        out = tmp_path / "record.json"
        rc = main(
            ["train", "--model", "mlp", "--dataset", "mnist", "--epochs", "0",
             "--seeds", "0,1", "--data-dir", data_dir,
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
                 "--dataset", "mnist", "--epochs", "0", "--seeds", "0",
                 "--data-dir", data_dir, "--out", str(out), "--quiet"]
            )
            assert rc == 0
            outs.append(json.loads(out.read_text()))
        a, b = outs
        assert a["aggregate"]["val_acc"] == b["aggregate"]["val_acc"]
        assert a["runs"][0]["final_f1"] == b["runs"][0]["final_f1"]


class TestTrainToRecord:
    """`fckan train` from IDX files to a record, on full-size random data."""

    ARGV = ["train", "--model", "mlp", "--widths", "784,8,10", "--batch", "1000",
            "--epochs", "1", "--seeds", "0,1", "--quiet"]

    def train(self, data_dir, out):
        assert main(self.ARGV + ["--data-dir", data_dir, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_record_aggregates_its_runs_and_reports(self, random_mnist_dir, tmp_path,
                                                    capsys):
        record = self.train(random_mnist_dir, tmp_path / "a.json")
        assert list(record) == ["model", "train", "runs", "aggregate", "meta"]
        assert [r["seed"] for r in record["runs"]] == [0, 1]
        assert record["train"]["runs"] == 2  # one run per seed
        runs = [RunMetrics(**{k: v for k, v in r.items() if k != "final_train_acc"})
                for r in record["runs"]]
        assert record["aggregate"] == aggregate_runs(runs)
        va = record["aggregate"]["val_acc"]
        assert f"mnist: val acc {va['mean']:.2f} ± {va['std']:.2f}" in capsys.readouterr().out

        assert main(["report", "--inputs", str(tmp_path / "a.json")]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[2].startswith("| mnist | mlp | ")
        assert f"{va['mean']:.2f} ± {va['std']:.2f}" in table[2]

        again = self.train(random_mnist_dir, tmp_path / "b.json")
        for key in ("train_acc", "val_acc", "f1"):
            assert again["aggregate"][key] == record["aggregate"][key]

    def test_record_times_the_data_load_and_older_records_still_report(
            self, random_mnist_dir, tmp_path, capsys):
        record = self.train(random_mnist_dir, tmp_path / "a.json")
        assert record["meta"]["load_seconds"] > 0
        del record["meta"]["load_seconds"]  # as written before the load was timed
        (tmp_path / "old.json").write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["report", "--inputs", str(tmp_path / "old.json")]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("| mnist | mlp | ")


def _parser_flags() -> dict:
    """{subcommand: [(flag, action)]} of the CLI parser's own options."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[-1], a) for a in p._actions if a.option_strings]
            for name, p in sub.choices.items()}


FLAGS = _parser_flags()
# short text with no "/", so that no drawn path leaves the working directory
TEXT = st.text(alphabet="ab01-.,:%* ", max_size=6)
VALUES = {  # the flags whose work grows with their value draw from small ranges
    "n": st.integers(-1, 64).map(str),
    "repeats": st.integers(-1, 3).map(str),
    "epochs": st.integers(-1, 2).map(str),
    "widths": st.lists(st.integers(-1, 9), max_size=4).map(lambda ws: ",".join(map(str, ws))),
    "data_dir": st.sampled_from(["data", "d.json", ""]),
    "out": st.sampled_from(["x.json", "x.csv", "missing/x.json", ""]),
    "inputs": st.sampled_from(["*.json", "x.csv", "none.json"]),
}


@st.composite
def argvs(draw):
    """A subcommand (or text) and up to 6 of its flags, each with a value
    drawn for it, a text or none; bench always ends on a small --n and
    --repeats, since its defaults time a million inputs."""
    command = draw(st.one_of(*map(st.just, sorted(FLAGS)), TEXT))
    argv = [command] if draw(st.integers(0, 9)) else [draw(st.sampled_from(["--version", "-h"]))]
    for flag, action in draw(st.lists(st.sampled_from(FLAGS.get(command, FLAGS["params"])),
                                      max_size=6)):
        argv.append(flag)
        if action.nargs != 0 and draw(st.integers(0, 9)):
            value = VALUES.get(action.dest, st.sampled_from(action.choices or ["0", "1.5"]))
            argv.append(draw(value if action.dest in ("data_dir", "out", "inputs")
                             else value | TEXT))
    if command == "bench":
        argv += ["--n", draw(VALUES["n"]), "--repeats", draw(VALUES["repeats"])]
    return argv


class TestArgvProperty:
    # the examples share the test's directory, where --out and fetch-data write
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argvs())
    def test_any_argv_exits_0_1_or_2_without_a_traceback(self, tmp_path, monkeypatch, argv):
        def no_network(url, dest):
            raise OSError(f"no network in tests: {url}")

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FCKAN_DATA_DIR", raising=False)
        monkeypatch.setattr(urllib.request, "urlretrieve", no_network)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        if rc == 2:
            assert err.startswith("usage: fckan") and "error: " in err, (argv, err)
        elif rc == 1:  # a runtime error, a failed audit, no records, or a failed download
            assert err.startswith("error: ") and err.endswith("\n"), (argv, err)
        else:
            assert out, argv
