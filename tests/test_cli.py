"""Command-line interface: config parsing, exit codes, artifacts, determinism."""

import ctypes
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from metagx import cli, evaluate
from metagx.cli import (
    DEFAULT_LAMBDAS,
    SECTION_FIELDS,
    RunConfig,
    load_run_config,
    main,
    write_effective_config,
)
from metagx.data import load_expression_tsv
from metagx.errors import ConfigError
from metagx.models import ARCHITECTURES, ModelConfig, load_checkpoint
from metagx.training import MetaConfig

from conftest import count_trainer_calls


# ---------------------------------------------------------------------------
# shared tiny corpus: a synthetic family plus a config file pointing at it


@pytest.fixture(scope="session")
def family_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("family")
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--seed",
            "1",
            "--sources",
            "2",
            "--source-samples",
            "40",
            "--target-samples",
            "30",
            "--features",
            "12",
            "--signal-dims",
            "4",
        ]
    )
    assert code == 0
    return out


def write_config(path: Path, family: Path, **overrides) -> Path:
    values = {
        "trainer": "plain",
        "arch": "mlp",
        "epochs": 2,
        "batch_size": 16,
        "alpha": 0.01,
        "beta": 0.01,
        "k": 2,
        "seed": 3,
        "lambda_line": "",
        "model_line": "",
    }
    values.update(overrides)
    text = (
        "[data]\n"
        f"sources = {family / 'synth_source_0.tsv'}, {family / 'synth_source_1.tsv'}\n"
        f"target = {family / 'synth_target.tsv'}\n"
        "\n"
        "[model]\n"
        f"architecture = {values['arch']}\n"
        "hidden_dims = 8, 4\n"
        f"{values['model_line']}"
        "\n"
        "[training]\n"
        f"alpha = {values['alpha']}\n"
        f"beta = {values['beta']}\n"
        f"epochs = {values['epochs']}\n"
        f"batch_size = {values['batch_size']}\n"
        f"{values['lambda_line']}"
        "\n"
        "[run]\n"
        f"trainer = {values['trainer']}\n"
        f"k = {values['k']}\n"
        f"seed = {values['seed']}\n"
    )
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture()
def config_path(tmp_path, family_dir) -> Path:
    return write_config(tmp_path / "run.ini", family_dir)


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


# ---------------------------------------------------------------------------
# config file parsing


def test_load_run_config_reads_all_sections(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[data]\n"
        "sources = a.tsv, b.tsv\n"
        "target = t.tsv\n"
        "interactions = pairs.tsv\n"
        "[model]\n"
        "architecture = cnn\n"
        "hidden_dims = 16, 8\n"
        "channels = 4\n"
        "kernel_size = 5\n"
        "[training]\n"
        "alpha = 0.001\n"
        "lambda = 0.7\n"
        "epochs = 9\n"
        "[run]\n"
        "trainer = transfer\n"
        "k = 4\n"
        "seed = 11\n"
        "lambdas = 0.2, 0.8\n",
        encoding="utf-8",
    )
    cfg = load_run_config(cfg_file)
    assert cfg.sources == (tmp_path / "a.tsv", tmp_path / "b.tsv")
    assert cfg.target == tmp_path / "t.tsv"
    assert cfg.interactions == tmp_path / "pairs.tsv"
    assert cfg.architecture == "cnn"
    assert cfg.hidden_dims == (16, 8)
    assert cfg.channels == 4
    assert cfg.kernel_size == 5
    assert cfg.alpha == 0.001
    assert cfg.lam == 0.7
    assert cfg.lam_given
    assert cfg.epochs == 9
    assert cfg.trainer == "transfer"
    assert cfg.k == 4
    assert cfg.seed == 11
    assert cfg.lambdas == (0.2, 0.8)


def test_load_run_config_absolute_paths_kept(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[data]\ntarget = /abs/t.tsv\n", encoding="utf-8")
    assert load_run_config(cfg_file).target == Path("/abs/t.tsv")


def test_load_run_config_defaults(tmp_path):
    cfg_file = tmp_path / "empty.ini"
    cfg_file.write_text("", encoding="utf-8")
    cfg = load_run_config(cfg_file)
    assert cfg == RunConfig()
    assert cfg.lambdas == DEFAULT_LAMBDAS
    assert not cfg.lam_given


def test_load_run_config_unknown_section(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[surprise]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown section"):
        load_run_config(cfg_file)


def test_load_run_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[model]\ndepth = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(cfg_file)


def test_load_run_config_bad_number(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[run]\nk = many\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(cfg_file)


def test_load_run_config_bad_scalar_names_the_key(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[run]\nk = 2.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^k must be an integer, got '2\.5'$"):
        load_run_config(cfg_file)
    cfg_file.write_text("[training]\nalpha = fast\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^alpha must be a number, got 'fast'$"):
        load_run_config(cfg_file)


def test_load_run_config_bad_list(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[model]\nhidden_dims = 8, wide\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="hidden_dims"):
        load_run_config(cfg_file)


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(tmp_path / "nope.ini")


def full_run_config() -> RunConfig:
    """A RunConfig with every INI field away from its default."""
    return RunConfig(
        sources=(Path("/data/a.tsv"), Path("/data/b.tsv")),
        target=Path("/data/t.tsv"),
        interactions=Path("/data/pairs.tsv"),
        architecture="cnn",
        hidden_dims=(64, 32, 16),
        channels=8,
        kernel_size=5,
        conv_stride=2,
        conv_padding=0,
        pool_size=3,
        pool_stride=1,
        conv_layers=3,
        embed_dim=24,
        tokens=12,
        leaky_slope=0.05,
        alpha=0.0025,
        momentum=0.5,
        beta=1e-05,
        lam=0.4,
        epochs=7,
        batch_size=16,
        trainer="transfer",
        k=5,
        seed=9,
        lambdas=(0.25, 1.0),
    )


INI_FIELDS = [name for names in SECTION_FIELDS.values() for name in names]


def test_effective_config_round_trip(tmp_path):
    cfg = full_run_config()
    path = tmp_path / "effective.ini"
    write_effective_config(cfg, path)
    loaded = load_run_config(path)
    for field in INI_FIELDS:
        assert getattr(cfg, field) != getattr(RunConfig(), field), field
        assert getattr(loaded, field) == getattr(cfg, field), field
    assert loaded == replace(cfg, lam_given=True, arch_given=True)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_run_config_defaults_match_the_model_and_meta_defaults(arch):
    run = replace(RunConfig(), architecture=arch)
    assert run.meta_config(30) == MetaConfig(model=ModelConfig(arch, 30))
    model_fields = [f.name for f in fields(ModelConfig)]
    assert list(SECTION_FIELDS["model"]) == [name for name in model_fields if name != "input_dim"]


def test_fold_count_default_is_the_same_for_the_cli_cv_and_the_sweep():
    defaults = {
        fn.__name__: inspect.signature(fn).parameters["k"].default
        for fn in (evaluate.cross_validate, evaluate.lambda_sweep)
    }
    assert defaults == {"cross_validate": RunConfig.k, "lambda_sweep": RunConfig.k}
    assert RunConfig().k == evaluate.DEFAULT_K == 10


def test_effective_config_bytes(tmp_path):
    path = tmp_path / "effective.ini"
    write_effective_config(full_run_config(), path)
    assert path.read_bytes() == (
        b"[data]\n"
        b"sources = /data/a.tsv, /data/b.tsv\n"
        b"target = /data/t.tsv\n"
        b"interactions = /data/pairs.tsv\n"
        b"\n"
        b"[model]\n"
        b"architecture = cnn\n"
        b"hidden_dims = 64, 32, 16\n"
        b"channels = 8\n"
        b"kernel_size = 5\n"
        b"conv_stride = 2\n"
        b"conv_padding = 0\n"
        b"pool_size = 3\n"
        b"pool_stride = 1\n"
        b"conv_layers = 3\n"
        b"embed_dim = 24\n"
        b"tokens = 12\n"
        b"leaky_slope = 0.05\n"
        b"\n"
        b"[training]\n"
        b"alpha = 0.0025\n"
        b"momentum = 0.5\n"
        b"beta = 1e-05\n"
        b"lambda = 0.4\n"
        b"epochs = 7\n"
        b"batch_size = 16\n"
        b"\n"
        b"[run]\n"
        b"trainer = transfer\n"
        b"k = 5\n"
        b"seed = 9\n"
        b"lambdas = 0.25, 1.0\n"
    )


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "metagx" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_no_command_exits_two(capsys):
    assert main([]) == 2


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_target_exits_two(tmp_path, capsys):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[run]\ntrainer = plain\n", encoding="utf-8")
    code = main(["evaluate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_data_file_exits_two(tmp_path, capsys):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[data]\ntarget = missing.tsv\n", encoding="utf-8")
    code = main(["evaluate", "--trainer", "plain", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["target", "interactions"])
def test_preprocess_non_utf8_input_names_the_file(tmp_path, family_dir, capsys, key):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("sample_id\tA\tlabel\ns1\t\u00e9\t0\n".encode("latin-1"))
    files = {"target": family_dir / "synth_target.tsv", key: bad}
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[data]\n" + "".join(f"{k} = {v}\n" for k, v in files.items()), encoding="utf-8"
    )
    code = main(["preprocess", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"file {bad} is not valid UTF-8" in capsys.readouterr().err


def test_bad_trainer_in_config_exits_two(tmp_path, family_dir, capsys):
    cfg_file = write_config(tmp_path / "run.ini", family_dir, trainer="bogus")
    code = main(["evaluate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "trainer" in capsys.readouterr().err


def test_jobs_option_and_key_are_gone(tmp_path, config_path, family_dir, capsys):
    out = str(tmp_path / "o")
    assert main(["evaluate", "--config", str(config_path), "--out", out, "--jobs", "2"]) == 2
    cfg_file = tmp_path / "jobs.ini"
    cfg_file.write_text(config_path.read_text(encoding="utf-8") + "jobs = 2\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_file), "--out", out]) == 2
    assert "unknown key(s) in [run]: jobs" in capsys.readouterr().err
    cfg_file = write_config(
        tmp_path / "fresh.ini", family_dir, lambda_line="fresh_inner_eval = true\n"
    )
    assert main(["evaluate", "--config", str(cfg_file), "--out", out]) == 2
    assert "unknown key(s) in [training]: fresh_inner_eval" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_exits_two_naming_the_seed(tmp_path, family_dir, capsys, where):
    cfg_file = write_config(tmp_path / "run.ini", family_dir, seed=-1 if where == "config" else 3)
    extra = ["--seed", "-1"] if where == "flag" else []
    code = main(["evaluate", "--config", str(cfg_file), "--out", str(tmp_path / "o"), *extra])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
@pytest.mark.parametrize(
    "key, value, field", [("alpha", "nan", "inner_lr"), ("beta", "inf", "outer_lr")]
)
def test_non_finite_learning_rate_exits_two(
    tmp_path, family_dir, capsys, command, key, value, field
):
    cfg_file = write_config(tmp_path / "run.ini", family_dir, trainer="meta", **{key: value})
    code = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} must be finite and > 0, got {value}\n"
    assert field not in err


@pytest.mark.parametrize(
    "key, value, want",
    [
        ("alpha", "-1", "alpha must be finite and > 0, got -1.0"),
        ("beta", "0", "beta must be finite and > 0, got 0.0"),
        ("momentum", "1", "momentum must be in [0, 1), got 1.0"),
        ("lambda", "2", "lambda must be in [0, 1], got 2.0"),
        ("--lambda", "-0.5", "lambda must be in [0, 1], got -0.5"),
    ],
)
def test_bad_training_setting_exits_two_naming_the_key(
    tmp_path, family_dir, capsys, key, value, want
):
    # MetaConfig names its mixing weight lam; the error names the key typed
    flags, overrides = [], {}
    if key.startswith("--"):
        flags = [key, value]
    elif key in ("alpha", "beta"):
        overrides = {key: value}
    else:
        overrides = {"lambda_line": f"{key} = {value}\n"}
    cfg_file = write_config(tmp_path / "run.ini", family_dir, trainer="meta", **overrides)
    code = main(["evaluate", "--config", str(cfg_file), "--out", str(tmp_path / "o"), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_diverging_training_exits_three_with_one_error_line(tmp_path, family_dir, capsys):
    # numpy overflows on the way to the non-finite loss; only the error is shown
    cfg_file = write_config(tmp_path / "run.ini", family_dir, trainer="meta", alpha=1e300, epochs=1)
    code = main(["evaluate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite source loss nan at step 1 (epoch 1)\n"


@pytest.mark.parametrize("arch", ["mlp", "cnn", "transformer"])
def test_diverging_sweep_exits_three_naming_the_first_diverging_lambda(
    tmp_path, family_dir, capsys, arch
):
    # every weight diverges at step 1; every architecture names the first one
    cfg_file = write_config(
        tmp_path / "run.ini",
        family_dir,
        trainer="meta",
        alpha=1e300,
        epochs=1,
        arch=arch,
        model_line="tokens = 4\n",  # the 12-gene family is narrower than 16 tokens
    )
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", str(cfg_file), "--out", out, "--lambdas", "0.3, 0.6"]) == 3
    assert capsys.readouterr().err == (
        "error: non-finite source loss nan at step 1 (epoch 1) at lambda=0.3\n"
    )


def test_out_of_memory_exits_two_without_a_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 7.21 GiB for an array")

    monkeypatch.setattr(cli, "cmd_synth", exhausted)
    code = main(["synth", "--out", str(tmp_path / "family")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.21 GiB for an array\n"
    )


def test_meta_without_sources_exits_two(tmp_path, family_dir, capsys):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        f"[data]\ntarget = {family_dir / 'synth_target.tsv'}\n"
        "[training]\nepochs = 1\n[run]\ntrainer = meta\n",
        encoding="utf-8",
    )
    code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sources" in capsys.readouterr().err


def test_overflowing_gene_exits_two_with_one_error_line(tmp_path, capsys):
    # gene B's values are finite, but its column sum overflows float64; the
    # test run turns numpy's RuntimeWarnings into errors, so none may escape
    rows = [f"s{i}\t{1.0 + i}\t{b}\t{i % 2}" for i, b in enumerate(["1e308"] * 3 + ["1"] * 5)]
    target = tmp_path / "target.tsv"
    target.write_text("sample_id\tA\tB\tlabel\n" + "\n".join(rows) + "\n", encoding="utf-8")
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        f"[data]\ntarget = {target}\n[training]\nepochs = 1\n[run]\ntrainer = plain\n",
        encoding="utf-8",
    )
    code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: cannot normalize gene 'B' of target: its mean or standard deviation overflows "
        "float64\n"
    )


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_family_and_manifest(family_dir):
    names = {p.name for p in family_dir.iterdir()}
    assert names == {
        "synth_source_0.tsv",
        "synth_source_1.tsv",
        "synth_target.tsv",
        "family.json",
    }
    manifest = json.loads((family_dir / "family.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["n_sources"] == 2
    assert manifest["spec"]["seed"] == 1
    target = load_expression_tsv(family_dir / "synth_target.tsv")
    assert target.n_samples == 30
    assert target.n_genes == 12
    assert manifest["datasets"]["synth_target"]["samples"] == 30
    assert manifest["datasets"]["synth_target"]["positives"] == int(target.labels.sum())


def test_synth_deterministic(tmp_path, family_dir):
    again = tmp_path / "again"
    args = [
        "synth",
        "--out",
        str(again),
        "--seed",
        "1",
        "--sources",
        "2",
        "--source-samples",
        "40",
        "--target-samples",
        "30",
        "--features",
        "12",
        "--signal-dims",
        "4",
    ]
    assert main(args) == 0
    assert read_tree(again) == read_tree(family_dir)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--features", "0"),
        ("--signal-dims", "0"),
        ("--signal-dims", "51"),
        ("--sources", "0"),
        ("--source-samples", "1"),
        ("--target-samples", "1"),
        ("--perturbation", "-0.1"),
        ("--perturbation", "nan"),
        ("--perturbation", "inf"),
        ("--noise", "0.5"),
        ("--balance", "1"),
        ("--balance", "0.001"),
    ],
)
def test_synth_bad_flag_exits_two_naming_the_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    renamed = [field for field, name in cli._SYNTH_FLAGS.items() if name != f"--{field}"]
    assert not any(field in err for field in renamed)
    assert not out.exists()


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_disjoint_genes_exits_two(tmp_path, family_dir, capsys):
    other = tmp_path / "other"
    assert (
        main(
            [
                "synth",
                "--out",
                str(other),
                "--seed",
                "2",
                "--sources",
                "1",
                "--source-samples",
                "20",
                "--target-samples",
                "20",
                "--features",
                "5",
                "--signal-dims",
                "2",
            ]
        )
        == 0
    )
    # rename the other family's genes so the two cohorts share nothing
    renamed = other / "renamed.tsv"
    text = (other / "synth_target.tsv").read_text(encoding="utf-8").splitlines()
    header = text[0].split("\t")
    header[1:-1] = [f"zz{g}" for g in header[1:-1]]
    renamed.write_text("\n".join(["\t".join(header), *text[1:]]) + "\n", encoding="utf-8")
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        f"[data]\nsources = {renamed}\ntarget = {family_dir / 'synth_target.tsv'}\n",
        encoding="utf-8",
    )
    code = main(["preprocess", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "empty intersection" in capsys.readouterr().err


def test_preprocess_artifacts(tmp_path, config_path, capsys):
    out = tmp_path / "prep"
    assert main(["preprocess", "--config", str(config_path), "--out", str(out)]) == 0
    genes = (out / "genes.txt").read_text(encoding="utf-8").splitlines()
    assert len(genes) == 12
    assert genes == sorted(genes)
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "shared genes: 12" in report
    assert "dataset synth_target: 30 samples" in report
    projected = load_expression_tsv(out / "processed" / "synth_target.tsv")
    assert projected.gene_ids == tuple(genes)
    assert "12 genes" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train


def test_train_plain_artifacts(tmp_path, config_path):
    out = tmp_path / "runA"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    params, model_cfg = load_checkpoint(out / "checkpoint.json")
    assert model_cfg.architecture == "mlp"
    assert model_cfg.input_dim == 12
    assert model_cfg.hidden_dims == (8, 4)
    log_lines = (out / "trainlog.csv").read_text(encoding="utf-8").splitlines()
    assert log_lines[0] == "step,epoch,loss_target,loss_source,loss_meta,stage"
    assert len(log_lines) == 1 + 2 * 2  # epochs * ceil(30 / 16)
    assert all(line.endswith(",train") for line in log_lines[1:])
    sidecar = json.loads((out / "preprocess.json").read_text(encoding="utf-8"))
    assert len(sidecar["genes"]) == 12
    assert len(sidecar["normalization"]["mean"]) == 12
    assert sidecar["trainer"] == "plain"
    effective = load_run_config(out / "config.ini")
    assert effective.trainer == "plain"
    assert effective.seed == 3


def test_train_deterministic_across_runs(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_train_seed_override_changes_model(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert (
        main(["train", "--config", str(config_path), "--out", str(out_b), "--seed", "4"]) == 0
    )
    bytes_a = (out_a / "checkpoint.json").read_bytes()
    bytes_b = (out_b / "checkpoint.json").read_bytes()
    assert bytes_a != bytes_b


def test_train_plain_warns_when_lambda_configured(tmp_path, family_dir, capsys):
    cfg_file = write_config(
        tmp_path / "run.ini", family_dir, lambda_line="lambda = 0.5\n"
    )
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert "ignored" in capsys.readouterr().err


def test_train_meta_no_lambda_warning(tmp_path, family_dir, capsys):
    cfg_file = write_config(
        tmp_path / "run.ini", family_dir, trainer="meta", lambda_line="lambda = 0.5\n"
    )
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("trainer", ("plain", "transfer", "meta"))
def test_train_reaches_trainers_through_evaluate(tmp_path, config_path, monkeypatch, trainer):
    calls = count_trainer_calls(monkeypatch)
    args = ["train", "--config", str(config_path), "--out", str(tmp_path / "o")]
    assert main([*args, "--trainer", trainer]) == 0
    assert calls == {f"train_{trainer}": 1}


def test_train_meta_and_transfer_run(tmp_path, config_path):
    for trainer in ("meta", "transfer"):
        out = tmp_path / trainer
        code = main(
            ["train", "--config", str(config_path), "--out", str(out), "--trainer", trainer]
        )
        assert code == 0
        sidecar = json.loads((out / "preprocess.json").read_text(encoding="utf-8"))
        assert sidecar["trainer"] == trainer


# ---------------------------------------------------------------------------
# evaluate / sweep


def test_evaluate_writes_cv_csv(tmp_path, config_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "cv_plain.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 + 1  # header + k folds + mean row
    stdout = capsys.readouterr().out
    assert "fold 0:" in stdout
    assert "mean f1=" in stdout


def test_evaluate_summary_schema(tmp_path, config_path):
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,accuracy,f1,precision,recall,prauc"
    assert len(lines) == 2
    assert lines[1].startswith("plain,")


def test_evaluate_deterministic(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["evaluate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["evaluate", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert (out_a / "cv_plain.csv").read_bytes() == (out_b / "cv_plain.csv").read_bytes()


def test_snapshot_of_a_relative_config_reruns_to_the_same_bytes(tmp_path, family_dir, monkeypatch):
    for name in ("synth_source_0.tsv", "synth_source_1.tsv", "synth_target.tsv"):
        shutil.copy(family_dir / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    write_config(Path("run.ini"), Path())
    assert main(["evaluate", "--config", "run.ini", "--out", "o1"]) == 0
    snapshot = Path("o1/config.ini").read_text(encoding="utf-8")
    assert "target = ../synth_target.tsv\n" in snapshot
    # the snapshot's paths resolve against its own directory, so it re-runs
    # to the same results and snapshots itself to the same bytes
    assert main(["evaluate", "--config", "o1/config.ini", "--out", "o2"]) == 0
    assert Path("o2/config.ini").read_text(encoding="utf-8") == snapshot
    results = sorted(p.name for p in Path("o1").glob("cv_*.csv"))
    assert results == ["cv_plain.csv"]
    for name in results:
        assert (Path("o1") / name).read_bytes() == (Path("o2") / name).read_bytes()


def test_percent_in_a_path_is_read_literally(tmp_path, family_dir):
    data = tmp_path / "100%_data"
    shutil.copytree(family_dir, data)
    config = write_config(tmp_path / "run.ini", data)
    assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "o1")]) == 0
    snapshot = tmp_path / "o1" / "config.ini"
    assert f"target = {data / 'synth_target.tsv'}\n" in snapshot.read_text(encoding="utf-8")
    # the snapshot keeps the % as written, so it re-runs to the same results
    assert main(["evaluate", "--config", str(snapshot), "--out", str(tmp_path / "o2")]) == 0
    assert read_tree(tmp_path / "o1") == read_tree(tmp_path / "o2")


def test_evaluate_rare_class_warns_in_one_line(tmp_path, family_dir, capsys):
    rare = tmp_path / "rare"
    rare.mkdir()
    for name in ("synth_source_0.tsv", "synth_source_1.tsv"):
        shutil.copy(family_dir / name, rare / name)
    header, *rows = (family_dir / "synth_target.tsv").read_text(encoding="utf-8").splitlines()
    kept = [r for r in rows if r.endswith("\t0")] + [r for r in rows if r.endswith("\t1")][:1]
    (rare / "synth_target.tsv").write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
    cfg_file = write_config(tmp_path / "run.ini", rare, k=3)
    assert main(["evaluate", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == (
        "warning: class 1 has 1 members for 3 folds; some folds will not contain it\n"
    )


def test_sweep_writes_csv_and_best(tmp_path, config_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--lambdas",
            "0.5, 1.0",
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2
    assert "best lambda=" in capsys.readouterr().out


def test_sweep_rejects_out_of_range_lambda(tmp_path, config_path, capsys):
    code = main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "o"),
            "--lambdas",
            "1.5",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_singleton_one_matches_plain_evaluation(tmp_path, config_path):
    out_sweep, out_eval = tmp_path / "s", tmp_path / "e"
    assert (
        main(
            [
                "sweep",
                "--config",
                str(config_path),
                "--out",
                str(out_sweep),
                "--lambdas",
                "1.0",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "evaluate",
                "--config",
                str(config_path),
                "--out",
                str(out_eval),
                "--trainer",
                "plain",
            ]
        )
        == 0
    )
    sweep_f1 = (out_sweep / "sweep.csv").read_text(encoding="utf-8").splitlines()[1].split(",")[1]
    plain_f1 = (out_eval / "summary.csv").read_text(encoding="utf-8").splitlines()[1].split(",")[2]
    assert sweep_f1 == plain_f1


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_command_normalizes_each_source_once(tmp_path, family_dir, monkeypatch, command):
    # S fits for the sources plus one per fold's training split; counting the
    # shared genes must not normalize the sources a second time
    fits = []
    fit = evaluate.fit_normalization

    def counted(dataset):
        fits.append(dataset.name)
        return fit(dataset)

    for module in (cli, evaluate):
        monkeypatch.setattr(module, "fit_normalization", counted)
    cfg_file = write_config(tmp_path / "run.ini", family_dir, trainer="meta", k=3, epochs=1)
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    # S = 2 sources, then k = 3 folds of the target
    assert fits == ["synth_source_0", "synth_source_1"] + ["synth_target"] * 3


# ---------------------------------------------------------------------------
# explain


@pytest.fixture()
def trained_dir(tmp_path, config_path) -> Path:
    out = tmp_path / "trained"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    return out


def test_explain_writes_attributions(tmp_path, config_path, trained_dir, capsys):
    out = tmp_path / "explain"
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
            "--samples",
            "2",
            "--permutations",
            "50",
            "--top-k",
            "5",
        ]
    )
    assert code == 0
    assert (out / "attribution_s0000.csv").exists()
    assert (out / "attribution_s0001.csv").exists()
    ranking = (out / "ranking.csv").read_text(encoding="utf-8").splitlines()
    assert ranking[0] == "gene_id,mean_abs_shap"
    assert len(ranking) == 1 + 5
    assert "ranking" in capsys.readouterr().out


def test_explain_deterministic(tmp_path, config_path, trained_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "explain",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--checkpoint",
                str(trained_dir / "checkpoint.json"),
                "--samples",
                "1",
                "--permutations",
                "40",
            ]
        )
        assert code == 0
        outs.append(read_tree(out))
    assert outs[0] == outs[1]


def test_explain_architecture_mismatch_exits_two(tmp_path, family_dir, trained_dir, capsys):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        f"[data]\ntarget = {family_dir / 'synth_target.tsv'}\n"
        "[model]\narchitecture = cnn\n",
        encoding="utf-8",
    )
    code = main(
        [
            "explain",
            "--config",
            str(cfg_file),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
        ]
    )
    assert code == 2
    assert "cnn" in capsys.readouterr().err


def test_explain_zero_permutations_exits_two(tmp_path, config_path, trained_dir, capsys):
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
            "--permutations",
            "0",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--samples", "0"), ("--permutations", "0"), ("--top-k", "0"), ("--top-k", "-1")],
)
def test_explain_count_flag_below_one_exits_two_before_any_work(
    tmp_path, config_path, trained_dir, capsys, monkeypatch, flag, value
):
    def no_checkpoint(path):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(cli, "load_checkpoint", no_checkpoint)
    out = tmp_path / "o"
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
            flag,
            value,
        ]
    )
    assert code == 2
    assert f"argument {flag}: must be an integer >= 1, got '{value}'" in capsys.readouterr().err
    assert not list(out.glob("attribution_*.csv"))


def test_explain_missing_sidecar_exits_two(tmp_path, config_path, trained_dir, capsys):
    lonely = tmp_path / "lonely"
    lonely.mkdir()
    (lonely / "checkpoint.json").write_bytes((trained_dir / "checkpoint.json").read_bytes())
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(lonely / "checkpoint.json"),
        ]
    )
    assert code == 2
    assert "sidecar" in capsys.readouterr().err


BAD_NORMALIZATION = {
    "zero_std": lambda mean, std: (mean, [0.0, *std[1:]]),
    "negative_std": lambda mean, std: (mean, [-1.0, *std[1:]]),
    "infinite_std": lambda mean, std: (mean, [math.inf, *std[1:]]),
    "text_std": lambda mean, std: (mean, ["wide", *std[1:]]),
    "short_std": lambda mean, std: (mean, std[:-1]),
    "long_mean": lambda mean, std: ([*mean, 0.0], std),
    "nan_mean": lambda mean, std: ([math.nan, *mean[1:]], std),
    "short_mean_and_std": lambda mean, std: (mean[:-1], std[:-1]),
}


@pytest.mark.parametrize("case", sorted(BAD_NORMALIZATION))
def test_explain_bad_sidecar_normalization_exits_two(
    tmp_path, config_path, trained_dir, capsys, case
):
    sidecar_path = trained_dir / "preprocess.json"
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    norm = sidecar["normalization"]
    norm["mean"], norm["std"] = BAD_NORMALIZATION[case](norm["mean"], norm["std"])
    sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
        ]
    )
    assert code == 2
    assert "sidecar" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["checkpoint.json", "preprocess.json"])
def test_explain_deeply_nested_json_exits_two(tmp_path, config_path, trained_dir, capsys, name):
    # too deep for the JSON decoder's recursion, which raises RecursionError
    (trained_dir / name).write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert name in err


def test_explain_parses_only_the_target(tmp_path, family_dir, trained_dir, monkeypatch):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[data]\n"
        f"sources = {tmp_path / 'no_such_source.tsv'}, {family_dir / 'synth_source_0.tsv'}\n"
        f"target = {family_dir / 'synth_target.tsv'}\n"
        f"interactions = {tmp_path / 'no_such_pairs.tsv'}\n",
        encoding="utf-8",
    )
    parsed = []

    def counted(path):
        parsed.append(Path(path).name)
        return load_expression_tsv(path)

    monkeypatch.setattr(cli, "load_expression_tsv", counted)
    code = main(
        [
            "explain",
            "--config",
            str(cfg_file),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
            "--samples",
            "1",
            "--permutations",
            "5",
        ]
    )
    assert code == 0
    assert parsed == ["synth_target.tsv"]


def test_explain_without_target_exits_two(tmp_path, family_dir, trained_dir, capsys):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        f"[data]\nsources = {family_dir / 'synth_source_0.tsv'}\n", encoding="utf-8"
    )
    code = main(
        [
            "explain",
            "--config",
            str(cfg_file),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
        ]
    )
    assert code == 2
    assert "no target dataset configured" in capsys.readouterr().err


def test_explain_checkpoint_with_wrong_param_shape_exits_two(
    tmp_path, config_path, trained_dir, capsys
):
    path = trained_dir / "checkpoint.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    # one bias value broadcasts over the layer, so only the load check catches it
    doc["params"]["hidden.0.bias"] = {"shape": [1], "data": "AAAAAAAAAAA="}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(path),
        ]
    )
    assert code == 2
    assert "hidden.0.bias" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field", [f.name for f in fields(ModelConfig) if f.type in ("int", "tuple[int, ...]")]
)
def test_explain_checkpoint_with_a_float_size_exits_two(
    tmp_path, config_path, trained_dir, capsys, field
):
    path = trained_dir / "checkpoint.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    # 12.0 equals 12, so only a type check tells it from the integer
    config = doc["config"]
    if field == "hidden_dims":
        config[field][0] = float(config[field][0])
    else:
        config[field] = float(config[field])
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        [
            "explain",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            str(path),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert field in err


def test_explain_config_records_the_checkpoint_model(tmp_path, family_dir):
    train_cfg = write_config(
        tmp_path / "train.ini", family_dir, arch="cnn", model_line="channels = 4\n"
    )
    trained = tmp_path / "trained"
    assert main(["train", "--config", str(train_cfg), "--out", str(trained)]) == 0
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(f"[data]\ntarget = {family_dir / 'synth_target.tsv'}\n", encoding="utf-8")
    out = tmp_path / "explain"
    code = main(
        [
            "explain",
            "--config",
            str(cfg_file),
            "--out",
            str(out),
            "--checkpoint",
            str(trained / "checkpoint.json"),
            "--samples",
            "1",
            "--permutations",
            "5",
        ]
    )
    assert code == 0

    def model_section(path):
        text = path.read_text(encoding="utf-8")
        return text[text.index("[model]") : text.index("[training]")]

    explained = model_section(out / "config.ini")
    assert "architecture = cnn\n" in explained and "channels = 4\n" in explained
    assert explained == model_section(trained / "config.ini")


# ---------------------------------------------------------------------------
# the README's example config


def test_readme_example_config_loads(tmp_path, family_dir):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    config = tmp_path / "run.ini"
    config.write_text(block[1], encoding="utf-8")
    source = family_dir / "synth_source_0.tsv"
    for name in ("cohort_a.tsv", "cohort_b.tsv", "cohort_c.tsv"):
        shutil.copy(source, tmp_path / name)
    shutil.copy(family_dir / "synth_target.tsv", tmp_path / "cohort_t.tsv")
    cfg = load_run_config(config)
    assert (cfg.architecture, cfg.trainer, cfg.hidden_dims) == ("mlp", "meta", (128, 64))
    assert (cfg.alpha, cfg.momentum, cfg.beta, cfg.lam) == (0.0004, 0.2, 0.0004, 0.5)
    assert cfg.target == tmp_path / "cohort_t.tsv" and cfg.interactions is None
    assert main(["preprocess", "--config", str(config), "--out", str(tmp_path / "prep")]) == 0


# ---------------------------------------------------------------------------
# process settings: main's allocator thresholds and one BLAS thread

_SRC = Path(cli.__file__).resolve().parents[1]


def _openblas_threads() -> tuple | None:
    """(getter, setter) of the mapped OpenBLAS's thread count, or None."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {
        line.split()[-1]
        for line in maps.read_text(encoding="utf-8").splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


def test_train_checkpoint_does_not_depend_on_the_blas_thread_count(tmp_path):
    assert main(["synth", "--features", "695", "--out", str(tmp_path)]) == 0
    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\nsources = synth_source_0.tsv, synth_source_1.tsv, synth_source_2.tsv\n"
        "target = synth_target.tsv\n[training]\nepochs = 1\n",
        encoding="utf-8",
    )
    code = "import sys; from metagx.cli import main; sys.exit(main(sys.argv[1:]))"
    checkpoints = set()
    for threads in (None, "1", "2"):
        env = {**os.environ, "PYTHONPATH": str(_SRC)}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}"
        args = ["train", "--config", str(config), "--out", str(out)]
        run = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        checkpoints.add((out / "checkpoint.json").read_bytes())
    assert len(checkpoints) == 1


def test_main_sets_openblas_to_one_thread():
    calls = _openblas_threads()
    if calls is None:
        pytest.skip("no OpenBLAS is mapped")
    getter, setter = calls
    setter(2)
    cli._own_process.cache_clear()
    try:
        assert main(["--version"]) == 0
        assert getter() == 1
    finally:
        setter(1)


_FAULTS_PROBE = """
import resource, sys
import numpy as np
from metagx import cli
if sys.argv[1] == "main":
    cli.main(["--version"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    block = np.ones(5_000_000)
    del block
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_main_keeps_freed_heap_for_the_next_allocation():
    try:
        has_mallopt = hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        has_mallopt = False
    if not has_mallopt:
        pytest.skip("libc has no mallopt")
    faults = {}
    for mode in ("library", "main"):
        run = subprocess.run(
            [sys.executable, "-c", _FAULTS_PROBE, mode],
            env={**os.environ, "PYTHONPATH": str(_SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        faults[mode] = int(run.stdout.split()[-1])
    # 40 MB is above glibc's 32 MiB dynamic mmap cap, so without main each
    # array is mapped and faulted in afresh; with it, the heap is reused
    assert faults["main"] * 5 < faults["library"], faults
