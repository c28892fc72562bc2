"""Command-line entry point: preprocess, train, evaluate, sweep, explain, synth.

Settings come from an INI config file (``--config``) with command-line
overrides; every command is deterministic given the same config and seed, and
writes only reproducible artifacts (no timestamps). Paths inside the config
file resolve relative to the config file's directory.

Exit codes: 0 success, 2 usage/configuration/data errors, 3 training
divergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import re
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ExpressionDataset,
    GeneInteractionSet,
    apply_normalization,
    filter_by_interactions,
    fit_normalization,
    load_expression_tsv,
    load_interactions_tsv,
    project,
    select_common_genes,
    write_expression_tsv,
)
from .errors import ConfigError, MetagxError, TrainingError
from .evaluate import (
    TRAINERS,
    best_lambda,
    cross_validate,
    cv_to_csv,
    lambda_sweep,
    prepare_cohorts,
    sweep_to_csv,
    train,
)
from .explain import attribution_to_csv, rank_features, ranking_to_csv, shapley_sampled
from .models import ARCHITECTURES, ModelConfig, load_checkpoint, save_checkpoint
from .synth import SynthSpec, generate_task_family
from .training import MetaConfig
# re-exported: perfbench's TrainClock wraps the trainers on this module as well
from .training import train_meta, train_plain, train_transfer  # noqa: F401

DEFAULT_LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one command after config-file/flag merging."""

    sources: tuple[Path, ...] = ()
    target: Path | None = None
    interactions: Path | None = None

    architecture: str = "mlp"
    hidden_dims: tuple[int, ...] = (128, 64)
    channels: int = 32
    kernel_size: int = 3
    conv_stride: int = 1
    conv_padding: int = 1
    pool_size: int = 2
    pool_stride: int = 2
    conv_layers: int = 2
    embed_dim: int = 32
    tokens: int = 16
    leaky_slope: float = 0.01

    alpha: float = 4e-4
    momentum: float = 0.2
    beta: float = 4e-4
    lam: float = 0.5
    epochs: int = 40
    batch_size: int = 32

    trainer: str = "meta"
    k: int = 10
    seed: int = 0
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    out: Path = Path("metagx-out")
    lam_given: bool = False
    arch_given: bool = False

    def model_config(self, input_dim: int) -> ModelConfig:
        model = {name: getattr(self, name) for name in SECTION_FIELDS["model"]}
        return ModelConfig(input_dim=input_dim, **model)

    def meta_config(self, input_dim: int) -> MetaConfig:
        return MetaConfig(
            model=self.model_config(input_dim),
            inner_lr=self.alpha,
            inner_momentum=self.momentum,
            outer_lr=self.beta,
            lam=self.lam,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )


# ---------------------------------------------------------------------------
# config file parsing and writing

# INI section -> the RunConfig fields it sets. A field's key is its name,
# except ``lam``, whose key is ``lambda``.
SECTION_FIELDS = {
    "data": ("sources", "target", "interactions"),
    "model": (
        "architecture",
        "hidden_dims",
        "channels",
        "kernel_size",
        "conv_stride",
        "conv_padding",
        "pool_size",
        "pool_stride",
        "conv_layers",
        "embed_dim",
        "tokens",
        "leaky_slope",
    ),
    "training": ("alpha", "momentum", "beta", "lam", "epochs", "batch_size"),
    "run": ("trainer", "k", "seed", "lambdas"),
}


def _ini_key(name: str) -> str:
    return "lambda" if name == "lam" else name


def _field_kind(hint) -> tuple[type, bool]:
    """(scalar type, is a list) of a RunConfig annotation such as
    ``int``, ``Path | None`` or ``tuple[float, ...]``."""
    args = [a for a in typing.get_args(hint) if a not in (type(None), Ellipsis)]
    return (args[0] if args else hint), typing.get_origin(hint) is tuple


_FIELD_KINDS = {name: _field_kind(hint) for name, hint in typing.get_type_hints(RunConfig).items()}


_PARSERS = {str: str.strip, int: int, float: float}
# what a field of each kind must be, said of one value and of a list
_NOUNS = {int: ("an integer", "integers"), float: ("a number", "numbers")}


def _split_list(raw: str) -> list[str]:
    parts: list[str] = []
    for chunk in raw.replace("\n", ",").split(","):
        chunk = chunk.strip()
        if chunk:
            parts.append(chunk)
    return parts


def _parse_field(name: str, raw: str, key: str, base: Path = Path()):
    """Parse one field's text by its RunConfig type; ``key`` names it in errors
    and relative paths resolve against ``base``."""
    kind, is_list = _FIELD_KINDS[name]
    parse = base.joinpath if kind is Path else _PARSERS[kind]
    try:
        return tuple(parse(p) for p in _split_list(raw)) if is_list else parse(raw)
    except ValueError:
        one, many = _NOUNS[kind]
        what = f"a comma-separated list of {many}" if is_list else one
        raise ConfigError(f"{key} must be {what}, got {raw!r}") from None


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def load_run_config(path: Path) -> RunConfig:
    """Parse an INI run config; unknown sections or keys are ConfigErrors."""
    parser = configparser.ConfigParser()
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} is not valid INI: {exc}") from None

    kw: dict = {}
    for section in parser.sections():
        if section not in SECTION_FIELDS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        keys = {_ini_key(name): name for name in SECTION_FIELDS[section]}
        unknown = set(parser[section]) - set(keys)
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
        for key, raw in parser[section].items():
            kw[keys[key]] = _parse_field(keys[key], raw, key, path.parent)
    return RunConfig(**kw, lam_given="lam" in kw, arch_given="architecture" in kw)


def write_effective_config(cfg: RunConfig, path: Path) -> None:
    """Snapshot the effective settings as INI (skipping unset paths)."""
    blocks = []
    for section, names in SECTION_FIELDS.items():
        lines = [f"[{section}]"]
        for name in names:
            value = getattr(cfg, name)
            if _FIELD_KINDS[name][0] is not Path or value:
                lines.append(f"{_ini_key(name)} = {_format_value(value)}")
        blocks.append("\n".join(lines))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# shared command plumbing


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {
        name: getattr(args, name)
        for name in ("seed", "out", "trainer", "k", "lam", "lambdas")
        if getattr(args, name, None) is not None
    }
    if "lambdas" in updates:
        updates["lambdas"] = _parse_field("lambdas", updates["lambdas"], "--lambdas")
    return replace(cfg, **updates, lam_given=cfg.lam_given or "lam" in updates)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(Path(args.config)) if args.config else RunConfig()
    cfg = _apply_overrides(cfg, args)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.trainer not in TRAINERS:
        raise ConfigError(f"trainer must be one of {TRAINERS}, got {cfg.trainer!r}")
    if cfg.architecture not in ARCHITECTURES:
        raise ConfigError(
            f"architecture must be one of {ARCHITECTURES}, got {cfg.architecture!r}"
        )
    return cfg


def _load_target(cfg: RunConfig) -> ExpressionDataset:
    if cfg.target is None:
        raise ConfigError("no target dataset configured (set [data] target)")
    return load_expression_tsv(cfg.target)


def _load_inputs(
    cfg: RunConfig,
) -> tuple[list[ExpressionDataset], ExpressionDataset, GeneInteractionSet | None]:
    target = _load_target(cfg)
    sources = [load_expression_tsv(p) for p in cfg.sources]
    inter = load_interactions_tsv(cfg.interactions) if cfg.interactions else None
    return sources, target, inter


def _warn_lambda_ignored(cfg: RunConfig) -> None:
    if cfg.trainer == "plain" and cfg.lam_given:
        print(
            "warning: lambda is ignored by the plain trainer (no source mixing)",
            file=sys.stderr,
        )


def _out_dir(cfg: RunConfig) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    sources, target, inter = _load_inputs(cfg)
    before = select_common_genes([*sources, target])
    genes = filter_by_interactions(before, inter) if inter is not None else before
    out = _out_dir(cfg)
    processed = out / "processed"
    processed.mkdir(exist_ok=True)
    report = [
        f"datasets: {len(sources)} source(s) + 1 target",
        f"shared genes: {len(before)}",
        f"after interaction filter: {len(genes)}",
    ]
    for ds in [*sources, target]:
        projected = project(ds, genes)
        write_expression_tsv(projected, processed / f"{ds.name}.tsv")
        report.append(
            f"dataset {ds.name}: {ds.n_samples} samples, "
            f"{int(ds.labels.sum())} positive"
        )
    (out / "genes.txt").write_text("\n".join(genes) + "\n", encoding="utf-8")
    (out / "report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    write_effective_config(cfg, out / "config.ini")
    print(f"preprocess: {len(genes)} genes -> {processed}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _warn_lambda_ignored(cfg)
    genes, norm_sources, target_p = prepare_cohorts(*_load_inputs(cfg))
    stats = fit_normalization(target_p.matrix)
    target_n = target_p.with_matrix(apply_normalization(target_p.matrix, stats))
    meta_cfg = cfg.meta_config(len(genes))
    params, log = train(cfg.trainer, meta_cfg, norm_sources, target_n)
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.json", params, meta_cfg.model)
    log.to_csv(out / "trainlog.csv")
    sidecar = {
        "genes": list(genes),
        "normalization": {
            "mean": stats.mean.tolist(),
            "std": stats.std.tolist(),
        },
        "trainer": cfg.trainer,
        "seed": cfg.seed,
    }
    (out / "preprocess.json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_effective_config(cfg, out / "config.ini")
    final = log.records[-1]
    print(
        f"train[{cfg.trainer}]: {len(log)} steps, final loss {final.loss_target!r} "
        f"-> {out / 'checkpoint.json'}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _warn_lambda_ignored(cfg)
    sources, target, inter = _load_inputs(cfg)
    genes = prepare_cohorts(sources, target, inter)[0]
    result = cross_validate(
        sources,
        target,
        cfg.meta_config(len(genes)),
        trainer=cfg.trainer,
        k=cfg.k,
        interactions=inter,
    )
    out = _out_dir(cfg)
    cv_to_csv(result, out / f"cv_{cfg.trainer}.csv")
    summary = (
        "model,accuracy,f1,precision,recall,prauc\n"
        f"{cfg.trainer},{result.mean_accuracy!r},{result.mean_f1!r},"
        f"{result.mean_precision!r},{result.mean_recall!r},{result.mean_pr_auc!r}\n"
    )
    (out / "summary.csv").write_text(summary, encoding="utf-8")
    write_effective_config(cfg, out / "config.ini")
    for i, fold in enumerate(result.per_fold):
        print(f"fold {i}: f1={fold.f1!r} accuracy={fold.accuracy!r}")
    print(
        f"evaluate[{cfg.trainer}] k={cfg.k}: mean f1={result.mean_f1!r} "
        f"accuracy={result.mean_accuracy!r} pr_auc={result.mean_pr_auc!r}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    sources, target, inter = _load_inputs(cfg)
    if not sources:
        raise ConfigError("sweep requires [data] sources")
    genes = prepare_cohorts(sources, target, inter)[0]
    points = lambda_sweep(
        sources,
        target,
        cfg.meta_config(len(genes)),
        lambdas=cfg.lambdas,
        k=cfg.k,
        interactions=inter,
    )
    out = _out_dir(cfg)
    sweep_to_csv(points, out / "sweep.csv")
    write_effective_config(cfg, out / "config.ini")
    for p in points:
        print(f"lambda={p.lam!r}: f1={p.f1_mean!r} +- {p.f1_std!r}")
    best = best_lambda(points)
    print(f"best lambda={best.lam!r} (f1={best.f1_mean!r})")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    checkpoint_path = Path(args.checkpoint)
    params, model_cfg = load_checkpoint(checkpoint_path)
    if cfg.arch_given and cfg.architecture != model_cfg.architecture:
        raise ConfigError(
            f"checkpoint holds a {model_cfg.architecture!r} model but the config "
            f"says {cfg.architecture!r}"
        )
    sidecar_path = checkpoint_path.parent / "preprocess.json"
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        genes = tuple(sidecar["genes"])
        mean = np.asarray(sidecar["normalization"]["mean"], dtype=np.float64)
        std = np.asarray(sidecar["normalization"]["std"], dtype=np.float64)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"cannot read preprocessing sidecar {sidecar_path}: {exc}"
        ) from None
    if len(genes) != model_cfg.input_dim:
        raise ConfigError(
            f"checkpoint expects {model_cfg.input_dim} features but the sidecar "
            f"lists {len(genes)} genes"
        )
    if not (
        mean.shape == std.shape == (len(genes),)
        and np.all(np.isfinite(mean))
        and np.all(np.isfinite(std) & (std > 0))
    ):
        raise ConfigError(
            f"preprocessing sidecar {sidecar_path} must give one finite mean and one "
            "finite, positive std per gene"
        )
    target_p = project(_load_target(cfg), genes)
    matrix = (target_p.matrix - mean) / std
    n_samples = min(args.samples, target_p.n_samples)
    out = _out_dir(cfg)
    attributions = []
    for i in range(n_samples):
        att = shapley_sampled(
            params,
            model_cfg,
            matrix,
            matrix[i],
            n_permutations=args.permutations,
            seed=int(np.random.SeedSequence([cfg.seed, i]).generate_state(1)[0]),
            gene_ids=genes,
        )
        attributions.append(att)
        attribution_to_csv(att, out / f"attribution_s{i:04d}.csv")
    ranked = rank_features(attributions, top_k=args.top_k)
    ranking_to_csv(ranked, out / "ranking.csv")
    write_effective_config(cfg, out / "config.ini")
    for gene, score in ranked[:5]:
        print(f"{gene}: {score!r}")
    print(f"explain: {n_samples} sample(s), ranking -> {out / 'ranking.csv'}")
    return 0


# SynthSpec field -> the `metagx synth` flag that sets it
_SYNTH_FLAGS = {
    "n_sources": "--sources",
    "source_samples": "--source-samples",
    "target_samples": "--target-samples",
    "n_features": "--features",
    "signal_dims": "--signal-dims",
    "perturbation": "--perturbation",
    "label_noise": "--noise",
    "class_balance": "--balance",
}


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    values = {
        field: getattr(args, flag[2:].replace("-", "_")) for field, flag in _SYNTH_FLAGS.items()
    }
    try:
        spec = SynthSpec(**values, seed=cfg.seed)
    except ValueError as exc:
        # SynthSpec names its fields; report the flags the user typed
        fields_re = r"\b(" + "|".join(_SYNTH_FLAGS) + r")\b"
        raise ValueError(re.sub(fields_re, lambda m: _SYNTH_FLAGS[m[1]], str(exc))) from None
    sources, target = generate_task_family(spec)
    out = _out_dir(cfg)
    manifest: dict = {
        "spec": {f.name: getattr(spec, f.name) for f in fields(spec)},
        "datasets": {},
    }
    for ds in [*sources, target]:
        write_expression_tsv(ds, out / f"{ds.name}.tsv")
        manifest["datasets"][ds.name] = {
            "samples": ds.n_samples,
            "positives": int(ds.labels.sum()),
        }
    (out / "family.json").write_text(
        json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"synth: {len(sources)} sources + target -> {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    """argparse type of a count flag: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI run configuration file")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument("--out", type=Path, help="output directory (default metagx-out)")

    parser = argparse.ArgumentParser(
        prog="metagx",
        description="Meta-learning pipeline for gene-expression classification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[common], help="select genes and export TSVs")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common], help="train one model on the full target")
    p.add_argument("--trainer", choices=TRAINERS)
    p.add_argument("--lambda", dest="lam", type=float, help="target-loss mixing weight")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="k-fold cross-validation")
    p.add_argument("--trainer", choices=TRAINERS)
    p.add_argument("--k", type=int, help="fold count")
    p.add_argument("--lambda", dest="lam", type=float, help="target-loss mixing weight")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common], help="cross-validated mixing-weight sweep")
    p.add_argument("--k", type=int, help="fold count")
    p.add_argument("--lambdas", help="comma-separated mixing weights")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("explain", parents=[common], help="Shapley attributions for a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint.json from `metagx train`")
    p.add_argument("--samples", type=_positive_int, default=5, help="how many target rows to explain")
    p.add_argument("--permutations", type=_positive_int, default=2000, help="permutations per sample")
    p.add_argument("--top-k", type=_positive_int, default=20, help="ranking length")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic task family")
    p.add_argument("--sources", type=int, default=3)
    p.add_argument("--source-samples", type=int, default=200)
    p.add_argument("--target-samples", type=int, default=60)
    p.add_argument("--features", type=int, default=50)
    p.add_argument("--signal-dims", type=int, default=10)
    p.add_argument("--perturbation", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--balance", type=float, default=0.5)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MetagxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
