"""Command-line entry point: dataset generation, training, evaluation, and
retrieval as reproducible runs with a manifest next to every output."""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .config import DEFAULT_N_SYN, DEFAULT_TOP_K, TrainConfig
from .dataset import (SyntheticSpec, atomic_write_text, csv_text, fits,
                      generate_synthetic, load_bundle, read_json_object, save_bundle)

SEED_ENV_VAR = "MKFUSION_SEED"
# The oldest numpy release mkfusion runs on, as in pyproject.toml; older ones
# lack functions it calls, such as ``np.trapezoid``.
NUMPY_FLOOR = (2, 0)

# SyntheticSpec field -> gen-data setting, where the two names differ.
SPEC_SETTINGS = {"genera_per_family": "genera", "species_per_genus": "species",
                 "samples_per_species": "samples", "visual_dim": "vis_dim",
                 "semantic_dim": "sem_dim", "unseen_fraction": "unseen_frac"}
# Per command: setting -> default. Each is a config key of the same name.
SETTINGS = {
    "gen-data": {**{SPEC_SETTINGS.get(f.name, f.name): f.default
                    for f in dataclasses.fields(SyntheticSpec)}, "seed": 1},
    "train": {f.name: f.default for f in dataclasses.fields(TrainConfig)},
    "eval": {"n_syn": DEFAULT_N_SYN, "mode": "gzsl"},
    "retrieve": {"k": DEFAULT_TOP_K, "n_syn": DEFAULT_N_SYN},
}
# Per command: the settings that also have a flag, ``--`` + name with ``-`` for ``_``.
FLAGGED = {
    "gen-data": ("families", "genera", "species", "samples", "vis_dim", "sem_dim",
                 "unseen_frac", "seed"),
    "train": ("steps", "n_nfg", "kappa1", "kappa2", "lam", "seed"),
    "eval": ("n_syn", "mode"),
    "retrieve": ("k", "n_syn"),
}
# Setting -> the name its flag and config key use instead; a config file may
# give either name, not both.
ALIASES = {"lam": "lambda"}
# eval output file -> its key in the manifest's ``outputs``.
EVAL_OUTPUTS = {"metrics.txt": "metrics_txt", "metrics.csv": "metrics_csv",
                "per_class.csv": "per_class", "curve.csv": "curve", "curve.svg": "curve_svg"}


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _flag(name: str) -> str:
    return "--" + ALIASES.get(name, name).replace("_", "-")


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings, each from its flag, else the config file, else
    ``MKFUSION_SEED`` for the seed, else its default. Every value must fit the
    default's type, an int in int64; a float setting given an int stores a
    float."""
    defaults = SETTINGS[args.command]
    config = {} if args.config is None else read_json_object(args.config, "config file")
    unknown = sorted(set(config) - {*defaults, *(ALIASES.get(n, n) for n in defaults)})
    if unknown:
        raise ValueError(f"unknown keys in config file {args.config}: {', '.join(unknown)}")
    both = [f"{n!r} and {a!r}" for n, a in ALIASES.items() if n in config and a in config]
    if both:
        raise ValueError(f"config file {args.config} gives both {', '.join(both)}")
    values = {}
    for name, default in defaults.items():
        key = ALIASES[name] if ALIASES.get(name) in config else name
        flag = getattr(args, name) if name in FLAGGED[args.command] else None
        if flag is not None:
            value, source = flag, _flag(name)
        elif key in config:
            value, source = config[key], f"config file {args.config}: {key!r}"
        elif name == "seed" and os.environ.get(SEED_ENV_VAR):
            try:
                value, source = int(os.environ[SEED_ENV_VAR]), SEED_ENV_VAR
            except ValueError:
                raise ValueError(f"{SEED_ENV_VAR} must be an integer, got "
                                 f"{os.environ[SEED_ENV_VAR]!r}") from None
        else:
            value, source = default, name
        if not fits(value, default):
            kind = "int64" if type(default) is int else type(default).__name__
            raise ValueError(f"{source} must be {kind}, got {value!r}")
        if name == "seed" and value < 0:
            raise ValueError(f"seed must be >= 0, got {value}")
        values[name] = float(value) if isinstance(default, float) else value
    return values


def _build(cls, kwargs: dict, names: dict):
    """``cls(**kwargs)``. A range error starts with a field's name; it is
    replaced by the name the user gave the setting, from ``names`` (field ->
    setting)."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        name, _, rest = str(err).partition(" ")
        raise ValueError(f"{names.get(name, name)} {rest}") from None


# ---------------------------------------------------------------------------
# Commands: each writes its outputs and returns its manifest's path with its
# ``config``, ``seed``, ``inputs`` and ``outputs``; ``main`` writes the manifest.
# ---------------------------------------------------------------------------

def _cmd_gen_data(args: argparse.Namespace) -> tuple[str, dict]:
    settings = _settings(args)
    spec = _build(SyntheticSpec, {f.name: settings[SPEC_SETTINGS.get(f.name, f.name)]
                                  for f in dataclasses.fields(SyntheticSpec)}, SPEC_SETTINGS)
    bundle = generate_synthetic(spec, settings["seed"])
    save_bundle(bundle, args.out)
    return args.out + ".manifest.json", {
        "config": settings, "seed": settings["seed"], "inputs": {},
        "outputs": {"dataset": args.out}}


def _cmd_train(args: argparse.Namespace) -> tuple[str, dict]:
    from . import trainer as tr  # imported here, so gen-data starts without it
    resume_state = None
    if args.resume is not None:
        ignored = [_flag(name) for name in FLAGGED["train"]
                   if name != "steps" and getattr(args, name) is not None]
        ignored += ["--config"] if args.config is not None else []
        if ignored:
            raise ValueError(f"--resume keeps the checkpoint's config; only --steps "
                             f"may change: {', '.join(ignored)}")
        resume_state = tr.restore_checkpoint(args.resume)
        config = resume_state.config
        if args.steps is not None:
            config = dataclasses.replace(config, steps=args.steps)
    else:
        config = _build(TrainConfig, _settings(args), ALIASES)
    bundle = load_bundle(args.data)
    result = tr.train(config, bundle, resume=resume_state)
    os.makedirs(args.out, exist_ok=True)
    checkpoint_path = os.path.join(args.out, "checkpoint.json")
    report_path = os.path.join(args.out, "report.csv")
    tr.save_checkpoint(checkpoint_path, result.state)
    atomic_write_text(report_path, result.report.to_csv())
    return os.path.join(args.out, "manifest.json"), {
        "config": dataclasses.asdict(config), "seed": config.seed,
        "inputs": {"dataset": args.data, "resume": args.resume},
        "outputs": {"checkpoint": checkpoint_path, "report": report_path}}


def _cmd_eval(args: argparse.Namespace) -> tuple[str, dict]:
    from . import evaluation as ev, trainer as tr  # imported here, as in _cmd_train
    settings = _settings(args)
    n_syn, mode = settings["n_syn"], settings["mode"]
    if mode not in ("zsl", "gzsl"):
        raise ValueError(f"unknown eval mode: {mode!r}")
    state = tr.restore_checkpoint(args.checkpoint)
    bundle = load_bundle(args.data)
    tr.check_bundle(state, bundle)
    seed = state.config.seed
    if mode == "zsl":
        top1, per_class = ev.evaluate_zsl(state.model, bundle, n_syn=n_syn, seed=seed)
        files = {"metrics.txt": f"top1_unseen={top1!r}\n",
                 "metrics.csv": csv_text(("top1_unseen",), [(top1,)])}
    else:
        metrics, curve = ev.evaluate_gzsl(state.model, bundle, n_syn=n_syn, seed=seed)
        per_class = metrics.per_class_correct
        files = {"metrics.txt": metrics.to_text(), "metrics.csv": metrics.to_csv(),
                 "curve.csv": curve.to_csv(), "curve.svg": curve.to_svg()}
    files["per_class.csv"] = csv_text(("class_id", "correct"), sorted(per_class.items()))
    os.makedirs(args.out, exist_ok=True)
    for name, text in files.items():
        atomic_write_text(os.path.join(args.out, name), text)
    return os.path.join(args.out, "manifest.json"), {
        "config": {"n_syn": n_syn, "mode": mode, "seed": seed}, "seed": seed,
        "inputs": {"dataset": args.data, "checkpoint": args.checkpoint},
        "outputs": {EVAL_OUTPUTS[name]: os.path.join(args.out, name) for name in files}}


def _cmd_retrieve(args: argparse.Namespace) -> tuple[str, dict]:
    from . import evaluation as ev, trainer as tr  # imported here, as in _cmd_train
    settings = _settings(args)
    k, n_syn = settings["k"], settings["n_syn"]
    state = tr.restore_checkpoint(args.checkpoint)
    bundle = load_bundle(args.data)
    tr.check_bundle(state, bundle)
    class_id = args.class_id
    prototypes = ev.synthesize_prototypes(
        state.model, {class_id: bundle.semantic_for(class_id)}, n_syn=n_syn,
        seed=state.config.seed)
    hits = ev.retrieve_topk(prototypes, bundle.sample_visuals, class_id, k=k)
    atomic_write_text(args.out, csv_text(("rank", "sample_id", "similarity"),
                                         [(rank, *hit) for rank, hit in enumerate(hits, 1)]))
    return args.out + ".manifest.json", {
        "config": {"class": class_id, "k": k, "n_syn": n_syn}, "seed": state.config.seed,
        "inputs": {"dataset": args.data, "checkpoint": args.checkpoint},
        "outputs": {"ranking": args.out}}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_command(sub, command: str, func, help_text: str,
                 *required: str) -> argparse.ArgumentParser:
    """A subparser with the ``required`` flags, a flag for each of the
    command's flagged settings, and ``--config``."""
    parser = sub.add_parser(command, help=help_text)
    for flag in required:
        parser.add_argument(flag, required=True)
    for name in FLAGGED[command]:
        parser.add_argument(_flag(name), dest=name, type=type(SETTINGS[command][name]))
    parser.add_argument("--config", help="JSON object of settings")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkfusion",
        description="Taxonomy-conditioned generative zero-shot learning sandbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "gen-data", _cmd_gen_data, "generate a synthetic dataset file",
                 "--out")
    train = _add_command(sub, "train", _cmd_train, "train a model on a dataset file",
                         "--data", "--out")
    train.add_argument("--resume", help="checkpoint to continue from")
    _add_command(sub, "eval", _cmd_eval, "evaluate a checkpoint on a dataset",
                 "--data", "--checkpoint", "--out")
    retrieve = _add_command(sub, "retrieve", _cmd_retrieve,
                            "rank samples against a class prototype",
                            "--data", "--checkpoint", "--out")
    retrieve.add_argument("--class", dest="class_id", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    if tuple(int(n) for n in re.findall(r"\d+", np.__version__)[:2]) < NUMPY_FLOOR:
        print(f"error: numpy {np.__version__} is not supported: mkfusion needs "
              f"numpy >= {'.'.join(map(str, NUMPY_FLOOR))}", file=sys.stderr)
        return 1
    args = build_parser().parse_args(argv)
    started = _utc_now()
    try:
        path, manifest = args.func(args)
        manifest.update(command=args.command, tool_version=__version__,
                        started_at=started, finished_at=_utc_now())
        atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True))
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as err:
        print(f"error: {err or type(err).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
