import argparse
import functools
import hashlib
import json
import operator
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from mkfusion import evaluation as ev
from mkfusion import trainer as tr
from mkfusion.cli import NUMPY_FLOOR, build_parser, main
from mkfusion.dataset import BUNDLE_VERSION, decode_array, encode_array, load_bundle


def run(*argv):
    return main([str(a) for a in argv])


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_without_seconds(path):
    lines = path.read_text().strip().split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


@pytest.fixture()
def small_data(tmp_path):
    path = tmp_path / "data.json"
    assert run("gen-data", "--families", 2, "--genera", 2, "--species", 3,
               "--samples", 4, "--vis-dim", 6, "--sem-dim", 5, "--seed", 3,
               "--out", path) == 0
    return path


@pytest.fixture()
def train_config(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({
        "steps": 2, "n_nfg": 1, "batch_size": 8, "noise_dim": 4,
        "gen_hidden": 10, "disc_hidden": [10, 8], "fusion_hidden": 6,
        "offspring_budget": 4}))
    return path


@pytest.fixture()
def trained(tmp_path, small_data, train_config):
    out = tmp_path / "run"
    assert run("train", "--data", small_data, "--out", out,
               "--config", train_config, "--seed", 5) == 0
    return out


class TestGenData:
    def test_default_flag_counting(self, tmp_path):
        path = tmp_path / "default.json"
        assert run("gen-data", "--out", path) == 0
        bundle = load_bundle(str(path))
        assert len(bundle.names) == 36
        assert len(bundle.unseen_ids) == 6
        manifest = json.loads((tmp_path / "default.json.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 1
        assert manifest["config"]["unseen_frac"] == 0.17
        assert manifest["config"]["noise_std"] == 0.08

    def test_repeated_seed_gives_identical_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen-data", "--families", 2, "--genera", 2, "--species", 2,
                "--samples", 3, "--vis-dim", 5, "--sem-dim", 4, "--seed", 7]
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert file_hash(a) == file_hash(b)

    def test_unseen_frac_one_rejected(self, tmp_path, capsys):
        code = run("gen-data", "--unseen-frac", "1.0", "--out", tmp_path / "x.json")
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MKFUSION_SEED", "11")
        path = tmp_path / "env.json"
        assert run("gen-data", "--families", 2, "--genera", 2, "--species", 2,
                   "--samples", 2, "--vis-dim", 4, "--sem-dim", 3, "--out", path) == 0
        manifest = json.loads((tmp_path / "env.json.manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_config_file_override(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"families": 2, "genera": 2, "species": 2,
                                      "samples": 2, "vis_dim": 4, "sem_dim": 3,
                                      "seed": 2, "sigma_family": 2}))
        path = tmp_path / "cfg.json"
        assert run("gen-data", "--config", config, "--out", path) == 0
        assert len(load_bundle(str(path)).names) == 8
        manifest = json.loads((tmp_path / "cfg.json.manifest.json").read_text())
        assert repr(manifest["config"]["sigma_family"]) == "2.0"


class TestTrain:
    def test_outputs_and_kappa_echo(self, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["config"]["kappa1"] == 0.8
        assert manifest["config"]["kappa2"] == 0.2
        assert (trained / "checkpoint.json").exists()
        header = (trained / "report.csv").read_text().split("\n", 1)[0]
        assert header.startswith("loop,l_d,")

    def test_steps_zero_empty_report_valid_checkpoint(self, tmp_path, small_data):
        out = tmp_path / "zero"
        assert run("train", "--data", small_data, "--out", out, "--steps", 0,
                   "--config", tmp_path / "nonexistent.json") == 1
        assert run("train", "--data", small_data, "--out", out, "--steps", 0) == 0
        report = (out / "report.csv").read_text().strip().split("\n")
        assert len(report) == 1
        state = tr.restore_checkpoint(str(out / "checkpoint.json"))
        assert state.loop_index == 0

    def test_kappa_ordering_rejected_before_training(self, tmp_path, small_data,
                                                     capsys):
        code = run("train", "--data", small_data, "--out", tmp_path / "bad",
                   "--kappa1", 0.1, "--kappa2", 0.9)
        assert code != 0
        assert "kappa1" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path, small_data, train_config):
        a, b = tmp_path / "ra", tmp_path / "rb"
        for out in (a, b):
            assert run("train", "--data", small_data, "--out", out,
                       "--config", train_config, "--seed", 4) == 0
        assert file_hash(a / "checkpoint.json") == file_hash(b / "checkpoint.json")
        assert csv_without_seconds(a / "report.csv") == csv_without_seconds(b / "report.csv")

    def test_resume_matches_straight_run(self, tmp_path, small_data, train_config):
        straight = tmp_path / "straight"
        assert run("train", "--data", small_data, "--out", straight,
                   "--config", train_config, "--seed", 6, "--steps", 4) == 0
        first = tmp_path / "first"
        assert run("train", "--data", small_data, "--out", first,
                   "--config", train_config, "--seed", 6, "--steps", 2) == 0
        resumed = tmp_path / "resumed"
        assert run("train", "--data", small_data, "--out", resumed,
                   "--resume", first / "checkpoint.json", "--steps", 4) == 0
        a = tr.restore_checkpoint(str(straight / "checkpoint.json"))
        b = tr.restore_checkpoint(str(resumed / "checkpoint.json"))
        for name, p in a.model.params.items():
            np.testing.assert_array_equal(p.data, b.model.params[name].data)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        assert file_hash(straight / "checkpoint.json") == file_hash(resumed / "checkpoint.json")


class TestEval:
    def test_gzsl_mode_reports_consistent_harmonic(self, tmp_path, small_data, trained):
        out = tmp_path / "eval"
        assert run("eval", "--data", small_data, "--checkpoint",
                   trained / "checkpoint.json", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_syn"] == 60
        assert manifest["config"]["mode"] == "gzsl"
        header, values = (out / "metrics.csv").read_text().strip().split("\n")
        row = dict(zip(header.split(","), [float(v) for v in values.split(",")]))
        expected = ev.harmonic_mean(row["S"], row["U"])
        assert row["H"] == pytest.approx(expected, abs=1e-12)
        outputs = manifest["outputs"]
        assert all(pathlib.Path(path).exists() for path in outputs.values())
        assert outputs["curve_svg"] == str(out / "curve.svg")
        header, *rows = (out / "curve.csv").read_text().splitlines()
        assert header == "gamma,S,U" and rows
        assert all(len([float(cell) for cell in row.split(",")]) == 3 for row in rows)
        assert (out / "per_class.csv").read_text().startswith("class_id,correct")

    def test_zsl_mode_reports_top1_only(self, tmp_path, small_data, trained):
        out = tmp_path / "zsl"
        assert run("eval", "--data", small_data, "--checkpoint",
                   trained / "checkpoint.json", "--mode", "zsl", "--n-syn", 3,
                   "--out", out) == 0
        text = (out / "metrics.txt").read_text()
        assert text.startswith("top1_unseen=")
        assert "H=" not in text
        assert not (out / "curve.csv").exists()
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == ["metrics_csv", "metrics_txt", "per_class"]
        assert all(pathlib.Path(path).exists() for path in outputs.values())

    def test_eval_outputs_are_reproducible(self, tmp_path, small_data, trained):
        a, b = tmp_path / "ea", tmp_path / "eb"
        for out in (a, b):
            assert run("eval", "--data", small_data, "--checkpoint",
                       trained / "checkpoint.json", "--n-syn", 4, "--out", out) == 0
        assert file_hash(a / "metrics.csv") == file_hash(b / "metrics.csv")
        assert file_hash(a / "curve.csv") == file_hash(b / "curve.csv")


class TestRetrieve:
    def test_ranking_matches_oracle(self, tmp_path, small_data, trained):
        bundle = load_bundle(str(small_data))
        state = tr.restore_checkpoint(str(trained / "checkpoint.json"))
        class_id = bundle.unseen_ids[0] if bundle.unseen_ids else bundle.seen_ids[0]
        out = tmp_path / "ranking.csv"
        assert run("retrieve", "--data", small_data, "--checkpoint",
                   trained / "checkpoint.json", "--class", class_id,
                   "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "rank,sample_id,similarity"
        assert len(lines) == 6
        prototypes = ev.synthesize_prototypes(
            state.model, {class_id: bundle.semantic_for(class_id)},
            n_syn=60, seed=state.config.seed)
        expected = ev.retrieve_topk(prototypes, bundle.sample_visuals, class_id, k=5)
        got = [(int(line.split(",")[1]), float(line.split(",")[2])) for line in lines[1:]]
        assert got == [(i, pytest.approx(s)) for i, s in expected]

    def test_unknown_class_rejected(self, tmp_path, small_data, trained, capsys):
        code = run("retrieve", "--data", small_data, "--checkpoint",
                   trained / "checkpoint.json", "--class", 999,
                   "--out", tmp_path / "x.csv")
        assert code != 0
        assert "unknown class" in capsys.readouterr().err


def assert_one_error_line(capsys, *names):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for name in names:
        assert name in lines[0]
    return lines[0]


@pytest.fixture()
def command_inputs(small_data, trained):
    """The flags each command needs besides ``--config`` and ``--out``."""
    checkpoint = ["--checkpoint", trained / "checkpoint.json"]
    return {"gen-data": [],
            "train": ["--data", small_data],
            "eval": ["--data", small_data, *checkpoint],
            "retrieve": ["--data", small_data, *checkpoint, "--class", 0]}


def assert_rejected(tmp_path, capsys, command, inputs, name, config=None, flags=()):
    """The command exits 1 with one ``error:`` line naming ``name`` and writes
    nothing; the line."""
    if config is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        flags = [*flags, "--config", path]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(command, *inputs, *flags, "--out", out) == 1
    line = assert_one_error_line(capsys, name)
    assert not out.exists()
    return line


# Wrong values in a config file, flag or MKFUSION_SEED, each with the name
# the error line must give: (command, config, flags, MKFUSION_SEED, name).
# Wrong-type and too-small train values are in
# test_train_config_value_types_checked.
BAD_VALUES = [
    ("gen-data", {"families": 2.9, "samples": "3"}, [], None, "families"),
    ("gen-data", {"sigma_family": True}, [], None, "sigma_family"),
    ("gen-data", {"noise_std": "0.1"}, [], None, "noise_std"),
    ("gen-data", {"seed": None}, [], None, "seed"),
    ("gen-data", None, [], "abc", "MKFUSION_SEED"),
    ("gen-data", None, ["--seed", -1], None, "seed"),
    ("train", None, ["--seed", -1], None, "seed"),
    ("train", {"alpha": 1.5}, [], None, "alpha"),
    ("gen-data", {"semantic_noise_std": -1}, [], None, "semantic_noise_std"),
    ("train", {"clip_c": 0}, [], None, "clip_c"),
    ("eval", {"n_syn": True}, [], None, "n_syn"),
    ("eval", {"n_syn": "4"}, [], None, "n_syn"),
    ("eval", {"n_syn": None}, [], None, "n_syn"),
    ("eval", None, ["--mode", "foo"], None, "mode"),
    ("retrieve", {"k": 2.7}, [], None, "k"),
    ("retrieve", {"k": None}, [], None, "k"),
    # Non-finite floats; json.dumps writes them as Infinity and -Infinity.
    ("train", {"learning_rate": float("inf")}, [], None,
     "learning_rate must be finite, got inf"),
    ("train", {"clip_c": float("inf")}, [], None, "clip_c must be finite, got inf"),
    ("train", {"kappa1": float("inf")}, [], None, "kappa1 must be finite, got inf"),
    ("train", {"kappa2": float("-inf")}, [], None, "kappa2 must be finite, got -inf"),
    ("gen-data", {"sigma_family": float("inf")}, [], None,
     "sigma_family must be finite, got inf"),
    ("gen-data", {"noise_std": float("inf")}, [], None,
     "noise_std must be finite, got inf"),
    # The lam field is named by its config key and flag, lambda.
    ("train", {"lambda": -1}, [], None, "lambda must be >= 0, got -1.0"),
    ("train", {"lambda": float("nan")}, [], None, "lambda must be finite, got nan"),
    ("train", None, ["--lambda", -2], None, "lambda must be >= 0, got -2.0"),
    ("train", {"lam": 0.25, "lambda": 0.5}, [], None, "gives both 'lam' and 'lambda'"),
    ("train", {"offspring_budget": 1}, [], None, "offspring_budget must be even, got 1"),
    # A gen-data range error names the setting, not the SyntheticSpec field.
    ("gen-data", None, ["--genera", 0], None, "genera must be >= 1, got 0"),
    ("gen-data", None, ["--vis-dim", 0], None, "vis_dim must be >= 1, got 0"),
    ("gen-data", {"unseen_frac": 1.5}, [], None, "unseen_frac must be < 1, got 1.5"),
    # An int setting must fit in int64, from a flag or a config file.
    ("gen-data", None, ["--samples", 2**63], None,
     "--samples must be int64, got 9223372036854775808"),
    ("train", {"noise_dim": 2**63}, [], None,
     "'noise_dim' must be int64, got 9223372036854775808"),
    ("eval", {"n_syn": 2**63}, [], None, "'n_syn' must be int64, got 9223372036854775808"),
    # An int64 size too large to allocate. Both arrays pass 128 TiB, so no
    # address space can map them, whatever the kernel's overcommit policy.
    ("gen-data", None, ["--families", 2**40], None, "Unable to allocate"),
    ("eval", {"n_syn": 2**43}, [], None, "Unable to allocate"),
]

# A field of a saved file set to a value of the wrong JSON type, with the
# name the error line must give: (file, path to the field, value, name).
# Both files hold 6-d visuals and the first sample is of species 0, so a
# cast of 6.5 or 0.5 would pass unnoticed. A dataset's widths are the shapes
# of its arrays, so its width rows damage a shape.
BAD_FIELDS = [
    ("checkpoint", ("dims",), 5, "dims"),
    ("checkpoint", ("dims", "visual"), 6.5, "dims/visual"),
    ("checkpoint", ("seen_species",), 5, "seen_species"),
    ("checkpoint", ("loop_index",), [1], "loop_index"),
    ("checkpoint", ("rng_state", "bit_generator"), "MT19937", "rng_state"),
    ("checkpoint", ("rng_state", "uinteger"), -1, "rng_state"),
    ("checkpoint", ("rng_state", "uinteger"), 2**64, "rng_state"),
    ("checkpoint", ("rng_state", "has_uint32"), 2**63, "rng_state"),
    ("checkpoint", ("pools", "enhanced/kingdom/0"), encode_array(np.zeros((0, 5))),
     "pools/enhanced/kingdom/0"),
    ("checkpoint", ("pools", "enhanced/species/07"), encode_array(np.zeros((0, 5))),
     "pools/enhanced/species/07"),
    ("bundle", ("classes", "semantic", "shape"), 5, "classes/semantic/shape"),
    ("bundle", ("samples", "visual", "shape", 1), 6.5, "samples/visual"),
    ("bundle", ("classes", "species_id", 0), 7.9, "classes/species_id"),
    ("bundle", ("classes", "genus_id", 0), "3", "classes/genus_id"),
    ("bundle", ("classes", "name", 0), 5, "classes/name"),
    ("bundle", ("samples", "species_id", 0), 0.5, "samples/species_id"),
    ("bundle", ("classes", "genus_id", 1), 2**63, "classes/genus_id"),
    ("bundle", ("classes", "family_id", 0), True, "classes/family_id"),
    ("bundle", ("classes", "name"), "species-000", "classes/name"),
]


# Every object of both files, by its path from the file's root: (file, path).
FILE_OBJECTS = [
    ("bundle", ()), ("bundle", ("classes",)), ("bundle", ("classes", "semantic")),
    ("bundle", ("samples",)), ("bundle", ("samples", "visual")), ("bundle", ("splits",)),
    ("checkpoint", ()), ("checkpoint", ("config",)), ("checkpoint", ("dims",)),
    ("checkpoint", ("params",)), ("checkpoint", ("params", "fusion/genus/w1")),
    ("checkpoint", ("adam",)), ("checkpoint", ("adam", "fusion")),
    ("checkpoint", ("adam", "fusion", "m", 0)), ("checkpoint", ("pools",)),
    ("checkpoint", ("pools", "novel")), ("checkpoint", ("rng_state",)),
    ("checkpoint", ("rng_state", "state")),
]


# A checkpoint field set to an integer out of its range, with the name the
# error line must give: (path to the field, value, name).
OUT_OF_RANGE_FIELDS = [
    (("loop_index",), -5, "loop_index"),
    (("adam", "fusion", "step_count"), -1, "adam/fusion/step_count"),
    (("dims", "visual"), -6, "dims/visual"),
    (("dims", "semantic"), 0, "dims/semantic"),
    (("config", "gen_hidden"), 0, "bad-checkpoint.json config: gen_hidden"),
    (("config", "seed"), -1, "seed"),
]


def assert_field_rejected(tmp_path, capsys, small_data, trained, kind, where, value,
                          name):
    """The ``kind`` file with the field at ``where`` set to ``value`` makes
    ``eval`` (a checkpoint) or ``train`` (a bundle) fail on one line naming
    ``name``; the line."""
    source = trained / "checkpoint.json" if kind == "checkpoint" else small_data
    document = json.loads(source.read_text())
    functools.reduce(operator.getitem, where[:-1], document)[where[-1]] = value
    bad = tmp_path / f"bad-{kind}.json"
    bad.write_text(json.dumps(document))
    if kind == "checkpoint":
        command, inputs = "eval", ["--data", small_data, "--checkpoint", bad]
    else:
        command, inputs = "train", ["--data", bad]
    return assert_rejected(tmp_path, capsys, command, inputs, name)


class TestImports:
    def test_commands_do_not_import_numpy_ma(self, tmp_path, small_data, train_config):
        """Each command loads only the modules it runs: ``gen-data`` none of the
        training or evaluation code, ``train`` no evaluation code. And
        ``np.unique`` imports ``numpy.ma``, which costs every command 11-14 ms
        and about 1 MB; no command may reach it."""
        script = "\n".join([
            "import sys",
            "from mkfusion.cli import main",
            "data, config, out = sys.argv[1:]",
            "loaded = lambda: {m for m in sys.modules if m.split('.')[0] == 'mkfusion'}",
            "checkpoint = out + '/run/checkpoint.json'",
            "assert main(['gen-data', '--seed', '3', '--out', out + '/data.json']) == 0",
            "assert loaded() == {'mkfusion', 'mkfusion.cli', 'mkfusion.config',",
            "                    'mkfusion.dataset'}, loaded()",
            "assert main(['train', '--data', data, '--config', config,",
            "             '--out', out + '/run']) == 0",
            "assert 'mkfusion.evaluation' not in loaded(), loaded()",
            "for mode in ('gzsl', 'zsl'):",
            "    assert main(['eval', '--data', data, '--checkpoint', checkpoint,",
            "                 '--mode', mode, '--n-syn', '4', '--out', out + '/' + mode]) == 0",
            "assert main(['retrieve', '--data', data, '--checkpoint', checkpoint,",
            "             '--class', '0', '--out', out + '/ranking.csv']) == 0",
            "print('numpy.ma' in sys.modules)"])
        src = str(pathlib.Path(ev.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, str(small_data), str(train_config),
             str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"


class TestBadInput:
    @pytest.mark.parametrize("command,key", [
        ("gen-data", "samplez"), ("train", "batchsize"), ("eval", "nsyn"),
        ("retrieve", "nsyn")])
    def test_unknown_config_key_rejected(self, tmp_path, command_inputs, capsys,
                                         command, key):
        assert_rejected(tmp_path, capsys, command, command_inputs[command], key,
                        config={key: 3})

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "retrieve"])
    def test_config_not_utf8_rejected(self, tmp_path, command_inputs, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert_rejected(tmp_path, capsys, command, command_inputs[command],
                        f"malformed config file {path}: ", flags=["--config", path])

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "retrieve"])
    def test_unsupported_numpy_rejected(self, tmp_path, command_inputs, capsys,
                                        monkeypatch, command):
        monkeypatch.setattr(np, "__version__", "1.26.4")
        assert_rejected(tmp_path, capsys, command, command_inputs[command],
                        "numpy 1.26.4 is not supported")

    def test_numpy_floor_matches_pyproject(self):
        text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
        floor = re.search(r'"numpy>=(\d+)\.(\d+)"', text)
        assert tuple(map(int, floor.groups())) == NUMPY_FLOOR

    def test_train_config_precedence(self, tmp_path, small_data, monkeypatch):
        def resolved(*flags, **config):
            path = tmp_path / "train.json"
            path.write_text(json.dumps({"steps": 0, **config}))
            out = tmp_path / "run"
            assert run("train", "--data", small_data, "--out", out,
                       "--config", path, *flags) == 0
            return json.loads((out / "manifest.json").read_text())["config"]

        monkeypatch.setenv("MKFUSION_SEED", "3")
        assert resolved()["seed"] == 3
        assert resolved(seed=9)["seed"] == 9
        assert resolved("--seed", 4, seed=9)["seed"] == 4
        assert resolved(lam=0.25)["lam"] == 0.25
        assert resolved(**{"lambda": 0.5})["lam"] == 0.5
        assert resolved("--lambda", 0.75, **{"lambda": 0.5})["lam"] == 0.75
        assert resolved(batch_size=7)["batch_size"] == 7

    @pytest.mark.parametrize("config,name", [
        ({"batch_size": "8"}, "batch_size"), ({"steps": "300"}, "steps"),
        ({"steps": 2.5}, "steps"), ({"n_nfg": True}, "n_nfg"),
        ({"kappa1": "0.9"}, "kappa1"), ({"alpha": False}, "alpha"),
        ({"fusion_mode": 1}, "fusion_mode"),
        ({"disc_hidden": [10]}, "disc_hidden"),
        ({"disc_hidden": [10, "8"]}, "disc_hidden"),
        ({"gen_hidden": 0}, "gen_hidden"), ({"gen_hidden": -2}, "gen_hidden"),
        ({"fusion_hidden": 0}, "fusion_hidden"),
        ({"disc_hidden": [0, 5]}, "disc_hidden")])
    def test_train_config_value_types_checked(self, tmp_path, small_data, capsys,
                                              config, name):
        assert_rejected(tmp_path, capsys, "train", ["--data", small_data], name,
                        config={"steps": 0, **config})

    @pytest.mark.parametrize("command,config,flags,env,name", BAD_VALUES,
                             ids=[f"{case[0]}-{case[-1]}" for case in BAD_VALUES])
    def test_bad_setting_value_rejected(self, tmp_path, command_inputs, capsys,
                                       monkeypatch, command, config, flags, env,
                                       name):
        if env is not None:
            monkeypatch.setenv("MKFUSION_SEED", env)
        assert_rejected(tmp_path, capsys, command, command_inputs[command], name,
                        config=config, flags=flags)

    def test_diverging_run_prints_one_line(self, tmp_path, small_data, train_config,
                                           capsys):
        """No numpy warning precedes the error that names the loop."""
        config = json.loads(train_config.read_text())
        train_config.write_text(json.dumps({**config, "learning_rate": 1e300}))
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("train", "--data", small_data, "--config", train_config,
                   "--out", out) == 1
        assert_one_error_line(capsys, "error: training aborted at loop")
        assert not out.exists()

    @pytest.mark.parametrize("kind,where,value,name", BAD_FIELDS,
                             ids=[f"{case[0]}-{'.'.join(map(str, case[1]))}"
                                  for case in BAD_FIELDS])
    def test_file_field_types_checked(self, tmp_path, small_data, trained, capsys,
                                      kind, where, value, name):
        assert_field_rejected(tmp_path, capsys, small_data, trained, kind, where, value,
                              name)

    @pytest.mark.parametrize("first,second,value", [
        (("classes", "species_id"), ("samples", "species_id"), [0.5]),
        (("classes",), ("samples",), []),
        (("classes", "semantic"), ("samples", "visual"), []),
    ], ids=["species-id", "section-as-list", "array-as-list"])
    def test_same_bad_value_named_by_path(self, tmp_path, small_data, trained, capsys,
                                          first, second, value):
        """The same bad value in two fields of one key gives two lines, each
        naming its own field by its path from the file's root."""
        lines = [assert_field_rejected(tmp_path, capsys, small_data, trained, "bundle",
                                       where, value, "/".join(where))
                 for where in (first, second)]
        assert lines[0] != lines[1]

    @pytest.mark.parametrize("change,name", [
        ("missing", "missing field: params/generator/species/w1"),
        ("extra", "unknown field: params/generator/species/w3")])
    def test_parameter_set_names_the_entry(self, tmp_path, small_data, trained, capsys,
                                           change, name):
        """A checkpoint whose ``params`` lack one of the model's entries, or
        hold one more, stops on one line naming that entry by its path."""
        document = json.loads((trained / "checkpoint.json").read_text())
        params = document["params"]
        if change == "missing":
            del params["generator/species/w1"]
        else:
            params["generator/species/w3"] = params["generator/species/w2"]
        bad = tmp_path / "bad-checkpoint.json"
        bad.write_text(json.dumps(document))
        assert_rejected(tmp_path, capsys, "eval", ["--data", small_data, "--checkpoint", bad],
                        name)

    @pytest.mark.parametrize("where,value,name", OUT_OF_RANGE_FIELDS,
                             ids=[".".join(case[0]) for case in OUT_OF_RANGE_FIELDS])
    def test_checkpoint_field_ranges_checked(self, tmp_path, small_data, trained,
                                             capsys, where, value, name):
        assert_field_rejected(tmp_path, capsys, small_data, trained, "checkpoint", where,
                              value, name)

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("split,problem", [("unseen", "have no class record"),
                                               ("seen", "listed more than once")])
    def test_split_ids_checked(self, tmp_path, small_data, trained, capsys, command,
                               split, problem):
        """An unknown id appended to the unseen split, or the first seen id
        repeated, stops the command on one line naming the split and the id."""
        document = json.loads(small_data.read_text())
        ids = document["splits"][split]
        ids.append(999 if split == "unseen" else ids[0])
        bad = tmp_path / "bad-data.json"
        bad.write_text(json.dumps(document))
        inputs = ["--data", bad]
        if command == "eval":
            inputs += ["--checkpoint", trained / "checkpoint.json"]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(command, *inputs, "--out", out) == 1
        assert_one_error_line(capsys, f"{split} split: species [{ids[-1]}]", problem)
        assert not out.exists()

    @pytest.mark.parametrize("problem,name", [("width", "dim mismatch"),
                                              ("split", "seen classes differ"),
                                              ("pool", "pools/enhanced/species/999")])
    @pytest.mark.parametrize("command", ["train", "eval", "retrieve"])
    def test_checkpoint_must_fit_the_data(self, tmp_path, small_data, trained, capsys,
                                          command, problem, name):
        """Data of another width with the checkpoint's splits, another seen
        split, or a checkpoint pool key with no seen class stops each command
        that reads a checkpoint on one line naming the problem."""
        data, checkpoint = small_data, trained / "checkpoint.json"
        if problem != "pool":
            document = json.loads(small_data.read_text())
            splits = document["splits"]
            if problem == "width":
                wide = tmp_path / "wide-data.json"
                assert run("gen-data", "--families", 2, "--genera", 2, "--species", 3,
                           "--samples", 4, "--vis-dim", 9, "--sem-dim", 5, "--seed", 3,
                           "--out", wide) == 0
                document = {**json.loads(wide.read_text()), "splits": splits}
            else:
                splits["unseen"] = sorted(splits["unseen"] + splits["seen"][:1])
                splits["seen"] = splits["seen"][1:]
            data = tmp_path / f"{problem}-data.json"
            data.write_text(json.dumps(document))
        else:
            document = json.loads(checkpoint.read_text())
            document["pools"]["enhanced/species/999"] = encode_array(np.full((1, 5), 0.5))
            checkpoint = tmp_path / "bad-checkpoint.json"
            checkpoint.write_text(json.dumps(document))
        inputs = {"train": ["--resume", checkpoint, "--steps", 3],
                  "eval": ["--checkpoint", checkpoint],
                  "retrieve": ["--checkpoint", checkpoint, "--class", 0]}[command]
        assert_rejected(tmp_path, capsys, command, ["--data", data, *inputs], name)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_class_count_must_match_seen_species(self, tmp_path, small_data, trained,
                                                 capsys, command):
        """A class head three rows wider than the seen split, with every array
        that holds a class row padded to match, stops on the class head's
        shape: the model is built with one class per seen species."""
        document = json.loads((trained / "checkpoint.json").read_text())

        def padded(entry):
            a = decode_array(entry, "array")
            return encode_array(np.concatenate([a, np.zeros((*a.shape[:-1], 3))], -1))

        adam = document["adam"]["discriminator"]
        critic = [name for name in document["params"] if name.startswith("discriminator/")]
        for i, name in enumerate(critic):
            if name.endswith("_cls"):
                document["params"][name] = padded(document["params"][name])
                for key in ("m", "v"):
                    adam[key][i] = padded(adam[key][i])
        bad = tmp_path / "bad-checkpoint.json"
        bad.write_text(json.dumps(document))
        inputs = (["--resume", bad, "--steps", 3] if command == "train"
                  else ["--checkpoint", bad])
        assert_rejected(tmp_path, capsys, command, ["--data", small_data, *inputs],
                        "params/discriminator/w_cls: shape")

    @pytest.mark.parametrize("kind,where", FILE_OBJECTS,
                             ids=[f"{kind}-{'/'.join(map(str, where)) or 'root'}"
                                  for kind, where in FILE_OBJECTS])
    def test_unknown_field_rejected(self, tmp_path, small_data, trained, capsys, kind,
                                    where):
        """A key added to any object of either file stops the command that
        reads the file on one line naming the key by its path."""
        path = "/".join(map(str, (*where, "bogus")))
        line = assert_field_rejected(tmp_path, capsys, small_data, trained, kind,
                                     (*where, "bogus"), 1, path)
        assert line == f"error: unknown field: {path}"

    @pytest.mark.parametrize("kind,what,key,value", [
        ("config", "config file", "steps", 0), ("bundle", "dataset file", "seen", []),
        ("checkpoint", "checkpoint", "loop_index", 0)], ids=["config", "bundle", "checkpoint"])
    def test_repeated_key_rejected(self, tmp_path, small_data, train_config, trained,
                                   capsys, kind, what, key, value):
        """A key given twice in one object of a config, dataset or checkpoint
        file stops the command on one line naming the file and the key."""
        source = {"config": train_config, "bundle": small_data,
                  "checkpoint": trained / "checkpoint.json"}[kind]
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(source.read_text().replace(
            f'"{key}": ', f'"{key}": {json.dumps(value)}, "{key}": ', 1))
        inputs = {"config": ["--data", small_data, "--config", bad],
                  "bundle": ["--data", bad],
                  "checkpoint": ["--data", small_data, "--checkpoint", bad]}[kind]
        line = assert_rejected(tmp_path, capsys, "eval" if kind == "checkpoint" else "train",
                               inputs, key)
        assert line == f"error: malformed {what} {bad}: repeated key {key!r}"

    def test_format_3_checkpoint_stops_on_the_version(self, tmp_path, small_data, trained,
                                                       capsys):
        """A checkpoint of the previous format, whose ``dims`` also held
        ``n_classes``, stops on the version line, before any field."""
        document = json.loads((trained / "checkpoint.json").read_text())
        document["format_version"] = 3
        document["dims"]["n_classes"] = len(document["seen_species"])
        bad = tmp_path / "v3-checkpoint.json"
        bad.write_text(json.dumps(document))
        line = assert_rejected(tmp_path, capsys, "eval",
                               ["--data", small_data, "--checkpoint", bad], "version")
        assert line == "error: checkpoint version mismatch: found 3, expected 4"

    @pytest.mark.parametrize("mode,name", [("zsl", "unseen evaluation set"),
                                           ("gzsl", "both evaluation sets")])
    @pytest.mark.parametrize("empty", ["samples", "split"])
    def test_empty_unseen_set_rejected(self, tmp_path, small_data, trained, capsys,
                                       mode, name, empty):
        """Data whose unseen species have no samples, or whose unseen split
        is empty, stops ``eval`` on one line and writes nothing."""
        document = json.loads(small_data.read_text())
        unseen = set(document["splits"]["unseen"])
        samples = document["samples"]
        visuals = decode_array(samples["visual"], "visual")
        keep = [i for i, s in enumerate(samples["species_id"]) if s not in unseen]
        samples["species_id"] = [samples["species_id"][i] for i in keep]
        samples["visual"] = encode_array(visuals[keep])
        if empty == "split":
            document["splits"]["unseen"] = []
            classes = document["classes"]
            rows = [i for i, s in enumerate(classes["species_id"]) if s not in unseen]
            for column in ("species_id", "genus_id", "family_id", "name"):
                classes[column] = [classes[column][i] for i in rows]
            classes["semantic"] = encode_array(decode_array(classes["semantic"],
                                                            "semantic")[rows])
        data = tmp_path / "empty-unseen.json"
        data.write_text(json.dumps(document))
        inputs = ["--data", data, "--checkpoint", trained / "checkpoint.json"]
        assert_rejected(tmp_path, capsys, "eval", inputs, name, flags=["--mode", mode])

    def test_resume_rejects_steps_below_checkpoint_loop(self, tmp_path, small_data,
                                                         trained, capsys):
        capsys.readouterr()
        out = tmp_path / "resumed"
        assert run("train", "--data", small_data, "--out", out,
                   "--resume", trained / "checkpoint.json", "--steps", 1) == 1
        assert_one_error_line(capsys, "steps 1", "loop_index 2")
        assert not out.exists()

    def test_old_file_versions_rejected(self, tmp_path, small_data, trained, capsys):
        def as_float_lists(node):
            """``node`` with every array in the float-list layout of older files."""
            if isinstance(node, dict) and "f64" in node:
                return {"shape": node["shape"],
                        "data": decode_array(node, "array").ravel().tolist()}
            if isinstance(node, dict):
                return {key: as_float_lists(value) for key, value in node.items()}
            if isinstance(node, list):
                return [as_float_lists(value) for value in node]
            return node

        def old_copy(source, version):
            document = as_float_lists(json.loads(source.read_text()))
            document["format_version"] = version
            path = tmp_path / f"v{version}-{source.name}"
            path.write_text(json.dumps(document))
            return path

        checkpoint = old_copy(trained / "checkpoint.json", tr.CHECKPOINT_VERSION - 1)
        bundle = old_copy(small_data, BUNDLE_VERSION - 1)
        checkpoint_error = (f"checkpoint version mismatch: found "
                            f"{tr.CHECKPOINT_VERSION - 1}, expected {tr.CHECKPOINT_VERSION}")
        bundle_error = (f"dataset file version mismatch: found {BUNDLE_VERSION - 1}, "
                        f"expected {BUNDLE_VERSION}")
        for argv, message in (
                (["eval", "--data", small_data, "--checkpoint", checkpoint],
                 checkpoint_error),
                (["retrieve", "--data", small_data, "--checkpoint", checkpoint,
                  "--class", 0], checkpoint_error),
                (["train", "--data", small_data, "--resume", checkpoint, "--steps", 3],
                 checkpoint_error),
                (["train", "--data", bundle], bundle_error)):
            capsys.readouterr()
            out = tmp_path / "out"
            assert run(*argv, "--out", out) == 1
            assert_one_error_line(capsys, message)
            assert not out.exists()

    def test_resume_rejects_other_train_flags(self, tmp_path, small_data, trained,
                                              train_config, capsys):
        capsys.readouterr()
        out = tmp_path / "resumed"
        assert run("train", "--data", small_data, "--out", out,
                   "--resume", trained / "checkpoint.json", "--steps", 3,
                   "--kappa1", 0.95, "--lambda", 0.3, "--config", train_config) == 1
        assert_one_error_line(capsys, "--kappa1", "--lambda", "--config")
        assert not out.exists()

    @pytest.mark.parametrize("change,name", [
        (lambda config: config.update(bogus=1), "bogus"),
        (lambda config: config.pop("alpha"), "alpha"),
        (lambda config: config.update(batch_size="8"), "batch_size"),
        (lambda config: config.update(alpha=1.5), "alpha must be <= 1")])
    def test_checkpoint_config_keys_checked(self, tmp_path, small_data, trained,
                                            capsys, change, name):
        document = json.loads((trained / "checkpoint.json").read_text())
        change(document["config"])
        checkpoint = tmp_path / "bad-checkpoint.json"
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=name):
            tr.restore_checkpoint(str(checkpoint))
        for command, extra in (("eval", []), ("retrieve", ["--class", 0])):
            capsys.readouterr()
            assert run(command, "--data", small_data, "--checkpoint", checkpoint,
                       *extra, "--out", tmp_path / command) == 1
            assert_one_error_line(capsys, name)


class TestParser:
    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code != 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_flags(self):
        expected = {
            "gen-data": "--config --families --genera --out --samples --seed --sem-dim "
                        "--species --unseen-frac --vis-dim",
            "train": "--config --data --kappa1 --kappa2 --lambda --n-nfg --out "
                     "--resume --seed --steps",
            "eval": "--checkpoint --config --data --mode --n-syn --out",
            "retrieve": "--checkpoint --class --config --data --k --n-syn --out"}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, flags in expected.items():
            got = {s for a in sub.choices[command]._actions for s in a.option_strings}
            assert got - {"-h", "--help"} == set(flags.split()), command
