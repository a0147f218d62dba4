import hashlib
import json

import numpy as np
import pytest

from mkfusion import evaluation as ev
from mkfusion import trainer as tr
from mkfusion.cli import main
from mkfusion.dataset import load_bundle


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
        assert len(bundle.classes) == 36
        assert len(bundle.unseen_ids) == 6
        manifest = json.loads((tmp_path / "default.json.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 1
        assert manifest["config"]["unseen_frac"] == 0.17

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
                                      "seed": 2}))
        path = tmp_path / "cfg.json"
        assert run("gen-data", "--config", config, "--out", path) == 0
        assert len(load_bundle(str(path)).classes) == 8


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
        for name, p in a.model.named_params().items():
            np.testing.assert_array_equal(p.data, b.model.named_params()[name].data)
        assert a.rng_state == b.rng_state


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
        assert (out / "curve.csv").exists()
        assert (out / "curve.svg").exists()
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

    def test_eval_outputs_are_reproducible(self, tmp_path, small_data, trained):
        a, b = tmp_path / "ea", tmp_path / "eb"
        for out in (a, b):
            assert run("eval", "--data", small_data, "--checkpoint",
                       trained / "checkpoint.json", "--n-syn", 4, "--out", out) == 0
        assert file_hash(a / "metrics.csv") == file_hash(b / "metrics.csv")
        assert file_hash(a / "curve.csv") == file_hash(b / "curve.csv")

    def test_dim_mismatch_rejected(self, tmp_path, trained, capsys):
        other = tmp_path / "other.json"
        assert run("gen-data", "--families", 2, "--genera", 2, "--species", 3,
                   "--samples", 4, "--vis-dim", 9, "--sem-dim", 5, "--seed", 3,
                   "--out", other) == 0
        code = run("eval", "--data", other, "--checkpoint",
                   trained / "checkpoint.json", "--out", tmp_path / "bad")
        assert code != 0
        assert "mismatch" in capsys.readouterr().err


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


class TestBadInput:
    @pytest.mark.parametrize("command,key", [
        ("gen-data", "samplez"), ("train", "batchsize"), ("eval", "nsyn"),
        ("retrieve", "nsyn")])
    def test_unknown_config_key_rejected(self, tmp_path, small_data, trained,
                                         capsys, command, key):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: 3}))
        inputs = {"gen-data": [],
                  "train": ["--data", small_data],
                  "eval": ["--data", small_data, "--checkpoint",
                           trained / "checkpoint.json"],
                  "retrieve": ["--data", small_data, "--checkpoint",
                               trained / "checkpoint.json", "--class", 0]}[command]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(command, *inputs, "--config", config, "--out", out) == 1
        assert_one_error_line(capsys, key)
        assert not out.exists()

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
        assert resolved(**{"lambda": 0.5, "lam": 0.25})["lam"] == 0.5
        assert resolved("--lambda", 0.75, **{"lambda": 0.5})["lam"] == 0.75
        assert resolved(batch_size=7)["batch_size"] == 7

    @pytest.mark.parametrize("change,name", [
        (lambda config: config.update(bogus=1), "bogus"),
        (lambda config: config.pop("alpha"), "alpha")])
    def test_checkpoint_config_keys_checked(self, tmp_path, small_data, trained,
                                            capsys, change, name):
        document = json.loads((trained / "checkpoint.json").read_text())
        change(document["config"])
        checkpoint = tmp_path / "bad-checkpoint.json"
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=name):
            tr.restore_checkpoint(str(checkpoint))
        capsys.readouterr()
        assert run("eval", "--data", small_data, "--checkpoint", checkpoint,
                   "--out", tmp_path / "eval") == 1
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
