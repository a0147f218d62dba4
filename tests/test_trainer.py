import base64
import copy
import dataclasses
import functools
import json
import operator
import os
import re
import stat
import tracemalloc
import zlib

import numpy as np
import pytest

from mkfusion import autodiff as ad
from mkfusion import evaluation as ev
from mkfusion import model as mdl
from mkfusion import trainer as tr
from mkfusion.dataset import (LEVELS, DatasetBundle, SyntheticSpec, compute_visual_centers,
                              encode_array, generate_synthetic, load_bundle, save_bundle)
from mkfusion.trainer import TrainConfig
from fd import assert_grads_match


def small_config(**overrides):
    defaults = dict(steps=4, n_nfg=2, batch_size=8, noise_dim=4, gen_hidden=12,
                    disc_hidden=(12, 10), fusion_hidden=6, offspring_budget=8,
                    seed=1)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def small_bundle(seed=1):
    return generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=8,
                                            semantic_dim=6), seed=seed)


def pooled_run():
    """A three-loop run whose enhanced and novel pools each hold several vectors."""
    result = tr.train(small_config(steps=3, n_nfg=0, kappa1=0.3, kappa2=0.1),
                      small_bundle())
    assert len(result.pools.enhanced.entries) > 1 and result.pools.novel.size > 1
    return result


def saved_checkpoint(tmp_path):
    """The path and parsed document of a saved ``pooled_run`` checkpoint."""
    path = tmp_path / "run.ckpt"
    tr.save_checkpoint(str(path), pooled_run().state)
    return path, json.loads(path.read_text())


def one_shot_checkpoint_text(state):
    """The checkpoint as the one-shot writer made it: ``json.dumps`` of the
    whole document, with every array already run through ``encode_array``."""
    rows = (-1, state.model.semantic_dim)
    pools_doc = {f"enhanced/{level}/{class_id}": encode_array(np.reshape(vectors, rows))
                 for (level, class_id), vectors in state.pools.enhanced.entries.items()}
    pools_doc["novel"] = encode_array(np.reshape(state.pools.novel.vectors, rows))
    adam = {name: {"step_count": opt.step_count,
                   "m": [encode_array(a) for a in opt.m],
                   "v": [encode_array(a) for a in opt.v]}
            for name, opt in state.optimizers.items()}
    return json.dumps({
        "format_version": tr.CHECKPOINT_VERSION,
        "config": dataclasses.asdict(state.config),
        "loop_index": state.loop_index,
        "rng_state": state.rng.bit_generator.state,
        "seen_species": state.seen_species,
        "dims": {"visual": state.model.visual_dim, "semantic": state.model.semantic_dim},
        "params": {name: encode_array(p.data)
                   for name, p in state.model.params.items()},
        "adam": adam,
        "pools": pools_doc,
    })


def corrupted(entry, how):
    """A copy of the encoded array ``entry`` damaged in the way ``how`` names."""
    entry = copy.deepcopy(entry)
    raw = base64.b64decode(entry["f64"])
    if how == "drop f64":
        del entry["f64"]
    elif how == "truncate by 8 bytes":
        entry["f64"] = base64.b64encode(raw[:-8]).decode()
    elif how == "NaN bytes":
        nan = np.array([np.nan], dtype="<f8").tobytes()
        entry["f64"] = base64.b64encode(nan + raw[8:]).decode()
    else:
        return np.frombuffer(raw, dtype="<f8").tolist()
    return entry


def assert_each_corruption_named(document, path, load, entries):
    """Every damage to every ``(where, name)`` entry makes ``load`` raise a
    ValueError that gives the path ``name``, ended by ``:`` or ``/``, so that
    ``adam/fusion/m/1`` does not pass as ``adam/fusion/m/10``."""
    for where, name in entries:
        parent = functools.reduce(operator.getitem, where[:-1], document)
        original = parent[where[-1]]
        for how in ("drop f64", "truncate by 8 bytes", "NaN bytes", "entry as list"):
            parent[where[-1]] = corrupted(original, how)
            path.write_text(json.dumps(document))
            with pytest.raises(ValueError, match=re.escape(name) + "[:/]"):
                load(str(path))
        parent[where[-1]] = original


def assert_resumed_matches(straight: tr.TrainResult, resumed: tr.TrainResult):
    """``resumed`` ends with the parameters, RNG and optimizer state of
    ``straight`` bit for bit, and reports its last loops' rows but for
    ``seconds``."""
    a, b = straight.state, resumed.state
    assert a.loop_index == b.loop_index
    for name, p in a.model.params.items():
        assert p.data.tobytes() == b.model.params[name].data.tobytes()
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    for name, opt in a.optimizers.items():
        assert opt.step_count == b.optimizers[name].step_count
        for x, y in zip(opt.m + opt.v, b.optimizers[name].m + b.optimizers[name].v):
            assert x.tobytes() == y.tobytes()
    first = resumed.report.rows[0].loop
    assert ([dataclasses.astuple(r)[:-1] for r in resumed.report.rows]
            == [dataclasses.astuple(r)[:-1] for r in straight.report.rows[first - 1:]])


def csv_without_seconds(report: tr.TrainReport) -> str:
    lines = report.to_csv().strip().split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


# Every bounded TrainConfig field just past each end of its range:
# (dataclass, field, bad value). A closed end is passed by the smallest
# step, an open end by the bound itself.
OUT_OF_RANGE = [
    (TrainConfig, "steps", -1),
    (TrainConfig, "n_nfg", -1),
    (TrainConfig, "lam", -1e-12),
    (TrainConfig, "batch_size", 0),
    (TrainConfig, "learning_rate", 0.0),
    (TrainConfig, "learning_rate", -1e-3),
    (TrainConfig, "noise_dim", 0),
    (TrainConfig, "clip_c", 0),
    (TrainConfig, "seed", -1),
    (TrainConfig, "offspring_budget", -1),
    (TrainConfig, "gen_hidden", 0),
    (TrainConfig, "disc_hidden", (0, 5)),
    (TrainConfig, "disc_hidden", [5, 0]),
    (TrainConfig, "fusion_hidden", 0),
    (TrainConfig, "alpha", -1e-12),
    (TrainConfig, "alpha", 1 + 1e-12),
    (TrainConfig, "lam", float("nan")),
    # run_nfg_phase draws offspring in pairs.
    (TrainConfig, "offspring_budget", 1),
]

# The closed ends not covered by their own test below: each value is valid.
RANGE_ENDS = [("n_nfg", 0), ("lam", 0), ("batch_size", 1), ("noise_dim", 1),
              ("seed", 0), ("offspring_budget", 0), ("gen_hidden", 1),
              ("disc_hidden", (1, 1)), ("fusion_hidden", 1)]


class TestConfig:
    @pytest.mark.parametrize("cls,name,value", OUT_OF_RANGE)
    def test_out_of_range_names_the_field(self, cls, name, value):
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("name,value", RANGE_ENDS)
    def test_closed_range_ends_are_valid(self, name, value):
        assert getattr(TrainConfig(**{name: value}), name) == value

    def test_range_error_gives_bound_and_value(self):
        with pytest.raises(ValueError, match=re.escape("clip_c must be > 0, got 0.0")):
            TrainConfig(clip_c=0)
        with pytest.raises(ValueError, match=re.escape(
                "disc_hidden must be >= 1, got (5, -1)")):
            TrainConfig(disc_hidden=[5, -1])

    def test_invariants(self):
        with pytest.raises(ValueError, match="kappa1"):
            TrainConfig(kappa1=0.2, kappa2=0.8)
        with pytest.raises(ValueError, match="kappa1"):
            TrainConfig(kappa1=float("nan"))
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=-1)
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="fusion mode"):
            TrainConfig(fusion_mode="concat")
        for alpha in (-0.2, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                TrainConfig(alpha=alpha)
        for name, width in (("gen_hidden", 0), ("fusion_hidden", 0),
                            ("gen_hidden", -3), ("disc_hidden", [0, 5]),
                            ("disc_hidden", (5, -1))):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: width})

    def test_alpha_range_ends_are_valid(self):
        assert TrainConfig(alpha=0).alpha == 0.0
        assert TrainConfig(alpha=1).alpha == 1.0

    def test_float_fields_take_ints(self):
        config = TrainConfig(kappa1=1, lam=2, disc_hidden=[12, 10])
        assert type(config.kappa1) is float and type(config.lam) is float
        assert config.disc_hidden == (12, 10)

    def test_steps_zero_is_valid(self):
        assert TrainConfig(steps=0).steps == 0

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("name", ["kappa1", "kappa2", "lam", "learning_rate",
                                      "clip_c", "alpha"])
    def test_non_finite_float_rejected(self, name, value):
        """Every float field, bounded or not, refuses inf, -inf and NaN."""
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be finite, got {value!r}")):
            TrainConfig(**{name: value})


class TestSchedule:
    def test_zero_steps_returns_untrained_model(self):
        bundle = small_bundle()
        config = small_config(steps=0)
        result = tr.train(config, bundle)
        assert result.report.rows == []
        assert result.report.d_updates == 0
        fresh = mdl.FusionGan(config, bundle.visual_dim, bundle.semantic_dim,
                              len(bundle.seen_ids))
        for name, p in fresh.params.items():
            np.testing.assert_array_equal(result.model.params[name].data, p.data)

    def test_five_discriminator_updates_per_loop(self):
        result = tr.train(small_config(steps=4), small_bundle())
        assert result.report.d_updates == 20
        assert [r.loop for r in result.report.rows] == [1, 2, 3, 4]

    def test_pools_closed_until_gate_opens(self):
        result = tr.train(small_config(steps=5, n_nfg=3), small_bundle())
        for row in result.report.rows:
            if row.loop <= 3:
                assert row.enhanced_size == 0
                assert row.novel_size == 0
        sizes = [(r.enhanced_size, r.novel_size) for r in result.report.rows]
        for earlier, later in zip(sizes, sizes[1:]):
            assert later[0] >= earlier[0] and later[1] >= earlier[1]

    def test_gate_never_opens_when_n_nfg_exceeds_steps(self):
        result = tr.train(small_config(steps=4, n_nfg=10), small_bundle())
        assert result.pools.enhanced.size == 0
        assert result.pools.novel.size == 0

    def test_all_losses_finite(self):
        result = tr.train(small_config(steps=5, n_nfg=1), small_bundle())
        for row in result.report.rows:
            for name in ("l_d", "l_g_species", "l_g_genus", "l_g_family",
                         "l_fm", "l_er", "l_nr"):
                assert np.isfinite(getattr(row, name))

    def test_summing_mode_keeps_fusion_parameters_frozen(self):
        bundle = small_bundle()
        config = small_config(fusion_mode="summing")
        result = tr.train(config, bundle)
        fresh = mdl.FusionGan(config, bundle.visual_dim, bundle.semantic_dim,
                              len(bundle.seen_ids))
        for name, p in result.model.params.items():
            if name.startswith("fusion/"):
                np.testing.assert_array_equal(p.data, fresh.params[name].data)

    def test_divergence_aborts_with_loop_index(self):
        config = small_config(steps=3, n_nfg=0, learning_rate=1e200)
        with pytest.raises(RuntimeError, match="at loop"):
            tr.train(config, small_bundle())

    def test_empty_seen_split_rejected(self):
        bundle = small_bundle()
        broken = DatasetBundle(bundle.taxonomy, bundle.names, bundle.semantics,
                               bundle.sample_species, bundle.sample_visuals, seen_ids=[],
                               unseen_ids=bundle.taxonomy[:, 0])
        with pytest.raises(ValueError, match="seen"):
            tr.train(small_config(), broken)


class TestObjectives:
    def test_pool_losses_train_only_the_fusion_network(self):
        assert tr.OBJECTIVES.keys() == tr.ADAM_GROUPS.keys()
        for group, names in tr.OBJECTIVES.items():
            pool_terms = {"l_er", "l_nr"} & set(names)
            assert pool_terms == ({"l_er", "l_nr"} if group == "fusion" else set())

    def test_fusion_objective_is_sum_of_terms(self, monkeypatch):
        bundle = small_bundle()
        state = pooled_run().state
        descend, seen = tr._Session.descend, []

        def recorded(session, terms, *groups):
            values = {name: t.item() for name, t in terms.items()}
            sums = descend(session, terms, *groups)
            seen.append((values, {group: t.item() for group, t in sums.items()}))
            return sums

        monkeypatch.setattr(tr._Session, "descend", recorded)
        report = tr._Session(bundle, state).generator_fusion_step()
        values, sums = seen[-1]
        assert values["l_er"] != 0.0 and values["l_nr"] != 0.0
        assert sums["fusion"] == pytest.approx(
            values["l_fused"] + values["l_er"] + values["l_nr"], rel=1e-12)
        assert report["l_fm"] == sums["fusion"]

    def test_generator_step_pulls_toward_each_samples_class_center(self, monkeypatch):
        """The center rows that the generator step gathers by index are, bit
        for bit, each batch sample's class center at that level."""
        bundle = small_bundle()
        session = tr._Session(bundle, tr.initial_state(small_config(), bundle))
        sample_batch, loss_generator, batches, rows = (session.sample_batch,
                                                       mdl.loss_generator, [], [])

        def recorded_batch():
            batches.append(sample_batch())
            return batches[-1]

        def recorded_loss(disc, generated, labels, center_rows):
            rows.append(center_rows)
            return loss_generator(disc, generated, labels, center_rows)

        monkeypatch.setattr(session, "sample_batch", recorded_batch)
        monkeypatch.setattr(mdl, "loss_generator", recorded_loss)
        session.generator_fusion_step()
        idx = batches[0][0]
        assert len(rows) == len(LEVELS)
        for level, gathered in zip(LEVELS, rows):
            ds = session.datasets[level]
            centers = compute_visual_centers(ds)
            expected = np.stack([centers[c] for c in ds.labels[idx].tolist()])
            assert gathered.tobytes() == expected.tobytes()

    def test_every_parameter_but_b_real_gets_a_gradient(self, monkeypatch):
        """One critic and one generator/fusion step of a default-config
        session reach every parameter but ``discriminator/b_real``, whose
        gradient cancels out of mean(realness(fake)) - mean(realness(real))."""
        bundle = small_bundle()
        state = tr.initial_state(TrainConfig(), bundle)
        backward, grads = ad.backward, {}

        def recorded(loss, *, wrt):
            result = backward(loss, wrt=wrt)
            grads.update(zip(map(id, wrt), result))
            return result

        monkeypatch.setattr(ad, "backward", recorded)
        session = tr._Session(bundle, state)
        session.discriminator_step()
        session.generator_fusion_step()
        assert len(grads) == len(state.model.params)
        dead = [name for name, p in state.model.params.items() if not grads[id(p)].any()]
        assert dead == ["discriminator/b_real"]

    @pytest.mark.parametrize("fusion_mode", ["adaptive", "summing"])
    def test_descended_gradients_match_finite_differences(self, monkeypatch, fusion_mode):
        """The gradient each optimizer gets from ``descend`` is that of its
        ``OBJECTIVES`` sum, by central differences through the session's own
        steps, batch and pool draws included; summing mode trains no fusion
        network. The pools are filled first, and the session's RNG is
        re-seeded before each evaluation, so every one draws alike."""
        bundle = generate_synthetic(SyntheticSpec(
            families=2, genera_per_family=2, species_per_genus=3, samples_per_species=4,
            visual_dim=6, semantic_dim=5), seed=3)
        config = TrainConfig(steps=12, kappa1=0.3, kappa2=0.2, batch_size=8, noise_dim=3,
                             gen_hidden=8, disc_hidden=(8, 6), fusion_hidden=5,
                             fusion_mode=fusion_mode)
        session = tr._Session(bundle, tr.train(config, bundle).state)
        assert session.pools.enhanced.size > 0 and session.pools.novel.size > 0
        grads, sums = {}, {}
        for group, opt in session.optimizers.items():
            monkeypatch.setattr(opt, "step", functools.partial(grads.__setitem__, group))
        monkeypatch.setattr(ad, "clip_weights", lambda params, c: None)
        steps = {"discriminator": session.discriminator_step,
                 "generators": session.generator_fusion_step,
                 "fusion": session.generator_fusion_step}

        def run(step):
            session.rng = np.random.default_rng(7)
            step()

        run(session.discriminator_step)
        run(session.generator_fusion_step)
        trained = ["discriminator", "generators"] + ["fusion"] * (fusion_mode == "adaptive")
        assert list(grads) == trained

        def summed(terms, *groups):
            """``descend``'s sums alone, for evaluations under ``no_grad``."""
            sums.update({g: functools.reduce(ad.add, [terms[n] for n in tr.OBJECTIVES[g]])
                         for g in groups})
            return sums

        def group_sum(group):
            run(steps[group])
            return sums[group]

        monkeypatch.setattr(session, "descend", summed)
        rng = np.random.default_rng(zlib.crc32(fusion_mode.encode()))
        for group in trained:
            assert assert_grads_match(functools.partial(group_sum, group),
                                      session.optimizers[group].params, rng,
                                      coords_per_leaf=6, grads=grads[group]) > 40


class TestTape:
    """Every op is taped while gradients are on, so the tape holds only
    what ``backward`` can reach if no op in a training step runs on data
    alone, and evaluation runs with gradients off."""

    # The tape's length at each backward of a loop whose pools are both
    # non-empty: five critic steps, then the generator/fusion step, which
    # builds every sum before its first backward. A dense layer is one node.
    TAPE_PER_LOOP = {"adaptive": 5 * [16] + 2 * [168], "summing": 5 * [16] + [117]}

    @pytest.mark.parametrize("fusion_mode", ["adaptive", "summing"])
    def test_every_taped_op_has_a_parameter_input(self, monkeypatch, fusion_mode):
        bundle = small_bundle()
        config = small_config(steps=3, n_nfg=0, kappa1=0.3, kappa2=0.1,
                              fusion_mode=fusion_mode)
        state = tr.train(dataclasses.replace(config, steps=0), bundle).state
        params = {id(p) for p in state.model.params.values()}
        backward, calls = ad.backward, []

        def checked_backward(loss, *, wrt):
            reached = set(params)
            for i, node in enumerate(ad.active_graph()):
                assert not reached.isdisjoint(map(id, node.inputs)), (
                    f"tape node {i} has no input reached from a parameter")
                reached.add(id(node.output))
            calls.append(len(ad.active_graph()))
            return backward(loss, wrt=wrt)

        monkeypatch.setattr(ad, "backward", checked_backward)
        result = tr.train(config, bundle, resume=state)
        assert result.pools.enhanced.size > 0 and result.pools.novel.size > 0
        per_loop = self.TAPE_PER_LOOP[fusion_mode]
        assert len(calls) == 3 * len(per_loop) and min(calls) > 0
        assert calls[-len(per_loop):] == per_loop

    def test_evaluation_leaves_the_tape_empty(self):
        bundle = small_bundle()
        model = tr.train(small_config(steps=0), bundle).model
        ad.clear_graph()
        for run in (lambda: ev.evaluate_gzsl(model, bundle, n_syn=3),
                    lambda: ev.evaluate_zsl(model, bundle, n_syn=3),
                    lambda: ev.synthesize_prototypes(
                        model, {0: bundle.semantic_for(0)}, n_syn=3)):
            run()
            assert ad.active_graph() == []


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = tr.train(small_config(steps=3, n_nfg=1), small_bundle())
        b = tr.train(small_config(steps=3, n_nfg=1), small_bundle())
        assert csv_without_seconds(a.report) == csv_without_seconds(b.report)
        for name, p in a.model.params.items():
            np.testing.assert_array_equal(p.data, b.model.params[name].data)

    def test_different_seed_changes_report(self):
        a = tr.train(small_config(steps=3), small_bundle())
        b = tr.train(small_config(steps=3, seed=2), small_bundle())
        assert csv_without_seconds(a.report) != csv_without_seconds(b.report)

    def test_csv_columns(self):
        result = tr.train(small_config(steps=1), small_bundle())
        header = result.report.to_csv().split("\n", 1)[0]
        assert header == ("loop,l_d,l_g_species,l_g_genus,l_g_family,"
                          "l_fm,l_er,l_nr,enhanced_size,novel_size,seconds")


class TestCheckpoint:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        result = pooled_run()
        path = tmp_path / "run.ckpt"
        tr.save_checkpoint(str(path), result.state)
        restored = tr.restore_checkpoint(str(path))
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(p.data, restored.model.params[name].data)
            assert restored.model.params[name].data.flags.writeable
        assert restored.loop_index == 3
        assert restored.rng.bit_generator.state == result.state.rng.bit_generator.state
        groups = {"discriminator": restored.model.group("discriminator/"),
                  "generators": restored.model.group("generator/"),
                  "fusion": restored.model.group("fusion/")}
        assert list(restored.optimizers) == list(result.state.optimizers) == list(groups)
        for name, opt in result.state.optimizers.items():
            stored = restored.optimizers[name]
            assert stored.step_count == opt.step_count > 0
            assert stored.lr == opt.lr
            assert all(p is q for p, q in zip(stored.params, groups[name], strict=True))
            for key in ("m", "v"):
                assert len(getattr(stored, key)) == len(getattr(opt, key))
                for a, b in zip(getattr(opt, key), getattr(stored, key)):
                    np.testing.assert_array_equal(a, b)
                    assert b.flags.writeable
        assert list(restored.pools.enhanced.entries) == list(result.pools.enhanced.entries)
        assert restored.pools.enhanced.size == result.pools.enhanced.size
        assert restored.pools.novel.size == result.pools.novel.size
        for (key, vectors) in result.pools.enhanced.entries.items():
            stored = restored.pools.enhanced.entries[key]
            for a, b in zip(vectors, stored):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(result.pools.novel.vectors, restored.pools.novel.vectors):
            np.testing.assert_array_equal(a, b)

    def test_file_matches_one_shot_writer(self, tmp_path):
        state = pooled_run().state
        path = tmp_path / "run.ckpt"
        tr.save_checkpoint(str(path), state)
        assert path.read_text() == one_shot_checkpoint_text(state)

    @pytest.mark.slow
    def test_save_holds_less_than_the_file(self, tmp_path):
        state = tr.train(TrainConfig(steps=40), generate_synthetic(SyntheticSpec(), 1)).state
        path = tmp_path / "run.ckpt"
        tracemalloc.start()
        try:
            tr.save_checkpoint(str(path), state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_split_run_matches_straight_run(self, tmp_path):
        bundle = small_bundle()
        straight = tr.train(small_config(steps=6, n_nfg=2), bundle)

        first = tr.train(small_config(steps=3, n_nfg=2), bundle)
        path = tmp_path / "mid.ckpt"
        tr.save_checkpoint(str(path), first.state)
        restored = tr.restore_checkpoint(str(path))
        resumed = tr.train(small_config(steps=6, n_nfg=2), bundle, resume=restored)
        assert [r.loop for r in resumed.report.rows] == [4, 5, 6]
        assert_resumed_matches(straight, resumed)

    def test_in_memory_resume_advances_the_given_state(self):
        bundle = small_bundle()
        straight = tr.train(small_config(steps=6, n_nfg=2), bundle)

        first = tr.train(small_config(steps=3, n_nfg=2), bundle)
        resumed = tr.train(small_config(steps=6, n_nfg=2), bundle, resume=first.state)
        assert resumed.state is first.state
        assert first.state.loop_index == 6 and first.state.config.steps == 6
        assert [r.loop for r in resumed.report.rows] == [4, 5, 6]
        assert_resumed_matches(straight, resumed)

    @pytest.mark.parametrize("name,value", [("fusion_mode", "summing"), ("gen_hidden", 8),
                                            ("seed", 2), ("learning_rate", 5e-4)])
    def test_resume_rejects_config_change(self, name, value):
        """A resumed run keeps its state's config: any change but ``steps`` is
        named before the state is touched, and a ``steps``-only change still
        resumes bit for bit."""
        bundle = small_bundle()
        state = tr.train(small_config(steps=2, n_nfg=1), bundle).state
        params = {n: p.data.tobytes() for n, p in state.model.params.items()}
        rng_state = state.rng.bit_generator.state
        with pytest.raises(ValueError, match=f"only steps may change: {name}$"):
            tr.train(small_config(steps=4, n_nfg=1, **{name: value}), bundle,
                     resume=state)
        assert state.loop_index == 2 and state.config == small_config(steps=2, n_nfg=1)
        assert state.rng.bit_generator.state == rng_state
        assert {n: p.data.tobytes() for n, p in state.model.params.items()} == params
        resumed = tr.train(small_config(steps=4, n_nfg=1), bundle, resume=state)
        assert_resumed_matches(tr.train(small_config(steps=4, n_nfg=1), bundle), resumed)

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_files_follow_the_umask(self, tmp_path, umask, mode):
        state = tr.train(small_config(steps=1), small_bundle()).state
        previous = os.umask(umask)
        try:
            save_bundle(small_bundle(), str(tmp_path / "data.json"))
            tr.save_checkpoint(str(tmp_path / "run.ckpt"), state)
        finally:
            os.umask(previous)
        assert sorted((p.name, stat.S_IMODE(p.stat().st_mode))
                      for p in tmp_path.iterdir()) == [("data.json", mode),
                                                       ("run.ckpt", mode)]

    def test_saved_files_hold_no_float_lists(self, tmp_path):
        def float_lists(node, where="$"):
            if isinstance(node, dict):
                return [hit for key, value in node.items()
                        for hit in float_lists(value, f"{where}/{key}")]
            if isinstance(node, list):
                if any(isinstance(v, float) for v in node):
                    return [where]
                return [hit for i, v in enumerate(node)
                        for hit in float_lists(v, f"{where}[{i}]")]
            return []

        _, document = saved_checkpoint(tmp_path)
        assert float_lists(document) == []
        path = tmp_path / "bundle.json"
        save_bundle(small_bundle(), str(path))
        assert float_lists(json.loads(path.read_text())) == []

    def test_corrupted_file_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        for text, message in (("{truncated", "malformed"), ("[1, 2]", "JSON object"),
                              (f'{{"format_version": {tr.CHECKPOINT_VERSION}}}',
                               "missing field: config")):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                tr.restore_checkpoint(str(path))
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match=f"^malformed checkpoint {re.escape(str(path))}: "):
            tr.restore_checkpoint(str(path))

    def test_corrupted_array_entries_are_named(self, tmp_path):
        path, document = saved_checkpoint(tmp_path)
        entries = [(("params", name), f"params/{name}") for name in document["params"]]
        for group, state in document["adam"].items():
            entries += [(("adam", group, key, i), f"adam/{group}/{key}/{i}")
                        for key in ("m", "v") for i in range(len(state[key]))]
        entries += [(("pools", key), f"pools/{key}") for key in document["pools"]]
        assert_each_corruption_named(document, path, tr.restore_checkpoint, entries)
        for group, state in document["adam"].items():
            for key in ("m", "v"):
                whole = state[key]
                state[key] = whole[:-1]
                path.write_text(json.dumps(document))
                with pytest.raises(ValueError, match=re.escape(f"adam/{group}/{key}")):
                    tr.restore_checkpoint(str(path))
                state[key] = whole

        path = tmp_path / "bundle.json"
        save_bundle(small_bundle(), str(path))
        document = json.loads(path.read_text())
        entries = [(("classes", "semantic"), "classes/semantic"),
                   (("samples", "visual"), "samples/visual")]
        assert_each_corruption_named(document, path, load_bundle, entries)

    @pytest.mark.parametrize("key", ["enhanced", "novel"])
    @pytest.mark.parametrize("reshape", [lambda n, d: [n * d], lambda n, d: [n * d, 1]],
                             ids=["one-dimensional", "wrong-width"])
    def test_pool_matrix_shape_checked(self, tmp_path, key, reshape):
        path, document = saved_checkpoint(tmp_path)
        if key == "enhanced":
            key = next(k for k in document["pools"] if k.startswith("enhanced/"))
        entry = document["pools"][key]
        entry["shape"] = reshape(*entry["shape"])
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=re.escape(f"pools/{key}: shape")):
            tr.restore_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        for version in (99, 1, 2):
            path.write_text(f'{{"format_version": {version}}}')
            with pytest.raises(ValueError, match=f"version mismatch: found {version},"):
                tr.restore_checkpoint(str(path))

    def test_mismatched_bundle_rejected_on_resume(self, tmp_path):
        result = tr.train(small_config(steps=1), small_bundle())
        other = generate_synthetic(SyntheticSpec(samples_per_species=4, visual_dim=8,
                                                 semantic_dim=6), seed=9)
        if sorted(other.seen_ids) == result.state.seen_species:
            pytest.skip("seed 9 produced an identical split")
        with pytest.raises(ValueError, match="seen classes"):
            tr.train(small_config(steps=2), other, resume=result.state)
