import csv
import json

import numpy as np
import pytest

from malrobust import cli, data
from malrobust.attacks import OUTCOME_COLUMNS, AttackConfig
from malrobust.cli import main
from malrobust.defenses import DefenseConfig, load_ensemble
from malrobust.evaluation import DefenseSpec, _jsonable, run_experiment


def write_config(path, **overrides):
    cfg = {
        "seed": 17,
        "output_dir": str(path.parent / "runs"),
        "dataset": {
            "synthetic": {"dim": 24, "classes": 2, "per_class": 40,
                          "flip_noise": 0.05},
            "split": [0.6, 0.2, 0.2],
            "paths": {"train": str(path.parent / "data" / "train.txt"),
                      "val": str(path.parent / "data" / "val.txt"),
                      "test": str(path.parent / "data" / "test.txt"),
                      "policy": str(path.parent / "data" / "policy.txt")},
        },
        "model": {"hidden": [10, 10], "epochs": 15, "batch_size": 16, "lr": 0.01},
        "defenses": [{"label": "basic", "kind": "plain"}],
        "attacks": [{"name": "fgsm"}, {"name": "bca", "max_steps": 10}],
        "threat_model": "white_box",
        "evaluation": {"attack_pool": 8},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_files_exist_and_reload(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "data")) == 0
        train = data.read_sparse(tmp_path / "data" / "train.txt")
        policy = data.read_policy(tmp_path / "data" / "policy.txt")
        assert train.dim == 24 and policy.dim == 24

    def test_summary_matches_recount(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "data"))
        out = capsys.readouterr().out
        train = data.read_sparse(tmp_path / "data" / "train.txt")
        counts = np.bincount(train.y, minlength=2).tolist()
        assert f"train: n={len(train)} class_counts={counts}" in out

    def test_same_seed_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "a"))
        run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "b"))
        for name in ("train.txt", "val.txt", "test.txt", "policy.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


@pytest.fixture
def pipeline(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "data"))
    return tmp_path, cfg_path, cfg


class TestTrain:
    def test_plain_profile_single_checkpoint(self, pipeline):
        tmp_path, cfg_path, _ = pipeline
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 0
        assert (tmp_path / "m" / "basic.json").exists()
        assert (tmp_path / "m" / "trace.json").exists()

    def test_ensemble_is_one_checkpoint_with_its_members(self, pipeline):
        tmp_path, cfg_path, cfg = pipeline
        cfg["defenses"] = [{"label": "rs", "kind": "ensemble",
                            "config": {"ensemble_size": 5, "subspace_ratio": 0.5,
                                       "inner_steps": 1, "epochs": 1,
                                       "batch_size": 16, "lr": 0.01,
                                       "hidden": [6]}}]
        cfg_path.write_text(json.dumps(cfg))
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["rs.json", "trace.json"]
        record = json.loads((tmp_path / "m" / "rs.json").read_text())
        assert record["kind"] == "ensemble"
        assert len(record["members"]) == 5
        for member in record["members"]:
            assert len(member["subset"]) == 12 and member["input_dim"] == 24
            assert member["head"]["layer_sizes"] == [12, 6, 2]
        assert load_ensemble(tmp_path / "m" / "rs.json").l == 5

    def test_rerun_identical_checkpoints(self, pipeline):
        tmp_path, cfg_path, _ = pipeline
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m1"))
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m2"))
        assert (tmp_path / "m1" / "basic.json").read_bytes() == \
            (tmp_path / "m2" / "basic.json").read_bytes()


class TestAttackCmd:
    def test_row_count_is_pool_times_attacks(self, pipeline):
        tmp_path, cfg_path, cfg = pipeline
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        assert run("attack", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "atk")) == 0
        with open(tmp_path / "atk" / "attacks_basic.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 2  # pool of 8, two attacks
        assert set(r["attack"] for r in rows) == {"fgsm", "bca"}

    def test_header_is_the_outcome_columns(self, pipeline):
        tmp_path, cfg_path, cfg = pipeline
        cfg["defenses"] = [{"label": "basic", "kind": "plain"},
                           {"label": "at", "kind": "hardened", "config": {"inner_steps": 2}}]
        cfg_path.write_text(json.dumps(cfg))
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        assert run("attack", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "atk")) == 0
        tables = sorted((tmp_path / "atk").glob("attacks_*.csv"))
        assert [t.name for t in tables] == ["attacks_at.csv", "attacks_basic.csv"]
        for table in tables:
            with open(table) as fh:
                assert tuple(next(csv.reader(fh))) == OUTCOME_COLUMNS


class TestEvaluate:
    def test_no_attacks_clean_only(self, pipeline):
        tmp_path, cfg_path, cfg = pipeline
        cfg["attacks"] = []
        cfg_path.write_text(json.dumps(cfg))
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        run("evaluate", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
            "--out", str(tmp_path / "ev"))
        report = json.loads((tmp_path / "ev" / "report.json").read_text())
        assert report["defenses"]["basic"]["attacks"] == {}
        assert "no_attack" in report["defenses"]["basic"]

    def test_grey_box_without_surrogate_fails(self, pipeline, capsys):
        tmp_path, cfg_path, cfg = pipeline
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        cfg["threat_model"] = "grey_box"
        cfg_path.write_text(json.dumps(cfg))
        code = run("evaluate", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "ev"))
        assert code != 0
        assert "surrogate" in capsys.readouterr().err

    def test_grey_box_with_surrogate(self, pipeline):
        tmp_path, cfg_path, cfg = pipeline
        cfg["threat_model"] = "grey_box"
        cfg["surrogate"] = {"hidden": [12, 12], "epochs": 5, "batch_size": 16,
                            "lr": 0.01}
        cfg_path.write_text(json.dumps(cfg))
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        assert (tmp_path / "m" / "surrogate.json").exists()
        assert run("evaluate", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "ev")) == 0

    def test_report_subcommand(self, pipeline, capsys):
        tmp_path, cfg_path, _ = pipeline
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        run("evaluate", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
            "--out", str(tmp_path / "ev"))
        capsys.readouterr()
        assert run("report", str(tmp_path / "ev" / "report.json"),
                   "--csv", str(tmp_path / "table.csv")) == 0
        assert "basic" in capsys.readouterr().out
        with open(tmp_path / "table.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["attack", "basic"]

    @pytest.mark.parametrize("record, message", [
        ({"foo": 1}, "missing key 'defenses'"),
        ([1, 2], "expected a JSON object, got list"),
        ({"defenses": {"a": {"clean_test": {"accuracy": 1.0}, "attacks": {}}}},
         "malformed key 'defenses': malformed key 'a': missing key 'no_attack'"),
        ({"defenses": {"a": {"clean_test": {"accuracy": 1.0}, "no_attack": {"accuracy": 1.0},
                             "attacks": {"bca": {"accuracy": "0.5"}}}}},
         "malformed key 'defenses': malformed key 'a': malformed key 'attacks': "
         "malformed key 'bca': malformed key 'accuracy': expected float, got str"),
        ({"defenses": []}, "malformed key 'defenses': expected a JSON object, got list"),
        ({"defenses": {"a": {"clean_test": {"accuracy": 1.0}, "no_attack": {"accuracy": 1.0},
                             "attacks": []}}},
         "malformed key 'defenses': malformed key 'a': malformed key 'attacks': "
         "expected a JSON object, got list"),
        ({"defenses": {"a": {"clean_test": {"accuracy": 1.0}, "no_attack": {"accuracy": 1.0},
                             "attacks": []},
                       "b": {"clean_test": {"accuracy": 1.0}, "no_attack": {"accuracy": 1.0},
                             "attacks": {"bca": {"accuracy": 0.5}}}}},
         "malformed key 'defenses': malformed key 'a': malformed key 'attacks': "
         "expected a JSON object, got list"),
    ])
    def test_json_that_is_no_report_reported(self, tmp_path, capsys, record, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(record))
        assert run("report", str(path), "--csv", str(tmp_path / "table.csv")) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "table.csv").exists()

    def test_report_table_file_equals_report_command(self, pipeline, capsys):
        tmp_path, cfg_path, cfg = pipeline
        cfg["defenses"] = [{"label": "zeta", "kind": "plain"},
                           {"label": "alpha_with_a_long_label", "kind": "plain"}]
        cfg["attacks"] = [{"name": "fgsm"}, {"name": "bca", "max_steps": 5}]
        cfg_path.write_text(json.dumps(cfg))
        run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m"))
        run("evaluate", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
            "--out", str(tmp_path / "ev"))
        capsys.readouterr()
        assert run("report", str(tmp_path / "ev" / "report.json")) == 0
        printed = capsys.readouterr().out
        assert printed == (tmp_path / "ev" / "report_table.txt").read_text()
        assert printed.index("alpha_with_a_long_label") < printed.index("zeta")
        assert printed.index("bca") < printed.index("fgsm")


SURROGATE_SECTION = {"hidden": [12, 12], "epochs": 5, "batch_size": 16, "lr": 0.01}


@pytest.mark.parametrize("threat_model, surrogate", [
    ("white_box", None), ("white_box", SURROGATE_SECTION),
    ("grey_box", None), ("grey_box", SURROGATE_SECTION)])
def test_cli_matches_run_experiment(tmp_path, threat_model, surrogate):
    """gen -> train -> evaluate writes the defenses block run_experiment
    computes on the same files; a grey-box config without a surrogate
    section trains the library's default surrogate."""
    cfg_path = tmp_path / "cfg.json"
    extra = {} if surrogate is None else {"surrogate": surrogate}
    cfg = write_config(cfg_path, threat_model=threat_model, **extra)
    cfg["defenses"] = [{"label": "basic", "kind": "plain"},
                       {"label": "at", "kind": "hardened",
                        "config": {"inner_steps": 3, "epochs": 2}}]
    cfg_path.write_text(json.dumps(cfg))
    c, models = str(cfg_path), str(tmp_path / "m")
    assert run("gen", "-c", c, "--out", str(tmp_path / "data")) == 0
    assert run("train", "-c", c, "--out", models) == 0
    assert run("evaluate", "-c", c, "--models", models, "--out", str(tmp_path / "ev")) == 0
    assert (tmp_path / "m" / "surrogate.json").exists() == (threat_model == "grey_box")

    paths = cfg["dataset"]["paths"]
    train, test = data.read_sparse(paths["train"]), data.read_sparse(paths["test"])
    policy = data.read_policy(paths["policy"])
    model = {"hidden": (10, 10), "epochs": 15, "batch_size": 16, "lr": 0.01}
    specs = [DefenseSpec("basic", "plain", DefenseConfig(seed=17, **model)),
             DefenseSpec("at", "hardened",
                         DefenseConfig(seed=17, **{**model, "inner_steps": 3, "epochs": 2}))]
    attacks = [AttackConfig.for_attack("fgsm", seed=17),
               AttackConfig.for_attack("bca", max_steps=10, seed=17)]
    expected = run_experiment(train, test, policy, specs, attacks,
                              threat_model=threat_model, seed=17,
                              surrogate_profile=surrogate, attack_pool=8)
    written = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert written["defenses"] == json.loads(json.dumps(_jsonable(expected["defenses"])))


class TestConfigValidation:
    def test_unknown_key_rejected_before_writes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, bogus_key=1)
        code = run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "data"))
        assert code != 0
        assert "bogus_key" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_workers_key_is_unknown(self, tmp_path, capsys):
        # the attack suite has no thread pool, so no worker count either
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, workers=2)
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "d")) != 0
        assert "workers" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["attacks"][0]["typo"] = 3
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "d")) != 0

    def test_duplicate_labels_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["defenses"] = [{"label": "a"}, {"label": "a"}]
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "d")) != 0

    def test_duplicate_attack_names_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["attacks"] = [{"name": "bca", "max_steps": 5}, {"name": "fgsm"},
                          {"name": "bca", "max_steps": 1}]
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "d")) == 2
        assert capsys.readouterr().err == "error: attacks[2]: duplicate attack name 'bca'\n"
        assert not (tmp_path / "d").exists()

    def test_duplicate_unhashable_attack_names_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        cfg["attacks"] = [{"name": ["bca"]}, {"name": ["bca"]}]
        with pytest.raises(ValueError, match=r"attacks\[1\]: duplicate attack name \['bca'\]"):
            cli.validate_config(cfg)

    @pytest.mark.parametrize("command", ["gen", "train"])
    @pytest.mark.parametrize("entry, message", [
        ({"name": "bcaa"}, "attacks[1]: unknown attack 'bcaa'"),
        ({"name": "fgsm", "max_steps": "3"}, "attacks[1]: max_steps must be an integer"),
    ])
    def test_bad_attack_entry_stops_every_command(self, tmp_path, capsys, command, entry,
                                                  message):
        """The config's attacks, defenses and surrogate are built when it
        loads, so a command that runs no attack still rejects a bad one."""
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["attacks"] = [{"name": "bca"}, entry]
        cfg_path.write_text(json.dumps(cfg))
        assert run(command, "-c", str(cfg_path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_bad_threat_model(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, threat_model="black_box")
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "d")) != 0

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "a"))
        run("gen", "-c", str(cfg_path), "--seed", "99", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "train.txt").read_bytes() != \
            (tmp_path / "b" / "train.txt").read_bytes()

    @pytest.mark.parametrize("label", ["../escaped", "a/b", "", ".", "..", 5,
                                       "surrogate", "trace"])
    @pytest.mark.parametrize("threat_model", ["white_box", "grey_box"])
    def test_label_that_is_no_checkpoint_name_rejected(self, tmp_path, capsys,
                                                        label, threat_model):
        cfg_path = tmp_path / "sub" / "cfg.json"
        cfg_path.parent.mkdir()
        cfg = write_config(cfg_path, threat_model=threat_model)
        cfg["defenses"] = [{"label": "basic"}, {"label": label}]
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "sub" / "d")) == 2
        assert f"label {label!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "sub"]


    @pytest.mark.parametrize("path, value, message", [
        (("dataset",), 5, "dataset must be a JSON object, got 5"),
        (("dataset", "synthetic"), [24], "dataset.synthetic must be a JSON object"),
        (("dataset", "paths"), "data", "dataset.paths must be a JSON object"),
        (("model",), [10, 10], "model must be a JSON object"),
        (("defenses",), [5], "defenses[0] must be a JSON object, got 5"),
        (("defenses",), {"label": "a"}, "defenses must be a list"),
        (("defenses",), None, "defenses must be a list, got None"),
        (("defenses", 0, "flags"), [True], "defenses[0].flags must be a JSON object"),
        (("defenses", 0, "config"), "x", "defenses[0].config must be a JSON object"),
        (("attacks",), [7], "attacks[0] must be a JSON object, got 7"),
        (("attacks",), "fgsm", "attacks must be a list, got 'fgsm'"),
        (("surrogate",), [1], "surrogate must be a JSON object, got [1]"),
        (("evaluation",), "x", "evaluation must be a JSON object, got 'x'"),
        (("seed",), 1.5, "seed must be a non-negative integer or a list of them, got 1.5"),
        (("seed",), "abc", "seed must be a non-negative integer or a list of them"),
        (("seed",), True, "seed must be a non-negative integer or a list of them, got True"),
        (("seed",), -1, "seed must be a non-negative integer or a list of them, got -1"),
        (("seed",), [1, True], "seed must be a non-negative integer or a list of them"),
        (("dataset", "synthetic", "seed"), 1.5, "dataset.synthetic.seed must be"),
        (("attacks", 0, "seed"), "1", "attacks[0].seed must be"),
        (("dataset", "split"), "abc", "dataset.split must be a list, got 'abc'"),
        (("dataset", "split"), [0.6, "x", 0.2], "dataset.split[1] must be a real number"),
        (("dataset", "paths", "train"), 5, "dataset.paths.train must be a string, got 5"),
    ])
    def test_value_of_wrong_json_type_reported(self, tmp_path, capsys, path, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg = section = write_config(cfg_path)
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "d")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_output_dir_that_is_no_string_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, output_dir=5)
        assert run("gen", "-c", str(cfg_path)) == 2
        assert "output_dir must be a string, got 5" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_seed_flag_checked_like_the_config_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert run("gen", "-c", str(cfg_path), "--seed", "-1", "--out", str(tmp_path / "d")) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_seed_list_accepted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, seed=[17, 2])
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "d")) == 0


class TestBadValues:
    @pytest.mark.parametrize("key, value", [("epochs", -1), ("restarts", -2),
                                            ("inner_steps", -1), ("data_fraction", 3.0),
                                            ("epochs", 1.5), ("batch_size", "8"),
                                            ("hidden", [4.5]), ("hidden", 5), ("lr", None),
                                            ("hidden", [0]), ("latent_dim", 0),
                                            ("ensemble_size", 0),
                                            ("activation", "tanh"), ("lr", float("inf")),
                                            ("oversample_ratio", 2.0),
                                            ("oversample_ratio", -0.5)])
    def test_bad_defense_value_reported(self, pipeline, capsys, key, value):
        tmp_path, cfg_path, cfg = pipeline
        cfg["defenses"] = [{"label": "at", "kind": "hardened", "config": {key: value}}]
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "m").exists()

    def test_failed_training_leaves_no_run_directory(self, pipeline, capsys):
        tmp_path, cfg_path, cfg = pipeline
        # the first defense trains; the second finds its subset empty only then
        cfg["defenses"] = [{"label": "p", "kind": "plain"},
                           {"label": "at", "kind": "hardened",
                            "config": {"subspace_ratio": 0.01, "epochs": 1}}]
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 2
        assert "empty feature subset" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()
        assert run("train", "-c", str(cfg_path)) == 2
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value", [("use_dae", "false"), ("use_binarization", 1),
                                            ("known_manipulation_set", "no")])
    def test_bad_defense_flag_reported(self, pipeline, capsys, key, value):
        tmp_path, cfg_path, cfg = pipeline
        cfg["defenses"] = [{"label": "at", "kind": "hardened", "flags": {key: value}}]
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("key, value", [("use_dae", True), ("use_binarization", True),
                                            ("known_manipulation_set", False)])
    def test_flag_of_a_plain_defense_reported(self, pipeline, capsys, key, value):
        tmp_path, cfg_path, cfg = pipeline
        cfg["defenses"] = [{"label": "p", "kind": "plain", "flags": {key: value}}]
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}={value}" in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", "3", "epochs must be an integer"), ("epochs", -2, "must be >= 0"),
        ("lr", -1.0, "lr must be positive, got -1.0"),
        ("batch_size", 0, "batch_size must be positive, got 0")])
    def test_bad_surrogate_value_reported(self, pipeline, capsys, key, value, message):
        tmp_path, cfg_path, cfg = pipeline
        cfg.update(threat_model="grey_box", surrogate={key: value})
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: surrogate profile: ") and message in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("entry", [
        {"name": "mimicry", "mimicry_selection": "randm"},
        {"name": "mimicry", "mimicry_candidates": 0},
        {"name": "pgd_l2", "step_size": -1.0},
        {"name": "pgd_linf", "epsilon_ball": 0.0},
        {"name": "mimicry", "mimicry_candidates": 2.5},
        {"name": "bga", "max_steps": "3"},
        {"name": "ead", "ead_kappa": float("inf")},
    ])
    def test_bad_attack_value_reported(self, pipeline, capsys, entry):
        tmp_path, cfg_path, cfg = pipeline
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 0
        cfg["attacks"] = [entry]
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("attack", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "atk")) == 2
        key = next(k for k in entry if k != "name")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "atk").exists()


    @pytest.mark.parametrize("key, value", [
        ("dim", 20.5), ("classes", 2.5), ("flip_noise", "0.1"),
        ("per_class", 2.5), ("per_class", [40]), ("per_class", -1),
        ("class_densities", [0.5]), ("class_densities", [0.5, "x"]),
        ("flip_noise", 1.5), ("flip_noise", float("inf")), ("class_densities", [1.5, 0.5]),
    ])
    def test_bad_synthetic_value_reported(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["dataset"]["synthetic"][key] = value
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "-c", str(cfg_path), "--out", str(tmp_path / "g")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "g").exists()

    def test_rejected_gen_leaves_no_run_directory(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["dataset"]["synthetic"]["dim"] = 1
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "-c", str(cfg_path)) == 2
        assert "dim" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("attack", "attack_pool", 2.5), ("attack", "attack_pool", True),
        ("attack", "attack_pool", 0), ("attack", "attack_pool", -1),
        ("attack", "positive_class", True), ("evaluate", "attack_pool", 0),
    ])
    def test_bad_evaluation_value_reported(self, pipeline, capsys, command, key, value):
        tmp_path, cfg_path, cfg = pipeline
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 0
        cfg["evaluation"][key] = value
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(command, "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()

class TestDatasetFiles:
    """train reads the train split and the policy; attack and evaluate read
    the test split too.  No command reads the val split."""

    def test_train_reads_neither_val_nor_test(self, pipeline):
        tmp_path, cfg_path, _ = pipeline
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m1")) == 0
        for name in ("val.txt", "test.txt"):
            (tmp_path / "data" / name).unlink()
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m2")) == 0
        assert (tmp_path / "m1" / "basic.json").read_bytes() == \
            (tmp_path / "m2" / "basic.json").read_bytes()

    @pytest.mark.parametrize("command, output", [("attack", "attacks_basic.csv"),
                                                 ("evaluate", "report.json")])
    def test_attack_and_evaluate_read_no_val(self, pipeline, command, output):
        tmp_path, cfg_path, _ = pipeline
        models = str(tmp_path / "m")
        assert run("train", "-c", str(cfg_path), "--out", models) == 0
        assert run(command, "-c", str(cfg_path), "--models", models,
                   "--out", str(tmp_path / "a")) == 0
        (tmp_path / "data" / "val.txt").unlink()
        assert run(command, "-c", str(cfg_path), "--models", models,
                   "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()

    @pytest.mark.parametrize("command, name", [
        ("train", "train.txt"), ("train", "policy.txt"), ("attack", "train.txt"),
        ("attack", "test.txt"), ("attack", "policy.txt"), ("evaluate", "test.txt")])
    @pytest.mark.parametrize("removed", [True, False])
    def test_damaged_file_in_use_reported(self, pipeline, capsys, command, name, removed):
        tmp_path, cfg_path, _ = pipeline
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 0
        path = tmp_path / "data" / name
        if removed:
            path.unlink()
            message = f"dataset file not found: {path}"
        else:  # a flag of 2 in a policy, a cell with no number in a split
            path.write_text(path.read_text() + ("1 2 0\n" if name == "policy.txt" else "1 0:x\n"))
            message = "flags must be 0/1" if name == "policy.txt" else "malformed cell '0:x'"
        capsys.readouterr()
        extra = [] if command == "train" else ["--models", str(tmp_path / "m")]
        assert run(command, "-c", str(cfg_path), *extra, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, line, message", [
        ("attack", "test.txt", "1 0:x\n", "malformed cell '0:x'"),
        ("train", "train.txt", "1 0:1 0:1\n", "duplicate index 0"),
        ("train", "policy.txt", "1 2 0\n", "flags must be 0/1")])
    def test_parse_error_names_its_file(self, pipeline, capsys, command, name, line, message):
        tmp_path, cfg_path, _ = pipeline
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 0
        path = tmp_path / "data" / name
        text = path.read_text()
        path.write_text(text + line)
        lineno = text.count("\n") + 1
        capsys.readouterr()
        extra = [] if command == "train" else ["--models", str(tmp_path / "m")]
        assert run(command, "-c", str(cfg_path), *extra, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {path}: line {lineno}: {message}\n"

    def test_dataset_path_that_is_a_directory_reported(self, pipeline, capsys):
        tmp_path, cfg_path, _ = pipeline
        path = tmp_path / "data" / "train.txt"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not (tmp_path / "out").exists()


def test_config_path_that_is_a_directory_reported(tmp_path, capsys):
    assert run("train", "-c", str(tmp_path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


THREE_KINDS = [
    {"label": "basic", "kind": "plain"},
    {"label": "at", "kind": "hardened", "config": {"inner_steps": 2, "epochs": 2}},
    {"label": "ens", "kind": "ensemble", "flags": {"use_dae": True},
     "config": {"inner_steps": 2, "epochs": 2, "ensemble_size": 2,
                "subspace_ratio": 0.5, "latent_dim": 6}},
]


@pytest.fixture
def trained_three_kinds(pipeline):
    """A grey-box models directory with a plain, a hardened and an
    ensemble defense."""
    tmp_path, cfg_path, cfg = pipeline
    cfg.update(threat_model="grey_box", surrogate=SURROGATE_SECTION, defenses=THREE_KINDS)
    cfg_path.write_text(json.dumps(cfg))
    assert run("train", "-c", str(cfg_path), "--out", str(tmp_path / "m")) == 0
    return tmp_path, cfg_path


def edit_json(path, edit):
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))


class TestCheckpointFiles:
    def test_one_file_per_model(self, trained_three_kinds):
        tmp_path, cfg_path = trained_three_kinds
        models = tmp_path / "m"
        assert sorted(p.name for p in models.iterdir()) == [
            "at.json", "basic.json", "ens.json", "surrogate.json", "trace.json"]
        assert all(p.is_file() for p in models.iterdir())
        assert run("evaluate", "-c", str(cfg_path), "--models", str(models),
                   "--out", str(tmp_path / "ev")) == 0
        report = json.loads((tmp_path / "ev" / "report.json").read_text())
        assert sorted(report["defenses"]) == ["at", "basic", "ens"]

    @pytest.mark.parametrize("name, edit, message", [
        ("at.json", lambda r: r.pop("subset"), "at.json: missing key 'subset'"),
        ("ens.json", lambda r: r["members"][1]["encoder"].pop("biases"),
         "ens.json: malformed key 'members': malformed key 'encoder': missing key 'biases'"),
        ("ens.json", lambda r: r.update(members=[]), "ens.json: an ensemble needs at least"),
        ("ens.json", lambda r: r.update(members=["member_0.json", "member_1.json"]),
         "ens.json: malformed key 'members': expected a JSON object, got str"),
        ("basic.json", lambda r: r.pop("biases"), "basic.json: missing key 'biases'"),
    ])
    def test_bad_checkpoint_is_an_error_message(self, trained_three_kinds, capsys,
                                                name, edit, message):
        tmp_path, cfg_path = trained_three_kinds
        edit_json(tmp_path / "m" / name, edit)
        capsys.readouterr()
        assert run("evaluate", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "ev")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_checkpoint_that_is_a_directory_reported(self, trained_three_kinds, capsys):
        tmp_path, cfg_path = trained_three_kinds
        path = tmp_path / "m" / "at.json"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert run("evaluate", "-c", str(cfg_path), "--models", str(tmp_path / "m"),
                   "--out", str(tmp_path / "ev")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


def test_failed_report_write_keeps_previous_report(pipeline, monkeypatch):
    tmp_path, cfg_path, _ = pipeline
    models, out = str(tmp_path / "m"), tmp_path / "ev"
    run("train", "-c", str(cfg_path), "--out", models)
    assert run("evaluate", "-c", str(cfg_path), "--models", models, "--out", str(out)) == 0
    before = (out / "report.json").read_bytes()
    jsonable = cli.evaluation._jsonable

    def unwritable(obj):
        # the unserializable key sorts last, so the writer fails midway
        top = isinstance(obj, dict) and "metadata" in obj
        return {**jsonable(obj), "zz": object()} if top else jsonable(obj)
    monkeypatch.setattr(cli.evaluation, "_jsonable", unwritable)
    with pytest.raises(TypeError):
        run("evaluate", "-c", str(cfg_path), "--models", models, "--out", str(out))
    assert (out / "report.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "report_table.txt"]
