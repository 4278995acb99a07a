import itertools
import json
import os

import numpy as np
import pytest

from lrsketch import cli, formats, scw, trainer, verify
from lrsketch.cli import main
from lrsketch.evalbench import (SKETCH_TYPES, ResultRecord, generate_dataset, optimal_loss,
                                results_to_csv)
from lrsketch.formats import load_sketch, save_dmat, save_sketch
from lrsketch.scw import scw_loss
from lrsketch.seeding import derived_seed
from lrsketch.sketch import sketches_equal, sparse_random_sketch


def write_config(path, **overrides):
    cfg = {
        "version": 1,
        "seed": 424242,
        "out_dir": str(path.parent / "run"),
        "datasets": [{
            "name": "demo", "kind": "spiked", "n": 16, "d": 12,
            "count_train": 3, "count_test": 2, "spikes": 2,
            "decay": 0.6, "noise": 0.05, "drift": 0.05, "seed": 5,
        }],
        "pairs": [[2, 4]],
        "sketch_types": ["sparse_random", "learned"],
        "trials": 1,
        "train": {"lr": 0.5, "batch_size": 1, "iterations": 25, "power_iters": 15},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


class TestGenData:
    def test_writes_files_and_manifest(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        ddir = os.path.join(cfg["out_dir"], "data", "demo")
        files = sorted(os.listdir(ddir))
        assert files == ["manifest.json", "test_000.dmat", "test_001.dmat",
                         "train_000.dmat", "train_001.dmat", "train_002.dmat"]

    def test_rerun_bit_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        main(["gen-data", "--config", str(cfg_path)])
        ddir = os.path.join(cfg["out_dir"], "data", "demo")
        before = {f: open(os.path.join(ddir, f), "rb").read()
                  for f in os.listdir(ddir)}
        main(["gen-data", "--config", str(cfg_path)])
        after = {f: open(os.path.join(ddir, f), "rb").read()
                 for f in os.listdir(ddir)}
        assert before == after

    def test_train_loads_the_generated_bits(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        main(["gen-data", "--config", str(cfg_path)])
        cfg = cli.load_config(str(cfg_path))
        loaded = [cli._load_dataset_files(cfg, cfg.datasets[0], role) for role in ("train", "test")]
        generated = generate_dataset(cfg.datasets[0])
        for got, want in zip(loaded[0] + loaded[1], generated[0] + generated[1]):
            assert got.tobytes() == want.tobytes()


class TestTrainCommand:
    def test_requires_gen_data_first(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["train", "--config", str(cfg_path)]) == 1

    def test_lr_zero_sketch_equals_fresh_random(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path,
                           train={"lr": 0.0, "iterations": 3, "power_iters": 10})
        main(["gen-data", "--config", str(cfg_path)])
        assert main(["train", "--config", str(cfg_path)]) == 0
        sk = load_sketch(os.path.join(cfg["out_dir"], "sketches",
                                      "demo_k2_m4_learned_t0.skch"))
        from lrsketch.evalbench import SKETCH_TYPES

        train_seed = derived_seed(424242, 60, 0, 2, 4, SKETCH_TYPES.index("learned"), 0)
        expected = sparse_random_sketch(4, 16, derived_seed(train_seed, 0))
        assert sketches_equal(sk, expected)

    def test_report_rows_match_iterations(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        main(["gen-data", "--config", str(cfg_path)])
        main(["train", "--config", str(cfg_path)])
        report = os.path.join(cfg["out_dir"], "reports", "demo_k2_m4_learned_t0.csv")
        lines = open(report).read().strip().splitlines()
        assert len(lines) == 1 + 25

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        # the exact loss is invariant to the sketch's scale, so no finite
        # lr diverges; json writes inf as Infinity, which the loader reads
        write_config(cfg_path,
                     train={"lr": float("inf"), "iterations": 6, "power_iters": 10})
        main(["gen-data", "--config", str(cfg_path)])
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 3


    def test_divergence_stderr_and_no_sketch(self, tmp_path, capsys):
        # every trainable type and trial of the cell steps in one lockstep call;
        # the first run's divergence is the error, and nothing is written
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, sketch_types=["sparse_random", "learned", "mixed_j",
                                                   "mixed_s"], trials=2,
                           train={"lr": float("inf"), "iterations": 6, "power_iters": 10})
        assert '"lr": Infinity' in cfg_path.read_text()
        main(["gen-data", "--config", str(cfg_path)])
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "training diverged: non-finite sketch values after iteration 1; lower lr\n"
        assert os.listdir(os.path.join(cfg["out_dir"], "sketches")) == []

    def test_lockstep_writes_what_a_loop_of_train_writes(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sketch_types=["learned", "mixed_j", "mixed_s"], trials=2,
                     pairs=[[2, 4], [2, 6]],
                     train={"lr": 0.5, "iterations": 15, "power_iters": 10})
        main(["gen-data", "--config", str(cfg_path)])
        outputs = []
        for looped in (False, True):
            if looped:
                monkeypatch.setattr(cli, "train_many", lambda train_set, m, cfgs: (
                    trainer.train(train_set, m, c) for c in cfgs))
            out = tmp_path / f"out{looped}"
            capsys.readouterr()
            assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            files = {os.path.relpath(os.path.join(d, f), out):
                     open(os.path.join(d, f), "rb").read()
                     for d, _, names in os.walk(out) for f in names}
            outputs.append((files, capsys.readouterr().out.replace(str(out), "OUT")))
        # a sketch and a report per (m, type, trial), and the data: manifest, 3 train, 2 test
        assert len(outputs[0][0]) == 2 * 2 * 3 * 2 + 6
        assert outputs[0] == outputs[1]


class TestEvalCommand:
    def test_end_to_end_learned_beats_random(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path,
                           train={"lr": 0.5, "iterations": 80, "power_iters": 15})
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 0
        results = open(os.path.join(cfg["out_dir"], "results.csv")).read()
        lines = results.strip().splitlines()
        assert lines[0] == "dataset,k,m,sketch,err,std_err,trials"
        rows = {ln.split(",")[3]: float(ln.split(",")[4]) for ln in lines[1:]}
        assert rows["learned"] < rows["sparse_random"]

    def test_missing_sketch_file_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        main(["gen-data", "--config", str(cfg_path)])
        assert main(["eval", "--config", str(cfg_path)]) == 1

    def test_empty_sketch_types_header_only(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, sketch_types=[])
        main(["gen-data", "--config", str(cfg_path)])
        assert main(["eval", "--config", str(cfg_path)]) == 0
        results = open(os.path.join(cfg["out_dir"], "results.csv")).read()
        assert results == "dataset,k,m,sketch,err,std_err,trials\n"

    def test_rows_sorted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, sketch_types=["sparse_random", "dense_random"],
                           pairs=[[2, 4], [2, 2]])
        main(["gen-data", "--config", str(cfg_path)])
        main(["eval", "--config", str(cfg_path)])
        lines = open(os.path.join(cfg["out_dir"], "results.csv")).read().strip().splitlines()
        keys = []
        for ln in lines[1:]:
            d, k, m, st = ln.split(",")[:4]
            keys.append((d, int(k), int(m), st))
        assert keys == sorted(keys)

    def test_same_seed_identical_results_csv(self, tmp_path):
        outputs = []
        for sub in ("r1", "r2"):
            cfg_path = tmp_path / f"cfg_{sub}.json"
            cfg = write_config(cfg_path, out_dir=str(tmp_path / sub))
            main(["gen-data", "--config", str(cfg_path)])
            main(["train", "--config", str(cfg_path)])
            main(["eval", "--config", str(cfg_path)])
            outputs.append(open(os.path.join(cfg["out_dir"], "results.csv"), "rb").read())
        assert outputs[0] == outputs[1]

    def test_jobs_flag_does_not_change_results(self, tmp_path):
        outputs = []
        for sub, jobs in (("j1", "1"), ("j2", "3")):
            cfg_path = tmp_path / f"cfg_{sub}.json"
            cfg = write_config(cfg_path, out_dir=str(tmp_path / sub),
                               sketch_types=["sparse_random"], trials=3)
            main(["gen-data", "--config", str(cfg_path)])
            main(["eval", "--config", str(cfg_path), "--jobs", jobs])
            outputs.append(open(os.path.join(cfg["out_dir"], "results.csv"), "rb").read())
        assert outputs[0] == outputs[1]

    def test_jobs_flag_does_not_change_trained_sketches(self, tmp_path):
        sketches = []
        for sub, jobs in (("t1", "1"), ("t2", "2")):
            cfg_path = tmp_path / f"cfg_{sub}.json"
            cfg = write_config(cfg_path, out_dir=str(tmp_path / sub), trials=2)
            main(["gen-data", "--config", str(cfg_path)])
            main(["train", "--config", str(cfg_path), "--jobs", jobs])
            paths = sorted(os.listdir(os.path.join(cfg["out_dir"], "sketches")))
            sketches.append([open(os.path.join(cfg["out_dir"], "sketches", p), "rb").read()
                             for p in paths])
        assert sketches[0] == sketches[1]

    def test_results_equal_a_per_cell_scw_loss_oracle(self, tmp_path):
        # every type and trial of a cell is scored in one pass per test matrix;
        # results.csv keeps the bytes of a loop of scw_loss per cell
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, sketch_types=list(SKETCH_TYPES), trials=2,
                           pairs=[[2, 4], [3, 6]],
                           train={"lr": 0.5, "iterations": 15, "power_iters": 15})
        for cmd in ("gen-data", "train", "eval"):
            assert main([cmd, "--config", str(cfg_path)]) == 0
        exp = cli.load_config(str(cfg_path))
        spec = exp.datasets[0]
        _, test = generate_dataset(spec)
        records = []
        for (k, m), st in itertools.product(exp.pairs, SKETCH_TYPES):
            errs = [float(np.mean([scw_loss(a, cli._eval_sketch(exp, 0, spec, 16, k, m, st, t), k)
                                   for a in test])) - optimal_loss(test, k)
                    for t in range(2)]
            records.append(ResultRecord("demo", k, m, st, float(np.mean(errs)),
                                        float(np.std(errs, ddof=1) / np.sqrt(2)), 2))
        results_to_csv(records, tmp_path / "oracle.csv")
        assert (tmp_path / "oracle.csv").read_bytes() == \
            open(os.path.join(cfg["out_dir"], "results.csv"), "rb").read()

    def test_test_spectra_once_per_matrix(self, tmp_path, monkeypatch):
        """One SVD per test matrix scores every k: two distinct k, 2 test matrices."""
        calls, real = [], cli.singular_values
        monkeypatch.setattr(cli, "singular_values", lambda a: calls.append(a.shape) or real(a))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, sketch_types=["sparse_random", "dense_random"],
                     pairs=[[2, 2], [2, 4], [3, 6]])
        main(["gen-data", "--config", str(cfg_path)])
        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert calls == [(16, 12)] * 2

    def test_plot_data_written(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, sketch_types=["sparse_random"],
                           pairs=[[2, 2], [2, 4], [2, 6]])
        main(["gen-data", "--config", str(cfg_path)])
        main(["eval", "--config", str(cfg_path)])
        plot = open(os.path.join(cfg["out_dir"], "plots", "err_vs_m_demo_k2.csv")).read()
        lines = plot.strip().splitlines()
        assert lines[0] == "series,x,y"
        assert len(lines) == 4


def check_lines(results):
    """verify's [PASS]/[FAIL] report lines for these results."""
    return [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in results]


class TestVerifyCommand:
    def test_default_checks_pass(self, capsys):
        assert main(["verify", "--seed", "20260101"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] concat-dominance" in out
        assert "[FAIL]" not in out

    def test_broken_concat_fails_with_exit_two(self, capsys, monkeypatch):
        # negative control: a concat that drops the first block breaks dominance
        monkeypatch.setattr(scw, "concat_sketches", lambda s1, s2: s2)
        assert main(["verify", "--seed", "20260101"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] concat-dominance" in out
        assert out.count("[FAIL]") == 1

    def test_seed_reaches_every_check(self, capsys, monkeypatch):
        seeded = ("check_dominance", "check_scw_identity", "check_gradients",
                  "check_exact_gradients", "lemma_and_trend", "check_apply_bitwise")
        seen = {}

        def spy(name, fn):
            def wrapped(seed, *args, **kwargs):
                seen.setdefault(name, []).append(seed)
                return fn(seed, *args, **kwargs)
            return wrapped
        for name in seeded:
            monkeypatch.setattr(verify, name, spy(name, getattr(verify, name)))
        assert main(["verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert seen == {name: [7] for name in seeded}
        lines = check_lines(verify.run_verification(7))
        assert out[:-1] == lines
        assert lines != check_lines(verify.run_verification())


class TestTheoryCommand:
    def test_writes_report_csv(self, tmp_path):
        assert main(["theory", "--seed", "20260101", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "theory.csv").read_text().strip().splitlines()
        assert lines[0] == "d,r_prime,empirical_mean,product,N,gap"
        assert len(lines) > 10

    def test_seed_reaches_rows(self, tmp_path):
        assert main(["theory", "--seed", "7", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "theory.csv").read_text().splitlines()[1:]
        rows = verify.lemma_and_trend(7)[2]
        assert lines == [",".join("" if x is None else str(x) for x in row) for row in rows]
        assert rows != verify.lemma_and_trend(verify.SEED)[2]


def _cut(path, keep):
    data = open(path, "rb").read()
    open(path, "wb").write(data[:keep if keep >= 0 else len(data) + keep])


def _nan_payload(path):
    data = bytearray(open(path, "rb").read())
    data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    open(path, "wb").write(bytes(data))


def _patch(path, offset, raw):
    data = bytearray(open(path, "rb").read())
    data[offset:offset + len(raw)] = raw
    open(path, "wb").write(bytes(data))


def _edit_manifest(path, fn):
    manifest = json.load(open(path))
    fn(manifest)
    json.dump(manifest, open(path, "w"))


# malformed-input cases: (file relative to the run directory, how it is damaged)
_DAMAGE = {
    "dmat_header": ("data/demo/test_000.dmat", lambda p: _cut(p, 10)),
    "dmat_payload": ("data/demo/test_000.dmat", lambda p: _cut(p, -8)),
    "dmat_nan": ("data/demo/test_000.dmat", _nan_payload),
    "skch_truncated": ("sketches/demo_k2_m4_learned_t0.skch", lambda p: _cut(p, -5)),
    # SKCH1 offsets: header m at 6, the block's row_of at 38, value_of at 38 + 8n
    "skch_header_m": ("sketches/demo_k2_m4_learned_t0.skch",
                      lambda p: _patch(p, 6, np.array([5], dtype="<u8").tobytes())),
    "skch_row_index": ("sketches/demo_k2_m4_learned_t0.skch",
                       lambda p: _patch(p, 38, np.array([4], dtype="<u8").tobytes())),
    "skch_nan": ("sketches/demo_k2_m4_learned_t0.skch",
                 lambda p: _patch(p, 38 + 8 * 16, np.array([np.nan], dtype="<f8").tobytes())),
    "skch_other_m": ("sketches/demo_k2_m4_learned_t0.skch",
                     lambda p: save_sketch(p, sparse_random_sketch(5, 16, 0))),
    "skch_other_n": ("sketches/demo_k2_m4_learned_t0.skch",
                     lambda p: save_sketch(p, sparse_random_sketch(4, 15, 0))),
    "manifest_cut": ("data/demo/manifest.json", lambda p: _cut(p, 20)),
    "manifest_no_test": ("data/demo/manifest.json",
                         lambda p: _edit_manifest(p, lambda m: m.pop("test"))),
    "shape_mismatch": ("data/demo/test_000.dmat", lambda p: save_dmat(p, np.eye(16, 5))),
}

# config fields of the wrong JSON type or out of range: each edits the
# write_config defaults in place (pairs [[2, 4]], so m = 4)
_BAD_FIELD = {
    "seed_string": lambda c: c.update(seed="x"),
    "seed_negative": lambda c: c.update(seed=-1),
    "pairs_not_list": lambda c: c.update(pairs=5),
    "pair_float": lambda c: c.update(pairs=[[2.5, 4]]),
    "datasets_not_list": lambda c: c.update(datasets=5),
    "dataset_not_object": lambda c: c.update(datasets=[[1, 2]]),
    "dataset_n_float": lambda c: c["datasets"][0].update(n=2.5),
    "dataset_seed_string": lambda c: c["datasets"][0].update(seed="x"),
    "dataset_spikes_above_d": lambda c: c["datasets"][0].update(spikes=13),
    "sketch_types_not_list": lambda c: c.update(sketch_types=7),
    "out_dir_not_string": lambda c: c.update(out_dir=5),
    "train_lr_string": lambda c: c["train"].update(lr="fast"),
    "train_lr_bool": lambda c: c["train"].update(lr=True),
    "train_lr_negative": lambda c: c["train"].update(lr=-1.0),
    "train_lr_nan": lambda c: c["train"].update(lr=float("nan")),
    "dataset_decay_nan": lambda c: c["datasets"][0].update(decay=float("nan")),
    "dataset_decay_inf": lambda c: c["datasets"][0].update(decay=float("inf")),
    "dataset_noise_nan": lambda c: c["datasets"][0].update(noise=float("nan")),
    "dataset_noise_inf": lambda c: c["datasets"][0].update(noise=float("inf")),
    "dataset_drift_nan": lambda c: c["datasets"][0].update(drift=float("nan")),
    "dataset_drift_inf": lambda c: c["datasets"][0].update(drift=float("-inf")),
    "train_iterations_float": lambda c: c["train"].update(iterations=2.5),
    "train_power_iters_zero": lambda c: c["train"].update(power_iters=0),
    "train_learned_rows_above_m": lambda c: c["train"].update(learned_rows=5),
}


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config(self):
        assert main(["train"]) == 1

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_config_is_a_required_flag(self, capsys, command):
        assert main([command, "--seed", "3"]) == 1
        assert "required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "--out", "x"], ["verify", "--jobs", "2"],
                                      ["verify", "--config", "c"], ["theory", "--config", "c"],
                                      ["theory", "--jobs", "2"]],
                             ids=["verify_out", "verify_jobs", "verify_config",
                                  "theory_config", "theory_jobs"])
    def test_flag_the_command_does_not_use_is_rejected(self, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_config_version(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 9}))
        assert main(["gen-data", "--config", str(p)]) == 1

    def test_bad_pair(self, tmp_path):
        p = tmp_path / "bad.json"
        write_config(p, pairs=[[0, 4]])
        assert main(["gen-data", "--config", str(p)]) == 1

    def test_malformed_pair(self, tmp_path):
        p = tmp_path / "bad.json"
        write_config(p, pairs=[[4]])
        assert main(["gen-data", "--config", str(p)]) == 1

    def test_unknown_train_key(self, tmp_path):
        p = tmp_path / "bad.json"
        write_config(p, train={"momentum": 0.9})
        assert main(["gen-data", "--config", str(p)]) == 1

    def test_zero_trials(self, tmp_path):
        p = tmp_path / "bad.json"
        write_config(p, trials=0)
        assert main(["gen-data", "--config", str(p)]) == 1

    def test_non_integer_trials(self, tmp_path):
        p = tmp_path / "bad.json"
        write_config(p, trials="x")
        assert main(["gen-data", "--config", str(p)]) == 1

    @pytest.mark.parametrize("case", sorted(_BAD_FIELD))
    def test_bad_field_rejected_at_load(self, tmp_path, case):
        p = tmp_path / "bad.json"
        cfg = write_config(p)
        _BAD_FIELD[case](cfg)
        p.write_text(json.dumps(cfg))
        assert main(["gen-data", "--config", str(p)]) == 1

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_nan_lr_is_usage_error_before_any_work(self, tmp_path, capsys, command):
        # mixed_j with no learned rows never steps, so only the load-time check sees the NaN
        p = tmp_path / "bad.json"
        cfg = write_config(p, sketch_types=["mixed_j"],
                           train={"lr": float("nan"), "learned_rows": 0})
        assert main([command, "--config", str(p)]) == 1
        assert "lr must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(cfg["out_dir"])

    def test_missing_files_path(self, tmp_path):
        p = tmp_path / "bad.json"
        write_config(p, datasets=[{"name": "x", "kind": "files",
                                   "path": str(tmp_path / "nope.json")}])
        assert main(["gen-data", "--config", str(p)]) == 1

    @pytest.mark.parametrize("case", ["config_as_manifest", "missing_dmat",
                                      "non_string_entry", "empty_dmat"])
    def test_gen_data_bad_manifest_exits_one(self, tmp_path, capsys, case):
        if case == "config_as_manifest":
            manifest = os.path.join(os.path.dirname(__file__), "..", "configs",
                                    "spiked_small.json")
        else:
            manifest = str(tmp_path / "manifest.json")
            train = [1] if case == "non_string_entry" else ["train_000.dmat"]
            with open(manifest, "w") as fh:
                json.dump({"train": train, "test": ["test_000.dmat"]}, fh)
            if case == "empty_dmat":
                for name in ("train_000.dmat", "test_000.dmat"):
                    save_dmat(tmp_path / name, np.zeros((0, 5)))
        p = tmp_path / "bad.json"
        write_config(p, datasets=[{"name": "x", "kind": "files", "path": manifest}])
        assert main(["gen-data", "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: ")

    @pytest.mark.parametrize("pairs, rows", [([[1, 1]], None), ([[1, 2]], 0)])
    def test_mixed_s_without_trainable_rows(self, tmp_path, capsys, pairs, rows):
        # mixed_s trains its block alone, so it needs at least one row
        p = tmp_path / "bad.json"
        write_config(p, pairs=pairs, sketch_types=["mixed_s"],
                     train={"iterations": 2, "power_iters": 5, "learned_rows": rows})
        main(["gen-data", "--config", str(p)])
        assert main(["train", "--config", str(p)]) == 1
        assert "learned_rows" in capsys.readouterr().err

    def test_seed_override_changes_randomness(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, sketch_types=["sparse_random"])
        main(["gen-data", "--config", str(cfg_path)])
        main(["eval", "--config", str(cfg_path)])
        base = open(os.path.join(cfg["out_dir"], "results.csv")).read()
        main(["eval", "--config", str(cfg_path), "--seed", "777"])
        other = open(os.path.join(cfg["out_dir"], "results.csv")).read()
        assert base != other

    def test_seed_override_rederives_dataset_seeds(self, tmp_path):
        # dataset seed omitted from the config: a --seed override must
        # reshuffle the generated data as if the config carried that seed
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        ds = dict(cfg["datasets"][0])
        del ds["seed"]
        write_config(cfg_path, datasets=[ds])
        main(["gen-data", "--config", str(cfg_path)])
        first = open(os.path.join(cfg["out_dir"], "data", "demo",
                                  "train_000.dmat"), "rb").read()
        main(["gen-data", "--config", str(cfg_path), "--seed", "999"])
        second = open(os.path.join(cfg["out_dir"], "data", "demo",
                                   "train_000.dmat"), "rb").read()
        assert first != second

    @pytest.mark.parametrize("case", sorted(_DAMAGE))
    def test_eval_exits_one_naming_the_file(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path,
                           train={"lr": 0.5, "iterations": 2, "power_iters": 5})
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        rel, damage = _DAMAGE[case]
        damage(os.path.join(cfg["out_dir"], rel))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path)]) == 1
        # data errors name the manifest (and the DMAT1 file, if it is one)
        named = rel if rel.startswith("sketches") else "data/demo/manifest.json"
        assert capsys.readouterr().err.startswith(
            f"error: {os.path.join(cfg['out_dir'], named)}: ")


class TestRoleOnlyLoading:
    """train loads only the train matrices and eval only the test matrices; of
    the other role's files each reads the DMAT1 header alone, for the shape check."""

    @staticmethod
    def generated(tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        if command == "eval":
            assert main(["train", "--config", str(cfg_path)]) == 0
        return cfg_path, os.path.join(cfg["out_dir"], "data", "demo")

    @pytest.mark.parametrize("command,role,other", [("train", "train", "test"),
                                                    ("eval", "test", "train")])
    def test_reads_no_payload_of_the_other_role(self, tmp_path, monkeypatch, command, role,
                                                other):
        cfg_path, ddir = self.generated(tmp_path, command)
        for name in os.listdir(ddir):
            if name.startswith(other):  # magic and header kept (22 bytes), payload halved
                _cut(os.path.join(ddir, name), 22 + 8 * 16 * 12 // 2)
        loaded, real = [], formats.load_dmat
        monkeypatch.setattr(formats, "load_dmat",
                            lambda path: loaded.append(os.path.basename(path)) or real(path))
        assert main([command, "--config", str(cfg_path)]) == 0
        assert sorted(loaded) == sorted(n for n in os.listdir(ddir) if n.startswith(role))

    @pytest.mark.parametrize("command,other", [("train", "test"), ("eval", "train")])
    def test_other_role_shape_still_checked(self, tmp_path, capsys, command, other):
        cfg_path, ddir = self.generated(tmp_path, command)
        save_dmat(os.path.join(ddir, f"{other}_001.dmat"), np.eye(16, 5))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (f"error: {os.path.join(ddir, 'manifest.json')}: "
                                           f"matrices differ in shape: [(16, 5), (16, 12)]\n")


class TestParserReuse:
    """The parser is built once per process; no call's flags reach the next."""

    def test_successive_calls_do_not_share_flags(self, monkeypatch):
        seen = []

        def record(args):
            seen.append((args.command, args.seed, getattr(args, "out", None)))
            return 0
        monkeypatch.setattr(cli, "cmd_verify", record)
        monkeypatch.setattr(cli, "cmd_theory", record)
        for argv in (["verify", "--seed", "5"], ["verify"],
                     ["theory", "--seed", "7", "--out", "x"], ["theory"],
                     ["verify", "--seed", "6"]):
            assert main(argv) == 0
        assert main(["verify", "--no-such-flag"]) == 1
        assert main(["verify"]) == 0
        assert seen == [("verify", 5, None), ("verify", None, None),
                        ("theory", 7, "x"), ("theory", None, None),
                        ("verify", 6, None), ("verify", None, None)]
        assert cli._build_parser() is cli._build_parser()
