import subprocess
import sys

import numpy as np

from lrsketch import evalbench, seeding
from lrsketch.evalbench import DatasetSpec, run_experiment
from lrsketch.seeding import derived_seed, rng_from, seed_sequence
from lrsketch.trainer import TrainConfig


class TestDerivation:
    def test_paths_are_independent_streams(self):
        a = rng_from(5, 0).standard_normal(4)
        b = rng_from(5, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_path_same_stream(self):
        assert np.array_equal(rng_from(5, 2, 3).standard_normal(8),
                              rng_from(5, 2, 3).standard_normal(8))

    def test_derived_seed_deterministic(self):
        assert derived_seed(7, 1, 2) == derived_seed(7, 1, 2)
        assert derived_seed(7, 1, 2) != derived_seed(7, 2, 1)

    def test_seed_sequence_path(self):
        assert seed_sequence(9, 4).spawn_key == (4,)

    def test_memoized_derived_seed_is_the_seed_sequences(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            seed = int(rng.integers(0, 2**63))
            path = tuple(int(x) for x in rng.integers(0, 2**32, int(rng.integers(0, 6))))
            want = np.random.SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)[0]
            for _ in range(2):  # computed, then from the memo
                got = derived_seed(seed, *path)
                assert type(got) is int and got == int(want)
        assert derived_seed.cache_info().maxsize is not None

    def test_sweep_builds_each_trial_seed_once(self, monkeypatch):
        built, real = [], seeding.seed_sequence
        monkeypatch.setattr(seeding, "seed_sequence",
                            lambda seed, *path: built.append((seed, path)) or real(seed, *path))
        derived_seed.cache_clear()
        spec = DatasetSpec(name="memo", kind="spiked", n=12, d=9, count_train=1, count_test=2,
                           spikes=2, seed=15)
        cfg = TrainConfig(k=2, seed=16)
        for k, m in ((2, 4), (1, 3)):  # 4 cells of 3 trials, all on cfg.seed
            for st in ("sparse_random", "dense_random"):
                run_experiment(spec, k, m, st, 3, cfg)
        trial = [path for seed, path in built if seed == cfg.seed]
        assert trial == [(evalbench._SEED_TRIAL, t) for t in range(3)]


class TestCrossProcessDeterminism:
    def test_sketch_identical_across_process_restart(self):
        code = (
            "from lrsketch.sketch import sparse_random_sketch\n"
            "s = sparse_random_sketch(5, 17, seed=123456789)\n"
            "print(s.row_of.tolist(), s.value_of.tolist())\n"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        from lrsketch.sketch import sparse_random_sketch

        s = sparse_random_sketch(5, 17, seed=123456789)
        assert runs[0].strip() == f"{s.row_of.tolist()} {s.value_of.tolist()}"
