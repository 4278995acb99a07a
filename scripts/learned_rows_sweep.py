#!/usr/bin/env python3
"""Excess error of jointly-trained mixed sketches as the trainable row
count varies from 0 (fully random) to m (fully learned).

Usage:
    python scripts/learned_rows_sweep.py [out_csv]

Writes a (series, x, y) plot-data CSV with x = trainable rows.
"""

import sys
from dataclasses import replace

import numpy as np

from lrsketch.evalbench import DatasetSpec, generate_dataset, optimal_loss, write_xy_csv
from lrsketch.scw import scw_losses
from lrsketch.seeding import derived_seed
from lrsketch.trainer import TrainConfig, train_many

SPEC = DatasetSpec(name="spiked", kind="spiked", n=32, d=24, count_train=12,
                   count_test=8, spikes=3, decay=0.8, noise=0.1, drift=0.05,
                   seed=11)
K, M = 3, 6
TRAIN = TrainConfig(k=K, lr=1.0, iterations=200, seed=20260808, mode="mixed_joint")


def run(out_csv: str) -> None:
    train_set, test_set = generate_dataset(SPEC)
    app = optimal_loss(test_set, K)
    rows = []
    cfgs = [replace(TRAIN, learned_rows=learned_rows, seed=derived_seed(TRAIN.seed, learned_rows))
            for learned_rows in range(M + 1)]
    # the M + 1 runs share every shape, so they step in lockstep
    trained = list(train_many(train_set, M, cfgs))
    losses = scw_losses(test_set, [sketch for sketch, _ in trained], K)  # one pass per shape
    for learned_rows, ((_, rep), row) in enumerate(zip(trained, losses)):
        err = float(np.mean(row)) - app  # err_metric, optimum computed once
        rows.append(("mixed_j", learned_rows, err))
        print(f"learned_rows={learned_rows}: train loss "
              f"{rep.initial_loss:.4f} -> {rep.final_loss:.4f}, excess error {err:.4f}")
    write_xy_csv(out_csv, rows)
    print(f"wrote {out_csv}")


if __name__ == "__main__":
    run(sys.argv[1] if len(sys.argv) > 1 else "runs/learned_rows_sweep.csv")
