#!/usr/bin/env python3
"""Sweep the RSS quantization step and report raw GP heading RMSE.

Coarser quantization discards orientation information carried by the
antenna gain, so RMSE should trend upward with the step size. Runs a few
seeds per step and prints a small table.
"""

import argparse
import math
import tempfile
from pathlib import Path

import numpy as np

from uwbheading import gp, heading, pipeline, so2, world


def gp_rmse_deg(pair, data) -> float:
    errs = []
    for pt, gt in zip(heading.predict_pseudo_trig_many(pair, data.features), data.gt_heading):
        try:
            m = heading.normalize(pt)
        except heading.DegeneratePredictionError:
            continue
        errs.append(so2.wrap_angle(m.angle - gt))
    return math.degrees(float(np.sqrt(np.mean(np.square(errs)))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quanta", type=float, nargs="+", default=[0.1, 0.5, 1.0, 2.0, 4.0])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--train-s", type=float, default=400.0)
    ap.add_argument("--test-s", type=float, default=60.0)
    args = ap.parse_args()

    search = gp.HyperparamSearchConfig(max_points=400)
    print(f"{'quantum_dBi':>12} {'rmse_deg (per seed)':>30} {'mean':>8}")
    for quantum in args.quanta:
        rmses = []
        for seed in range(args.seeds):
            cfg = pipeline.GenerateConfig(
                seed=seed, rate_hz=5.0, rss_std=0.1, rss_quantum=quantum,
                train_duration_s=args.train_s, test_duration_s=args.test_s,
            )
            # the CLI's train/test split; its CSV round trip is exact
            with tempfile.TemporaryDirectory() as tmp:
                paths = pipeline.cmd_generate(cfg, Path(tmp))
                train, test = (world.read_dataset(paths[s]) for s in ("train", "test"))
            pair = heading.train_heading_gps(train.features, train.gt_heading, search)
            rmses.append(gp_rmse_deg(pair, test))
        per_seed = " ".join(f"{r:6.2f}" for r in rmses)
        print(f"{quantum:>12.2f} {per_seed:>30} {np.mean(rmses):8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
