#!/usr/bin/env python3
"""Full evaluation pipeline: generate a synthetic world, train the heading
GPs, run the three estimators through the Monte-Carlo harness, and export
plot data.

Usage:
    python3 scripts/reproduce_heading_eval.py [--out DIR] [--seed N] [--fast]

--fast shrinks the world and run counts for a quick smoke pass (~1 min);
the default settings reproduce the headline numbers and take ~5 min.
"""

import argparse
import json
import sys
from pathlib import Path

from uwbheading import pipeline


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fast", action="store_true", help="small world, 10 runs")
    args = ap.parse_args()
    out = Path(args.out)

    if args.fast:
        gen = {"train_duration_s": 300.0, "test_duration_s": 60.0, "rate_hz": 5.0}
        train = {"max_points": 300}
        runs = 10
    else:
        gen, train, runs = {}, {}, 100

    cfg = out / "config.json"
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps({"generate": gen, "train": train}, indent=2))

    steps = [
        ["generate", "--config", str(cfg), "--seed", str(args.seed),
         "--out", str(out / "data")],
        ["train", "--config", str(cfg), "--dataset", str(out / "data" / "train.csv"),
         "--out", str(out / "models")],
    ]
    for est in pipeline.ESTIMATORS:
        cmd = ["run", "--dataset", str(out / "data" / "test.csv"),
               "--estimator", est, "--runs", str(runs), "--seed", str(args.seed),
               "--out", str(out / "runs" / est)]
        if est == "gp-iekf":
            cmd += ["--models", str(out / "models")]
        steps.append(cmd)
    steps.append(
        ["report", "--runs-dirs"]
        + [str(out / "runs" / est) for est in pipeline.ESTIMATORS]
        + ["--out", str(out / "report")]
    )

    for step in steps:
        print(f"+ uwb-heading {' '.join(step)}")
        code = pipeline.main(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code

    print(f"\nplot data written to {out / 'report'}")
    for est in pipeline.ESTIMATORS:
        metrics = json.loads((out / "runs" / est / "metrics.json").read_text())
        print(
            f"  {est:>10}: RMSE {metrics['rmse_deg']:7.2f} deg, "
            f"steady 3sigma {metrics['mean_3sigma_deg']:7.2f} deg"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
