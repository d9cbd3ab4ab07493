"""UWB range/RSS heading estimation: dual-GP heading prediction fused with
gyroscope data in a left-invariant Kalman filter on SO(2), plus a synthetic
world generator and a Monte-Carlo evaluation pipeline."""

from . import gp, heading, iekf, so2, world

__all__ = ["so2", "gp", "heading", "iekf", "world", "pipeline"]
