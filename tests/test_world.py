import hashlib
import io
import itertools
import math
import re
import tempfile
import tracemalloc
import zipfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwbheading import so2, world

AREA = world.DEFAULT_AREA
ANCHORS = world.default_anchors(AREA)
PATTERN = world.AntennaPattern()


def quiet(seed=0, **kw):
    base = dict(
        range_std=0.0, rss_std=0.0, gyro_psd=1e-12, mag_std=0.0, rss_quantum=1e-9
    )
    base.update(kw)
    return world.SensorNoiseConfig(seed=seed, **base)


class Pose(NamedTuple):
    """One epoch of a trajectory, for hand-made trajectories and the
    per-epoch reference."""

    t: float
    position: np.ndarray  # (2,)
    heading: float
    rate: float


def pose(x=0.0, y=0.0, heading=0.0, rate=0.0, t=0.0):
    return Pose(t, np.array([x, y], dtype=float), heading, rate)


def trajectory(poses):
    """The world.Trajectory whose epochs are `poses`."""
    return world.Trajectory(
        np.array([p.t for p in poses], dtype=float),
        np.array([p.position for p in poses], dtype=float).reshape(-1, 2),
        np.array([p.heading for p in poses], dtype=float),
        np.array([p.rate for p in poses], dtype=float),
    )


def poses_of(traj):
    """The epochs of a world.Trajectory as Poses of Python floats."""
    return list(
        map(Pose, traj.t.tolist(), traj.position, traj.heading.tolist(), traj.rate.tolist())
    )


def head(traj, k):
    """The first k epochs of a world.Trajectory."""
    return world.Trajectory(traj.t[:k], traj.position[:k], traj.heading[:k], traj.rate[:k])


# --- trajectories -----------------------------------------------------------------


def test_trajectory_deterministic_per_seed():
    a = world.generate_trajectory(AREA, 30.0, 10.0, seed=5)
    b = world.generate_trajectory(AREA, 30.0, 10.0, seed=5)
    for column in ("t", "position", "heading", "rate"):
        assert getattr(a, column).tobytes() == getattr(b, column).tobytes()


def test_trajectory_confined_and_continuous():
    traj = world.generate_trajectory(AREA, 60.0, 10.0, seed=1)
    n = len(traj.t)
    assert traj.position.shape == (n, 2)
    assert traj.heading.shape == traj.rate.shape == (n,)
    assert all(AREA.contains(p) for p in traj.position)
    assert AREA.contains(traj.position).shape == (n,)
    assert np.abs(np.diff(traj.heading)).max() < math.pi


def test_smooth_random_rate_consistency_at_100hz():
    traj = world.generate_trajectory(AREA, 20.0, 100.0, seed=2)
    h, r = traj.heading, traj.rate
    central = (h[2:] - h[:-2]) * 100.0 / 2.0
    assert np.abs(central - r[1:-1]).max() < 1e-6


def test_trajectory_rejects_bad_arguments():
    with pytest.raises(ValueError):
        world.generate_trajectory(AREA, -1.0, 10.0, 0)
    with pytest.raises(ValueError):
        world.Rectangle(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="area sides"):
        world.generate_trajectory(world.Rectangle.centered(0.09, 2.0), 10.0, 10.0)


# --- per-epoch reference ---------------------------------------------------------
# The per-sample loop that build_dataset replaced, kept as the reference the
# vectorized version must match bit for bit.


def ref_measure_range(pose, anchor, cfg, rng):
    d = float(np.linalg.norm(pose.position - anchor.position))
    d += cfg.range_std * rng.standard_normal() if cfg.range_std > 0 else 0.0
    return max(d, world.RANGE_FLOOR_M)


def ref_relative_bearing(pose, anchor):
    delta = anchor.position - pose.position
    return math.atan2(delta[1], delta[0]) - pose.heading


def ref_measure_rss(pose, anchor, pattern, cfg, rng, path_loss):
    d = float(np.linalg.norm(pose.position - anchor.position))
    rss = float(path_loss.loss(d)) + float(pattern.gain(ref_relative_bearing(pose, anchor)))
    rss += cfg.rss_std * rng.standard_normal() if cfg.rss_std > 0 else 0.0
    return float(world.quantize(rss, cfg.rss_quantum))


def ref_measure_gyro(pose, cfg, dt, rng):
    if dt <= 0:
        raise ValueError("dt must be positive")
    noise = math.sqrt(cfg.gyro_psd / dt) * rng.standard_normal() if cfg.gyro_psd > 0 else 0.0
    return pose.rate + noise


def ref_measure_mag(pose, cfg, rng):
    bias = 0.0
    if cfg.mag_disturbance_center is not None:
        center = np.asarray(cfg.mag_disturbance_center, dtype=float)
        if np.linalg.norm(pose.position - center) <= cfg.mag_disturbance_radius:
            bias = cfg.mag_disturbance_bias
    noise = cfg.mag_std * rng.standard_normal() if cfg.mag_std > 0 else 0.0
    return float(so2.wrap_angle(pose.heading + bias + noise))


def ref_build_dataset(trajectory, anchors, pattern, cfg, path_loss=world.PathLossModel()):
    if len({a.id for a in anchors}) != len(anchors):
        raise ValueError("anchor ids must be unique")
    anchors = sorted(anchors, key=lambda a: a.id)
    rng = np.random.default_rng(cfg.seed)
    poses = poses_of(trajectory)
    records = []
    prev_t = None
    for p in poses:
        dt = p.t - prev_t if prev_t is not None else None
        if dt is None:
            dt = poses[1].t - poses[0].t if len(poses) > 1 else 0.1
        ranges = np.array([ref_measure_range(p, a, cfg, rng) for a in anchors])
        rss = np.array(
            [ref_measure_rss(p, a, pattern, cfg, rng, path_loss) for a in anchors]
        )
        gyro = ref_measure_gyro(p, cfg, dt, rng)
        mag = ref_measure_mag(p, cfg, rng)
        records.append(
            world.SampleRecord(
                t=p.t, ranges=ranges, rss=rss, gyro=gyro, mag=mag,
                gt_heading=float(so2.wrap_angle(p.heading)),
            )
        )
        prev_t = p.t
    return records


def records_bit_equal(a, b):
    return len(a) == len(b) and all(
        ra.t == rb.t
        and np.array_equal(ra.ranges, rb.ranges)
        and np.array_equal(ra.rss, rb.rss)
        and ra.gyro == rb.gyro
        and ra.mag == rb.mag
        and ra.gt_heading == rb.gt_heading
        for ra, rb in zip(a, b)
    )


_std = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
_pattern = st.builds(
    world.AntennaPattern,
    a2=st.floats(0.0, 6.0), phi2=st.floats(-math.pi, math.pi),
    a1=st.floats(0.0, 3.0), phi1=st.floats(-math.pi, math.pi),
)


@settings(max_examples=60, deadline=None)
@given(
    traj_seed=st.integers(0, 2**16),
    size=st.sampled_from(["empty", "one", "many"]),
    duration=st.floats(1.0, 8.0),
    rate_hz=st.sampled_from([2.0, 5.0, 10.0]),
    pattern=_pattern,
    range_std=_std, rss_std=_std, gyro_psd=_std, mag_std=_std,
    rss_quantum=st.sampled_from([1e-9, 0.1, 1.0]),
    # (where along the trajectory the disc is centred, radius, bias)
    disturbance=st.one_of(
        st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 3.0), st.floats(-1.0, 1.0))
    ),
    noise_seed=st.integers(0, 2**16),
    anchor_order=st.permutations(range(5)),
)
def test_build_dataset_matches_per_epoch_reference(
    traj_seed, size, duration, rate_hz, pattern, range_std, rss_std,
    gyro_psd, mag_std, rss_quantum, disturbance, noise_seed, anchor_order,
):
    traj = world.generate_trajectory(AREA, duration, rate_hz, seed=traj_seed)
    traj = head(traj, {"empty": 0, "one": 1, "many": len(traj.t)}[size])
    n = len(traj.t)
    dist = {}
    if disturbance is not None:
        where, radius, bias = disturbance
        center = traj.position[int(where * (n - 1))] if n else AREA.center
        dist = dict(
            mag_disturbance_center=tuple(center),
            mag_disturbance_radius=radius,
            mag_disturbance_bias=bias,
        )
    cfg = world.SensorNoiseConfig(
        range_std=range_std, rss_std=rss_std, gyro_psd=gyro_psd, mag_std=mag_std,
        rss_quantum=rss_quantum, seed=noise_seed, **dist,
    )
    anchors = [ANCHORS[i] for i in anchor_order]
    path_loss = world.PathLossModel(p0=-70.0, gamma=2.1)
    got = world.build_dataset(traj, anchors, pattern, cfg, path_loss)
    assert records_bit_equal(got, ref_build_dataset(traj, anchors, pattern, cfg, path_loss))


@pytest.mark.parametrize("times", [(0.0, 0.0, 0.1), (0.0, 0.1, 0.1), (0.0, 0.2, 0.1)])
def test_build_dataset_rejects_non_increasing_time(times):
    traj = trajectory([pose(t=t) for t in times])
    cfg = world.SensorNoiseConfig(seed=0)
    with pytest.raises(ValueError):
        ref_build_dataset(traj, ANCHORS, PATTERN, cfg)
    with pytest.raises(ValueError):
        world.build_dataset(traj, ANCHORS, PATTERN, cfg)


def build(poses, anchors, cfg, pattern=PATTERN):
    """build_dataset on hand-made poses, spaced 0.1 s apart."""
    traj = trajectory([p._replace(t=0.1 * k) for k, p in enumerate(poses)])
    return world.build_dataset(traj, anchors, pattern, cfg)


# --- range sensor -----------------------------------------------------------------


def test_range_pythagorean():
    (rec,) = build([pose(0.0, 0.0)], [world.Anchor(0, (3.0, 4.0))], quiet())
    assert rec.ranges[0] == pytest.approx(5.0, abs=1e-12)


def test_range_noise_statistics():
    cfg = world.SensorNoiseConfig(range_std=0.1, seed=1)
    anchor = world.Anchor(0, (3.0, 0.0))
    recs = build([pose()] * 10_000, [anchor], cfg)
    draws = np.array([r.ranges[0] for r in recs])
    assert np.std(draws) == pytest.approx(0.1, rel=0.05)


def test_range_clamp_for_coincident_positions():
    (rec,) = build([pose(1.0, 1.0)], [world.Anchor(0, (1.0, 1.0))], quiet())
    assert rec.ranges[0] == world.RANGE_FLOOR_M


# --- rss sensor --------------------------------------------------------------------


def test_rss_pattern_spread_two_lobe():
    pattern = world.AntennaPattern(a2=5.0, a1=0.0)
    phis = np.linspace(-math.pi, math.pi, 720)
    gains = pattern.gain(phis)
    assert np.ptp(gains) == pytest.approx(10.0, abs=1e-3)


def test_rss_sweep_range_when_spinning():
    pattern = world.AntennaPattern(a2=5.0, a1=0.0)
    anchor = world.Anchor(0, (2.0, 0.0))
    poses = [pose(heading=h) for h in np.linspace(0.0, 2 * math.pi, 360)]
    vals = [r.rss[0] for r in build(poses, [anchor], quiet(seed=3), pattern)]
    assert np.ptp(vals) >= 9.0


def test_rss_quantization():
    assert float(world.quantize(-81.4, 1.0)) == -81.0
    assert float(world.quantize(world.quantize(-81.4, 1.0), 1.0)) == -81.0
    cfg = world.SensorNoiseConfig(rss_std=0.5, rss_quantum=1.0, seed=4)
    (rec,) = build([pose()], [world.Anchor(0, (2.0, 1.0))], cfg)
    v = rec.rss[0]
    assert v == round(v)


def test_rss_world_rotation_invariance():
    # rotating robot heading and anchor bearing together leaves rss unchanged
    cfg = quiet(seed=5)
    shift = 1.234
    r = 2.5
    for phi in np.linspace(0, 2 * math.pi, 17):
        a0 = world.Anchor(0, (r * math.cos(phi), r * math.sin(phi)))
        a1 = world.Anchor(0, (r * math.cos(phi + shift), r * math.sin(phi + shift)))
        (v0,) = build([pose(heading=0.3)], [a0], cfg)
        (v1,) = build([pose(heading=0.3 + shift)], [a1], cfg)
        assert v0.rss[0] == pytest.approx(v1.rss[0], abs=1e-9)


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (world.SensorNoiseConfig, {"range_std": math.nan}),
        (world.SensorNoiseConfig, {"rss_std": -0.1}),
        (world.SensorNoiseConfig, {"mag_std": math.inf}),
        (world.SensorNoiseConfig, {"gyro_psd": math.nan}),
        (world.SensorNoiseConfig, {"rss_quantum": math.nan}),
        (world.SensorNoiseConfig, {"rss_quantum": 0.0}),
        (world.PathLossModel, {"d0": 0.0}),
        (world.PathLossModel, {"d0": -1.0}),
        (world.PathLossModel, {"d0": math.inf}),
        (world.PathLossModel, {"p0": math.nan}),
        (world.PathLossModel, {"gamma": -math.inf}),
        (world.AntennaPattern, {"a2": math.nan}),
        (world.AntennaPattern, {"g0": math.inf}),
        (world.SensorNoiseConfig, {"mag_disturbance_center": (0.0, 0.0),
                                   "mag_disturbance_bias": math.nan}),
        (world.SensorNoiseConfig, {"mag_disturbance_center": (0.0, 0.0),
                                   "mag_disturbance_radius": math.nan}),
        (world.SensorNoiseConfig, {"mag_disturbance_center": (0.0, 0.0),
                                   "mag_disturbance_radius": -0.5}),
        (world.SensorNoiseConfig, {"mag_disturbance_center": (math.nan, 0.0)}),
        (world.SensorNoiseConfig, {"mag_disturbance_center": (0.0, 0.0, 0.0)}),
        (world.generate_trajectory, {"area": AREA, "duration": math.inf, "rate_hz": 10.0}),
        (world.generate_trajectory, {"area": AREA, "duration": math.nan, "rate_hz": 10.0}),
        (world.generate_trajectory, {"area": AREA, "duration": 10.0, "rate_hz": math.inf}),
        (world.generate_trajectory, {"area": AREA, "duration": 1e300, "rate_hz": 1e10}),
    ],
    ids=["nan-range-std", "negative-rss-std", "inf-mag-std", "nan-gyro-psd", "nan-rss-quantum",
         "zero-rss-quantum", "zero-d0", "negative-d0", "inf-d0", "nan-p0", "inf-gamma",
         "nan-pattern-a2", "inf-pattern-g0", "nan-disturbance-bias", "nan-disturbance-radius",
         "negative-disturbance-radius", "nan-disturbance-center", "3d-disturbance-center",
         "inf-duration", "nan-duration", "inf-rate", "overflowing-epoch-count"],
)
def test_world_types_reject_non_finite_and_out_of_range_values(cls, kwargs):
    with pytest.raises(ValueError, match="must be"):
        cls(**kwargs)


def test_path_loss_monotone_in_distance():
    pl = world.PathLossModel()
    d = np.array([0.5, 1.0, 2.0, 4.0])
    losses = pl.loss(d)
    assert np.all(np.diff(losses) < 0)
    assert losses[1] == pytest.approx(pl.p0)


# --- gyro / mag ----------------------------------------------------------------------


def test_gyro_tiny_psd_tracks_true_rate():
    # a lone pose takes dt = 0.1 s
    (rec,) = world.build_dataset(trajectory([pose(rate=0.42)]), ANCHORS, PATTERN, quiet(seed=6))
    assert rec.gyro == pytest.approx(0.42, abs=1e-4)


def test_gyro_random_walk_scaling():
    dt, steps, psd = 0.1, 200, 1e-3
    traj = trajectory([pose(rate=0.0, t=k * dt) for k in range(steps)])
    finals = []
    for seed in range(300):
        cfg = world.SensorNoiseConfig(gyro_psd=psd, seed=seed)
        recs = world.build_dataset(traj, ANCHORS, PATTERN, cfg)
        finals.append(sum(r.gyro * dt for r in recs))
    assert np.std(finals) == pytest.approx(math.sqrt(psd * dt * steps), rel=0.15)


def test_gyro_seeded_determinism():
    cfg = world.SensorNoiseConfig(gyro_psd=1e-3, seed=7)
    (a,) = world.build_dataset(trajectory([pose(rate=0.1)]), ANCHORS, PATTERN, cfg)
    (b,) = world.build_dataset(trajectory([pose(rate=0.1)]), ANCHORS, PATTERN, cfg)
    assert a.gyro == b.gyro


def test_mag_zero_noise_and_wrap():
    plain, wrapped = build([pose(heading=0.4), pose(heading=math.pi + 0.1)], ANCHORS, quiet(seed=8))
    assert plain.mag == pytest.approx(0.4)
    assert wrapped.mag == pytest.approx(-math.pi + 0.1, abs=1e-12)


def test_mag_localized_disturbance():
    cfg = quiet(
        seed=9,
        mag_disturbance_center=(0.0, 0.0),
        mag_disturbance_radius=0.5,
        mag_disturbance_bias=0.3,
    )
    inside, outside = build([pose(0.1, 0.0, heading=0.0), pose(2.0, 0.0, heading=0.0)], ANCHORS, cfg)
    assert inside.mag == pytest.approx(0.3)
    assert outside.mag == pytest.approx(0.0)


# --- dataset assembly -----------------------------------------------------------------


def test_build_dataset_counts_and_determinism():
    traj = world.generate_trajectory(AREA, 20.0, 10.0, seed=0)
    recs1 = world.build_dataset(traj, ANCHORS, PATTERN, world.SensorNoiseConfig(seed=1))
    recs2 = world.build_dataset(traj, ANCHORS, PATTERN, world.SensorNoiseConfig(seed=1))
    recs3 = world.build_dataset(traj, ANCHORS, PATTERN, world.SensorNoiseConfig(seed=2))
    assert len(recs1) == len(traj.t)
    assert all(
        np.array_equal(a.ranges, b.ranges) and a.gyro == b.gyro
        for a, b in zip(recs1, recs2)
    )
    # different noise seed, identical ground truth
    assert any(not np.array_equal(a.rss, c.rss) for a, c in zip(recs1, recs3))
    assert all(a.gt_heading == c.gt_heading for a, c in zip(recs1, recs3))


def test_build_dataset_rejects_duplicate_anchor_ids():
    traj = world.generate_trajectory(AREA, 1.0, 10.0, seed=0)
    bad = [world.Anchor(0, (0.0, 0.0)), world.Anchor(0, (1.0, 0.0))]
    with pytest.raises(ValueError):
        world.build_dataset(traj, bad, PATTERN, world.SensorNoiseConfig(seed=0))


def test_dataset_file_round_trip(tmp_path):
    traj = world.generate_trajectory(AREA, 10.0, 10.0, seed=0)
    recs = world.build_dataset(traj, ANCHORS, PATTERN, world.SensorNoiseConfig(seed=1))
    meta = world.world_metadata(
        AREA, ANCHORS, PATTERN, world.SensorNoiseConfig(seed=1),
        world.PathLossModel(), seed=0, duration=10.0, rate_hz=10.0,
    )
    path = tmp_path / "data.csv"
    world.write_dataset(path, recs, meta)
    back = world.read_dataset(path)
    assert len(back) == len(recs)
    assert records_bit_equal(back, recs)
    meta_back = world.read_metadata(path)
    assert meta_back["noise"]["seed"] == 1
    assert len(meta_back["anchors"]) == 5


def test_dataset_write_is_byte_identical(tmp_path):
    traj = world.generate_trajectory(AREA, 5.0, 10.0, seed=0)
    recs = world.build_dataset(traj, ANCHORS, PATTERN, world.SensorNoiseConfig(seed=1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    world.write_dataset(p1, recs)
    world.write_dataset(p2, recs)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_dataset_rejects_other_anchor_counts(tmp_path):
    traj = world.generate_trajectory(AREA, 2.0, 10.0, seed=0)
    recs = world.build_dataset(traj, ANCHORS[:3], PATTERN, world.SensorNoiseConfig(seed=1))
    path = tmp_path / "three.csv"
    with pytest.raises(ValueError, match="5 anchors"):
        world.write_dataset(path, recs, {"anchors": 3})
    assert list(tmp_path.iterdir()) == []


def test_read_dataset_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        world.read_dataset(p)


def test_read_dataset_checks_row_width_and_tokens(tmp_path):
    header = ",".join(world.DATASET_COLUMNS)
    row = ",".join(["1.0"] * len(world.DATASET_COLUMNS))
    p = tmp_path / "rows.csv"
    for body, message in (
        (row + ",2.0", "bad row width"),  # one cell too many
        (row.rsplit(",", 1)[0], "bad row width"),  # one cell short
        (row.replace("1.0", "abc", 1), "abc"),  # not a number
        (row.replace("1.0", "", 1), "convert"),  # empty cell
    ):
        p.write_text(f"{header}\n{row}\n{body}\n")
        with pytest.raises(ValueError, match=message):
            world.read_dataset(p)
    p.write_text(header + "\n")
    assert len(world.read_dataset(p)) == 0


def written_dataset(tmp_path):
    traj = world.generate_trajectory(AREA, 20.0, 10.0, seed=4)
    data = world.build_dataset(traj, ANCHORS, PATTERN, world.SensorNoiseConfig(seed=5))
    path = tmp_path / "data.csv"
    world.write_dataset(path, data)
    return path


def test_read_table_matches_float_per_cell(tmp_path):
    path = written_dataset(tmp_path)
    lines = path.read_text().strip().splitlines()[1:]
    reference = np.array([[float(tok) for tok in ln.split(",")] for ln in lines])
    table = world.read_table(path, world.DATASET_COLUMNS)
    assert table.shape == reference.shape
    assert table.tobytes() == reference.tobytes()


def test_read_dataset_rows_are_table_cells(tmp_path):
    path = written_dataset(tmp_path)
    table = world.read_table(path, world.DATASET_COLUMNS)
    data = world.read_dataset(path)
    assert len(data) == len(table)
    for k, (row, cells) in enumerate(zip(data, table)):
        for rec in (row, data[k]):
            assert type(rec.t) is float and type(rec.gyro) is float
            assert type(rec.mag) is float and type(rec.gt_heading) is float
            got = [rec.t, *rec.ranges, *rec.rss, rec.gyro, rec.mag, rec.gt_heading]
            assert np.array(got).tobytes() == cells.tobytes()
    assert data.features.tobytes() == table[:, 1:11].tobytes()


def test_write_of_read_dataset_is_byte_identical(tmp_path):
    path = written_dataset(tmp_path)
    again = tmp_path / "again.csv"
    world.write_dataset(again, world.read_dataset(path))
    assert again.read_bytes() == path.read_bytes()


def one_string_table(header, columns) -> str:
    """write_table's reference: every line in one string, one repr per float
    cell, from columns that are float arrays or lists of text cells."""
    cells = [list(map(repr, c.ravel().tolist())) if isinstance(c, np.ndarray) else c
             for c in columns]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*cells)])


def per_cell_parse(path, width) -> np.ndarray:
    """read_table's reference: the file as `bytes.strip()` leaves it, one
    float() per cell of each line after the header."""
    lines = path.read_bytes().strip().split(b"\n")[1:]
    return np.array([[float(c) for c in line.split(b",")] for line in lines]).reshape(-1, width)


@pytest.mark.parametrize("rows", [0, 1, world._ROW_BLOCK - 1, world._ROW_BLOCK,
                                  world._ROW_BLOCK + 1, 2 * world._ROW_BLOCK,
                                  2 * world._ROW_BLOCK + 1])
def test_write_table_equals_one_string_reference(tmp_path, rows):
    """The written text equals the one-string reference, and read_table reads
    it back as a per-cell float() parse does, bit for bit."""
    rng = np.random.default_rng(rows)
    columns = [np.arange(rows) / 7.0, [str(k) for k in range(rows)], rng.normal(size=rows)]
    world.write_table(tmp_path / "t.csv", ["t", "k", "x"], columns)
    assert (tmp_path / "t.csv").read_text() == one_string_table(["t", "k", "x"], columns)
    table = world.read_table(tmp_path / "t.csv", ["t", "k", "x"])
    assert table.shape == (rows, 3)
    assert table.tobytes() == per_cell_parse(tmp_path / "t.csv", 3).tobytes()


def test_write_table_of_joined_runs_equals_one_string_reference(tmp_path):
    """A 2-D column of runs that join run 0 (the suffix whose text is reused)
    at different epochs, with NaN cells, over more than two blocks of rows."""
    rng = np.random.default_rng(2)
    runs, n = 3, world._ROW_BLOCK - 100
    base = rng.normal(size=n)
    base[::7] = math.nan
    errs = np.array([base] * runs)
    errs[1, :150] = rng.normal(size=150)
    errs[2, : n - 1] = rng.normal(size=n - 1)
    t_cells = list(world.float_cells(np.arange(n) / 10.0))
    header = ["t", "run", "error"]
    world.write_table(tmp_path / "t.csv", header,
                      [itertools.chain.from_iterable(itertools.repeat(t_cells, runs)),
                       [str(r) for r in range(runs) for _ in range(n)], errs])
    want = one_string_table(header, [t_cells * runs, [str(r) for r in range(runs) for _ in range(n)],
                                     errs])
    assert (tmp_path / "t.csv").read_text() == want
    assert "nan" in want


def test_write_table_short_column_leaves_no_file(tmp_path):
    """Columns of different lengths are a ValueError, found after whole
    blocks were written, and no partial file is left."""
    path = tmp_path / "short.csv"
    rows = 2 * world._ROW_BLOCK + 5
    with pytest.raises(ValueError, match="shorter"):
        world.write_table(path, ["a", "b"], [np.zeros(rows), np.zeros(rows - 1)])
    assert list(tmp_path.iterdir()) == []


def test_write_table_working_set_is_one_block(tmp_path):
    """A 50k-row, five-column table is written with a traced peak below
    1 MiB: its text is made and written a block of rows at a time."""
    rows = 50_000
    rng = np.random.default_rng(3)
    t, err, sig, mahal = np.arange(rows) / 10.0, rng.normal(size=rows), rng.uniform(size=rows), \
        rng.uniform(size=rows)
    runs = [str(k // 1000) for k in range(rows)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        world.write_table(tmp_path / "t.csv", ["t", "run", "error", "three_sigma", "mahalanobis"],
                          [t, runs, err, sig, mahal])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "t.csv").read_text().splitlines()) == rows + 1
    assert peak < 1 << 20


def test_read_table_working_set_is_under_three_times_the_file(tmp_path):
    """A 50k-row, five-column table is read with a traced peak below three
    times its bytes: the file is held once and its cells are parsed a block
    of rows at a time, not all in one list (about five times the file)."""
    rows = 50_000
    rng = np.random.default_rng(4)
    header = ["t", "run", "error", "three_sigma", "mahalanobis"]
    world.write_table(tmp_path / "t.csv", header,
                      [np.arange(rows) / 10.0, [str(k // 1000) for k in range(rows)],
                       rng.normal(size=rows), rng.uniform(size=rows), rng.uniform(size=rows)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = world.read_table(tmp_path / "t.csv", header)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (rows, 5)
    assert peak < 3 * (tmp_path / "t.csv").stat().st_size


def test_read_table_errors_in_a_later_block_keep_message_and_line(tmp_path):
    """A bad width or a bad cell in the third block of `_ROW_BLOCK` rows that
    read_table parses gives the message and line number that a whole-file
    parse gives; a bad width there is reported before a bad cell in the
    second block; a CRLF line there reads as LF."""
    path = tmp_path / "t.csv"
    earlier, later = world._ROW_BLOCK + 3, 2 * world._ROW_BLOCK + 5
    good = [b"%06d,1.5,-2.25" % k for k in range(3 * world._ROW_BLOCK)]

    def read_with(**changed):
        lines = list(good)
        for k, line in changed.items():
            lines[int(k[1:])] = line
        path.write_bytes(b"a,b,c\n" + b"\n".join(lines) + b"\n")
        return world.read_table(path, ["a", "b", "c"])

    expected = read_with()
    assert expected.shape == (len(good), 3)
    for changed, message in (
        ({f"r{later}": b"1,2"}, f"{path} line {later + 2}: bad row width, 2 cells"),
        ({f"r{later}": b"1,abc,2"}, f"{path}: could not convert string to float: b'abc'"),
        ({f"r{earlier}": b"1,abc,2", f"r{later}": b"1,2,3,4"},
         f"{path} line {later + 2}: bad row width, 4 cells"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_with(**changed)
    crlf = read_with(**{f"r{later}": good[later] + b"\r"})
    assert crlf.tobytes() == expected.tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def dataset_tables(draw):
    """(n, 14) tables that read_dataset accepts: finite cells, strictly
    increasing t and positive ranges."""
    t = sorted(draw(st.lists(_finite, max_size=8, unique=True)))
    rows = draw(st.lists(st.tuples(*[_positive] * 5, *[_finite] * 8),
                         min_size=len(t), max_size=len(t)))
    return np.array([[ti, *row] for ti, row in zip(t, rows)]).reshape(-1, 14)


_EXTREMES = np.array([
    # t, 5 ranges, 5 rss, gyro, mag, gt_heading: signed zeros, the smallest
    # and largest subnormals, the smallest normal and the largest finite
    [-1.7976931348623157e308, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, 1e-300, -0.0, -5e-324, 1e308, -1e-310, 0.0,
     -1.7976931348623157e308, 2.2250738585072009e-308, -0.0],
    [-0.0, 1.0, 1e300, 5e-324, 3.0, 1e-320, -1e308, 5e-324, -0.0, 123.456, -81.0,
     0.0, -2.2250738585072014e-308, 1.7976931348623157e308],
    [5e-324, 1e-5, 2.0, 1.7976931348623157e308, 5e-324, 0.1, 0.0, -0.0, 1e-310,
     -1e-310, 1e22, -0.0, -1e-322, 3.141592653589793],
])


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(table=dataset_tables())
@example(table=_EXTREMES)
@example(table=np.array([[-1e308] + [1.0] * 13, [1e308] + [1.0] * 13]))  # t gap > max float
@example(table=np.empty((0, 14)))
def test_dataset_csv_round_trip_is_exact(table):
    data = world.Dataset(
        table[:, 0], table[:, 1:6], table[:, 6:11], table[:, 11], table[:, 12], table[:, 13]
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
        world.write_dataset(first, data)
        back = world.read_dataset(first)
        got = np.column_stack(
            [back.t, back.ranges, back.rss, back.gyro, back.mag, back.gt_heading]
        )
        assert got.shape == table.shape
        assert got.tobytes() == table.tobytes()
        world.write_dataset(second, back)
        assert second.read_bytes() == first.read_bytes()


def test_generated_world_is_pinned(tmp_path):
    """A small cmd_generate world hashes to the files that the per-record
    dataset code wrote before datasets were carried as columns."""
    from uwbheading import pipeline

    cfg = pipeline.GenerateConfig(
        seed=3, train_duration_s=30.0, test_duration_s=10.0, rate_hz=5.0
    )
    pipeline.cmd_generate(cfg, tmp_path)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == {
        "test.csv": "18db006e74b2b044a04bd02e284a71e014b1a644b46d50c3366fd1e8f8ff940e",
        "test.meta.json": "2796af8803778a7a9c87c010fc49b0adde9369fe75347a80c44aced674c9697b",
        "train.csv": "b8e79e6c7230405558ed9777bd160f6715fad7e3da6f832985f37301a84c6978",
        "train.meta.json": "21aedf88fdfcfee10e399fa2bc8208444420d655f524c6aa30ee7c4af2e78330",
    }


def test_zero_noise_dataset_supports_heading_regression():
    # end-to-end sanity: clean world -> GP -> heading RMSE far below chance
    from uwbheading import gp, heading

    traj = world.generate_trajectory(AREA, 400.0, 5.0, seed=0)
    recs = world.build_dataset(traj, ANCHORS, PATTERN, quiet(seed=1))
    feats = np.array([r.feature_vector() for r in recs])
    gts = np.array([r.gt_heading for r in recs])
    pair = heading.train_heading_gps(
        feats, gts, gp.HyperparamSearchConfig(max_points=400)
    )
    traj2 = world.generate_trajectory(AREA, 60.0, 5.0, seed=1)
    recs2 = world.build_dataset(traj2, ANCHORS, PATTERN, quiet(seed=2))
    errs = []
    for r in recs2:
        pt = heading.predict_pseudo_trig(
            pair, heading.UwbFeature(ranges=r.ranges, rss=r.rss)
        )
        m = heading.normalize(pt)
        errs.append(so2.wrap_angle(m.angle - r.gt_heading))
    rmse_deg = math.degrees(float(np.sqrt(np.mean(np.square(errs)))))
    assert rmse_deg < 15.0


def test_isotropic_pattern_removes_heading_information():
    from uwbheading import gp, heading

    flat = world.AntennaPattern(a2=0.0, a1=0.0)
    traj = world.generate_trajectory(AREA, 200.0, 5.0, seed=0)
    recs = world.build_dataset(traj, ANCHORS, flat, quiet(seed=1))
    feats = np.array([r.feature_vector() for r in recs])
    gts = np.array([r.gt_heading for r in recs])
    pair = heading.train_heading_gps(
        feats, gts, gp.HyperparamSearchConfig(max_points=250)
    )
    traj2 = world.generate_trajectory(AREA, 60.0, 5.0, seed=1)
    recs2 = world.build_dataset(traj2, ANCHORS, flat, quiet(seed=2))
    f2 = np.array([r.feature_vector() for r in recs2])
    g2 = np.array([r.gt_heading for r in recs2])
    errs = []
    for pt, gt in zip(heading.predict_pseudo_trig_many(pair, f2), g2):
        try:
            m = heading.normalize(pt)
        except heading.DegeneratePredictionError:
            continue
        errs.append(so2.wrap_angle(m.angle - gt))
    # without heading-dependent gain the GP reverts toward the prior:
    # heading error is at chance level
    rmse_deg = math.degrees(float(np.sqrt(np.mean(np.square(errs))))) if errs else 180.0
    assert rmse_deg > 45.0


def _repr_cells(a) -> list[str]:
    """float_cells' reference: one repr per cell, in C order."""
    return [repr(x) for x in np.asarray(a, dtype=float).ravel().tolist()]


def test_float_cells_reuse_row_0_text_only_for_equal_bits():
    """A 2-D array's rows take row 0's text for the suffix they share with it
    bit for bit, and give one repr per cell all the same."""
    row0 = [0.5, -1.25, 3.0, 1e-310, 0.0, math.nan, math.nan]
    rows = np.array([
        row0,
        [9.0, 8.0, 3.0, 1e-310, 0.0, math.nan, math.nan],  # shares a suffix, NaNs too
        row0,  # equal to row 0
        [0.5, -1.25, 3.0, 1e-310, 0.0, math.nan, 7.0],  # never equal: its last cell differs
        [0.5, -1.25, 3.0, 1e-310, -0.0, math.nan, math.nan],  # -0.0 beside row 0's 0.0
        [math.nan] * 5 + [math.nan, math.nan],  # a NaN suffix
    ])
    assert world.row0_suffix_starts(rows).tolist() == [0, 2, 0, 7, 5, 5]
    assert list(world.float_cells(rows)) == _repr_cells(rows)
    assert "-0.0" in list(world.float_cells(rows))[4 * 7:5 * 7]


@pytest.mark.parametrize("shape", [(1, 6), (6,), (3, 0), (0, 4)])
def test_float_cells_of_one_row_or_no_cells(shape):
    a = np.random.default_rng(1).normal(size=shape)
    assert list(world.float_cells(a)) == _repr_cells(a)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(2, 5), cols=st.integers(1, 6), data=st.data())
def test_float_cells_equal_one_repr_per_cell(rows, cols, data):
    """Rows drawn from a few values, so that suffixes equal to row 0's are
    common, whatever the signs of zero and NaN."""
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, -math.nan, math.inf, 5e-324])
    a = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))
    a = a.reshape(rows, cols)
    assert list(world.float_cells(a)) == _repr_cells(a)
    same = a.view(np.int64) == a[0].view(np.int64)
    for r, start in enumerate(world.row0_suffix_starts(a).tolist()):
        assert same[r, start:].all() and (start == 0 or not same[r, start - 1])


# --- .npy reader -----------------------------------------------------------------


def _read_npy(data: bytes):
    return world.read_npy(io.BytesIO(data), len(data))


def _npy(array, **header) -> bytes:
    """`array` as np.save writes it, with the header's fields overridden."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {**np.lib.format.header_data_from_array_1_0(array), **header}
    )
    return out.getvalue() + array.tobytes(order="A")


@pytest.mark.parametrize("array", [
    np.arange(12.0).reshape(3, 4),
    np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    np.arange(6, dtype=">f8"),
    np.array([[True, False]]),
    np.array(3.5),
    np.empty((0, 5)),
    np.array([math.nan, -0.0, math.inf, 5e-324]),
], ids=["c-order", "fortran-order", "big-endian", "bool", "0-d", "no-rows", "special-floats"])
def test_read_npy_equals_np_load(tmp_path, array):
    """read_npy returns what np.load returns, dtype, shape and bits, for a
    file and for a member of an .npz archive."""
    np.save(tmp_path / "a.npy", array)
    np.savez(tmp_path / "a.npz", a=array)
    want = np.load(tmp_path / "a.npy")
    with open(tmp_path / "a.npy", "rb") as f:
        got = [world.read_npy(f, (tmp_path / "a.npy").stat().st_size)]
    with zipfile.ZipFile(tmp_path / "a.npz") as z, z.open("a.npy") as member:
        got.append(world.read_npy(member, z.getinfo("a.npy").file_size))
    for a in got:
        assert a.dtype == want.dtype and a.shape == want.shape
        assert a.tobytes(order="A") == want.tobytes(order="A")
        assert a.flags.writeable


def test_read_npy_checks_the_header_against_the_bytes_present():
    """A header whose shape and dtype do not account for the bytes after it
    is refused before any array is allocated, as are an array of Python
    objects and bad magic; a 16 TB shape must not become a MemoryError."""
    a = np.arange(20.0).reshape(2, 10)
    assert _read_npy(_npy(a)).tolist() == a.tolist()
    for data, message in (
        (_npy(a, shape=(200000000000, 10)), "needs 16000000000000 bytes of data, but 160"),
        (_npy(a, shape=(3, 10)), "needs 240 bytes of data, but 160"),
        (_npy(a, shape=(-2, -10)), "shape (-2, -10) has a negative length"),
        (_npy(a, descr="<f4"), "needs 80 bytes of data, but 160"),
        (_npy(a)[:-1], "needs 160 bytes of data, but 159"),
        (_npy(a) + b"\0", "needs 160 bytes of data, but 161"),
        (_npy(np.array([None, {}], dtype=object)), "holds Python objects"),
        (b"\x93NUMPX" + _npy(a)[6:], "magic"),
        (_npy(a).replace(b"'shape': (2, 10)", b"'shape': (2, 10 "), "EOF in multi-line"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            _read_npy(data)
