"""Seeded workload generator: writes input files and the job list.

Every workload is a fixed list of `homfit` command lines over fixed
instances: the ones the roadmap and the acceptance tests name.  The seed
reorders the points of every point-set input (a seeded permutation), so
each seed gives different input files and different floating-point
paths through the program, but the same mathematical problem.  That
keeps the cost of a pass nearly independent of the seed: drawing fresh
clouds per seed instead moved a centered pass between 8.8 and 18.8 s
over five seeds, a spread no regression bound could absorb.  Seed 0
(DEFAULT_SEED) keeps the original order; HELDOUT_SEED is kept back for
confirming later claims.  Sampled regions use the CLI's own sampling
seed 0.  The program under test only ever sees the files written here.

`region` is built and runnable like the others but is not listed in
BENCHMARK.json: one pass takes about 50 s, nearly all of it the ellipsoid
oracle failing after 100000 iterations, which does not fit the time the
full set of benchmark runs may take.  Run it by name to measure roadmap
item 4.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
HELDOUT_SEED = 7919

STAR_POINTS = 2000

DISK = {"inequalities": [{"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}],
        "box": [[-1.5, 1.5], [-1.5, 1.5]]}
OFFSET_ELLIPSE = {"inequalities": [{"0,0": 1.0, "1,0": 1.0, "2,0": -1.0,
                                    "0,2": -4.0}],
                  "box": [[-1.0, 2.0], [-1.0, 1.0]]}


def philox(seed):
    return np.random.Generator(np.random.Philox(int(seed) % (1 << 63)))


def reorder(points, seed):
    """The rows of `points` in a seeded order; unchanged at DEFAULT_SEED."""
    if int(seed) == DEFAULT_SEED:
        return points
    return points[philox(seed).permutation(len(points))]


def symmetric_cloud(seed, n, pairs, spread=1.5):
    """Cloud closed under x -> -x; A = N + spread * I as in the test suite."""
    rng = philox(seed)
    A = rng.normal(size=(n, n)) + spread * np.eye(n)
    half = rng.normal(size=(pairs, n)) @ A
    return np.concatenate([half, -half])


def star_value(u):
    """x^2 y^2 + 0.1 (x^4 + y^4), the quartic star of acceptance criterion 7."""
    x, y = u[..., 0], u[..., 1]
    return x * x * y * y + 0.1 * (x ** 4 + y ** 4)


def star_points():
    """Boundary samples of {star <= 1} at uniform angles."""
    theta = 2.0 * math.pi * np.arange(STAR_POINTS) / STAR_POINTS
    units = np.column_stack([np.cos(theta), np.sin(theta)])
    return units * (star_value(units) ** -0.25)[:, None]


def star_area():
    """Area of {star <= 1}: (1/2) * integral of star(u(theta))^(-1/2)."""
    from scipy.integrate import quad

    def integrand(t):
        return 0.5 * star_value(np.array([math.cos(t), math.sin(t)])) ** -0.5

    value, _ = quad(integrand, 0.0, 2.0 * math.pi, limit=200,
                    epsabs=0.0, epsrel=1e-12)
    return value


def _write_csv(path, points):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                            for row in points))


def _write_json(path, payload):
    path.write_text(json.dumps(payload))


def _job(name, input_file, flags, native=True, reference=None):
    """One CLI invocation.  `reference` is (volume, relative tolerance)."""
    return {"name": name, "input": input_file.name, "flags": list(flags),
            "native": native, "reference": reference}


def _planar(seed, out):
    star = out / "star.csv"
    _write_csv(star, reorder(star_points(), seed))
    cloud = out / "cloud2.csv"
    _write_csv(cloud, reorder(symmetric_cloud(2, 2, 100), seed))
    return [
        _job("star_d2", star, ["--degree", "2"]),
        _job("star_d4", star, ["--degree", "4"], reference=[star_area(), 1e-5]),
        _job("star_d6", star, ["--degree", "6"]),
        _job("cloud_d2", cloud, ["--degree", "2"]),
        _job("cloud_d8", cloud, ["--degree", "8"]),
    ]


def _spatial(seed, out):
    c3 = out / "cloud3.csv"
    _write_csv(c3, reorder(symmetric_cloud(3, 3, 30), seed))
    c4 = out / "cloud4.csv"
    _write_csv(c4, reorder(symmetric_cloud(5, 4, 20), seed))
    return [
        _job("n3_d2", c3, ["--degree", "2"]),
        _job("n3_d4", c3, ["--degree", "4"]),
        _job("n4_d2", c4, ["--degree", "2"]),
        _job("n4_d4", c4, ["--degree", "4"]),
    ]


def _region(seed, out):
    disk = out / "disk.json"
    _write_json(disk, {"semialgebraic": DISK})
    return [_job("disk", disk, ["--budget", "2000", "--contours", "360"],
                 native=False, reference=[math.pi, 1e-3])]


def _centered(seed, out):
    crit8 = out / "crit8.csv"
    base = philox(21).normal(size=(10, 2)) + np.array([0.7, -0.3])
    _write_csv(crit8, reorder(base, seed))
    offset = out / "offset12.csv"
    cloud = philox(40).normal(size=(12, 2)) + np.array([1.0, 0.5])
    _write_csv(offset, reorder(cloud, seed))
    ellipse = out / "ellipse.json"
    _write_json(ellipse, {"semialgebraic": OFFSET_ELLIPSE})
    return [
        _job("ctr_crit8", crit8, ["--degree", "2", "--mode", "p"]),
        _job("ctr_d4", offset, ["--degree", "4", "--mode", "p"]),
        _job("ctr_ellipse", ellipse, ["--degree", "2", "--mode", "p",
                                      "--budget", "300"], native=False),
    ]


_BUILDERS = {"planar": _planar, "spatial": _spatial, "region": _region,
             "centered": _centered}
WORKLOADS = tuple(_BUILDERS)


def build(workload, seed, out):
    """Write the inputs of `workload` for `seed` into directory `out` and
    return its job list (dicts that are JSON-serialisable)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, out)
