"""Seeded workload generator for the whichway benchmark.

A workload is one *cycle* of items that the closed loop repeats.  An item is
a ``whichway`` argument list, the config text it reads (if any) and the values
its output checks expect.  The same (workload, seed) always yields the same
cycle.  Only ``math`` and ``random`` are used, so the expected values share no
code with the program under test.

Argument lists hold two placeholders that the runner fills in per attempt:
``{config}`` (the item's config file) and ``{out}`` (a fresh output path).
"""

from __future__ import annotations

import math
import random

ANALYTIC_MODELS = ("single_slit_a", "empty_wave_a", "empty_wave_b",
                   "empty_wave_sum", "standard_two_slit", "standard_focused_a",
                   "pure_fringe", "general_two_slit")
MZI_MODES = ("open", "blocked", "marker", "knockout", "asymmetric")
BESSEL_J0_FIRST_ZERO = 2.404825557695773

# The README's HeNe plate.  The oracle workloads keep it fixed so that every
# seed does the same amount of quadrature work; seeds vary beams and angles.
HENE = {"wavelength": 632.8e-9, "slit_width": 2e-6,
        "slit_separation": 12.6e-6, "screen_distance": 0.1}

# Bessel radial wavenumbers whose outer rings leave slit B nearly dark on the
# HeNe plate, so a focus_a oracle run is a genuine one-slit illumination
# (P^2 + V^2 within [1, 1.01]).  Other values light slit B through the rings
# and make the nominal P = 1 meaningless, which is physics, not a defect.
BESSEL_FOCUS_KR = (1.2e6, 3e6)

def half_fringe_angle(geom: dict) -> float:
    return math.asin(geom["wavelength"] / (2.0 * geom["slit_separation"]))


def default_half_width(geom: dict) -> float:
    """Half-width of the CLI's shared grid when the config gives none."""
    return 0.5 * geom["slit_separation"] + 1.2 * geom["wavelength"] \
        * geom["screen_distance"] / geom["slit_width"]


def config_text(geom: dict, **keys) -> str:
    """Flat ``key = value`` text; floats use repr so they parse back exactly."""
    lines = [f"{k} = {v!r}" for k, v in geom.items()]
    for key, value in keys.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def oracle_keys(rng: random.Random, kind: str) -> dict:
    """Config keys of an oracle run with a beam of ``kind``: a plane wave
    covers both slits and is compared with standard_two_slit (acceptance
    C3); a Gaussian or Bessel beam is focused on slit A and compared with
    empty_wave_a (acceptance C5)."""
    if kind == "plane":
        return {"beam": "plane", "alignment": "cover_both",
                "models": "standard_two_slit", "oracle": True}
    if kind == "gaussian":
        beam = {"beam": "gaussian", "waist": rng.uniform(2e-6, 4e-6)}
    else:
        beam = {"beam": "bessel",
                "radial_wavenumber": rng.choice(BESSEL_FOCUS_KR)}
    return {**beam, "alignment": "focus_a", "models": "empty_wave_a",
            "oracle": True}


def _simulate(item_id: str, geom: dict, keys: dict, grid: tuple,
              out_dir: bool) -> dict:
    argv = ["simulate", "--config", "{config}"]
    if out_dir:
        argv += ["--out-dir", "{out}"]
    models = [m.strip() for m in keys["models"].split(",")]
    return {
        "id": item_id,
        "argv": argv,
        "config": config_text(geom, **keys),
        "expect": {
            "kind": "simulate",
            "beam": keys.get("beam", "plane"),
            "alignment": keys.get("alignment", "cover_both"),
            "models": models,
            "oracle": bool(keys.get("oracle", False)),
            "washout": "washout_theta" in keys,
            "grid": list(grid),
            "out_dir": out_dir,
        },
    }


def oracle_washout(rng: random.Random) -> list[dict]:
    """Oracle washouts at the default 101 tilts and 4001 points: one per beam,
    then a theta sweep (0 and one washout spread) of a seeded beam.  Each of
    the four items costs about one washout, so a run repeats every item."""
    phi = half_fringe_angle(HENE)
    thetas = (phi / 10.0, phi / 2.0, phi)
    half = default_half_width(HENE)
    grid = (-half, half, 4001)
    items = []
    for n, kind in enumerate(("plane", "gaussian", "bessel")):
        keys = oracle_keys(rng, kind)
        keys["washout_theta"] = f"{rng.choice(thetas)!r}rad"
        items.append(_simulate(f"washout{n}", HENE, keys, grid, out_dir=True))

    kind = rng.choice(("plane", "gaussian", "bessel"))
    keys = oracle_keys(rng, kind)
    values = [0.0, rng.choice(thetas)]
    items.append({
        "id": "sweep",
        "argv": ["sweep", "--config", "{config}", "--param", "theta",
                 "--values", ",".join(f"{v!r}rad" for v in values),
                 "--out", "{out}"],
        "config": config_text(HENE, **keys),
        "expect": {"kind": "sweep", "beam": keys["beam"],
                   "alignment": keys["alignment"], "values": values},
    })
    return items


def random_geometry(rng: random.Random) -> dict:
    """A far-field plate whose default grid resolves the fringes."""
    slit_width = rng.uniform(1e-6, 5e-6)
    return {"wavelength": rng.uniform(400e-9, 800e-9),
            "slit_width": slit_width,
            "slit_separation": slit_width * rng.uniform(3.0, 10.0),
            "screen_distance": rng.uniform(0.05, 0.5)}


def analytic_batch(rng: random.Random) -> list[dict]:
    """Ten groups of four all-model simulations with CSV output, one
    feasibility check and one interferometer call (each mode twice)."""
    modes = MZI_MODES * 2
    # Grid sizes evenly spread over 1001..7826 points in seeded order: every
    # cycle does the same work, and item times form a continuum, so the
    # median item does not sit on a jump between two item sizes.
    grid_points = [1001 + 175 * k for k in range(4 * len(modes))]
    rng.shuffle(grid_points)
    items = []
    for group, mode in enumerate(modes):
        for n in range(4):
            geom = random_geometry(rng)
            points = grid_points.pop()
            # A spot comparable to the slit; its size only feeds the
            # feasibility flags, as no oracle runs here.
            spot = geom["slit_width"] * rng.uniform(0.8, 2.0)
            keys = rng.choice((
                {"beam": "plane"},
                {"beam": "gaussian", "waist": spot,
                 "alignment": rng.choice(("focus_a", "focus_b"))},
                {"beam": "bessel", "alignment": "focus_a",
                 "radial_wavenumber": BESSEL_J0_FIRST_ZERO / spot},
            ))
            keys.update(models=",".join(ANALYTIC_MODELS),
                        alpha=rng.uniform(0.2, 1.0), beta=rng.uniform(0.2, 1.0),
                        normalization=rng.choice(("peak_single_slit",
                                                  "unit_integral")),
                        focusing_angle=rng.uniform(0.0, 0.2)
                        * half_fringe_angle(geom), grid_points=points)
            half = default_half_width(geom)
            items.append(_simulate(f"sim{group}.{n}", geom, keys,
                                   (-half, half, points), out_dir=True))
        checked = items[-1]
        items.append({
            "id": f"check{group}",
            "argv": ["check", "--config", "{config}"],
            "config": checked["config"],
            "expect": {"kind": "check", "geometry": geom},
        })
        a = rng.uniform(0.3, 0.95)
        b = math.sqrt(1.0 - a * a) * rng.uniform(0.3, 1.0)
        items.append({
            "id": f"mzi{group}",
            "argv": ["mzi", "--mode", mode, "--a", repr(a), "--b", repr(b)],
            "config": None,
            "expect": {"kind": "mzi", "mode": mode, "a": a, "b": b},
        })
    return items


WORKLOADS = {
    "oracle_washout": oracle_washout,
    "analytic_batch": analytic_batch,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The item cycle of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
