"""The four benchmark workloads.

Each workload builds its models once (`setup`), draws the inputs of every
op from the run seed (`inputs`), runs one op through dynlab's public
functions (`op`) and checks the op's output (`check`). Checks are computed
by the benchmark itself or test a property the method must have; none
compares against stored output. A check returns a list of problems, empty
when the output is correct.

Ops come in rounds of `ROUND` ops of similar size, and a run attempts a
fixed number of whole rounds, so the share of failed ops is the same in
every run whatever the seed.
"""

from __future__ import annotations

import math

import numpy as np

# Layer functions are called through the `dynlab` namespace, which the
# traced run wraps; a name bound here by `from dynlab import f` would not be.
import dynlab
import dynlab.cli
from dynlab import Box, HorseshoeBase, Interval, StateSpace
from dynlab.experiments import validate_params
from dynlab.reports import comparable_json, reachset_lines

# ---------------------------------------------------------------------------
# orbit-coverage: the criterion-9 conjugate-twist pack on the 2-torus
# ---------------------------------------------------------------------------


class OrbitCoverage:
    """Each op explores four seed points at coarse eps 1/16 (fine 1/64)."""

    name = "orbit-coverage"
    ROUND = 1
    OPS_PER_S = 2.0  # ops per second on the reference machine in its usual, slower phase
    SEEDS_PER_OP = 4
    EPS = 1 / 16
    MIN_COVERAGE = 0.99
    REPLAYS = 24  # witness words replayed per op, from one of its seeds

    def __init__(self, eps: float = EPS, seeds_per_op: int = SEEDS_PER_OP):
        self.eps = eps
        self.seeds_per_op = seeds_per_op

    def setup(self):
        t2 = dynlab.torus(2)
        twist = dynlab.twist_map(lambda I: I, lambda I: np.ones_like(I), space=t2, name="twist")
        self.pack = dynlab.minimal_generator_pack(twist, "three", seed=11)
        self.ifs = dynlab.IFS(self.pack, Box(t2, [0, 0], [1, 1]))

    def inputs(self, rng: np.random.Generator, n_ops: int) -> list:
        return [
            {
                # one coarse cell away from the seam of the unit square: an
                # exploration started next to it can end after a few visits
                # (see CHANGES.md, FOUND)
                "seeds": rng.uniform(self.eps, 1 - self.eps, (self.seeds_per_op, 2)),
                "replay_seed": int(rng.integers(self.seeds_per_op)),
                "replay_rng": int(rng.integers(2**31)),
            }
            for _ in range(n_ops)
        ]

    def op(self, inp):
        return dynlab.minimality_experiment(self.ifs, inp["seeds"], eps=self.eps)

    def extract(self, inp, out) -> dict:
        """Plain data the check reads: every seed's representatives, and the
        reach-set lines (cell, representative, witness word) of one seed."""
        reaches = out["reaches"]
        j = inp["replay_seed"]
        return {
            "truncated": [bool(out["truncated"])] + [bool(r.truncated) for r in reaches],
            "points": [np.asarray(r.points(), dtype=float) for r in reaches],
            "fine_eps": float(reaches[j].eps),
            "lines": reachset_lines(reaches[j]),
        }

    def check(self, inp, data) -> list[str]:
        problems = []
        if any(data["truncated"]):
            problems.append("an exploration was truncated")
        if len(data["points"]) != len(inp["seeds"]):
            return problems + ["one reach set per seed expected"]
        n_coarse = round(1.0 / self.eps)
        for seed, reps in zip(inp["seeds"], data["points"]):
            cells = np.mod(np.floor(np.mod(reps, 1.0) / self.eps).astype(np.int64), n_coarse)
            coverage = len(set(map(tuple, cells.tolist()))) / n_coarse**2
            if coverage < self.MIN_COVERAGE:
                problems.append(f"seed {seed}: coarse coverage {coverage:.4f} < {self.MIN_COVERAGE}")
        seed = inp["seeds"][inp["replay_seed"]]
        lines = data["lines"]
        rng = np.random.default_rng(inp["replay_rng"])
        picks = rng.choice(len(lines), size=min(self.REPLAYS, len(lines)), replace=False)
        for rep, word in map(parse_reach_line, (lines[i] for i in picks)):
            d = torus_distance(replay_on_torus(self.pack, word, seed), rep)
            if not d <= data["fine_eps"] / 2:
                problems.append(f"seed {seed}: witness {word} lands {d:.3g} from its representative")
        return problems


def parse_reach_line(line: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Representative and witness word of a `cell coords word` line."""
    _, coords, word = line.split(" ")
    rep = np.array([float(v) for v in coords.split(",")])
    return rep, tuple(int(s) for s in word.split(",")) if word else ()


def replay_on_torus(pack, word, seed) -> np.ndarray:
    """First symbol first, wrapping both coordinates to [0, 1)."""
    p = np.mod(np.asarray(seed, dtype=float), 1.0)
    for s in word:
        p = np.mod(pack[s].fn(p), 1.0)
    return p


def torus_distance(a, b) -> float:
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d)))


# ---------------------------------------------------------------------------
# perturbed-covering: the criterion-4 construction in two dimensions
# ---------------------------------------------------------------------------


class PerturbedCovering:
    """Each op perturbs the translated-contraction system (eta = 0.05 lam),
    certifies its covering, solves its fixed points and finds one density
    word."""

    name = "perturbed-covering"
    ROUND = 1
    OPS_PER_S = 2.5
    LAM = 0.5
    DIM = 2
    TARGET_RADIUS = 1e-3
    MAX_STEPS = 80
    SAMPLES_PER_CELL = 4

    def __init__(self, lam: float = LAM, dim: int = DIM):
        self.lam = lam
        self.dim = dim

    def setup(self):
        self.space = StateSpace(tuple(Interval(-1, 1) for _ in range(self.dim)))
        phi = dynlab.affine_map(self.space, self.lam * np.eye(self.dim), np.zeros(self.dim), name="phi")
        self.eps = 0.9 * (1 - self.lam) / (1 + self.lam)
        self.ifs = dynlab.construct_translations(phi, self.lam, self.eps)
        self.grid_step = self.eps * self.lam / 2

    def inputs(self, rng: np.random.Generator, n_ops: int) -> list:
        return [
            {
                "perturb_seed": int(rng.integers(2**31)),
                "center": rng.uniform(-0.8 * self.eps, 0.8 * self.eps, self.dim),
                "check_rng": int(rng.integers(2**31)),
            }
            for _ in range(n_ops)
        ]

    def op(self, inp):
        pert = dynlab.perturb_ifs(self.ifs, 0.05 * self.lam, seed=inp["perturb_seed"])
        cert = dynlab.verify_covering(pert, self.ifs.domain_region, self.grid_step)
        fixed = pert.compute_fixed_points()
        target = Box.ball(self.space, inp["center"], self.TARGET_RADIUS)
        word = dynlab.certify_density(pert, np.zeros(self.dim), target, self.MAX_STEPS, cert)
        return pert, cert, fixed, word

    def extract(self, inp, out) -> dict:
        pert, cert, fixed, word = out
        return {
            "generators": pert.generators,
            "region_lo": cert.region.lo.copy(),
            "region_hi": cert.region.hi.copy(),
            "axis_counts": np.asarray(cert.axis_counts).copy(),
            "assignment": np.asarray(cert.assignment).copy(),
            "fixed_points": [np.asarray(r.point, dtype=float) for r in fixed],
            "word": tuple(int(s) for s in word),
            "center": np.asarray(inp["center"], dtype=float).copy(),
        }

    def word_bound(self) -> int:
        """Twice the analytic pullback-step bound at lip 1.05 lam."""
        steps = math.ceil(
            math.log(2 * self.eps / self.TARGET_RADIUS) / math.log(1 / (1.05 * self.lam))
        )
        return 2 * (steps + 1)

    def check(self, inp, data) -> list[str]:
        problems = []
        gens = data["generators"]
        lo, hi, counts = data["region_lo"], data["region_hi"], data["axis_counts"]
        assignment = data["assignment"]
        if len(assignment) != int(np.prod(counts)) or np.any(assignment < 0):
            return ["assignment does not give every cell a generator"]
        # sampled points of every cell pull back into the region through the
        # assigned generator and map back onto themselves
        rng = np.random.default_rng(inp["check_rng"])
        steps = (hi - lo) / counts
        idx = np.stack(np.unravel_index(np.arange(len(assignment)), tuple(counts)), axis=-1)
        for gi in np.unique(assignment):
            cells = idx[assignment == gi]
            u = rng.random((len(cells), self.SAMPLES_PER_CELL, self.dim))
            pts = (lo + (cells[:, None, :] + u) * steps).reshape(-1, self.dim)
            pre = gens[gi].invert(pts)
            if np.any(pre < lo) or np.any(pre > hi):
                problems.append(f"generator {gi}: a preimage leaves the region")
            back = gens[gi].fn(pre)
            err = float(np.max(np.abs(back - pts)))
            if not err <= 1e-9:
                problems.append(f"generator {gi}: preimage maps back {err:.2e} off")
        for gi, z in enumerate(data["fixed_points"]):
            res = float(np.max(np.abs(gens[gi].fn(z) - z)))
            if not res <= 1e-9:
                problems.append(f"generator {gi}: fixed point residual {res:.2e}")
        p = np.zeros(self.dim)
        for s in data["word"]:
            p = gens[s].fn(p)
        d = float(np.max(np.abs(p - data["center"])))
        if not d < self.TARGET_RADIUS:
            problems.append(f"density word lands {d:.3g} from the target center")
        if len(data["word"]) > self.word_bound():
            problems.append(f"density word of length {len(data['word'])} exceeds {self.word_bound()}")
        return problems


# ---------------------------------------------------------------------------
# perturbed-strips: the robustness-sweep engine on the symplectic blender
# ---------------------------------------------------------------------------


class PerturbedStrips:
    """Each op verifies one s- or u-strip under a map perturbed by eta in
    {0, 0.15, 0.3} x covering margin, the robustness-sweep grid."""

    name = "perturbed-strips"
    ETA_FACTORS = (0.0, 0.15, 0.3)
    KINDS = ("s", "u")
    ROUND = len(ETA_FACTORS) * len(KINDS)
    OPS_PER_S = 4.2
    DEPTH = 30
    EPS = 0.02  # verification tolerance, as in the robustness-sweep preset

    def setup(self):
        base = HorseshoeBase.build(3, mu_ss=0.1, mu_uu=10.0)
        wide = StateSpace((Interval(-4.0, 5.0),))
        cs = [dynlab.affine_map(wide, [[0.5]], [c], name=f"cs{i}") for i, c in enumerate((0.0, 0.25, 0.5))]
        D = Box(wide, [0.0], [1.0])
        self.model = dynlab.build_geometric_model(
            base, cs, D, fibers_cu=[m.inverse for m in cs], region_cu=D, symplectic=True
        )
        self.covrep = dynlab.verify_covering_geometric(self.model, grid_step=1 / 16)
        self.margin = self.covrep["fiber_cert"].margin
        self.F = self.model.as_map()

    def inputs(self, rng: np.random.Generator, n_ops: int) -> list:
        out = []
        for i in range(n_ops):
            j = i % self.ROUND
            out.append(
                {
                    "kind": self.KINDS[j % len(self.KINDS)],
                    "eta": self.ETA_FACTORS[j // len(self.KINDS)] * self.margin,
                    "strip_seed": int(rng.integers(2**31)),
                    "perturb_seed": int(rng.integers(2**31)),
                }
            )
        return out

    def op(self, inp):
        strip = dynlab.sample_strips(self.model, inp["kind"], 1, 1 / 32, inp["strip_seed"])[0]
        # eta = 0 hands back the model map itself, as the robustness sweep does
        G = dynlab.perturb_map(self.F, inp["eta"], inp["perturb_seed"])
        res = dynlab.verify_strip_intersection(
            self.model, strip, self.covrep["fiber_cert"], self.DEPTH, eps=self.EPS, G=G,
            fiber_cert_cu=self.covrep["fiber_cert_cu"],
        )
        return strip, G, res

    def extract(self, inp, out) -> dict:
        strip, G, res = out
        return {
            "strip": strip,
            "G": G,
            "hit": bool(res["hit"]),
            "reason": res.get("reason"),
            "start": None if res.get("start") is None else np.array(res["start"], dtype=float),
            "word": None if res.get("witness_word") is None else tuple(res["witness_word"]),
        }

    def in_slab(self, u: float, sym: int) -> bool:
        lo = self.model.base.slab_lo[sym]
        return lo - 1e-12 <= u <= lo + self.model.base.height + 1e-12

    def check(self, inp, data) -> list[str]:
        if not data["hit"]:
            return [f"{inp['kind']}-strip missed: {data['reason']}"]
        strip, G, start, word = data["strip"], data["G"], data["start"], data["word"]
        ny = self.model.ny
        p = start.copy()
        for t, sym in enumerate(word):
            if not self.in_slab(p[1], sym):
                return [f"replay left rectangle {sym} at step {t}"]
            p = G.raw(p)
        ball = strip.fiber_ball
        problems = []
        if strip.kind == "s":
            if not abs(p[1] - strip.level) <= self.EPS:
                problems.append(f"endpoint u {p[1]:.6g} is off the strip leaf {strip.level:.6g}")
            y = p[2 : 2 + ny]
            if np.any(y < ball.lo - self.EPS) or np.any(y > ball.hi + self.EPS):
                problems.append("endpoint fiber is outside the strip's ball")
        else:
            if start[0] != strip.level:
                problems.append("start is off the strip's stable level")
            z0 = start[2 + ny :]
            if np.any(z0 < ball.lo - 1e-12) or np.any(z0 > ball.hi + 1e-12):
                problems.append("start fiber is outside the strip's ball")
            fixed = continued_fixed_point(G, self.model.fixed_point())
            if not self.in_slab(p[1], self.model.anchor):
                problems.append("endpoint is outside the anchor rectangle")
            z_err = float(np.max(np.abs(p[2 + ny :] - fixed[2 + ny :])))
            if not z_err <= self.EPS:
                problems.append(f"endpoint cu fiber is {z_err:.3g} from the fixed point")
        return problems


def continued_fixed_point(G, guess, tol: float = 1e-12) -> np.ndarray:
    """Fixed point of G near the guess: Newton on G(x) - x with a
    central-difference Jacobian, independent of dynlab's own continuation."""
    x = np.asarray(guess, dtype=float).copy()
    n, h = len(x), 1e-7
    for _ in range(50):
        r = G.raw(x) - x
        if np.max(np.abs(r)) < tol:
            return x
        J = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            J[:, j] = (G.raw(x + e) - G.raw(x - e)) / (2 * h)
        x = x - np.linalg.solve(J - np.eye(n), r)
    return x


# ---------------------------------------------------------------------------
# preset-suite: one pass over the nine sub-second presets
# ---------------------------------------------------------------------------


class PresetSuite:
    """Each op runs the nine sub-second presets at their default configs
    through `run_experiment`, serializes every report, and evaluates the
    F_mu family's blender bump translation on a grid of the torus: no preset
    at its default config reaches the integrator of the bump's collar."""

    name = "preset-suite"
    ROUND = 1
    OPS_PER_S = 0.75
    PRESETS = (
        "ifs-density",
        "ifs-construct",
        "skew-unstable-equivalence",
        "symbolic-blender",
        "geometric-blender",
        "double-blender",
        "f-mu-minimality",
        "chain-shadow",
        "recurrence-fraction",
    )
    BUMP_SHIFT = np.array([0.05, 0.0])  # eps(mu = 1) = 1/20 along the first direction
    BUMP_GRID = 12

    def __init__(self, presets=PRESETS):
        self.presets = tuple(presets)

    def setup(self):
        self.params = {name: validate_params(name, {}) for name in self.presets}
        self.first: dict[str, str] = {}  # comparable report of the first pass
        t2 = dynlab.torus(2)
        self.ball = Box.ball(t2, [0.5, 0.5], 0.10)
        self.support = Box(t2, self.ball.lo - 0.4, self.ball.hi + 0.4)
        axis = (np.arange(self.BUMP_GRID) + 0.5) / self.BUMP_GRID
        self.grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)

    def inputs(self, rng: np.random.Generator, n_ops: int) -> list:
        preset_seed = int(rng.integers(2**31))  # one seed per run: passes must agree
        return [{"preset_seed": preset_seed} for _ in range(n_ops)]

    def op(self, inp):
        reports = []
        for name in self.presets:
            report = dynlab.cli.run_experiment(name, inp["preset_seed"], self.params[name])
            reports.append((name, report, report.to_json()))
        bump = dynlab.hamiltonian_bump_translation(
            self.BUMP_SHIFT[:1], self.BUMP_SHIFT[1:], self.ball, self.support
        )
        return reports, bump, bump.raw(self.grid)

    def extract(self, inp, out) -> dict:
        reports, bump, images = out
        inside = self.ball.contains(self.grid)
        return {
            "reports": {
                name: {
                    "passed": report.passed,
                    "failed_checks": [c["name"] for c in report.checks if not c.get("pass")],
                    "comparable": comparable_json(text),
                    "checks": {c["name"]: c for c in report.checks},
                }
                for name, report, text in reports
            },
            "ball_shift": images[inside] - self.grid[inside],
            "round_trip": float(np.max(np.abs(bump.inverse.raw(images) - self.grid))),
        }

    def check(self, inp, data) -> list[str]:
        problems = []
        for name, rep in data["reports"].items():
            if not rep["passed"]:
                problems.append(f"{name}: failed checks {rep['failed_checks']}")
            first = self.first.setdefault(name, rep["comparable"])
            if rep["comparable"] != first:
                problems.append(f"{name}: report differs from the run's first pass")
        control = data["reports"].get("recurrence-fraction", {}).get("checks", {}).get(
            "translation-control"
        )
        if control is not None and control.get("fraction") != 0.0:
            problems.append(f"translation control fraction {control.get('fraction')} != 0")
        # the bump translates its ball exactly and its inverse undoes it
        shift = data["ball_shift"]
        shift_err = float(np.max(np.abs(shift - self.BUMP_SHIFT))) if len(shift) else np.inf
        if not shift_err <= 1e-12:
            problems.append(f"bump moves its ball {shift_err:.2e} off the translation")
        if not data["round_trip"] <= 1e-9:
            problems.append(f"bump inverse misses by {data['round_trip']:.2e}")
        return problems


WORKLOADS = {w.name: w for w in (OrbitCoverage, PerturbedCovering, PerturbedStrips, PresetSuite)}


def n_ops_for(workload, seconds: float) -> int:
    """Whole rounds of ops sized to take about `seconds` on the reference
    machine; the count depends only on the run length, never on timing."""
    rounds = max(1, round(seconds * workload.OPS_PER_S / workload.ROUND))
    return rounds * workload.ROUND


def source_lines(src_dir) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src_dir.rglob("*.py")))

