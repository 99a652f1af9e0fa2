"""Seeded smooth perturbations and robustness sweeps.

perturb_map realizes the "any map C^1-close" quantifier for testing,
deterministically from the seed. A non-symplectic map gains a
low-frequency trigonometric field with value and derivative both bounded
by eta. A symplectic map is followed by a pair of shears instead, which
preserves the form exactly. Each shear is bounded by eta/2 in value and
derivative on its own, and nothing scales them against the map: the
composition moves points by at most eta, but its derivative differs from
the map's by (DS2 DS1 - I) DG, which can reach eta ||DG||.
"""

from __future__ import annotations

from dataclasses import replace
from math import pi

import numpy as np

from .ifs import IFS, GeneratorBank
from .maps import SmoothMap, pair_shear
from .spaces import Circle, StateSpace


def _trig_field(space: StateSpace, eta: float, rng: np.random.Generator):
    """Parameters (freqs, phases, amps) of a smooth field
    B(x) = amps * sin(2 pi (x freqs^T + phases)) with sup|B| <= eta and
    sup|DB| <= eta componentwise. The n x n frequency integers are one draw,
    after the phases, in the row-major order of n^2 scalar draws."""
    phases = rng.uniform(0.0, 1.0, space.dim)
    ints = rng.integers(1, 3, size=(space.dim, space.dim))
    scale = np.array([1.0 if isinstance(f, Circle) else 0.5 for f in space.factors])
    freqs = 1.0 / space.extents() * ints * scale
    amps = np.minimum(1.0, 1.0 / (2 * pi * np.abs(freqs).sum(axis=1)))
    return freqs, phases, amps * eta


def _shear_pair(space: StateSpace, eta: float, rng: np.random.Generator):
    """Two pair shears, the b's by the a's and then the a's by the b's:
    x[dst] += amp sin(2 pi (x[src] freqs + phases)), each moving a point by
    at most eta/2 with a derivative of at most eta/2. Each shear draws its
    frequencies (one integer in {1, 2} per coordinate, over the extent),
    then its phases."""
    dim = space.dim
    extents = space.extents()

    def make(src, dst, name):
        freqs = np.array([int(rng.integers(1, 3)) / extents[i] for i in range(dim)])
        amp = min(1.0, 1.0 / (2 * pi * np.max(freqs))) * (eta / 2.0)
        freqs, phases = freqs[src], rng.uniform(0.0, 1.0, dim)[src]
        return pair_shear(
            space, src, dst,
            lambda xs: amp * np.sin(2 * pi * (xs * freqs + phases)),
            lambda xs: amp * 2 * pi * freqs * np.cos(2 * pi * (xs * freqs + phases)),
            name,
        )

    a, b = slice(0, None, 2), slice(1, None, 2)
    return make(a, b, "shear-b"), make(b, a, "shear-a")


def perturb_map(G: SmoothMap, eta: float, seed: int) -> SmoothMap:
    """Seeded smooth perturbation of G, deterministic in the seed: for a
    symplectic G, G followed by a pair of shears (see _shear_pair), which
    preserves the form exactly; else the view of a one-row GeneratorBank of
    G with a trig field of value and derivative at most eta.

    The shears bound their own sizes, not the composition's: it moves a
    point by at most eta, but its derivative differs from DG by up to about
    eta ||DG||. The declared lam and lip are G's moved by eta."""
    if eta == 0.0:
        return G
    rng = np.random.default_rng(seed)
    space = G.domain

    if G.symplectic:
        if space.dim % 2 != 0:
            raise ValueError("symplectic perturbation needs paired coordinates")
        s1, s2 = _shear_pair(space, eta, rng)

        def fn(x):
            return s2.fn(s1.fn(G.fn(np.asarray(x, dtype=float))))

        def jac(x):
            x = np.asarray(x, dtype=float)
            JG = G.jacobian(x)
            y = G.fn(x)
            return s2.jac(s1.fn(y)) @ s1.jac(y) @ JG

        out = SmoothMap(
            domain=space,
            codomain=G.codomain,
            fn=fn,
            jac=jac,
            name=f"{G.name}~{eta}",
            symplectic=True,
            lam=None if G.lam is None else max(G.lam - eta, 1e-12),
            lip=None if G.lip is None else G.lip + eta,
        )
        if G.inverse is not None:
            inv = SmoothMap(
                domain=G.codomain,
                codomain=space,
                fn=lambda y: G.inverse.fn(s1.inverse.fn(s2.inverse.fn(np.asarray(y, dtype=float)))),
                name=f"{G.name}~{eta}^-1",
                symplectic=True,
                inverse=out,
            )
            out.inverse = inv
        return out

    freqs, phases, amps = _trig_field(space, eta, rng)
    bank = GeneratorBank(
        G, np.full((1, space.dim), -0.0), (f"{G.name}~{eta}",), eta, freqs[None], phases[None], amps[None]
    )
    return bank.views()[0]


def perturb_ifs(ifs: IFS, eta: float, seed: int) -> IFS:
    """Perturb generator i by perturb_map with seed + 1000 i. A banked
    family not yet perturbed stacks the same fields into its bank and
    returns the bank's views."""
    bank = ifs.bank
    if eta == 0.0:  # the generators are unchanged
        return IFS(list(ifs.generators), ifs.domain_region, bank=bank)
    if bank is None or bank.freqs is not None:
        gens = [perturb_map(g, eta, seed + 1000 * i) for i, g in enumerate(ifs.generators)]
        return IFS(gens, ifs.domain_region)
    fields = [_trig_field(ifs.space, eta, np.random.default_rng(seed + 1000 * i)) for i in range(ifs.k)]
    freqs, phases, amps = map(np.stack, zip(*fields))
    names = tuple(f"{name}~{eta}" for name in bank.names)
    bank = replace(bank, names=names, eta=eta, freqs=freqs, phases=phases, amps=amps)
    return IFS(bank.views(), ifs.domain_region, bank=bank)


def robustness_sweep(
    model,
    verifier,
    eta_list,
    trials: int,
    seed: int,
) -> list[dict]:
    """Re-run a named verifier across perturbation sizes and trials.

    verifier(model, G) -> bool, where G is perturb_map of the model's map
    (``model.as_map()``). Returns one row per eta with the observed pass
    rate.
    """
    base_map = model.as_map()
    rows = []
    for eta in eta_list:
        passed = 0
        for t in range(trials):
            G = perturb_map(base_map, eta, seed + 7919 * t)
            if verifier(model, G):
                passed += 1
        rows.append({"eta": float(eta), "trials": trials, "pass_rate": passed / trials})
    return rows
