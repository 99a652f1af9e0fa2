"""Seeded smooth perturbations and robustness sweeps.

perturb_map realizes the "any map C^1-close" quantifier for testing,
deterministically from the seed. A non-symplectic map gains a
low-frequency trigonometric field with value and derivative both bounded
by eta. A symplectic map is followed by a pair of shears instead, which
preserves the form exactly. Each shear is bounded by eta/2 in value and
derivative on its own, so each has ||DS||_inf <= 1 + eta/2 and the
composition's lam and lip are the map's scaled by (1 + eta/2)^2.
"""

from __future__ import annotations

from dataclasses import replace
from math import pi

import numpy as np

from .ifs import IFS, GeneratorBank
from .maps import SmoothMap, pair_shear
from .spaces import Circle, StateSpace


def _trig_field(space: StateSpace, eta: float, seeds):
    """Parameters (freqs, phases, amps), stacked one row per seed, of smooth
    fields B(x) = amps * sin(2 pi (x freqs^T + phases)) with sup|B| <= eta
    and sup|DB| <= eta componentwise. Each field draws from its own
    default_rng(seed) its phases, then its n x n frequency integers, in the
    row-major order of n^2 scalar draws."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    phases = np.array([rng.uniform(0.0, 1.0, space.dim) for rng in rngs])
    ints = np.array([rng.integers(1, 3, size=(space.dim, space.dim)) for rng in rngs])
    scale = np.array([1.0 if isinstance(f, Circle) else 0.5 for f in space.factors])
    freqs = 1.0 / space.extents() * ints * scale
    amps = np.minimum(1.0, 1.0 / (2 * pi * np.abs(freqs).sum(axis=-1)))
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

    The shears move a point by at most eta and each has ||DS||_inf and
    ||DS^-1||_inf at most 1 + eta/2, so the declared lip is G's times
    (1 + eta/2)^2 and lam is G's over it."""
    if eta == 0.0:
        return G
    space = G.domain

    if G.symplectic:
        if space.dim % 2 != 0:
            raise ValueError("symplectic perturbation needs paired coordinates")
        s1, s2 = _shear_pair(space, eta, np.random.default_rng(seed))
        stretch = (1.0 + eta / 2.0) ** 2

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
            lam=None if G.lam is None else G.lam / stretch,
            lip=None if G.lip is None else G.lip * stretch,
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

    field = _trig_field(space, eta, [seed])
    bank = GeneratorBank(G, np.full((1, space.dim), -0.0), (f"{G.name}~{eta}",), eta, *field)
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
    freqs, phases, amps = _trig_field(ifs.space, eta, [seed + 1000 * i for i in range(ifs.k)])
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
