"""Seeded smooth perturbations and robustness sweeps.

perturb_map realizes the "any map C^1-close" quantifier for testing: it
adds a low-frequency trigonometric field with value and derivative both
bounded by eta, deterministically from the seed. Symplectic inputs are
perturbed by a pair of generating-function shears instead, which preserves
the form exactly; their scale is normalized against the map's sampled
derivative so the composed perturbation still obeys the eta bounds.
"""

from __future__ import annotations

from dataclasses import replace
from math import pi

import numpy as np

from .ifs import IFS, GeneratorBank
from .maps import SmoothMap
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
    """Two exact symplectic shears on paired coordinates, each moving points
    by at most eta/2 with derivative perturbation at most eta/2."""
    dim = space.dim
    half = eta / 2.0
    extents = space.extents()

    def make(shift_odd: bool):
        freqs = np.array(
            [int(rng.integers(1, 3)) / extents[i] for i in range(dim)]
        )
        phases = rng.uniform(0.0, 1.0, dim)
        amp = min(1.0, 1.0 / (2 * pi * np.max(freqs))) * half
        src = slice(0, None, 2) if shift_odd else slice(1, None, 2)
        dst = slice(1, None, 2) if shift_odd else slice(0, None, 2)

        def fn(x):
            x = np.asarray(x, dtype=float).copy()
            s = np.sin(2 * pi * (x[..., src] * freqs[src] + phases[src]))
            x[..., dst] = x[..., dst] + amp * s
            return x

        def fn_inv(x):
            x = np.asarray(x, dtype=float).copy()
            s = np.sin(2 * pi * (x[..., src] * freqs[src] + phases[src]))
            x[..., dst] = x[..., dst] - amp * s
            return x

        def jac(x):
            x = np.asarray(x, dtype=float)
            J = np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim)).copy()
            c = np.cos(2 * pi * (x[..., src] * freqs[src] + phases[src]))
            didx = np.arange(dim)[dst]
            sidx = np.arange(dim)[src]
            for a, b in zip(didx, sidx):
                J[..., a, b] = J[..., a, b] + amp * 2 * pi * freqs[b] * c[..., list(sidx).index(b)]
            return J

        return fn, fn_inv, jac

    return make(True), make(False)


def perturb_map(G: SmoothMap, eta: float, seed: int) -> SmoothMap:
    """Seeded smooth perturbation of G with C^0 and C^1 size at most eta:
    a pair of shears for a symplectic G, else the view of a one-row
    GeneratorBank of G with a trig field."""
    if eta == 0.0:
        return G
    rng = np.random.default_rng(seed)
    space = G.domain

    if G.symplectic:
        if space.dim % 2 != 0:
            raise ValueError("symplectic perturbation needs paired coordinates")
        # normalize against the output scale so the composed difference
        # stays bounded by eta in value and derivative
        (f1, f1i, j1), (f2, f2i, j2) = _shear_pair(space, eta, rng)

        def fn(x):
            return f2(f1(G.fn(np.asarray(x, dtype=float))))

        def jac(x):
            x = np.asarray(x, dtype=float)
            JG = G.jacobian(x)
            y = G.fn(x)
            return j2(f1(y)) @ j1(y) @ JG

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
                fn=lambda y: G.inverse.fn(f1i(f2i(np.asarray(y, dtype=float)))),
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
