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

from .errors import NoConvergence
from .maps import SmoothMap
from .spaces import Circle, StateSpace

_INVERSE_STEPS = 6  # Newton steps of a perturbed inverse, warm-started


def _trig_field(space: StateSpace, eta: float, rng: np.random.Generator):
    """Parameters (freqs, phases, amps) of a smooth field
    B(x) = amps * sin(2 pi (x freqs^T + phases)) with sup|B| <= eta and
    sup|DB| <= eta componentwise."""
    dim = space.dim
    extents = space.extents()
    freqs = np.zeros((dim, dim))
    phases = rng.uniform(0.0, 1.0, dim)
    amps = np.empty(dim)
    for i in range(dim):
        k = np.zeros(dim)
        for j, f in enumerate(space.factors):
            base = 1.0 / extents[j]
            k[j] = base * int(rng.integers(1, 3)) * (1 if isinstance(f, Circle) else 0.5)
        freqs[i] = k
        amps[i] = min(1.0, 1.0 / (2 * pi * np.abs(k).sum()))
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
    """Seeded smooth perturbation of G with C^0 and C^1 size at most eta."""
    return _perturb(G, eta, seed)[0]


def _perturb(G: SmoothMap, eta: float, seed: int):
    """perturb_map, with the trig field's (freqs, phases, amps) alongside, or
    None when no trig field was added (eta 0 or a symplectic G)."""
    if eta == 0.0:
        return G, None
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
        return out, None

    field = _trig_field(space, eta, rng)
    freqs, phases, amps = field

    def fn(x):
        x = np.asarray(x, dtype=float)
        return G.fn(x) + amps * np.sin(2 * pi * (x @ freqs.T + phases))

    def jac(x):
        x = np.asarray(x, dtype=float)
        c = np.cos(2 * pi * (x @ freqs.T + phases))
        return G.jacobian(x) + (amps * c)[..., :, None] * (2 * pi * freqs)

    out = SmoothMap(
        domain=space,
        codomain=G.codomain,
        fn=fn,
        jac=jac,
        name=f"{G.name}~{eta}",
        lam=None if G.lam is None else max(G.lam - eta, 1e-12),
        lip=None if G.lip is None else G.lip + eta,
    )
    if G.inverse is not None:
        base_inv = G.inverse

        def fn_inv(y):
            # warm-started Newton: the unperturbed inverse is eta-close. The
            # whole batch steps until its worst residual is below 1e-13, so a
            # row's bits depend on its batch; the last iterate must verify.
            y = np.asarray(y, dtype=float)
            x = base_inv.fn(y)
            for _ in range(_INVERSE_STEPS):
                r = fn(x) - y
                J = jac(x)
                x = x - np.linalg.solve(J, r[..., None])[..., 0]
                if np.max(np.abs(r)) < 1e-13:
                    return x
            r = float(np.max(np.abs(fn(x) - y)))
            if not r < 1e-13:
                raise NoConvergence(
                    f"{G.name}~{eta}^-1: Newton left residual {r:.2e} after {_INVERSE_STEPS} steps"
                )
            return x

        out.inverse = SmoothMap(
            domain=G.codomain,
            codomain=space,
            fn=fn_inv,
            name=f"{G.name}~{eta}^-1",
            inverse=out,
        )
    return out, field


def perturb_ifs(ifs, eta: float, seed: int):
    """Perturb every generator with independent seeded fields. A banked
    family whose generators all get a trig field keeps its bank, with the
    fields stacked."""
    from .ifs import IFS

    gens, fields = zip(*(_perturb(g, eta, seed + 1000 * i) for i, g in enumerate(ifs.generators)))
    if all(f is None for f in fields):  # eta 0: the generators are unchanged
        bank = ifs.bank
    elif ifs.bank is not None and ifs.bank.freqs is None and all(f is not None for f in fields):
        freqs, phases, amps = map(np.stack, zip(*fields))
        bank = replace(ifs.bank, freqs=freqs, phases=phases, amps=amps)
    else:
        bank = None
    return IFS(list(gens), ifs.domain_region, bank=bank)


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
