"""The benchmark's workloads: cases, their set-up and their reference checks.

A case is one operation: `run` is timed, `check` is not.  `check` compares
the output with a value from `reference`, which never calls fbmseries, and
raises CheckFailed on a mismatch.  Every fbmseries function is called
through this module's own global names, looked up at call time, so the
tracer can wrap them where this module bound them.

build(name, seed) does the set-up: it parses the expressions, builds the
grids and simulates the small conditioning ensembles.  The seed only feeds
the ensembles and the Monte Carlo and CLI seeds; the functionals, grids,
orders and path counts are fixed, so the work per case does not depend on
the seed.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from fbmseries.applications import cir_mc_check, merton_bond_price
from fbmseries.cli import main as cli_main
from fbmseries.expformula import cir_fourth_order_integral, exp_series
from fbmseries.fbm import McConfig, mc_expect, simulate
from fbmseries.functional import GridPath, TimeGrid, evaluate
from fbmseries.parser import parse
from fbmseries.taylor import backward_taylor

import reference as ref
from reference import GaussFunctional, Integral, Point

# a case that passes today takes at most a few seconds; this limit only
# stops a pathological regression from stalling the run
DEFAULT_LIMIT_S = 30.0
# the ROADMAP item-3 cases do not finish at order 2 within 120 s today;
# the target once mended is under 1 s
ITEM3_LIMIT_S = 1.0
# a truncated Taylor value may be off by this many times its median
# tolerance on its worst path
WORST_PATH_FACTOR = 1000.0


class CheckFailed(AssertionError):
    """The program's output disagrees with its reference."""


@dataclass
class Case:
    name: str
    run: object
    check: object
    limit_s: float = DEFAULT_LIMIT_S


def _close(got, want, tol: float, what: str, floor: float = 1.0) -> None:
    """|got - want| <= tol * max(|want|, floor), elementwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    gap = np.abs(got - want)
    allowed = tol * np.maximum(np.abs(want), floor)
    if got.shape != np.broadcast_shapes(got.shape, want.shape) \
            or not np.all(np.isfinite(got)) or np.any(gap > allowed):
        worst = float(np.max(gap / allowed)) if gap.size else math.nan
        raise CheckFailed(f"{what}: off by {worst:.3g} x tolerance {tol:g}")


def _truncated(got, want, tol: float, what: str) -> None:
    """A truncated series on an ensemble, against the full conditional.

    Errors are relative to max(|want|, 1).  Their median over the paths
    must be within tol, which each case places between the median error of
    its truncation order and of the order below, so that a missing or
    wrong top order fails; every path must be within WORST_PATH_FACTOR tol.
    """
    got = np.asarray(got, dtype=float)
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    if got.shape != np.shape(want) or not np.all(np.isfinite(err)):
        raise CheckFailed(f"{what}: wrong shape or not finite")
    med, worst = float(np.median(err)), float(np.max(err))
    if med > tol or worst > WORST_PATH_FACTOR * tol:
        raise CheckFailed(f"{what}: median error {med:.3g}, worst {worst:.3g}, "
                          f"tolerance {tol:g}")


def _levels(got_terms, want_terms, tol: float, what: str) -> None:
    """Each level's term within tol of its reference, relative to that term."""
    if len(got_terms) != len(want_terms):
        raise CheckFailed(f"{what}: {len(got_terms)} levels, want {len(want_terms)}")
    for k, (got, want) in enumerate(zip(got_terms, want_terms)):
        _close(got, want, tol, f"{what} level {k}", floor=1e-300)


def _within_se(est: float, se: float, want: float, what: str,
               slack: float = 0.0) -> None:
    """Monte Carlo estimate within 4 standard errors (plus slack) of want."""
    if not (se > 0.0 and abs(est - want) <= 4.0 * se + slack):
        raise CheckFailed(f"{what}: {est!r} vs {want!r}, 4se = {4.0 * se:.3g}")


def _ensemble(grid_times, h: float, n_paths: int, seed: int):
    ens = simulate(TimeGrid(tuple(grid_times)), h, McConfig(n_paths=n_paths, seed=seed))
    return ens.grid.times, ens.values


# ------------------------------------------------------------- taylor-deep

def _taylor_case(name, fn, r, grid_times, order, h, n_paths, seed, tol):
    """backward_taylor of fn on a conditioning ensemble, against fn.conditional.

    tol is the case's median tolerance (see _truncated).
    """
    grid = TimeGrid(tuple(grid_times))
    times, values = _ensemble(sorted(set(grid.times) | {r}), h, n_paths, seed)
    f = parse(fn.text())
    path = GridPath(times, values)
    want = fn.conditional(r, h, times, values)

    def run():
        return backward_taylor(f, r, grid, order, h, path=path).value

    return Case(name, run, lambda got: _truncated(got, want, tol, name))


def _cli_case(name, runs):
    """cli_main on each (argv, extra check); JSON equal for equal seeds, sums running."""
    def run():
        outs = []
        for argv, _ in runs:
            buf = io.StringIO()
            outs.append((cli_main(list(argv), stdout=buf), buf.getvalue()))
        return outs

    seen = []

    def check(outs):
        seen.append([text for _, text in outs])
        if seen[-1] != seen[0]:
            raise CheckFailed(f"{name}: JSON differs between runs with equal seeds")
        for (code, text), (_, extra_check) in zip(outs, runs):
            if code != 0:
                raise CheckFailed(f"{name}: exit code {code}")
            doc = json.loads(text)
            if "terms" in doc:
                running = np.cumsum(doc["terms"])
                _close(doc["partial_sums"], running, 1e-12, name + " running sums")
            if extra_check is not None:
                extra_check(doc)

    return Case(name, run, check)


def _polynomial_group(h: float, seed: int):
    """Discrete polynomials, exact at order 6, at r in {0, .25, .75}."""
    grid = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    fns = [GaussFunctional([Point(.25), Point(.5), Point(.75), Point(1.0)],
                           {(1, 1, 1, 1): 1.0}),
           GaussFunctional([Point(.5), Point(1.0)], {(2, 1): 1.0}),
           GaussFunctional([Point(.5), Point(1.0)], {(2, 2): 1.0})]
    times, values = _ensemble(grid.times, h, 32, seed)
    path = GridPath(times, values)
    jobs = [(parse(fn.text()), r, fn.conditional(r, h, times, values))
            for fn in fns for r in (0.0, 0.25, 0.75)]

    def run():
        return [backward_taylor(f, r, grid, 6, h, path=path).value
                for f, r, _ in jobs]

    def check(got):
        for g, (_, r, want) in zip(got, jobs):
            _close(g, want, 1e-12, f"polynomial at r={r}")

    return Case("taylor.polynomials", run, check)


def _taylor_deep(seed: int) -> list:
    h, r = 0.7, 0.3
    g4 = (0.0, 0.25, 0.5, 0.75, 1.0)
    g8 = tuple(i / 8 for i in range(9))
    P = Point
    # tolerances: the geometric mean of the median errors at the case's
    # order and at the order below, over ten seeds (perfbench/README.md)
    specs = [
        ("taylor.exp_B1.J4.o7", GaussFunctional([P(1.0)], {(0,): 1.0}, [0.1]),
         g4, 7, 2e-11),
        ("taylor.exp_B1.J8.o4", GaussFunctional([P(1.0)], {(0,): 1.0}, [0.1]),
         g8, 4, 6e-7),
        ("taylor.exp_2B.J4.o6", GaussFunctional([P(.5), P(1.0)], {(0, 0): 1.0},
                                                [0.06, 0.08]), g4, 6, 5e-10),
        ("taylor.exp_4B.J4.o5", GaussFunctional([P(.25), P(.5), P(.75), P(1.0)],
                                                {(0, 0, 0, 0): 1.0}, [0.025] * 4),
         g4, 5, 5e-10),
        ("taylor.B05sq_exp.J4.o5", GaussFunctional([P(.5), P(1.0)], {(2, 0): 1.0},
                                                   [0.0, 0.1]), g4, 5, 5e-6),
        ("taylor.B075_exp.J4.o5", GaussFunctional([P(.75), P(1.0)], {(1, 0): 1.0},
                                                  [0.0, 0.1]), g4, 5, 7e-7),
    ]
    cases = [_taylor_case(name, fn, r, grid, order, h, 32, seed * 100 + k, tol)
             for k, (name, fn, grid, order, tol) in enumerate(specs)]
    cases.append(_polynomial_group(h, seed * 100 + 50))
    cases.append(_cli_case("cli.taylor", [([
        "taylor", "--hurst", "0.7", "--T", "1", "--r", "0.3",
        "--grid", "0,0.25,0.5,0.75,1", "--expr", "exp(0.25*B(1))",
        "--order", "6", "--mc.paths", "16", "--mc.seed", str(seed),
        "--format", "json"], None)]))
    return cases


# ---------------------------------------------------------------- ensemble

def _ensemble_cases(seed: int) -> list:
    h, r = 0.7, 0.3
    cases = []

    g4 = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    times, values = _ensemble((0.0, 0.25, 0.3, 0.5, 0.75, 1.0), h, 40_000, seed * 100 + 1)
    wide = GridPath(times, values)
    fn = GaussFunctional([Point(1.0)], {(0,): 1.0}, [0.1])
    f_bt = parse(fn.text())
    want_bt = fn.conditional(r, h, times, values)
    cases.append(Case(
        "taylor.exp_B1.o6.40k",
        lambda: backward_taylor(f_bt, r, g4, 6, h, path=wide).value,
        lambda got: _truncated(got, want_bt, 7e-10, "backward_taylor on 40k paths")))

    fn_es = GaussFunctional([Point(1.0)], {(0,): 1.0}, [0.5])
    f_es = parse(fn_es.text())
    want_es = fn_es.level_terms(r, h, times, values, 12)
    fine_times = sorted({i / 64 for i in range(65)} | {r})
    ftimes, fvalues = _ensemble(fine_times, h, 20_000, seed * 100 + 2)
    fine = GridPath(ftimes, fvalues)
    fn_ib = GaussFunctional([Integral(1.0)], {(0,): 1.0}, [0.5])
    f_ib = parse(fn_ib.text())
    want_ib = fn_ib.level_terms(r, h, ftimes, fvalues, 10)

    def run_es():
        return (exp_series(f_es, r, 1.0, h, 12, path=wide).terms,
                exp_series(f_ib, r, 1.0, h, 10, path=fine).terms)

    def check_es(got):
        _levels(got[0], want_es, 1e-9, "exp_series exp(B1) on 40k paths")
        _levels(got[1], want_ib, 1e-9, "exp_series exp(IB) on 20k paths")

    cases.append(Case("expform.exp.wide", run_es, check_es))

    f_mc1 = parse("exp(0.5*B(1))")
    mono = GaussFunctional([Point(.5), Point(1.0)], {(2, 2): 1.0})
    f_mc2 = parse(mono.text())
    want_mc1 = ref.lognormal(0.5, 1.0, h)
    want_mc2 = float(mono.conditional(0.0, h, (0.0,), np.zeros((1, 1)))[0])

    def run_mc():
        return (mc_expect(f_mc1, h, McConfig(n_paths=200_000, seed=seed * 100 + 3)),
                mc_expect(f_mc2, h, McConfig(n_paths=200_000, seed=seed * 100 + 4)))

    def check_mc(got):
        _within_se(got[0].estimate, got[0].stderr, want_mc1, "mc exp(0.5 B1)")
        _within_se(got[1].estimate, got[1].stderr, want_mc2, "mc B(.5)^2 B(1)^2")

    cases.append(Case("fbm.mc_expect.200k", run_mc, check_mc))

    big_t = 0.3
    c1, c2 = ref.cir_coefficients(h)
    approx = 1.0 + c1 * big_t ** (2 * h + 1) + c2 * big_t ** (4 * h + 2)
    budget = ref.cir_truncation_budget(big_t, h)
    cfg_cir = McConfig(n_paths=200_000, seed=seed * 100 + 5, grid_refinement=32)

    def check_cir(got):
        _close(got.series, approx, 1e-10, "cir series")
        _within_se(got.mc, got.stderr, approx, "cir Monte Carlo", slack=budget)

    cases.append(Case("applications.cir_mc_check.200k",
                      lambda: cir_mc_check(big_t, h, cfg_cir), check_cir))

    sim_grid = TimeGrid(tuple(i / 512 for i in range(513)))
    cfg_sim = McConfig(n_paths=1000, seed=seed * 100 + 6)
    ts = np.asarray(sim_grid.times[1:])
    chol = np.linalg.cholesky(ref.fbm_cov(ts[:, None], ts[None, :], h))

    def check_sim(ens):
        # whitened by the reference covariance the draws are iid N(0, 1)
        x = np.asarray(ens.values)[:, 1:]
        if x.shape != (cfg_sim.n_paths, len(sim_grid.times) - 1) \
                or np.any(np.asarray(ens.values)[:, 0] != 0.0):
            raise CheckFailed("simulate: wrong shape or B_0 != 0")
        z = np.linalg.solve(chol, x.T)
        n = z.size
        _within_se(float(np.mean(z * z)), math.sqrt(2.0 / n), 1.0,
                   "simulate: whitened second moment")
        lag = z[1:] * z[:-1]
        _within_se(float(np.mean(lag)), 1.0 / math.sqrt(lag.size), 0.0,
                   "simulate: whitened lag-1 moment")

    cases.append(Case("fbm.simulate.512x1k",
                      lambda: simulate(sim_grid, h, cfg_sim), check_sim))

    def check_cli_cir(doc):
        _close(doc["c2"], c2, 1e-10, "cli cir c2")
        _close(doc["approx"], approx, 1e-10, "cli cir series")
        _within_se(doc["mc"], doc["stderr"], approx, "cli cir Monte Carlo",
                   slack=budget)

    cases.append(_cli_case("cli.cir", [([
        "cir", "--hurst", "0.7", "--T", "0.3", "--mc.paths", "20000",
        "--mc.seed", str(seed), "--mc.refinement", "16", "--format", "json"],
        check_cli_cir)]))
    return cases


# ---------------------------------------------------------- expform-levels

def _expform_levels(seed: int) -> list:
    h = 0.7
    cases = []

    def levels(f, r, hh, order):
        """exp_series at r without a path: its level terms, evaluated."""
        return [float(evaluate(t, hh)) for t in exp_series(f, r, 1.0, hh, order).terms]

    # the paper's bond price and lognormal examples through the engine; at
    # T = 2 and sigma = 2 each of the twelve levels adds more than 1e-7 of
    # the value, so the 1e-12 tolerances see every level
    gamma = 2.0 ** 3.5 / 7.0      # T^(2H+2) / (4H+4) at T = 2, H = 0.75
    f_lognormal = parse("exp(2*B(1))")

    def check_examples(got):
        merton, lognormal = got
        sums = np.cumsum(ref.exp_terms(gamma, 12))
        _close(merton.closed_form, ref.merton(2.0, 0.75), 1e-14, "merton closed form")
        _close(merton.partial_sums, sums, 1e-12, "merton partial sums")
        _close(merton.engine_sums, sums, 1e-12, "merton engine sums")
        # sigma^2 T^2H / 2 = 2
        _levels(lognormal, ref.exp_terms(2.0, 12), 1e-12, "lognormal")

    cases.append(Case(
        "expform.examples.o12",
        lambda: (merton_bond_price(2.0, 0.75, 12), levels(f_lognormal, 0.0, 0.75, 12)),
        check_examples))

    # level-1 quadrature at r = 0
    f_ib2_0, f_exp_0 = parse("IB2(0,1)"), parse("exp(-IB2(0,1))")
    level1_hs = (0.6, 0.7, 0.8)

    def check_level1(got):
        for hq, (ib2, expm) in zip(level1_hs, got):
            c1q = ref.cir_coefficients(hq)[0]
            _levels(ib2, [0.0, -c1q], 1e-8, f"IB2 at r=0, H={hq}")
            _levels(expm, [1.0, c1q], 1e-8, f"exp(-IB2) at r=0, H={hq}")

    cases.append(Case(
        "expform.level1.r0.o1",
        lambda: [(levels(f_ib2_0, 0.0, hq, 1), levels(f_exp_0, 0.0, hq, 1))
                 for hq in level1_hs],
        check_level1))

    # level-1 quadrature on one path, at three conditioning times
    rs = (0.3, 0.5, 0.7)
    times, values = _ensemble(sorted({i / 64 for i in range(65)} | set(rs)), h, 1,
                              seed * 100 + 1)
    path = GridPath(times, values[0])
    f_ib2 = parse("IB2(0,1)")
    want_ib2 = [ref.ib2_conditional(r, 1.0, h, times, values)[0] for r in rs]
    cases.append(Case(
        "expform.IB2.path.o2",
        lambda: [exp_series(f_ib2, r, 1.0, h, 2, path=path).value for r in rs],
        lambda got: _close(got, want_ib2, 1e-8, "IB2 at r in (.3, .5, .7) on a path")))

    for hq in (0.6, 0.65, 0.7, 0.75, 0.8, 0.9):
        _, c2q = ref.cir_coefficients(hq)
        cases.append(Case(
            f"expform.cir4_quadrature.H{hq}",
            lambda hq=hq: sum(cir_fourth_order_integral(1.0, hq, method="quadrature")),
            lambda got, c2q=c2q, hq=hq: _close(got, c2q, 1e-6,
                                               f"c2 by quadrature at H={hq}")))

    def merton_levels(doc):
        _levels(doc["terms"], ref.exp_terms(1.0 / 7.0, 20), 1e-12, "cli expform r=0")

    def ib2_levels(doc):
        # level 1 does not depend on the path, level 2 vanishes
        q = 2.0 * h + 1.0
        var = (1.0 - 0.3 ** q) / q - 0.3 ** (2.0 * h) * 0.7
        _levels(doc["terms"][1:], [var, 0.0], 1e-8, "cli expform r=0.3")

    cases.append(_cli_case("cli.expform", [
        (["expform", "--hurst", "0.75", "--T", "1", "--r", "0", "--expr",
          "exp(IB(0,1))", "--order", "20", "--format", "json"], merton_levels),
        (["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3", "--expr",
          "IB2(0,1)", "--order", "2", "--mc.seed", str(seed), "--mc.refinement", "8",
          "--format", "json"], ib2_levels)]))

    # the three item-3 cases at order 2, under ITEM3_LIMIT_S
    quartic = GaussFunctional([Point(.25), Point(.5), Point(.75), Point(1.0)],
                              {(1, 1, 1, 1): 1.0})
    times4, values4 = _ensemble((0.0, 0.25, 0.5, 0.75, 1.0), h, 1, seed * 100 + 2)
    path4 = GridPath(times4, values4[0])
    f_quartic = parse(quartic.text())
    want_quartic = quartic.conditional(0.25, h, times4, values4)[0]
    cases.append(Case(
        "item3.quartic.r025.o2",
        lambda: exp_series(f_quartic, 0.25, 1.0, h, 2, path=path4).value,
        lambda got: _close(got, want_quartic, 1e-8, "quartic at r=0.25"),
        ITEM3_LIMIT_S))

    f_cir = parse("exp(-IB2(0,1))")
    c1, c2 = ref.cir_coefficients(h)
    cases.append(Case(
        "item3.exp_mIB2.r0.o2",
        lambda: float(evaluate(exp_series(f_cir, 0.0, 1.0, h, 2).value, h)),
        lambda got: _close(got, 1.0 + c1 + c2, 1e-8, "exp(-IB2) at order 2"),
        ITEM3_LIMIT_S))

    mixed = GaussFunctional([Point(.5), Integral(1.0)], {(2, 0): 1.0}, [0.0, 1.0])
    times16, values16 = _ensemble(tuple(i / 16 for i in range(17)), h, 1,
                                  seed * 100 + 3)
    path16 = GridPath(times16, values16[0])
    f_mixed = parse(mixed.text())
    want_mixed = mixed.level_sums(0.25, h, times16, values16, 2)[-1][0]
    cases.append(Case(
        "item3.B05sq_expIB.r025.o2",
        lambda: exp_series(f_mixed, 0.25, 1.0, h, 2, path=path16).value,
        lambda got: _close(got, want_mixed, 1e-8, "B(.5)^2 exp(IB) at order 2"),
        ITEM3_LIMIT_S))
    return cases


_BUILDERS = {"taylor-deep": _taylor_deep, "ensemble": _ensemble_cases,
             "expform-levels": _expform_levels}


def build(workload: str, seed: int) -> list:
    """Set-up: the cases of one workload, with their inputs built."""
    return _BUILDERS[workload](seed)
