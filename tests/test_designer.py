import functools
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rispattern import designer
from rispattern import (
    Alphabet,
    ChannelPair,
    ComplexCoefficient,
    DesignCriterion,
    RisGeometry,
    Scenario,
    SurfaceConfig,
    Terminal,
    Wave,
    builtin,
    canonical_phase,
    design_diffuser,
    design_for_criterion,
    design_specular,
    design_uacp,
    design_uadp,
    design_uaep,
    far_field_radius,
    is_coordinatewise_optimal,
    optimize_alternating,
    received_power,
    rx_arc_position,
    uadp_set,
)
from rispattern.scenario import design_scenario


def make_pair(n=3, m=3, f=2.3e9, tx=(0, 0, 50.0), rx=(20.0, 5.0, 40.0), d=None):
    wave = Wave(f)
    d = d or wave.wavelength / 2
    geom = RisGeometry(n, m, d, d)
    return ChannelPair.compute(geom, wave, Terminal(tx), Terminal(rx))


def brute_force_best(pair, alphabet):
    """Exhaustive search over all L^(N*M) assignments."""
    gh = (pair.g * pair.h).ravel()
    best = -1.0
    for combo in itertools.product(alphabet.values, repeat=gh.size):
        val = abs(np.dot(gh, np.asarray(combo))) ** 2
        if val > best:
            best = val
    return best


def _reference_alternating(pair, alphabet, start=None, max_sweeps=100):
    """The per-element coordinate ascent, kept as the optimizer's oracle: one
    element at a time, each scored against the running total minus its term
    from the array product gh * gamma, the total moved only by an update,
    until a sweep changes no element.  It starts from the alphabet indices
    `start` (all 0 if None).  Returns (indices, trace, updates per sweep,
    converged)."""
    values = alphabet.values
    gh = (pair.g * pair.h).ravel()
    n_el = gh.size

    if start is not None:
        idx = np.asarray(start).ravel().copy()
    else:
        idx = np.zeros(n_el, dtype=int)
    gamma = values[idx]
    terms = gh * gamma
    total = np.sum(terms)

    trace = [abs(total) ** 2]
    updates_per_sweep = []
    converged = False
    gh_abs2 = np.abs(gh) ** 2
    values_abs2 = np.abs(values) ** 2
    for _ in range(max_sweeps):
        updates = 0
        for i in range(n_el):
            alpha = total - terms[i]
            scores = values_abs2 * gh_abs2[i] + 2.0 * np.real(
                values * gh[i] * np.conj(alpha)
            )
            best = int(np.argmax(scores))
            if best != idx[i] and scores[best] > scores[idx[i]]:
                idx[i] = best
                total = alpha + gh[i] * values[best]
                updates += 1
        updates_per_sweep.append(updates)
        # full recompute per sweep caps incremental rounding drift
        gamma = values[idx]
        terms = gh * gamma
        total = np.sum(terms)
        trace.append(abs(total) ** 2)
        if not updates:
            converged = True
            break
    return idx.reshape(pair.g.shape), trace, updates_per_sweep, converged


def _check_fixed_point(pair, alphabet, config, report, tie=False):
    """The per-element loop, started at the optimizer's design, repeats its
    certifying pass: the same starting objective bit for bit, and no element
    changed.  On a `tie` instance its strict test instead takes one exact
    tie or rounding-level gain, within the certificate's 1e-12."""
    idx, trace, per_sweep, converged = _reference_alternating(pair, alphabet, config.alphabet_indices)
    assert report.objective_trace == [trace[0]] * 2
    assert report.iterations == 1 and report.updates_per_sweep == [0]
    assert report.converged and report.coordinatewise_optimal and converged
    if tie:
        assert per_sweep == [1, 0]
        assert trace[-1] <= trace[0] * (1 + 1e-12)
    else:
        assert per_sweep == [0]
        assert np.array_equal(idx, config.alphabet_indices)


class TestUacp:
    def test_product_phase_vanishes(self):
        pair = make_pair(4, 4)
        config = design_uacp(pair)
        product = pair.g * config.gamma * pair.h
        assert np.max(np.abs(np.angle(product))) < 1e-10

    def test_unit_amplitude(self):
        config = design_uacp(make_pair())
        assert np.abs(config.gamma) == pytest.approx(np.ones((3, 3)), rel=1e-14)

    def test_dominates_everything(self):
        # UACP co-phases every term, so no other |gamma|<=1 config beats it
        pair = make_pair(5, 5)
        p_ref = received_power(pair, design_uacp(pair))
        rng = np.random.default_rng(0)
        for _ in range(20):
            gamma = rng.uniform(0, 1, (5, 5)) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, (5, 5))
            )
            assert received_power(pair, gamma) <= p_ref * (1 + 1e-12)


class TestQuantized:
    def test_uadp_rounds_to_nearest(self):
        # single element whose target phase is near 91 deg snaps to 90
        pair = make_pair(1, 1)
        target = -np.angle(pair.g[0, 0]) - np.angle(pair.h[0, 0])
        config = design_uadp(pair, 4)
        candidates = np.radians([0.0, 90.0, 180.0, -90.0])
        dists = np.abs(
            np.angle(np.exp(1j * (target - candidates)))
        )
        expected = candidates[np.argmin(dists)]
        assert np.angle(config.gamma[0, 0]) == pytest.approx(expected, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        # target phase exactly 90 deg is equidistant from 0 and 180
        fake_g = np.array([[np.exp(-1j * np.pi / 4)]])
        fake_h = np.array([[np.exp(-1j * np.pi / 4)]])
        pair = make_pair(1, 1)
        pair = ChannelPair(fake_g, fake_h, pair.geometry)
        config = design_uadp(pair, 2)
        assert config.alphabet_indices[0, 0] == 0
        assert np.angle(config.gamma[0, 0]) == pytest.approx(0.0)

    @pytest.mark.parametrize("kind", ["random", "tie-heavy"])
    def test_matches_argmin_over_all_candidates(self, monkeypatch, kind):
        # the (N, M, L) argmin that the per-candidate loop replaced
        rng = np.random.default_rng(17)
        pair = make_pair(30, 40)
        for levels in (2, 3, 4, 8, 16, 64):
            phases = uadp_set(levels).phases
            if kind == "random":
                target = rng.uniform(-np.pi, np.pi, (30, 40))
            else:
                # candidates and the midpoints between them, on the grid of
                # multiples of pi / (2 L)
                target = canonical_phase(rng.integers(-4 * levels, 4 * levels, (30, 40)) * (np.pi / (2 * levels)))
            monkeypatch.setattr(designer, "_target_phase", lambda _pair, target=target: target)
            config = designer.design_quantized(pair, phases, DesignCriterion.uadp(levels))
            dist = np.abs(canonical_phase(target[..., None] - phases[None, None, :]))
            assert np.array_equal(config.alphabet_indices, np.argmin(dist, axis=-1))

    def test_uaep_uses_alphabet_phases_with_unit_amplitude(self):
        pair = make_pair(3, 3)
        alph = builtin("omni3p6")
        config = design_uaep(pair, alph)
        assert np.abs(config.gamma) == pytest.approx(np.ones((3, 3)))
        allowed = set(np.round(alph.phases, 12))
        for ph in np.round(np.angle(config.gamma).ravel(), 12):
            assert ph in allowed


class TestBaselines:
    def test_specular_is_all_ones(self):
        geom = RisGeometry(4, 5, 0.05, 0.05)
        config = design_specular(geom)
        assert np.array_equal(config.gamma, np.ones((4, 5), complex))

    def test_diffuser_seed_reproducible(self):
        geom = RisGeometry(6, 6, 0.05, 0.05)
        a = design_diffuser(geom, seed=42)
        b = design_diffuser(geom, seed=42)
        c = design_diffuser(geom, seed=43)
        assert np.array_equal(a.gamma, b.gamma)
        assert not np.array_equal(a.gamma, c.gamma)

    def test_diffuser_unit_amplitude(self):
        config = design_diffuser(RisGeometry(8, 8, 0.05, 0.05), seed=1)
        assert np.abs(config.gamma) == pytest.approx(np.ones((8, 8)), rel=1e-14)

    def test_diffuser_phases_uniform(self):
        # resultant of 10^4 i.i.d. uniform phases is small, and all phases canonical
        geom = RisGeometry(100, 100, 0.01, 0.01)
        config = design_diffuser(geom, seed=7)
        phases = np.angle(config.gamma)
        assert np.all(phases > -np.pi)
        assert np.all(phases <= np.pi)
        assert abs(np.mean(np.exp(1j * phases))) < 0.05


class TestAlternatingOptimizer:
    def test_single_element_picks_best_entry(self):
        # N=M=1: the optimizer must pick the largest-|gamma*g*h| entry,
        # which for one element is simply the largest amplitude
        pair = make_pair(1, 1)
        alph = builtin("omni3p6")
        config, report = optimize_alternating(pair, alph)
        assert config.alphabet_indices[0, 0] == 1  # amplitude 0.55 beats 0.46
        assert report.converged

    def test_matches_brute_force_2x2_binary(self):
        pair = make_pair(2, 2, rx=(8.0, 3.0, 12.0), tx=(0, 0, 15.0))
        alph = builtin("mmwave33")
        config, _ = optimize_alternating(pair, alph)
        assert received_power(pair, config) == pytest.approx(
            brute_force_best(pair, alph), rel=1e-12
        )

    def test_trace_monotone_nondecreasing(self):
        pair = make_pair(4, 4, rx=(30.0, -10.0, 25.0))
        _, report = optimize_alternating(pair, builtin("testbed2p3"))
        trace = report.objective_trace
        assert all(b >= a * (1 - 1e-12) for a, b in zip(trace, trace[1:]))

    def test_output_is_fixed_point(self):
        pair = make_pair(3, 4)
        alph = builtin("varactor5g")
        config, report = optimize_alternating(pair, alph)
        _check_fixed_point(pair, alph, config, report)
        again, _ = optimize_alternating(pair, alph)
        assert np.array_equal(again.alphabet_indices, config.alphabet_indices)

    def test_output_coordinatewise_optimal(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pair = make_pair(
                3, 3, rx=tuple(rng.uniform(5, 40, 2)) + (rng.uniform(5, 40),)
            )
            alph = builtin("testbed2p3")
            config, report = optimize_alternating(pair, alph)
            assert is_coordinatewise_optimal(pair, config, alph)
            assert report.coordinatewise_optimal

    def test_report_checks_the_design_after_the_last_sweep(self, monkeypatch):
        # all-index-0 is not coordinate-wise optimal on this 12 x 12 design,
        # so a sweep that returned it would be caught
        pair = make_pair(12, 12, rx=(30.0, -10.0, 25.0))
        alph = builtin("varactor5g")
        monkeypatch.setattr(designer, "_alphabet_optimum", lambda gh, values: np.zeros(gh.size, dtype=int))
        with pytest.raises(RuntimeError, match="certificate"):
            optimize_alternating(pair, alph)

    def test_report_is_one_certifying_pass(self):
        pair = make_pair(12, 12, rx=(30.0, -10.0, 25.0))
        config, report = optimize_alternating(pair, builtin("varactor5g"))
        objective = received_power(pair, config)
        assert report.objective_trace == [pytest.approx(objective, rel=1e-12)] * 2
        assert report.iterations == 1 and report.updates_per_sweep == [0] and report.element_update_count == 0
        assert report.converged and report.coordinatewise_optimal

    def test_restarts_never_worse(self):
        # the per-element ascent from the default start and 6 seeded random
        # starts ends no higher than the optimum
        pair = make_pair(3, 3, rx=(25.0, 10.0, 18.0))
        alph = uadp_set(2)
        _, report = optimize_alternating(pair, alph)
        rng = np.random.default_rng(0)
        starts = [None] + [rng.integers(0, len(alph.values), size=pair.g.shape) for _ in range(6)]
        for start in starts:
            trace = _reference_alternating(pair, alph, start)[1]
            assert report.objective_trace[-1] >= trace[-1] * (1 - 1e-12)

    def test_uacp_upper_bounds_alphabet_runs(self):
        pair = make_pair(4, 4, rx=(20.0, 0.0, 30.0))
        p_uacp = received_power(pair, design_uacp(pair))
        for name in ("mmwave33", "omni3p6", "varactor5g"):
            config, _ = optimize_alternating(pair, builtin(name))
            assert received_power(pair, config) <= p_uacp * (1 + 1e-12)


# Seeds of the oracle batch: the first 400, and 544 and 790, on which the
# per-element ascent from the instance's start decides a tie by rounding.
BATCH_SEEDS = [*range(400), 544, 790]
# Batch seeds on which the per-element loop, started at the optimum, takes an
# exact tie or a gain under 4e-16 of the objective (x86-64, numpy 2.4.6), as
# on seeds 421, 661, 1153 and 1765 of the first 3,000 and on no other.
TIE_SEEDS = {127, 184}


def _batch_instance(seed):
    """A seeded instance of the oracle batch, with the alphabet indices of a
    start for the per-element ascent: all 0 on odd seeds, random on even
    seeds.  Seeds 0, 3, 6, ... put both terminals on the surface axis, where
    elements share gh four ways.  Seeds 1, 4, 7, ... take gh from eighth
    turns of one or two amplitudes with an evenly spaced alphabet: exact
    ties between entries are common, and rounding decides them.  The other
    seeds are free placements with measured or random alphabets."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 13, 2))
    kind = seed % 3
    if kind == 1:
        alph = uadp_set(int(rng.choice([3, 4, 6, 8])))
        g = rng.integers(1, 3, (n, m)) * np.exp(0.25j * np.pi * rng.integers(0, 8, (n, m)))
        pair = replace(make_pair(n, m), g=g, h=np.ones((n, m), dtype=complex))
    else:
        names = ["mmwave27", "mmwave33", "omni3p6", "testbed2p3", "varactor5g"]
        if rng.random() < 0.5:
            alph = builtin(names[rng.integers(len(names))])
        else:
            levels = int(rng.integers(2, 7))
            alph = Alphabet(
                tuple(
                    ComplexCoefficient(a, p)
                    for a, p in zip(rng.uniform(0.2, 1.0, levels), rng.uniform(-np.pi, np.pi, levels))
                )
            )
        if kind == 0:
            tx, rx = (0, 0, float(rng.uniform(1, 20))), (0, 0, float(rng.uniform(0.5, 20)))
        else:
            tx = tuple(rng.uniform([-20, -20, 1], [20, 20, 50]))
            rx = tuple(rng.uniform([-20, -20, 1], [20, 20, 50]))
        pair = make_pair(n, m, tx=tx, rx=rx, d=0.02)
    start = np.zeros((n, m), dtype=int)
    if seed % 2 == 0:
        start = rng.integers(0, len(alph.values), size=(n, m))
    return pair, alph, start


# (grid, tx, rx, alphabet, random start, sweep cap of the per-element ascent)
ORACLE_CASES = {
    "1x1": (1, 1, (0, 0, 50.0), (20.0, 5.0, 40.0), "omni3p6", False, 100),
    "on-axis": (15, 15, (0, 0, 1.5), (0, 0, 0.6), "testbed2p3", False, 100),
    "on-axis-uadp4": (14, 14, (0, 0, 1.5), (0, 0, 0.6), uadp_set(4), True, 100),
    "mirror-xz": (12, 7, (-6.0, 0, 20.0), (6.0, 0, 20.0), "varactor5g", True, 100),
    "capped": (10, 10, (0, 0, 50.0), (15.0, -4.0, 9.0), "varactor5g", False, 2),
    "over-1024": (41, 37, (0, 0, 40.0), (4.0, 0, 3.0), "varactor5g", False, 100),
    "over-1024-random": (40, 40, (0, 0, 25.0), (10.0, 3.0, 6.0), uadp_set(8), True, 100),
    # over 256 KiB of complex terms, where numpy may reuse a temporary operand
    "over-16384-one-sweep": (129, 129, (0, 0, 30.0), (3.0, 1.0, 4.0), "omni3p6", False, 1),
}


@functools.cache
def _oracle_case(case):
    """ORACLE_CASES[case] as (pair, alphabet) and the objective the
    per-element ascent reaches from the case's start within its sweep cap,
    computed once for both sector sizes."""
    n, m, tx, rx, alph, random_start, max_sweeps = ORACLE_CASES[case]
    alph = builtin(alph) if isinstance(alph, str) else alph
    pair = make_pair(n, m, tx=tx, rx=rx, d=0.02)
    start = None
    if random_start:
        rng = np.random.default_rng(sum(map(ord, case)))
        start = rng.integers(0, len(alph.values), size=(n, m))
    return pair, alph, _reference_alternating(pair, alph, start, max_sweeps)[1][-1]


@functools.cache
def _batch_case(seed):
    """Batch instance `seed` and the objective the per-element ascent
    reaches from its start, computed once for both sector sizes."""
    pair, alph, start = _batch_instance(seed)
    return pair, alph, _reference_alternating(pair, alph, start)[1][-1]


class TestBlockScanOracle:
    """The per-element loop is the oracle of the optimizer's design: started
    there, it changes no element and repeats the certifying pass exactly,
    and from any other start it ascends no higher."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_per_element_loop(self, case):
        pair, alph, ascent = _oracle_case(case)
        config, report = optimize_alternating(pair, alph)
        _check_fixed_point(pair, alph, config, report)
        assert report.objective_trace[-1] >= ascent * (1 - 1e-12)

    def test_restart_from_optimum_scans_without_updates(self):
        # a rerun is bit-identical, and one sweep of the per-element loop
        # from it changes nothing
        pair = make_pair(41, 37, tx=(0, 0, 40.0), rx=(4.0, 0, 3.0), d=0.02)
        alph = builtin("varactor5g")
        config, report = optimize_alternating(pair, alph)
        again, again_report = optimize_alternating(pair, alph)
        assert np.array_equal(again.alphabet_indices, config.alphabet_indices)
        assert again_report.objective_trace == report.objective_trace
        _check_fixed_point(pair, alph, again, again_report)

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_random_batch_matches_per_element_loop(self, seed):
        pair, alph, ascent = _batch_case(seed)
        config, report = optimize_alternating(pair, alph)
        _check_fixed_point(pair, alph, config, report, tie=seed in TIE_SEEDS)
        assert report.objective_trace[-1] >= ascent * (1 - 1e-12)


class TestBlocksOfSeven(TestBlockScanOracle):
    """The oracle cases and batch again with sectors of at most 7
    breakpoints, so that nearly every sweep of the optimum takes several
    sectors and carries its running sum across them."""

    @pytest.fixture(autouse=True)
    def blocks_of_seven(self, monkeypatch):
        monkeypatch.setattr(designer, "_SECTOR", 7)


def _chain(n, total=10.0, size=1.0):
    """gh of a row of n elements at entry 0 of the binary alphabet, summing
    to `total`, in which element 0 updates at the starting total and each
    element k in 1..n-2 updates only once element k-1 has: its half-plane
    test is failed by the walk's total before element k-1 turns over and
    passed by the total after it."""
    gh = [size * np.exp(1j * np.radians(100.0))]
    now = total - 2 * gh[0]
    turns = np.exp(1j * np.linspace(0.0, 2 * np.pi, 3600, endpoint=False))
    for _ in range(n - 2):
        step = 2 * gh[-1]
        toward = (turns * np.conj(step)).real
        # |gh| = the projection of the midpoint of the two totals on gh's
        # direction, between the two projections
        rho = (turns * np.conj(now)).real + toward / 2
        ok = np.flatnonzero((toward > 0) & (rho > size / 2) & (rho < 2 * size))
        k = ok[np.argmax(toward[ok])]
        gh.append(rho[k] * turns[k])
        now -= 2 * gh[-1]
    gh.append(total - sum(gh))
    return np.array(gh)


# the benchmark's near-alphabet designs: (alphabet, target angle)
NEAR_DESIGNS = [("varactor5g", t) for t in (30.0, 45.0, 75.0)] + [("omni3p6", t) for t in (45.0, 75.0)]


def _near_scenario(name, target):
    alph = builtin(name)
    return Scenario(
        alph.nominal_frequency, DesignCriterion.from_alphabet(alph), target,
        pitch_divisor=4, field_regime="near", near_radius=5.0,
    )


def _near_pair(s):
    """The channel pair that design_scenario designs near scenario s for."""
    geom, wave = s.geometry(), s.wave
    tx = Terminal(rx_arc_position(far_field_radius(geom, wave), 0.0))
    return ChannelPair.compute(geom, wave, tx, Terminal(rx_arc_position(s.near_radius, s.target_angle)))


class TestRounds:
    """Instances built to be hard for the per-element ascent: the optimum
    reaches at least its result, and the ascent started at the optimum
    changes nothing."""

    def test_multi_window_rounds(self, monkeypatch):
        # the sweep in sectors of at most 64 breakpoints finds the optimum
        # of the sweep in one sector
        n, m, tx, rx, alph, _, _ = ORACLE_CASES["over-1024"]
        pair, alph = make_pair(n, m, tx=tx, rx=rx, d=0.02), builtin(alph)
        gh = (pair.g * pair.h).ravel()
        monkeypatch.setattr(designer, "_SECTOR", gh.size * len(alph.values))
        whole = _optimum_objective(gh, alph.values)
        monkeypatch.setattr(designer, "_SECTOR", 64)
        config, report = optimize_alternating(pair, alph)
        assert report.objective_trace[-1] == pytest.approx(whole, rel=1e-12)
        _check_fixed_point(pair, alph, config, report)

    def test_exact_ties_reach_the_numpy_expression(self):
        # eighth-turn gh and the 8-level alphabet: some element's best two
        # entries tie exactly
        rng = np.random.default_rng(13)
        g = rng.integers(1, 3, (8, 8)) * np.exp(0.25j * np.pi * rng.integers(0, 8, (8, 8)))
        pair = replace(make_pair(8, 8), g=g, h=np.ones((8, 8), dtype=complex))
        alph = uadp_set(8)
        start = rng.integers(0, 8, size=(8, 8))
        config, report = optimize_alternating(pair, alph)
        _check_fixed_point(pair, alph, config, report)
        assert report.objective_trace[-1] >= _reference_alternating(pair, alph, start)[1][-1] * (1 - 1e-12)

    def test_chain_of_updates(self):
        # every update of the ascent changes the next element's decision
        gh = _chain(200)
        pair = replace(make_pair(1, 200), g=gh.reshape(1, -1), h=np.ones((1, 200), dtype=complex))
        alph = uadp_set(2)
        _, trace, per_sweep, _ = _reference_alternating(pair, alph)
        assert per_sweep[0] == 199
        config, report = optimize_alternating(pair, alph)
        _check_fixed_point(pair, alph, config, report)
        assert report.objective_trace[-1] >= trace[-1] * (1 - 1e-12)

    def test_certifying_sweep_of_a_small_default_start(self):
        # a 13 x 13 near design of the benchmark's CLI mix: one certifying
        # pass, which the per-element loop repeats exactly
        alph = builtin("varactor5g")
        s = Scenario(
            6.203374759e9, DesignCriterion.from_alphabet(alph), -66.2772, pitch_divisor=2.3882372899703794,
            aperture=0.27318004844012655, field_regime="near", near_radius=2.5602,
        )
        pair = _near_pair(s)
        assert pair.g.shape == (13, 13)
        config, report = optimize_alternating(pair, alph)
        idx = designer._alphabet_optimum((pair.g * pair.h).ravel(), alph.values).reshape(13, 13)
        assert np.array_equal(config.alphabet_indices, idx)
        _check_fixed_point(pair, alph, config, report)


def _optimum_instance(seed):
    """A seeded instance of the exhaustive check of the optimum: 1-6
    elements, 1-5 entries.  Seeds 0, 3, 6, ... are tie-heavy: gh on eighth
    turns of one or two amplitudes and the L-PSK alphabet.  Seeds 1, 4, 7, ...
    draw gh and the entries at random.  Seeds 2, 5, 8, ... take the entries
    from a coarse lattice, where equal entries, entries inside the hull and
    0 occur."""
    rng = np.random.default_rng(seed)
    n, levels = (int(k) for k in rng.integers([1, 1], [7, 6]))
    if seed % 3 == 0:
        gh = rng.integers(1, 3, n) * np.exp(0.25j * np.pi * rng.integers(0, 8, n))
        return gh, np.exp(2j * np.pi * np.arange(levels) / levels)
    gh = rng.normal(size=n) + 1j * rng.normal(size=n)
    if seed % 3 == 1:
        return gh, rng.uniform(0.0, 1.0, levels) * np.exp(1j * rng.uniform(-np.pi, np.pi, levels))
    return gh, (rng.integers(-2, 3, levels) + 1j * rng.integers(-2, 3, levels)) / 4


def _exhaustive(gh, values):
    """max |sum gh x|^2 over all len(values) ** gh.size assignments."""
    sums = np.zeros(1, dtype=complex)
    for g in gh:
        sums = (sums[:, None] + g * values[None, :]).ravel()
    return float(np.max(np.abs(sums) ** 2))


def _optimum_objective(gh, values):
    return abs(np.sum(gh * values[designer._alphabet_optimum(gh, values)])) ** 2


class TestAlphabetOptimum:
    """The breakpoint sweep's exact optimum, the alphabet design."""

    def test_hull_keeps_the_lowest_index_and_no_edge_points(self):
        values = [1, 1j, 1, -1, 0, -1j, 0.5, -0.5 - 0.5j]
        assert designer._hull([complex(v) for v in values]) == [3, 5, 0, 1]
        assert designer._hull([0j, 1 + 1j, 2 + 2j]) == [0, 2]
        assert designer._hull([0.5 + 0j, 0.5 + 0j]) == [0]

    @pytest.mark.parametrize("seed", range(0, 300, 50))
    def test_matches_exhaustive_search(self, seed):
        for s in range(seed, seed + 50):
            gh, values = _optimum_instance(s)
            assert _optimum_objective(gh, values) == pytest.approx(_exhaustive(gh, values), rel=1e-12)

    def test_zero_and_equal_gh(self):
        values = builtin("varactor5g").values
        for gh in ([0j, 0j], [0j, 1 + 1j, 0j], [1 - 2j] * 5, [2j, 2j, -2j]):
            gh = np.array(gh)
            assert _optimum_objective(gh, values) == pytest.approx(_exhaustive(gh, values), rel=1e-12)

    @pytest.mark.parametrize("seed", range(0, 60, 3))
    def test_design_is_coordinatewise_optimal(self, seed):
        for s in (seed, seed + 1, seed + 2):
            pair, alph, _ = _batch_instance(s)
            idx = designer._alphabet_optimum((pair.g * pair.h).ravel(), alph.values).reshape(pair.g.shape)
            config = SurfaceConfig(alph.values[idx], DesignCriterion.from_alphabet(alph), alphabet_indices=idx)
            assert is_coordinatewise_optimal(pair, config, alph)

    def test_rerun_is_bit_identical(self):
        pair, alph, _ = _batch_instance(4)
        gh = (pair.g * pair.h).ravel()
        assert np.array_equal(designer._alphabet_optimum(gh, alph.values), designer._alphabet_optimum(gh, alph.values))

    @pytest.mark.parametrize("name, target", NEAR_DESIGNS)
    def test_near_designs_reach_at_least_the_cold_start_ascent(self, name, target):
        s = _near_scenario(name, target)
        pair, alph = _near_pair(s), s.criterion.alphabet
        cold = _reference_alternating(pair, alph)[1]
        config, report = optimize_alternating(pair, alph)
        assert report.objective_trace[0] >= cold[-1]
        _check_fixed_point(pair, alph, config, report)
        assert np.array_equal(design_scenario(s).config.alphabet_indices, config.alphabet_indices)

    def test_memory_is_linear_plus_one_sector(self):
        wave = Wave(5.45e9)
        d = wave.wavelength / 4
        pair = ChannelPair.compute(RisGeometry(200, 200, d, d), wave, Terminal((0, 0, 5.0)), Terminal((2.0, 0, 3.0)))
        gh = (pair.g * pair.h).ravel()
        values = uadp_set(64).values
        tracemalloc.start()
        try:
            designer._alphabet_optimum(gh, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 64 bytes per element and 100 per breakpoint of a sector; the
        # 2.56 million breakpoints at once would take over 100 MB
        assert peak < 80 * gh.size + 160 * designer._SECTOR


class TestCoordinatewiseOptimal:
    def test_only_last_element_improvable(self):
        # gh = 1, 1, 1, 0.01 and the last element opposed: setting it to the
        # last entry gains 2 * 0.01 * 3, changing any other loses
        pair = replace(
            make_pair(2, 2), g=np.array([[1.0, 1.0], [1.0, 0.01]], dtype=complex),
            h=np.ones((2, 2), dtype=complex),
        )
        alph = uadp_set(2)
        idx = np.array([[1, 1], [1, 0]])
        config = SurfaceConfig(alph.values[idx], DesignCriterion.uadp(2), alphabet_indices=idx)
        assert not is_coordinatewise_optimal(pair, config, alph)
        idx[1, 1] = 1
        config = SurfaceConfig(alph.values[idx], DesignCriterion.uadp(2), alphabet_indices=idx)
        assert is_coordinatewise_optimal(pair, config, alph)


class TestSurfaceConfig:
    def test_rejects_overunity_amplitude(self):
        with pytest.raises(ValueError):
            SurfaceConfig(np.full((2, 2), 1.01 + 0j), DesignCriterion.uacp())

    def test_index_shape_checked(self):
        with pytest.raises(ValueError):
            SurfaceConfig(
                np.ones((2, 2), complex),
                DesignCriterion.uadp(2),
                alphabet_indices=np.zeros((3, 3), int),
            )


class TestDispatch:
    def test_each_kind_routes(self):
        pair = make_pair(2, 2)
        alph = builtin("mmwave33")
        cases = [
            (DesignCriterion.uacp(), "uacp"),
            (DesignCriterion.uadp(4), "uadp"),
            (DesignCriterion.uaep(alph), "uaep"),
            (DesignCriterion.from_alphabet(alph), "alphabet"),
            (DesignCriterion.specular(), "specular"),
            (DesignCriterion.diffuser(3), "diffuser"),
        ]
        for criterion, kind in cases:
            config, report = design_for_criterion(pair, criterion)
            assert config.criterion.kind == kind
            assert config.gamma.shape == (2, 2)
            if kind == "alphabet":
                assert report is not None
            else:
                assert report is None

    def test_alphabet_dispatch_matches_direct_call(self):
        pair = make_pair(3, 3)
        alph = builtin("testbed2p3")
        via_dispatch, _ = design_for_criterion(pair, DesignCriterion.from_alphabet(alph))
        direct, _ = optimize_alternating(pair, alph)
        assert np.array_equal(via_dispatch.gamma, direct.gamma)
