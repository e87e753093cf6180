import itertools
import math
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
    is_coordinatewise_optimal,
    optimize_alternating,
    received_power,
    uadp_set,
)


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


def best_of_restarts(pair, alphabet, restarts, seed=0):
    """Coordinate ascent from the cold start, then from `restarts` seeded
    random feasible starts; the run with the strictly highest final
    objective wins (the earliest on a tie)."""
    best = optimize_alternating(pair, alphabet)
    rng = np.random.default_rng(seed)
    values = alphabet.values
    for _ in range(restarts):
        idx0 = rng.integers(0, len(values), size=pair.g.shape)
        start = SurfaceConfig(
            values[idx0], DesignCriterion.from_alphabet(alphabet), alphabet_indices=idx0
        )
        run = optimize_alternating(pair, alphabet, start)
        if run[1].objective_trace[-1] > best[1].objective_trace[-1]:
            best = run
    return best


def _reference_alternating(pair, alphabet, init=None, rel_tol=1e-6, max_sweeps=100):
    """The per-element coordinate ascent, kept as the optimizer's oracle: one
    element at a time, the running total updated on every visit.  Returns
    (indices, trace, updates per sweep, converged)."""
    values = alphabet.values
    gh = (pair.g * pair.h).ravel()
    n_el = gh.size

    if init is not None:
        idx = init.alphabet_indices.ravel().copy()
    else:
        idx = np.zeros(n_el, dtype=int)
    gamma = values[idx]

    total = np.sum(gh * gamma)
    f0 = abs(total) ** 2
    epsilon = rel_tol * f0

    trace = [f0]
    update_count = 0
    updates_per_sweep = []
    converged = False
    gh_abs2 = np.abs(gh) ** 2
    for _ in range(max_sweeps):
        for i in range(n_el):
            alpha = total - gh[i] * gamma[i]
            scores = np.abs(values) ** 2 * gh_abs2[i] + 2.0 * np.real(
                values * gh[i] * np.conj(alpha)
            )
            best = int(np.argmax(scores))
            if best != idx[i] and scores[best] > scores[idx[i]]:
                idx[i] = best
                gamma[i] = values[best]
                update_count += 1
            total = alpha + gh[i] * gamma[i]
        updates_per_sweep.append(update_count - sum(updates_per_sweep))
        # full recompute per sweep caps incremental rounding drift
        total = np.sum(gh * gamma)
        f_new = abs(total) ** 2
        trace.append(f_new)
        if abs(f_new - trace[-2]) <= epsilon:
            converged = True
            break
    return idx.reshape(pair.g.shape), trace, updates_per_sweep, converged


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
        config, report = best_of_restarts(pair, alph, 4)
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
        config, _ = optimize_alternating(pair, alph)
        again, report = optimize_alternating(pair, alph, init=config)
        assert report.element_update_count == 0
        assert np.array_equal(again.alphabet_indices, config.alphabet_indices)

    def test_output_coordinatewise_optimal(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pair = make_pair(
                3, 3, rx=tuple(rng.uniform(5, 40, 2)) + (rng.uniform(5, 40),)
            )
            alph = builtin("testbed2p3")
            config, _ = optimize_alternating(pair, alph)
            assert is_coordinatewise_optimal(pair, config, alph)

    def test_huge_tolerance_stops_after_one_sweep(self, monkeypatch):
        monkeypatch.setattr(designer, "_REL_TOL", 1e30)
        pair = make_pair(4, 4)
        _, report = optimize_alternating(pair, builtin("mmwave27"))
        assert report.iterations == 1
        assert report.converged

    def test_sweep_cap_reports_nonconverged(self, monkeypatch):
        monkeypatch.setattr(designer, "_REL_TOL", 0.0)
        monkeypatch.setattr(designer, "_MAX_SWEEPS", 1)
        pair = make_pair(4, 4, rx=(30.0, 0.0, 20.0))
        _, report = optimize_alternating(pair, builtin("testbed2p3"))
        # one sweep from a cold start always moves the objective, so with a
        # zero tolerance the loop runs out of sweeps instead of converging
        assert report.iterations == 1
        assert not report.converged

    def test_restarts_never_worse(self):
        pair = make_pair(3, 3, rx=(25.0, 10.0, 18.0))
        alph = uadp_set(2)
        _, r_plain = optimize_alternating(pair, alph)
        _, r_multi = best_of_restarts(pair, alph, 6)
        assert r_multi.objective_trace[-1] >= r_plain.objective_trace[-1] * (1 - 1e-12)

    def test_uacp_upper_bounds_alphabet_runs(self):
        pair = make_pair(4, 4, rx=(20.0, 0.0, 30.0))
        p_uacp = received_power(pair, design_uacp(pair))
        for name in ("mmwave33", "omni3p6", "varactor5g"):
            config, _ = optimize_alternating(pair, builtin(name))
            assert received_power(pair, config) <= p_uacp * (1 + 1e-12)


# Seeds of the oracle batch.  On 127, 142, 421 and 544 some tie is decided
# differently by the scalar rescoring's rounding than by the block
# expression's, so they fail if the scan does not hand such ties to it.
BATCH_SEEDS = [*range(36), 127, 142, 421, 544]


def _batch_instance(seed):
    """A seeded instance of the oracle batch, with a cold start on odd seeds
    and a random one on even seeds.  Seeds 0, 3, 6, ... put both terminals on
    the surface axis, where elements share gh four ways.  Seeds 1, 4, 7, ...
    take gh from eighth turns of one or two amplitudes with an evenly spaced
    alphabet: exact ties between entries are common, and rounding decides
    them.  The other seeds are free placements with measured or random
    alphabets."""
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
    init = None
    if seed % 2 == 0:
        idx0 = rng.integers(0, len(alph.values), size=(n, m))
        init = SurfaceConfig(alph.values[idx0], DesignCriterion.from_alphabet(alph), alphabet_indices=idx0)
    return pair, alph, init


# (grid, tx, rx, alphabet, random start, relative tolerance, sweep cap)
ORACLE_CASES = {
    "1x1": (1, 1, (0, 0, 50.0), (20.0, 5.0, 40.0), "omni3p6", False, 1e-6, 100),
    "on-axis": (15, 15, (0, 0, 1.5), (0, 0, 0.6), "testbed2p3", False, 1e-6, 100),
    "on-axis-uadp4": (14, 14, (0, 0, 1.5), (0, 0, 0.6), uadp_set(4), True, 1e-6, 100),
    "mirror-xz": (12, 7, (-6.0, 0, 20.0), (6.0, 0, 20.0), "varactor5g", True, 1e-6, 100),
    "eps0-capped": (10, 10, (0, 0, 50.0), (15.0, -4.0, 9.0), "varactor5g", False, 0.0, 2),
    "eps-huge": (6, 11, (3.0, 2.0, 30.0), (-9.0, 1.0, 14.0), "mmwave27", True, 1e30, 100),
    "over-1024": (41, 37, (0, 0, 40.0), (4.0, 0, 3.0), "varactor5g", False, 1e-6, 100),
    "over-1024-random": (40, 40, (0, 0, 25.0), (10.0, 3.0, 6.0), uadp_set(8), True, 1e-6, 100),
    # over 256 KiB of complex terms, where numpy may reuse a temporary operand
    "over-16384-one-sweep": (129, 129, (0, 0, 30.0), (3.0, 1.0, 4.0), "omni3p6", False, 1e-6, 1),
}


class TestBlockScanOracle:
    """The certified-skip scan makes the per-element loop's decisions exactly."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_per_element_loop(self, monkeypatch, case):
        n, m, tx, rx, alph, random_start, rel_tol, max_sweeps = ORACLE_CASES[case]
        monkeypatch.setattr(designer, "_REL_TOL", rel_tol)
        monkeypatch.setattr(designer, "_MAX_SWEEPS", max_sweeps)
        alph = builtin(alph) if isinstance(alph, str) else alph
        pair = make_pair(n, m, tx=tx, rx=rx, d=0.02)
        init = None
        if random_start:
            rng = np.random.default_rng(sum(map(ord, case)))
            idx0 = rng.integers(0, len(alph.values), size=(n, m))
            init = SurfaceConfig(
                alph.values[idx0], DesignCriterion.from_alphabet(alph), alphabet_indices=idx0
            )
        idx, trace, per_sweep, converged = _reference_alternating(
            pair, alph, init, rel_tol, max_sweeps
        )
        config, report = optimize_alternating(pair, alph, init)
        assert np.array_equal(config.alphabet_indices, idx)
        assert report.objective_trace == trace
        assert report.updates_per_sweep == per_sweep
        assert report.element_update_count == sum(per_sweep)
        assert report.iterations == len(trace) - 1
        assert report.converged == converged

    def test_restart_from_optimum_scans_without_updates(self):
        # no update anywhere: one sweep of several windows, with no change
        pair = make_pair(41, 37, tx=(0, 0, 40.0), rx=(4.0, 0, 3.0), d=0.02)
        alph = builtin("varactor5g")
        config, _ = optimize_alternating(pair, alph)
        again, report = optimize_alternating(pair, alph, init=config)
        assert report.updates_per_sweep == [0]
        assert np.array_equal(again.alphabet_indices, config.alphabet_indices)

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_random_batch_matches_per_element_loop(self, seed):
        pair, alph, init = _batch_instance(seed)
        idx, trace, per_sweep, converged = _reference_alternating(pair, alph, init)
        config, report = optimize_alternating(pair, alph, init)
        assert np.array_equal(config.alphabet_indices, idx)
        assert report.objective_trace == trace
        assert report.updates_per_sweep == per_sweep
        assert report.converged == converged

    def test_margin_just_inside_drift_budget(self):
        # gh in row-major order: 100 bulk elements, then c, four elements a
        # and one b, all starting at entry 0 of the binary alphabet.  The a's
        # turn over in one round and move the total by 8j in all; b's margin
        # against the round's starting total is -0.95 of its reach over the
        # drift budget, and the move makes it improvable.  The scan must
        # rescore b although its margin was negative.
        gh = np.concatenate([np.ones(100), [1 + 5j], np.full(4, -1j), [0.0264 - 0.3j]])
        pair = replace(make_pair(1, 106), g=gh.reshape(1, -1), h=np.ones((1, 106), dtype=complex))
        alph = uadp_set(2)
        idx, trace, per_sweep, converged = _reference_alternating(pair, alph)
        total = np.sum(gh * alph.values[0])
        alpha = total - gh[-1] * alph.values[0]
        margin = 2.0 * np.real((alph.values[1] - alph.values[0]) * gh[-1] * np.conj(alpha))
        reach = 2.0 * abs(gh[-1]) * abs(alph.values[1] - alph.values[0])
        budget = designer._DRIFT_STEPS * np.mean(np.abs(gh)) * abs(alph.values[1] - alph.values[0])
        assert -1.0 < margin / (reach * budget) < -0.9
        assert idx.ravel()[-5:].tolist() == [1, 1, 1, 1, 1]
        config, report = optimize_alternating(pair, alph)
        assert np.array_equal(config.alphabet_indices, idx)
        assert report.objective_trace == trace
        assert report.updates_per_sweep == per_sweep


class TestUpdatesPerSweep:
    def test_first_sweep_does_most_updates(self):
        pair = make_pair(12, 12, rx=(30.0, -10.0, 25.0))
        _, report = optimize_alternating(pair, builtin("varactor5g"))
        per_sweep = report.updates_per_sweep
        assert len(per_sweep) == report.iterations > 1
        assert sum(per_sweep) == report.element_update_count
        assert per_sweep[0] > sum(per_sweep[1:])


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
