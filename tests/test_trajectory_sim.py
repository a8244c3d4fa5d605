import hashlib
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import special
from scipy.signal import lfilter
from scipy.special import ndtri

import qho_measure
import qho_measure.trajectory_sim as ts
from qho_measure import cephes, cli
from qho_measure.chain_analytics import ChainClosedForm, ChainConfig, MeasurementScheme, density_before_nth
from qho_measure.errors import DomainError, InsufficientSamples, ResonanceError
from qho_measure.gaussian_core import OscillatorParams, WavePacket, evolved_width
from qho_measure.trajectory_sim import (
    NORMAL_MAX,
    RunningStats,
    ks_critical_1pct,
    normality_statistic,
    run_chain,
    run_chain_jittered,
    run_ensemble,
    thinning_interval,
)
from conftest import REF_SIGMA_INF, traced_peak


class TestRunChain:
    def test_deterministic_repeat(self, ref_config):
        r1, s1 = run_chain(ref_config(n=500, seed=7))
        r2, s2 = run_chain(ref_config(n=500, seed=7))
        assert np.array_equal(r1.samples, r2.samples)
        assert s1.count == s2.count and s1.mean == s2.mean

    def test_seed_changes_samples(self, ref_config):
        r1, _ = run_chain(ref_config(n=500, seed=7))
        r2, _ = run_chain(ref_config(n=500, seed=8))
        assert not np.array_equal(r1.samples, r2.samples)

    def test_stats_match_samples(self, ref_config):
        record, stats = run_chain(ref_config(n=2000, seed=3))
        assert stats.count == 2000
        assert abs(stats.mean - np.mean(record.samples)) < 1e-12
        assert abs(stats.std - np.std(record.samples)) < 1e-12

    def test_marginals_match_closed_form(self, ref_params, ref_scheme, ref_packet):
        # std of the i-th sample over many independent chains must follow
        # the closed-form per-measurement density
        n_chains, length = 4000, 10
        cols = np.empty((n_chains, length))
        for j in range(n_chains):
            cfg = ChainConfig(ref_params, ref_scheme, ref_packet, length, seed=50_000 + j)
            record, _ = run_chain(cfg)
            cols[j] = record.samples
        cf = ChainClosedForm.from_setup(ref_params, ref_scheme, ref_packet)
        for i in (1, 2, 3, 10):
            target = density_before_nth(cf, i).std
            observed = float(np.std(cols[:, i - 1]))
            se = target / math.sqrt(2 * n_chains)
            assert abs(observed - target) < 4 * se

    def test_first_sample_tracks_initial_offset(self, ref_params, ref_scheme):
        # x_1 ~ N(x0 rho, sigma_first): check the mean over many chains
        packet = WavePacket(x0=3.0, sigma_x0=0.4)
        cf = ChainClosedForm.from_setup(ref_params, ref_scheme, packet)
        firsts = []
        for j in range(2000):
            cfg = ChainConfig(ref_params, ref_scheme, packet, 1, seed=90_000 + j)
            record, _ = run_chain(cfg)
            firsts.append(record.samples[0])
        se = cf.sigma_first / math.sqrt(2000)
        assert abs(np.mean(firsts) - 3.0 * cf.rho) < 4 * se

    def test_resonance_raises(self, ref_params, ref_packet):
        scheme = MeasurementScheme(t_M=0.5 * ref_params.period, sigma_M=0.5)
        cfg = ChainConfig(ref_params, scheme, ref_packet, 100, seed=1)
        with pytest.raises(ResonanceError):
            run_chain(cfg)

    def test_long_run_hits_limit(self, ref_config):
        record, _ = run_chain(ref_config(n=500_000, seed=11))
        assert abs(np.std(record.samples) / REF_SIGMA_INF - 1.0) < 0.01


class TestRunChainJittered:
    def test_one_runner(self):
        assert run_chain_jittered is run_chain

    def test_zero_jitter_identical(self, ref_config):
        r0, _ = run_chain(ref_config(n=300, seed=5))
        rj, _ = run_chain_jittered(ref_config(n=300, seed=5, jitter_std=0.0))
        assert np.array_equal(r0.samples, rj.samples)

    def test_records_effective_periods(self, ref_config, ref_scheme):
        jitter = 0.05 * ref_scheme.t_M
        record, _ = run_chain_jittered(ref_config(n=500, seed=5, jitter_std=jitter))
        assert record.periods is not None and len(record.periods) == 500
        assert np.all(record.periods > 0)
        se = jitter / math.sqrt(500)
        assert abs(np.mean(record.periods) - ref_scheme.t_M) < 4 * se

    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_refuses_a_longest_period_whose_phase_is_rounding(self, ref_config, ref_params, ref_scheme, side):
        # no period exceeds t_M + NORMAL_MAX jitter_std; from 2^23 rad
        # rounding sets the phase of omega times it
        jitter_std = side * (2**23 / ref_params.omega - ref_scheme.t_M) / NORMAL_MAX
        cfg = ref_config(n=10, jitter_std=jitter_std)
        if side < 1:
            assert len(run_chain(cfg)[0].periods) == 10
        else:
            with pytest.raises(DomainError, match="--jitter-std"):
                run_chain(cfg)

    def test_largest_normal_drawn(self):
        assert ndtri(1.0 - 2.0**-53) < NORMAL_MAX

    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_unkept_chain_gives_the_same_statistics(self, ref_config, ref_scheme, jitter):
        cfg = ref_config(n=ts.SCAN_CHUNK + 1000, seed=3, jitter_std=jitter * ref_scheme.t_M)
        (_, kept), (record, unkept) = run_chain(cfg), run_chain(cfg, keep=False)
        assert record is None
        assert (kept.count, kept.mean.hex(), kept.variance.hex()) == (unkept.count, unkept.mean.hex(), unkept.variance.hex())
        assert np.array_equal(kept.counts, unkept.counts)

    def test_jitter_regularizes_resonance(self, ref_params, ref_packet):
        # exactly resonant mean period, but jitter keeps each step off
        # resonance and the chain finite
        t_half = 0.5 * ref_params.period
        scheme = MeasurementScheme(t_M=t_half, sigma_M=0.5, jitter_std=0.02 * t_half)
        cfg = ChainConfig(ref_params, scheme, ref_packet, 5000, seed=2)
        record, _ = run_chain_jittered(cfg)
        assert np.all(np.isfinite(record.samples))


class TestRunningStats:
    def test_push_matches_numpy(self, rng):
        xs = rng.normal(0.0, 2.0, size=1000)
        st = RunningStats.for_scale(2.0)
        for x in xs:
            st.push_array(np.array([x]))
        assert st.count == 1000
        assert abs(st.mean - np.mean(xs)) < 1e-12
        assert abs(st.variance - np.var(xs)) < 1e-12

    def test_push_array_matches_push(self, rng):
        xs = rng.normal(0.0, 1.0, size=500)
        a = RunningStats.for_scale(1.0)
        b = RunningStats.for_scale(1.0)
        a.push_array(xs)
        for x in xs:
            b.push_array(np.array([x]))
        assert a.count == b.count
        assert abs(a.mean - b.mean) < 1e-12
        assert abs(a.variance - b.variance) < 1e-12
        assert np.array_equal(a.counts, b.counts)

    def test_merge_associative_and_exact(self, rng):
        xs = rng.normal(1.0, 3.0, size=900)
        parts = np.split(xs, 3)
        stats = []
        for p in parts:
            st = RunningStats.for_scale(3.0)
            st.push_array(p)
            stats.append(st)
        left = stats[0].merge(stats[1]).merge(stats[2])
        right = stats[0].merge(stats[1].merge(stats[2]))
        whole = RunningStats.for_scale(3.0)
        whole.push_array(xs)
        for m in (left, right):
            assert m.count == 900
            assert abs(m.mean - whole.mean) < 1e-12
            assert abs(m.variance - whole.variance) < 1e-12
            assert np.array_equal(m.counts, whole.counts)

    def test_histogram_conserves_count(self, rng):
        st = RunningStats.for_scale(1.0)
        xs = rng.normal(0.0, 5.0, size=2000)  # many land in overflow bins
        st.push_array(xs)
        assert int(np.sum(st.counts)) == 2000
        assert st.counts[0] > 0 and st.counts[-1] > 0

    def test_histogram_counts_each_edge_sample_once(self):
        st = RunningStats.for_scale(1.0)
        lo, hi = st.edges[0], st.edges[-1]
        xs = np.array([hi, lo, 0.0, np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf),
                       2.0 * hi, 2.0 * lo, np.nextafter(hi, -np.inf)])
        st.push_array(xs)
        assert int(np.sum(st.counts)) == st.count == xs.size
        # the last bin is closed, so edges[-1] itself is in range
        assert st.counts[0] == 2 and st.counts[-1] == 2
        assert st.counts[1] == 1 and st.counts[-2] == 2

    def test_fewer_than_two_values_have_no_spread(self):
        st = RunningStats.for_scale(1.0)
        st.push_array(np.array([]))
        assert (st.count, st.mean, st.variance, int(st.counts.sum())) == (0, 0.0, 0.0, 0)
        st.push_array(np.array([0.7]))
        st.push_array(np.empty(0))
        assert (st.count, st.mean, st.variance, st.std, int(st.counts.sum())) == (1, 0.7, 0.0, 0.0, 1)

    def test_merge_refuses_other_edges(self):
        with pytest.raises(ValueError, match="different bin edges"):
            RunningStats.for_scale(1.0).merge(RunningStats.for_scale(2.0))


class TestPrefixStd:
    P = ts.STD_PIECE

    @pytest.mark.parametrize("n", [
        2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 1000,
        P - 1, P, P + 1, P + 7, P + 8, P + 9, 2 * P - 1, 2 * P, 2 * P + 1, 2 * P + 8, 2 * P + 16, 2 * P + 17,
        3 * P + 5, 4 * P + 8, 1_000_003, (1 << 21) + 3,
    ])
    def test_bits_of_np_std(self, rng, n):
        # the split of np.add.reduce's pairwise sum, at n // 2 - (n // 2) % 8,
        # is mirrored down to pieces of STD_PIECE values, on either side of
        # the 8-value rounding and the piece size; values over 12 decades,
        # so that a sum grouped otherwise rounds otherwise
        xs = rng.normal(1.0, 1.0, size=n) * 10.0 ** rng.uniform(-6, 6, size=n)
        assert ts.prefix_std(xs).hex() == float(np.std(xs)).hex()
        assert ts.prefix_std(xs[: n // 2 + 1]).hex() == float(np.std(xs[: n // 2 + 1])).hex()

    def test_bits_of_np_std_on_random_lengths(self, rng):
        for n in rng.integers(2, 1 << 20, size=60):
            xs = rng.normal(1.0, 1.0, size=n) * 10.0 ** rng.uniform(-6, 6, size=n)
            assert ts.prefix_std(xs).hex() == float(np.std(xs)).hex(), n


class TestRunEnsemble:
    def test_pooled_count(self, ref_config):
        stats = run_ensemble(ref_config(n=400, seed=9), n_chains=8)
        assert stats.count == 3200

    def test_single_chain_differs_from_run_chain_seed_path(self, ref_config):
        # ensemble splits the seed, so chain 0 need not equal run_chain,
        # but the pooled std must still be near the limit
        stats = run_ensemble(ref_config(n=20_000, seed=9), n_chains=4)
        assert abs(stats.std / REF_SIGMA_INF - 1.0) < 0.02

    def test_refuses_no_chains(self, ref_config):
        with pytest.raises(ValueError, match="n_chains must be >= 1"):
            run_ensemble(ref_config(n=300, seed=4), n_chains=0)

    def test_deterministic(self, ref_config):
        a = run_ensemble(ref_config(n=300, seed=4), n_chains=3)
        b = run_ensemble(ref_config(n=300, seed=4), n_chains=3)
        assert a.count == b.count and a.mean == b.mean and a.variance == b.variance

    def test_jittered_values_unchanged(self, ref_config, ref_scheme):
        # the jittered path through run_ensemble, pinned to recorded values
        stats = run_ensemble(ref_config(n=2000, seed=21, jitter_std=0.05 * ref_scheme.t_M), n_chains=3)
        assert stats.count == 6000
        assert stats.mean == -0.018421718743808164
        assert stats.variance == 2.1081291484897924
        counts = hashlib.sha256(repr(stats.counts.tolist()).encode()).hexdigest()
        assert counts == "7811739cfb4e3767440a0d75828ed50d87ee9adabb4109982ff3443a3f6d5e0d"


    def test_closed_form_derived_once(self, ref_config, monkeypatch):
        # the chains share their config's closed form
        setups, from_setup = [], ChainClosedForm.from_setup.__func__

        def counting(cls, *setup):
            setups.append(setup)
            return from_setup(cls, *setup)

        monkeypatch.setattr(ChainClosedForm, "from_setup", classmethod(counting))
        assert run_ensemble(ref_config(n=200, seed=3), n_chains=16).count == 3200
        assert len(setups) == 1


class TestChainConfigClosedForm:
    def test_is_the_setups_closed_form(self, ref_config, ref_params, ref_scheme, ref_packet):
        cfg = ref_config()
        assert cfg.closed_form == ChainClosedForm.from_setup(ref_params, ref_scheme, ref_packet)
        assert cfg.closed_form is cfg.closed_form

    def test_overflow_raises_on_every_access(self, ref_params, ref_packet):
        # nothing is cached for a setup whose scales leave float range
        scheme = MeasurementScheme(t_M=0.2 * ref_params.period, sigma_M=1e200)
        cfg = ChainConfig(ref_params, scheme, ref_packet, n_measurements=10, seed=0)
        for _ in range(2):
            with np.errstate(all="ignore"), pytest.raises(DomainError, match="float range"):
                cfg.closed_form
        assert "closed_form" not in vars(cfg)


class TestRunEnsembleThreads:
    @staticmethod
    def serial(cfg, n_chains):
        """The ensemble as a single-threaded loop merging in chain order."""
        pooled = None
        for child in np.random.SeedSequence(cfg.seed).spawn(n_chains):
            _, stats = ts._run_chain_seeded(cfg, child)
            pooled = stats if pooled is None else pooled.merge(stats)
        return pooled

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("n_chains", [1, 2, 3, 16])
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_matches_serial_merge(self, monkeypatch, ref_config, ref_scheme, cpus, n_chains, jitter):
        cfg = ref_config(n=500, seed=31, jitter_std=jitter * ref_scheme.t_M)
        expected = self.serial(cfg, n_chains)
        monkeypatch.setattr(ts, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter lock as often as they can
        try:
            got = run_ensemble(cfg, n_chains)
        finally:
            sys.setswitchinterval(interval)
        assert (got.count, got.mean, got.variance) == (expected.count, expected.mean, expected.variance)
        assert np.array_equal(got.counts, expected.counts)

    def test_resonance_raises_and_joins_helpers(self, monkeypatch, ref_params, ref_packet):
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 3)
        scheme = MeasurementScheme(t_M=0.5 * ref_params.period, sigma_M=0.5)
        before = threading.active_count()
        with pytest.raises(ResonanceError):
            run_ensemble(ChainConfig(ref_params, scheme, ref_packet, 100, 3), n_chains=4)
        assert threading.active_count() == before

    def test_first_failing_chain_raises(self, monkeypatch, ref_config):
        # chains 2 and 3 fail, on different threads; a serial loop stops at 2
        run = ts._run_chain_seeded

        def failing(cfg, seed_seq, keep):
            chain = seed_seq.spawn_key[-1]
            if chain >= 2:
                raise ValueError(f"chain {chain}")
            return run(cfg, seed_seq)

        monkeypatch.setattr(ts, "_run_chain_seeded", failing)
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="chain 2"):
            run_ensemble(ref_config(n=100, seed=3), n_chains=5)

    def test_errstate_reaches_every_chain(self, monkeypatch, ref_config):
        run, seen = ts._run_chain_seeded, []

        def recording(cfg, seed_seq, keep):
            seen.append((threading.get_ident(), np.geterr()))
            return run(cfg, seed_seq)

        monkeypatch.setattr(ts, "_run_chain_seeded", recording)
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 2)
        with np.errstate(all="raise"):
            run_ensemble(ref_config(n=200, seed=3), n_chains=4)
        assert len(seen) == 4 and len({ident for ident, _ in seen}) == 2
        assert all(err == dict.fromkeys(("divide", "over", "under", "invalid"), "raise") for _, err in seen)

    def test_idle_thread_takes_the_next_task(self, monkeypatch, ref_config):
        # chain 0 waits until chains 1-6 are done, so the other thread, not a
        # fixed share of chain 0's thread, has to run all of them
        run, others_done, threads = ts._run_chain_seeded, threading.Event(), {}

        def waiting(cfg, seed_seq, keep):
            chain = seed_seq.spawn_key[-1]
            if chain == 0:
                others_done.wait(timeout=5.0)
            result = run(cfg, seed_seq, keep)
            threads[chain] = threading.get_ident()
            if threads.keys() >= set(range(1, 7)):
                others_done.set()
            return result

        monkeypatch.setattr(ts, "_run_chain_seeded", waiting)
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 2)
        run_ensemble(ref_config(n=100, seed=3), n_chains=7)
        assert others_done.is_set() and all(threads[i] != threads[0] for i in range(1, 7))

    def test_no_chain_starts_after_a_failure(self, monkeypatch, ref_config):
        # chain 1 fails at once; chain 0 waits until its thread has stopped,
        # and then takes no chain either
        run, failed, started, failing_thread = ts._run_chain_seeded, threading.Event(), [], []

        def failing(cfg, seed_seq, keep):
            chain = seed_seq.spawn_key[-1]
            started.append(chain)
            if chain == 1:
                failing_thread.append(threading.current_thread())
                failed.set()
                raise ValueError("chain 1")
            if chain == 0 and failed.wait(timeout=5.0):
                failing_thread[0].join(timeout=5.0)
            return run(cfg, seed_seq, keep)

        monkeypatch.setattr(ts, "_run_chain_seeded", failing)
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="chain 1"):
            run_ensemble(ref_config(n=100, seed=3), n_chains=16)
        assert sorted(started) == [0, 1]


class TestMultiChunkChain:
    """A chain over several scan chunks and a partial one: its bytes are
    pinned to those of one whole-length draw and scan, and equal to a
    reference built from that draw; its streamed statistics equal numpy's
    over the whole record."""

    N = 3 * ts.SCAN_CHUNK + 7

    @staticmethod
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    @staticmethod
    def assert_stats_match_record(stats, xs):
        inner, _ = np.histogram(xs, bins=stats.edges)
        assert np.array_equal(stats.counts[1:-1], inner)
        assert stats.counts[0] == np.sum(xs < stats.edges[0])
        assert stats.counts[-1] == np.sum(xs > stats.edges[-1])
        assert stats.count == xs.size
        assert math.isclose(stats.mean, np.mean(xs), rel_tol=1e-12)
        assert math.isclose(stats.variance, np.var(xs), rel_tol=1e-12)

    def test_plain_bytes(self, ref_config):
        record, stats = run_chain(ref_config(n=self.N, seed=17))
        assert self.digest(record.samples) == "1b6370b97cd277ddfa621053ad68f74914adc473090fc0da51276ec1f092dbde"
        self.assert_stats_match_record(stats, record.samples)

    def test_jittered_bytes(self, ref_config, ref_scheme):
        record, stats = run_chain(ref_config(n=self.N, seed=17, jitter_std=0.05 * ref_scheme.t_M))
        assert self.digest(record.samples) == "d4ecc29ea3ef447dc8f9e222a86da600df85439d910f873f1ddbd62ebb77d7ff"
        assert self.digest(record.periods) == "476b7fdc3d0149095020c3375c0cca6f6bb3fb6e415d6cf79dbadd88f1e473a2"
        self.assert_stats_match_record(stats, record.samples)

    @pytest.mark.parametrize("kind", ["chunk_half_lane", "three_chunks_7"])
    @pytest.mark.parametrize("x0", [0.0, 1.3])
    @pytest.mark.parametrize("tau", [0.2, 0.45])
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_matches_whole_length_reference(self, ref_params, tau, x0, jitter, kind):
        # the noise from one whole-length draw, then the recurrence by
        # lfilter (plain) or step by step in Python floats (jittered); a
        # chunk plus half a lane ends on a chunk that takes the loop
        t_M = tau * ref_params.period
        scheme = MeasurementScheme(t_M=t_M, sigma_M=0.5, jitter_std=jitter * t_M)
        packet = WavePacket(x0=x0, sigma_x0=ref_params.sigma_gs)
        cf = ChainClosedForm.from_setup(ref_params, scheme, packet)
        k = ts._scan_warmup(cf.rho)
        n = min(ts.SCAN_CHUNK, ts.SCAN_LANES * k) + k // 2 if kind == "chunk_half_lane" else 3 * ts.SCAN_CHUNK + 7
        record, _ = run_chain(ChainConfig(ref_params, scheme, packet, n, seed=17))
        u = np.random.Generator(np.random.PCG64(17)).random(2 * n if jitter else n)
        eta = ndtri(np.maximum(u, 1e-300))
        if jitter:  # uniforms 0..n-1 give the periods, n..2n-1 the noise
            t = np.maximum(eta[:n] * scheme.jitter_std + t_M, ts.T_MIN_FRACTION * t_M)
            b = eta[n:] * evolved_width(ref_params, scheme.sigma_M, t)
            b[0] = eta[n] * evolved_width(ref_params, packet.sigma_x0, t[0])
            ref = loop_reference(np.cos(ref_params.omega * t), b, x0)
            assert record.periods.tobytes() == t.tobytes()
        else:
            b = eta * cf.sigma_step
            b[0] = eta[0] * cf.sigma_first
            ref, _ = lfilter([1.0], [1.0, -cf.rho], b, zi=np.array([cf.rho * x0]))
            assert record.periods is None
        assert record.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("tau", [0.2, 0.45])
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_chunk_size_does_not_change_the_chain(self, monkeypatch, ref_params, tau, jitter):
        # chunks of SCAN_LANES lanes (196,608 steps at tau 0.2, k = 96, three
        # to a SCAN_CHUNK block; the SCAN_CHUNK cap at tau 0.45, k = 797)
        # against chunks forced to SCAN_CHUNK: the same outcomes, periods and
        # statistics, bit for bit, of a chain and of an ensemble
        t_M = tau * ref_params.period
        scheme = MeasurementScheme(t_M=t_M, sigma_M=0.5, jitter_std=jitter * t_M)
        cfg = ChainConfig(ref_params, scheme, WavePacket(1.3, ref_params.sigma_gs), 2 * ts.SCAN_CHUNK + 7, seed=17)
        sizes, scan = [], ts.ar1_scan
        monkeypatch.setattr(ts, "ar1_scan", lambda a, b, y, out: sizes.append(b.size) or scan(a, b, y, out))

        def run():
            sizes.clear()
            record, stats = run_chain(cfg)
            chunks = sizes[:]
            return record, [stats, run_ensemble(cfg, 2)], chunks

        record, stats, chunks = run()
        monkeypatch.setattr(ts, "SCAN_LANES", ts.SCAN_CHUNK)
        forced, forced_stats, forced_chunks = run()
        block = [196_608, 196_608, 131_072] if tau == 0.2 else [ts.SCAN_CHUNK]
        assert chunks == block * 2 + [7]
        assert forced_chunks == [ts.SCAN_CHUNK, ts.SCAN_CHUNK, 7]
        assert record.samples.tobytes() == forced.samples.tobytes()
        assert (record.periods is None) == (jitter == 0.0)
        if jitter:
            assert record.periods.tobytes() == forced.periods.tobytes()
        for got, want in zip(stats, forced_stats):
            assert (got.count, got.mean.hex(), got.variance.hex()) == (want.count, want.mean.hex(), want.variance.hex())
            assert np.array_equal(got.counts, want.counts)


class TestChainMemory:
    """Peak traced allocation of a chain: run_chain holds its record plus
    scratch of a few scan chunks; an ensemble chain holds only the scratch."""

    @pytest.mark.parametrize("jitter,limit", [(0.0, 13.0), (0.05, 25.0)])
    def test_peak_bytes_per_sample(self, ref_config, ref_scheme, jitter, limit):
        n = 1 << 21
        jitter_std = jitter * ref_scheme.t_M
        run_chain(ref_config(n=1000, jitter_std=jitter_std))  # warms the chain's code paths untraced
        peak = traced_peak(lambda: run_chain(ref_config(n=n, seed=3, jitter_std=jitter_std)))
        assert peak / n <= limit

    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_ensemble_peak_does_not_grow_with_n(self, monkeypatch, ref_config, ref_scheme, jitter):
        # one thread, so that the peak does not depend on how chains overlap
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 1)
        jitter_std = jitter * ref_scheme.t_M
        run_chain(ref_config(n=1000, jitter_std=jitter_std))  # warms the chain's code paths untraced
        short, long = (
            traced_peak(lambda: run_ensemble(ref_config(n=n, seed=3, jitter_std=jitter_std), n_chains=2))
            for n in (1 << 20, 1 << 22)
        )
        assert abs(long - short) <= 1 << 20


class TestPortMemory:
    """Scratch of the ports and of a chain through them: per block and per
    chunk, whatever the input's or the chain's length."""

    def test_one_chunk(self):
        # the ports work cephes.BLOCK values at a time; beyond ndtr's
        # output, 2^20 values take the scratch of 2^16 (about 0.6 MB for
        # ndtri, 1.1 MB for ndtr)
        def scratch(n):
            y = np.maximum(np.random.Generator(np.random.PCG64(3)).random(n), 1e-300)
            x = 8.0 * y - 4.0
            return traced_peak(lambda: cephes.ndtri(y, out=y)), traced_peak(lambda: cephes.ndtr(x)) - 8 * n

        (ndtri_short, ndtr_short), (ndtri_long, ndtr_long) = scratch(1 << 16), scratch(1 << 20)
        assert ndtri_long <= ndtri_short + (1 << 16)
        assert ndtr_long <= ndtr_short + (1 << 16)

    def test_chain_peak_does_not_grow_with_n(self, monkeypatch, ref_config):
        # with scipy.special not loaded, a chain of up to PORT_MAX_VALUES
        # normals takes the port, chunk by chunk: at tau 0.2 (k = 96) a
        # chunk is SCAN_LANES lanes, 196,608 steps, and a SCAN_CHUNK block
        # takes two of them and 131,072 steps
        monkeypatch.delitem(sys.modules, "scipy.special")
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 1)
        sizes, port = [], cephes.ndtri
        monkeypatch.setattr(cephes, "ndtri", lambda y, out: sizes.append(y.size) or port(y, out))
        short, long = (
            traced_peak(lambda: run_ensemble(ref_config(n=n, seed=3), n_chains=1))
            for n in (2 * ts.SCAN_CHUNK, 3 * ts.SCAN_CHUNK)
        )
        assert sizes == [196_608, 196_608, 131_072] * 5
        assert abs(long - short) <= 1 << 20

    def test_jittered_chain_and_ks_scratch(self, monkeypatch, ref_config, ref_scheme):
        # simulate's jittered run through the ports: the record (samples and
        # periods, 16 bytes a step) plus at most 8 MB (measured 6.8 MB: the
        # statistics' deviations of the 500,000-step block, 4 MB, beside the
        # chunk's noise and coefficients, 1.5 MB each)
        monkeypatch.delitem(sys.modules, "scipy.special")
        n = 500_000
        cfg = ref_config(n=n, seed=3, jitter_std=0.05 * ref_scheme.t_M)
        run_chain(ref_config(n=1000, jitter_std=0.05 * ref_scheme.t_M))  # warms the chain's code paths untraced

        def chain_and_ks():
            record, _ = run_chain(cfg)
            normality_statistic(record.samples[::3], REF_SIGMA_INF)

        assert traced_peak(chain_and_ks) - 16 * n <= 8 << 20
        assert "scipy.special" not in sys.modules


# run in a fresh interpreter, where scipy.special is not loaded until a run
# of more than PORT_MAX_VALUES (lowered to 1000) values loads it
FRESH_ENSEMBLES = """
import json, sys
from qho_measure.chain_analytics import ChainConfig, MeasurementScheme
from qho_measure.gaussian_core import OscillatorParams, WavePacket
import qho_measure.trajectory_sim as ts
ts.PORT_MAX_VALUES = 1000
p = OscillatorParams(1.0, 0.707, 1.0)
loaded = []
for n, chains, jitter in ((500, 2, 0.0), (250, 2, 0.01), (501, 2, 0.0)):
    scheme = MeasurementScheme(0.2 * p.period, 0.5, jitter)
    ts.run_ensemble(ChainConfig(p, scheme, WavePacket(0.0, p.sigma_gs), n, 1), chains)
    loaded.append("scipy.special" in sys.modules)
print(json.dumps(loaded))
"""


# run in a fresh interpreter that cannot import scipy, with PORT_MAX_VALUES
# lowered to 1000: runs above the count take the ports too
NUMPY_ONLY = """
import json, sys
sys.modules["scipy"] = None
from qho_measure import cephes, cli
from qho_measure.chain_analytics import ChainConfig, MeasurementScheme
from qho_measure.gaussian_core import OscillatorParams, WavePacket
import qho_measure.trajectory_sim as ts
ts.PORT_MAX_VALUES = 1000
out, ensembles = sys.argv[1], []
for jitter in ("0", "0.01"):
    if cli.main(["simulate", "--n", "1100", "--jitter-std", jitter, "--seed", "4", "--out", f"{out}/{jitter}"]):
        sys.exit("simulate failed")
p = OscillatorParams(1.0, 0.707, 1.0)
for n, jitter in ((600, 0.0), (300, 0.01)):
    scheme = MeasurementScheme(0.2 * p.period, 0.5, jitter)
    s = ts.run_ensemble(ChainConfig(p, scheme, WavePacket(0.0, p.sigma_gs), n, 1), 2)
    ensembles.append([s.count, s.mean, s.variance, s.counts.tolist()])
print(json.dumps({"ports_above_count": ts._special(ts.PORT_MAX_VALUES + 1) is cephes, "ensembles": ensembles}))
"""


class TestBackendChooser:
    def test_ports_up_to_the_count(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.special")
        assert ts._special(ts.PORT_MAX_VALUES) is cephes
        assert ts._special(ts.PORT_MAX_VALUES + 1) is special

    def test_scipy_once_loaded(self):
        assert ts._special(1) is special

    def test_ports_above_the_count_without_scipy(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.special")
        monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy raises ImportError
        assert ts._special(ts.PORT_MAX_VALUES + 1) is cephes

    def test_ensemble_counts_the_normals_of_all_its_chains(self):
        # 2 chains of 500, 2 jittered chains of 250 (two normals a step),
        # then 2 chains of 501
        src = str(os.path.dirname(os.path.dirname(qho_measure.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", FRESH_ENSEMBLES], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert json.loads(done.stdout) == [False, False, True]

    def test_numpy_only_interpreter_gives_scipys_bits(self, tmp_path):
        # without scipy, runs above the count take the ports; this process
        # has scipy.special loaded, so its runs take scipy's
        src = str(os.path.dirname(os.path.dirname(qho_measure.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY, str(tmp_path / "numpy_only")], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        got = json.loads(done.stdout.splitlines()[-1])
        assert got["ports_above_count"]
        for jitter in ("0", "0.01"):
            out = tmp_path / "scipy" / jitter
            assert cli.main(["simulate", "--n", "1100", "--jitter-std", jitter, "--seed", "4", "--out", str(out)]) == 0
            for name in ("samples.csv", "running_std.csv", "histogram.csv"):
                assert (tmp_path / "numpy_only" / jitter / name).read_bytes() == (out / name).read_bytes()
        p = OscillatorParams(1.0, 0.707, 1.0)
        want = []
        for n, jitter in ((600, 0.0), (300, 0.01)):
            scheme = MeasurementScheme(0.2 * p.period, 0.5, jitter)
            s = run_ensemble(ChainConfig(p, scheme, WavePacket(0.0, p.sigma_gs), n, 1), 2)
            want.append([s.count, s.mean, s.variance, s.counts.tolist()])
        assert got["ensembles"] == want


class TestNormality:
    def test_gaussian_accepted(self, rng):
        rejections = 0
        for _ in range(100):
            xs = rng.normal(0.0, 1.5, size=1000)
            if normality_statistic(xs, 1.5) > ks_critical_1pct(1000):
                rejections += 1
        assert rejections <= 3  # 1 percent level, allow slack

    def test_uniform_rejected(self, rng):
        xs = rng.uniform(-2.0, 2.0, size=1000)
        assert normality_statistic(xs, 4.0 / math.sqrt(12.0)) > ks_critical_1pct(1000)

    def test_wrong_scale_rejected(self, rng):
        xs = rng.normal(0.0, 2.0, size=5000)
        assert normality_statistic(xs, 1.0) > ks_critical_1pct(5000)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            normality_statistic(np.zeros(50), 1.0)

    def test_critical_value(self):
        assert abs(ks_critical_1pct(10_000) - 0.0163) < 1e-15

    def test_blocks_give_the_one_shot_statistic(self, rng):
        xs = rng.normal(0.0, 1.5, size=10**6)
        s, n = np.sort(xs), xs.size
        cdf, i = special.ndtr(s / 1.4), np.arange(1, n + 1)
        want = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
        assert n > ts.KS_BLOCK
        assert normality_statistic(xs, 1.4).hex() == want.hex()


class TestThinning:
    def test_reference_rho(self):
        # cos(2 pi / 5) = 0.309..., cube is below 0.05
        assert thinning_interval(0.30901699437494745) == 3

    def test_memoryless(self):
        assert thinning_interval(0.0) == 1

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_unit_rho_refused(self, rho):
        with pytest.raises(ValueError, match="must be < 1"):
            thinning_interval(rho)

    def test_threshold_property(self):
        for rho in (0.1, 0.3, 0.7, 0.95):
            k = thinning_interval(rho)
            assert rho**k < 0.05
            assert k == 1 or rho ** (k - 1) >= 0.05


# around the loop's piece and the scan's chunk boundaries
SCAN_LENGTHS = (
    1, 2, ts.SCAN_LOOP_PIECE - 1, ts.SCAN_LOOP_PIECE, ts.SCAN_LOOP_PIECE + 1,
    ts.SCAN_CHUNK - 1, ts.SCAN_CHUNK, ts.SCAN_CHUNK + 1, 10**6,
)


@pytest.fixture
def loop_calls(monkeypatch):
    """Sizes of the pieces that ar1_scan hands to the sequential loop."""
    calls = []
    loop = ts._scan_loop

    def counting_loop(*args):
        calls.append(args[1].size)
        return loop(*args)

    monkeypatch.setattr(ts, "_scan_loop", counting_loop)
    return calls


def loop_reference(a, b, y):
    """y_i = a_i y_{i-1} + b_i step by step in Python floats."""
    out = []
    for ai, bi in zip(a.tolist(), b.tolist()):
        y = ai * y + bi
        out.append(y)
    return np.array(out, dtype=float)


def memory_coefficients(kind, n, rng):
    if kind == "jittered":  # the chain's rho_i = cos(omega t_i) near tau_M = 0.45
        return np.cos(2 * np.pi * (0.45 + 0.002 * rng.standard_normal(n)))
    a = rng.uniform(-0.95, 0.95, n)
    a[n // 2] = -1.0  # one step without decay: the scan falls back to the loop
    if n > 2:
        a[n // 3] = 1.0
    return a


class TestAr1Scan:
    """ar1_scan must give the bits of the sequential recurrence."""

    @pytest.mark.parametrize("n", SCAN_LENGTHS)
    @pytest.mark.parametrize("a", (0.0, 0.31, -0.951, 0.992, 0.995, 0.999))
    def test_scalar_matches_lfilter(self, a, n):
        b = np.random.default_rng(n).standard_normal(n)
        ref, _ = lfilter([1.0], [1.0, -a], b, zi=np.array([a * 0.7]))
        assert ts.ar1_scan(a, b, 0.7, np.empty_like(b)).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", SCAN_LENGTHS)
    @pytest.mark.parametrize("kind", ("jittered", "unit_steps"))
    def test_array_matches_loop(self, kind, n):
        rng = np.random.default_rng(n)
        a = memory_coefficients(kind, n, rng)
        b = rng.standard_normal(n)
        assert ts.ar1_scan(a, b, -0.4, np.empty_like(b)).tobytes() == loop_reference(a, b, -0.4).tobytes()

    @pytest.mark.parametrize("a", (0.9, -0.951))
    def test_boundary_repair(self, monkeypatch, a):
        # warm-ups well short of the decay length leave lane boundaries that
        # disagree; the repaired lanes must still give the exact result
        repairs = []
        loop = ts._scan_loop

        def counting_loop(*args):
            repairs.append(args[1].size)
            return loop(*args)

        monkeypatch.setattr(ts, "SCAN_WARMUP_MARGIN", -40)
        monkeypatch.setattr(ts, "_scan_loop", counting_loop)
        n = 300_000
        b = np.random.default_rng(5).standard_normal(n)
        ref, _ = lfilter([1.0], [1.0, -a], b, zi=np.array([a * 0.7]))
        assert ts.ar1_scan(a, b, 0.7, np.empty_like(b)).tobytes() == ref.tobytes()
        assert len(repairs) > 10 and max(repairs) < ts.SCAN_CHUNK

    def test_repair_rechecks_next_block(self, monkeypatch):
        # zero inputs keep lane 4's warm-up at exactly 0 while the true state
        # is small but not 0, so lane 4 is repaired. Lane 5 warms up over
        # lane 4's samples from 0 too and agrees with lane 4's unrepaired
        # end; only the check against the repaired end finds it wrong.
        monkeypatch.setattr(ts, "SCAN_WARMUP_MARGIN", -40)
        a, k = 0.5, ts._scan_warmup(0.5)
        b = np.random.default_rng(8).standard_normal(100 * k)
        b[3 * k : 4 * k] = 0.0
        ref, _ = lfilter([1.0], [1.0, -a], b, zi=np.array([a * 0.7]))
        assert ts.ar1_scan(a, b, 0.7, np.empty_like(b)).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("a", (0.31, -0.951, 0.992))
    def test_lanes_with_tail_and_just_over_a_chunk(self, a):
        # whole lanes plus a partial tail, first a few and then more than a
        # chunk's worth in one call; TestMultiChunkChain covers the carry
        # from chunk to chunk
        k = ts._scan_warmup(a)
        for n in (40 * k + k // 2, ts.SCAN_CHUNK + k // 2):
            b = np.random.default_rng(n).standard_normal(n)
            ref, _ = lfilter([1.0], [1.0, -a], b, zi=np.array([a * 0.7]))
            assert ts.ar1_scan(a, b, 0.7, np.empty_like(b)).tobytes() == ref.tobytes()

    def test_last_lane_repair_reaches_through_tail(self, monkeypatch, loop_calls):
        # zero inputs and state up to lane L-3's last sample, which is 1: only
        # lane L-1's warm-up (from 0 over lane L-2) misses the decayed true
        # state. Its repair must come before the tail, which starts from it.
        monkeypatch.setattr(ts, "SCAN_WARMUP_MARGIN", -40)
        a, k = 0.5, ts._scan_warmup(0.5)
        lanes, tail = 40, 5
        b = np.zeros(lanes * k + tail)
        b[(lanes - 2) * k - 1] = 1.0
        ref = loop_reference(np.full(b.size, a), b, 0.0)
        assert ts.ar1_scan(a, b, 0.0, np.empty_like(b)).tobytes() == ref.tobytes()
        assert loop_calls == [k, tail] and ref[-1] != 0.0

    def test_too_few_lanes_take_the_loop(self, loop_calls):
        a, k = 0.9, ts._scan_warmup(0.9)
        b = np.random.default_rng(3).standard_normal(ts.SCAN_MIN_LANES * k)
        ts.ar1_scan(a, b[:-1], 0.7, np.empty(b.size - 1))  # one lane short
        assert loop_calls == [b.size - 1]
        loop_calls.clear()
        ts.ar1_scan(a, b, 0.7, np.empty_like(b))  # enough lanes: the loop sees at most repairs
        assert all(size <= k for size in loop_calls)
        loop_calls.clear()
        b = np.random.default_rng(4).standard_normal(ts.SCAN_CHUNK)
        ref, _ = lfilter([1.0], [1.0, -0.9999], b, zi=np.array([0.9999 * 0.7]))
        assert ts.ar1_scan(0.9999, b, 0.7, np.empty_like(b)).tobytes() == ref.tobytes()
        assert loop_calls == [ts.SCAN_LOOP_PIECE] * (ts.SCAN_CHUNK // ts.SCAN_LOOP_PIECE)
