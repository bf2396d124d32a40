"""The re-keyed sample streams against fresh per-sample Philox streams."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from fatflat import cli, flats, geometry, rng
from fatflat.geometry import MetricChart

from conftest import MASK64, sample_stream

SEEDS = (0, -1, 1 << 63, (1 << 64) + 5)
INDICES = (0, 4095, (1 << 64) - 1)
ROUNDS = 3


def _route_matches_oracle(streams) -> bool:
    """True when ``streams(seed)(index)`` draws, over ROUNDS redraw rounds,
    what a fresh oracle stream draws, bit for bit, for every seed and index.
    Round k re-keys and skips the first k draws, as the scan does."""
    dim = 4
    for seed in SEEDS:
        at = streams(seed)
        for index in INDICES:
            oracle = sample_stream(seed, index)
            for attempt in range(ROUNDS):
                expected = (oracle.random(dim), oracle.standard_normal(dim),
                            oracle.standard_normal(dim))
                gen = at(index)
                row = np.empty((3, dim))
                for _ in range(attempt + 1):
                    gen.random(out=row[0])
                    gen.standard_normal(out=row[1:])
                if not np.array_equal(row.view(np.uint64),
                                      np.stack(expected).view(np.uint64)):
                    return False
    return True


def test_rekeyed_route_matches_fresh_philox_streams():
    assert _route_matches_oracle(rng.sample_streams)


@pytest.mark.parametrize("seed", [0, 1, -1, 1 << 63, (1 << 64) + 5])
def test_sequential_draws_are_the_stream_keyed_zero_seed(seed):
    # the CLI's sequential draws: one Philox keyed by the seed alone
    got = rng.sample_streams(0)(seed)
    want = np.random.Generator(np.random.Philox(key=seed & MASK64))
    for draw in (lambda g: g.random(5), lambda g: g.uniform(0.3, 2.0, 5),
                 lambda g: g.integers(-9, 10, (4, 4)), lambda g: g.random()):
        a, b = np.asarray(draw(got)), np.asarray(draw(want))
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_oracle_comparison_catches_a_changed_key_layout():
    # the real route with the two key words swapped after each re-keying
    def swapped(seed):
        at = rng.sample_streams(seed)

        def keyed(index):
            gen = at(index)
            state = gen.bit_generator.state
            state["state"]["key"] = state["state"]["key"][::-1].copy()
            gen.bit_generator.state = state
            return gen

        return keyed

    assert not _route_matches_oracle(swapped)


def test_rekeying_resets_a_half_used_stream():
    # a 32-bit draw leaves half a word cached in the bit generator; the
    # next keying must drop it along with the counter and the buffer
    at = rng.sample_streams(11)
    at(2).integers(0, 1 << 30, 5, dtype=np.uint32)
    at(2).random(3)
    got = at(2).integers(0, 1 << 30, 3, dtype=np.uint32)
    want = sample_stream(11, 2).integers(0, 1 << 30, 3, dtype=np.uint32)
    assert np.array_equal(got, want)


@pytest.fixture
def philox_builds(monkeypatch):
    """Count the Philox bit generators built while the test runs."""
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


def test_scan_block_builds_one_bit_generator(ramp19, philox_builds):
    chart = MetricChart.four_d_model(ramp19)
    region = geometry.default_region(chart)
    geometry._scan_block(chart, region, 0, 0, 4096)
    assert len(philox_builds) <= 1


def test_union_volume_builds_one_bit_generator(philox_builds):
    body = flats.ConvexBody(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                      [0.0, 1.0]]))
    flats.union_volume(body, flats.Isometry.translation_by([0.5, 0.0]),
                       10**6, seed=0)
    assert len(philox_builds) <= 1


def test_hausdorff_triples_build_one_bit_generator(philox_builds):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.run(["flats-hausdorff", "--triples", "300",
                        "--cloud-size", "8"])
    assert code == 0
    assert len(philox_builds) <= 1
