"""Normalised times cancel a change of host speed."""

import time

import pytest

import refspeed


def test_an_interval_is_scaled_by_the_samples_in_and_near_it():
    sampler = refspeed.Sampler()
    ref = refspeed.REF_UNIT_S
    # the host runs at half the reference speed: units take 2 * REF_UNIT_S
    sampler.samples = [(s, 2 * ref) for s in (9.7, 10.2, 10.6, 11.3)]
    raw, normalised = sampler.normalise(10.0, 11.0)
    assert raw == pytest.approx(1.0 - 4 * ref)  # the two units inside
    assert normalised == pytest.approx(raw / 2)
    # samples farther than WINDOW_S away do not count
    sampler.samples.append((11.0 + refspeed.WINDOW_S + 0.1, 100 * ref))
    assert sampler.normalise(10.0, 11.0) == (raw, normalised)


def test_an_interval_with_no_sample_near_it_is_an_error():
    sampler = refspeed.Sampler()
    sampler.samples = [(0.0, refspeed.REF_UNIT_S)]
    with pytest.raises(RuntimeError):
        sampler.normalise(5.0, 6.0)


def test_the_sampler_runs_units_until_stopped():
    sampler = refspeed.Sampler()
    sampler.start()
    try:
        time.sleep(6 * refspeed.INTERVAL_S)
    finally:
        sampler.stop()
    taken = len(sampler.samples)
    assert taken >= 3
    assert all(0 < d < 1.0 for d in sampler.unit_times())
    time.sleep(3 * refspeed.INTERVAL_S)
    assert len(sampler.samples) == taken
