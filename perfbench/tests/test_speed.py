"""The host-speed adjustment."""

import signal
import time

import pytest

import speed
from speed import REF_NOMINAL, SpeedProbe


def test_seconds_removes_reference_time_and_scales_to_nominal_speed():
    p = SpeedProbe()
    # the host runs the loop at half speed during [10, 20]
    p.samples = [(10.0 + k, 2 * REF_NOMINAL) for k in range(11)] + [(40.0, REF_NOMINAL)]
    m0, m1 = (10.0, 1.0), (20.0, 3.0)           # 10 s of wall time, 2 s in the loop
    assert p.seconds(m0, m1, adjusted=False) == pytest.approx(8.0)
    assert p.seconds(m0, m1) == pytest.approx(4.0)
    # a short operation uses the samples within WINDOW of it
    assert p.seconds((39.9, 0.0), (40.0, 0.0)) == pytest.approx(0.1)


def test_probe_samples_during_work_and_restores_the_handler(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL", 0.05)
    before = signal.getsignal(signal.SIGALRM)
    p = SpeedProbe()
    p.start()
    try:
        m0 = p.mark()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
        m1 = p.mark()
    finally:
        p.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(p.samples) >= 3
    assert 0 < p.seconds(m0, m1, adjusted=False) < 0.5
    assert p.stolen == pytest.approx(sum(dt for _, dt in p.samples))
