"""The host-speed chunks and the slowdown taken from them."""

import threading

import pytest

from hostspeed import REF_S, HostSpeed


@pytest.fixture
def host():
    probe = HostSpeed()
    yield probe
    probe.close()


def test_a_chunk_is_timed_and_kept(host):
    took = host.chunk()
    assert took > 0
    assert host.chunks == [took]
    assert not host.due()


def test_close_ends_the_echo_thread():
    before = threading.active_count()
    probe = HostSpeed()
    probe.chunk()
    probe.close()
    assert threading.active_count() == before


def test_slowdown_weights_each_chunk_by_the_time_it_stands_for(host):
    # chunks of 1x and 2x REF_S centred at t = 0 and t = 10: the first
    # stands for t < 5, the second for t >= 5
    host.keep(-REF_S / 2, REF_S / 2)
    host.keep(10 - REF_S, 10 + REF_S)
    assert host.slowdown(0.0, 4.0) == pytest.approx(1.0)
    assert host.slowdown(6.0, 20.0) == pytest.approx(2.0)
    assert host.slowdown(0.0, 10.0) == pytest.approx(1.5)
    assert host.slowdown(4.0, 7.0) == pytest.approx((1 * 1.0 + 2 * 2.0) / 3)


def test_a_short_interval_takes_the_chunk_it_falls_next_to(host):
    host.keep(-REF_S / 2, REF_S / 2)
    host.keep(1 - REF_S, 1 + REF_S)
    assert host.slowdown(0.3, 0.3001) == pytest.approx(1.0)
    assert host.slowdown(0.7, 0.7) == pytest.approx(2.0)
    assert host.slowdown(0.45, 0.55) == pytest.approx(1.5)
