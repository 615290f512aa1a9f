"""A wall-clock limit on every test phase.

Each setup, call and teardown phase of a test fails after PHASE_LIMIT_S
seconds, with the test id in the message, so a fault that makes a sum
swell ends the run with a failure instead of a hang. The limit is a POSIX
interval timer (SIGALRM), which interrupts Python code and waits on
subprocesses; the slowest phase today, criterion 8, takes under 40 s.
"""

import signal

import pytest

PHASE_LIMIT_S = 300


def _limited(phase):
    @pytest.hookimpl(wrapper=True)
    def hook(item):
        def expire(signum, frame):
            pytest.fail("%s: %s ran past %d s" % (item.nodeid, phase, PHASE_LIMIT_S))

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, PHASE_LIMIT_S)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return hook


pytest_runtest_setup = _limited("setup")
pytest_runtest_call = _limited("call")
pytest_runtest_teardown = _limited("teardown")
