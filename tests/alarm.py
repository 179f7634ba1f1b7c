"""The SIGALRM time gate shared by the test modules."""

import signal


def within(seconds, fn, *args):
    """fn(*args), raising TimeoutError instead of hanging once ``seconds`` pass."""
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
