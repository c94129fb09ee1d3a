"""Same pattern as lck001_bad.py, with a suppression comment reprolint ignores."""

import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def peek(self):
        return self.count  # reprolint: disable=LCK001
