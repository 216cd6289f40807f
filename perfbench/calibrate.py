"""A fixed unit of work that measures how fast the machine runs right now.

    python perfbench/calibrate.py

It imports nothing from selberg_lab, so no change to the program moves
its time; only the machine's speed does. It mixes the kinds of work the
timed commands do: interpreter start and the numpy import, a pure-Python
integer loop, prefix sums, FFTs and `math.fsum`. Its arrays stay small
(2 MB, below numpy's huge-page threshold and inside the cache), so its
time does not depend on how the command before it left memory. run.py
times it next to every timed command and scales that command's wall time
by it (see `run.speed_scale`).
"""

import math

import numpy as np

s = 0
for i in range(300_000):
    s += i * i % 7
a = np.arange(1 << 18, dtype=np.float64)
t = 0.0
for _ in range(40):
    b = np.cumsum(a * 0.5)
    c = np.abs(np.fft.rfft(b[: 1 << 16])) ** 2
    t += math.fsum(b[::16]) + float(c[1])
if not t + s > 0.0:
    raise SystemExit("calibration arithmetic failed")
