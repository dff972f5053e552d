"""A fixed program whose wall time is the benchmark's unit of host speed.

    python3 benchmarks/reference.py

The benchmark runs it before and after every timed operation and
divides the operation's wall time by the mean of the two (``wall_per_ref``
in ``run.py``). The host this benchmark was built on changes speed by 20-30%
over minutes, for all code alike, so wall times of identical runs drift
further apart than any bound a comparison can use; the ratio cancels that
drift. The mix resembles what ``survfuse`` spends its time on: interpreter
start and numpy import, small dense products and element-wise maths as in
MLP training, a sort and a cumulative log-sum-exp as in the Cox risk sets,
and dictionary work in the interpreter. It takes about half a second on a
2-core machine.

Its work is the scale of ``wall_per_ref``: changing it makes earlier
results incomparable, so treat any change to it as a change of the
benchmark.
"""

import numpy as np

ITERATIONS = 300
N, P, H = 1200, 48, 32


def main() -> float:
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((N, P))
    w1 = rng.standard_normal((P, H)) * 0.1
    w2 = rng.standard_normal((H, 1)) * 0.1
    times = rng.exponential(size=N)
    events = rng.random(N) < 0.3
    acc = 0.0
    for _ in range(ITERATIONS):
        hidden = np.tanh(x @ w1)
        risk = (hidden @ w2).ravel()
        order = np.argsort(-times, kind="stable")
        log_risk_set = np.logaddexp.accumulate(risk[order])
        acc += float((risk[order] - log_risk_set)[events[order]].sum())
        w1 -= 1e-6 * (x.T @ (1.0 - hidden ** 2)).mean()
        counts = {}
        for i in range(2000):
            key = (i * 7919) % 211
            counts[key] = counts.get(key, 0) + i
        acc += sum(counts.values()) * 1e-9
    return acc


if __name__ == "__main__":
    main()
