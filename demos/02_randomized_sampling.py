"""Show how the randomized batch sampler trades exploitation for
exploration.

Greedy top-b selection always takes the b highest-scoring candidates.
The randomized mode widens the pool to the top omega*b candidates and
samples according to min-max-normalized scores: the best candidate is
most likely but not certain, and the window's weakest member starts
with probability zero.

The sampler takes the candidates' scores as one array, in ascending id
order as the AFT* loop passes them after scoring the unlabeled pool, and
returns the positions it picks; it ranks by descending score, ties by
position, so by id. The demo turns the positions into ids.
"""

import numpy as np

from aftstar import SamplerConfig, sampling_probabilities, select_from_scores

values = [10.0, 7.0, 4.0, 1.0]
print("scores:", values)
print("sampling probabilities (window 4):", sampling_probabilities(values, 4))

ids = [f"cand{i}" for i in range(len(values))]
scores = np.array(values)

rng = np.random.default_rng(7)
cfg = SamplerConfig(batch_size=1, omega=5, mode="randomized")
trials = 50_000
counts = {cid: 0 for cid in ids}
for _ in range(trials):
    (pick,) = select_from_scores(scores, cfg, rng)
    counts[ids[pick]] += 1

print(f"\nempirical first-draw frequencies over {trials} draws:")
for cid, n in counts.items():
    print(f"  {cid}: {n / trials:.4f}")

top_b = select_from_scores(scores, SamplerConfig(batch_size=2, mode="top_b"), rng)
print("\ntop-b for comparison:", [ids[i] for i in top_b])
print("batches of 2 without replacement (renormalized after each draw):")
for seed in range(5):
    batch = select_from_scores(scores, SamplerConfig(batch_size=2, omega=5, mode="randomized"),
                               np.random.default_rng(seed))
    print(f"  seed {seed}: {[ids[i] for i in batch]}")
