#!/usr/bin/env python3
"""Observable operator models: words, dimension, lifting, entropy.

Run with: python3 demos/oom_processes.py
"""

import numpy as np

import qmarkov as qm
from qmarkov.oom import validate

print("=== word probabilities ===")
model = qm.ObservableOperatorModel(
    scale=qm.Scale(("a", "b")),
    operators=(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.5]])),
    pi=np.array([0.5, 0.5]),
)
for word in ("", "a", "ab", "abb"):
    print(f"p({word or 'empty'}) =", qm.word_probability(model, word))
print("p(a|b) =", qm.conditional(model, "a", "b"))

print()
print("=== dimension via the prediction matrix ===")
matrix, rank = qm.prediction_matrix(model, 3)
print(f"iid model: {len(matrix.row_words)} rows, {len(matrix.col_words)} columns, rank {rank}")

t = np.array([[0.8, 0.3], [0.2, 0.7]])
emissions = {"a": np.array([0.9, 0.2]), "b": np.array([0.1, 0.8])}
hmm = qm.hmm_to_oom(t, emissions, np.array([0.5, 0.5]))
_, rank = qm.prediction_matrix(hmm, 3)
print("2-state hidden Markov model: rank", rank)

print()
print("=== models with negative entries ===")
shear = 2.0 / 7.0
clock = qm.ObservableOperatorModel(
    scale=qm.Scale(("a", "b")),
    operators=(
        np.array([[0.5, shear], [0.0, 0.5]]),
        np.array([[0.5, -shear], [0.0, 0.5]]),
    ),
    pi=np.array([0.5, 0.5]),
)
report = validate(clock, 6)
print(f"scan to depth 6: min p(w) = {report.min_probability:.6f} at w =",
      "".join(report.min_word))
print("observable to depth 6?", report.observable,
      f"({report.negative_words} negative words)")

print()
print("=== hidden-state lift ===")
lift = qm.lift_hidden_states(hmm)
print("lifted hidden states:", lift.space.states)
print("lifted start state:", np.round(lift.pi, 4))
word = ("a", "b", "a")
print(f"p(aba) via lift = {qm.word_probability(lift, word):.10f}")
print(f"p(aba) directly = {qm.word_probability(hmm, word):.10f}")
dist = qm.step_distribution(lift, 3)
print("distribution of the symbol at t = 3:", dist.as_dict())

print()
print("=== entropy of the process ===")
print(" t  H(t)/t     H(t)-H(t-1)")
for step, avg, inc in qm.entropy_rate(hmm, 8):
    print(f"{step:>2}  {avg:.6f}  {inc:.6f}")
print("(for this stationary-enough chain the increments settle to the entropy rate)")

print()
print("=== the measurement view ===")
meas = qm.to_markov_measurement(hmm)
density = np.diag(hmm.pi).astype(complex)
dist = qm.word_distribution(meas, density, 2)
print("word statistics at diag(pi) match the model:")
for word, value in dist.items():
    print(f"  p({''.join(word)}) = {value:.6f} vs {qm.word_probability(hmm, word):.6f}")
