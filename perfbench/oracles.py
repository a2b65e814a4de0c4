"""Output oracles for the benchmark jobs, independent of qmarkov.

Each ``check_*`` factory takes the data the generator kept in memory and
returns a function of the job's captured stdout that raises
:class:`Mismatch` when the output is wrong.  The expected values are
recomputed here from the Kraus matrices, operators and models directly,
never through the program under test.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from gen import apply_kraus, coords


class Mismatch(Exception):
    """A job's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def expect_close(got, want, atol: float, what: str, rtol: float = 0.0) -> None:
    got, want = np.asarray(got), np.asarray(want)
    expect(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want) - rtol * np.abs(want)
    expect(bool(np.all(err <= atol)), f"{what}: off by {float(np.max(err)):.3e} (tolerance {atol:.1e})")


def parse_matrix(d: dict) -> np.ndarray:
    pairs = np.asarray(d["entries"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d["rows"], d["cols"])


def csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    expect(bool(lines) and lines[0] == header, f"CSV header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def word_values(ops: list[np.ndarray], start: np.ndarray, word) -> float:
    """Component sum of op_{a_t} ... op_{a_1} start (diagonal-measurement word value)."""
    x = start
    for a in word:
        x = ops[a] @ x
    return float(x.sum())


def level_values(ops: list[np.ndarray], start: np.ndarray, t: int) -> np.ndarray:
    """Word values for every word of length t, words in product order."""
    states = start[None, :]
    for _ in range(t):
        states = np.concatenate([(states @ op.T)[:, None, :] for op in ops], axis=1)
        states = states.reshape(-1, start.shape[0])
    return states.sum(axis=1)


def sample_words(seed: int, k: int, length: int, count: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(seed)
    return [tuple(int(a) for a in rng.integers(k, size=length)) for _ in range(count)]


# -- Cesaro jobs --------------------------------------------------------------


def check_cesaro(kraus, tol: float = 1e-8):
    """Average has trace 1 and is a fixed point of sum M X M*, applied directly."""

    def check(out: str) -> None:
        d = json.loads(out)
        x = parse_matrix(d["average"])
        expect(abs(np.trace(x) - 1.0) < 1e-9, f"trace {np.trace(x)!r}, expected 1")
        expect_close(x, x.conj().T, 1e-12, "Hermiticity")
        residual = float(np.linalg.norm(apply_kraus(kraus, x) - x))
        expect(residual <= 10 * tol, f"not stationary: ||Phi(X) - X|| = {residual:.3e}")
        expect(isinstance(d["iterations"], int) and d["iterations"] >= 1, "iterations")
        expect(float(d["residual"]) <= tol, f"reported residual {d['residual']!r} above {tol}")

    return check


def fixed_point(kraus, start: np.ndarray, steps: int = 400) -> np.ndarray:
    """Fixed point of a primitive channel by plain iteration from start."""
    x = start
    for _ in range(steps):
        x = apply_kraus(kraus, x)
    residual = float(np.linalg.norm(apply_kraus(kraus, x) - x))
    if residual > 1e-12:
        raise RuntimeError(f"benchmark channel is not primitive enough: residual {residual:.1e}")
    return x


def node_masses(edges, nodes: int, diag: np.ndarray) -> np.ndarray:
    out = np.zeros(diag.shape[:-1] + (nodes,))
    for e, (u, _) in enumerate(edges):
        out[..., u] += diag[..., e]
    return out


def check_walk_limit(kraus, edges, nodes: int, start: np.ndarray, fmt: str):
    """Node distribution of the benchmark's own fixed point of the channel."""
    want = node_masses(edges, nodes, np.diagonal(fixed_point(kraus, start)).real)

    def check(out: str) -> None:
        if fmt == "json":
            d = json.loads(out)
            expect(d["nodes"] == nodes, "node count")
            got = d["distribution"]
        else:
            rows = csv_rows(out, "node,probability")
            expect([int(r[0]) for r in rows] == list(range(nodes)), "node column")
            got = [float(r[1]) for r in rows]
        expect_close(got, want, 1e-7, "limiting node distribution")

    return check


def check_empty(out: str) -> None:
    expect(out == "", f"expected no output on failure, got {len(out)} characters")


# -- words --------------------------------------------------------------------


def kraus_word_value(kraus, rho: np.ndarray):
    """p(w) = tr(M_w rho M_w*) with M_w = M_{a_t} ... M_{a_1}."""

    def value(word) -> float:
        x = rho
        for a in word:
            x = kraus[a] @ x @ kraus[a].conj().T
        return float(np.trace(x).real)

    return value


def coordinate_word_value(ops, rho: np.ndarray):
    """Trace of op_{a_t} ... op_{a_1} coords(rho): the sum of the first n coordinates."""
    n = rho.shape[0]
    start = coords(rho)

    def value(word) -> float:
        x = start
        for a in word:
            x = ops[a] @ x
        return float(x[:n].sum())

    return value


def check_measure(symbols, value, t: int, fmt: str, seed: int):
    """Values sum to 1, words come in product order, sampled words match ``value``."""
    samples = sample_words(seed, len(symbols), t, 16)
    want_words = ["".join(w) for w in itertools.product(symbols, repeat=t)]

    def check(out: str) -> None:
        if fmt == "json":
            d = json.loads(out)
            expect(d["steps"] == t and d["scale"] == list(symbols), "header fields")
            words = ["".join(e["word"]) for e in d["distribution"]]
            probs = np.array([e["probability"] for e in d["distribution"]], dtype=float)
        else:
            rows = csv_rows(out, "word,probability")
            words = [r[0] for r in rows]
            probs = np.array([float(r[1]) for r in rows])
        expect(words == want_words, "words are not all length-t words in product order")
        expect(abs(probs.sum() - 1.0) < 1e-9, f"values sum to {probs.sum()!r}, expected 1")
        k = len(symbols)
        for w in samples:
            index = sum(a * k ** (t - 1 - i) for i, a in enumerate(w))
            expect_close(probs[index], value(w), 1e-12, f"value of word {want_words[index]}")

    return check


def check_entropy(ops, pi: np.ndarray, t_max: int, brute_t: int):
    """Rows t = 1..t_max; block entropies for t <= brute_t from all word values."""
    k = len(ops)
    want = []
    h_prev = 0.0
    for t in range(1, brute_t + 1):
        p = level_values(ops, pi, t)
        p = p[p > 0]
        h = float(-(p * np.log2(p)).sum())
        want.append((h / t, h - h_prev))
        h_prev = h

    def check(out: str) -> None:
        rows = csv_rows(out, "t,entropy_per_symbol,entropy_increment")
        expect([int(r[0]) for r in rows] == list(range(1, t_max + 1)), "t column")
        got = np.array([[float(r[1]), float(r[2])] for r in rows])
        expect(bool(np.all(np.isfinite(got))), "non-finite entropy")
        expect(bool(np.all(got[:, 0] <= np.log2(k) + 1e-9)), "entropy per symbol above log2 |scale|")
        expect_close(got[:brute_t], np.array(want), 1e-9, "block entropies")

    return check


def check_rank(m: int, k: int, max_length: int):
    rows = sum(k**i for i in range(max_length + 1))

    def check(out: str) -> None:
        d = json.loads(out)
        expect(d["rank"] == m, f"rank {d['rank']}, expected the model dimension {m}")
        expect(d["rows"] == rows and 1 <= d["cols"] <= rows, "prediction matrix shape")
        expect(d["max_length"] == max_length, "max_length")

    return check


def check_lift(symbols, ops, pi: np.ndarray, seed: int):
    """The lifted operators reproduce sampled word probabilities of the model."""
    k, m = len(symbols), pi.shape[0]
    rng = np.random.default_rng(seed)
    samples = [tuple(rng.integers(k, size=int(rng.integers(1, 9)))) for _ in range(24)]

    def check(out: str) -> None:
        d = json.loads(out)
        expect(len(d["states"]) == k * m and d["scale"] == list(symbols), "lift shape")
        lifted = [np.asarray(d["operators"][s], dtype=float) for s in symbols]
        pi_bar = np.asarray(d["pi"], dtype=float)
        for w in samples:
            expect_close(word_values(lifted, pi_bar, w), word_values(ops, pi, w), 1e-12, f"lifted p{w}")

    return check


def check_oom_prob(ops, pi: np.ndarray, words, fmt: str):
    want = np.array([word_values(ops, pi, w) for w in words])

    def check(out: str) -> None:
        if fmt == "json":
            got = [e["probability"] for e in json.loads(out)]
        else:
            got = [float(r[1]) for r in csv_rows(out, "word,probability")]
        expect_close(got, want, 1e-15, "word probabilities", rtol=1e-9)

    return check


def check_bell(lhs: float, rhs: float, satisfied: bool):
    def check(out: str) -> None:
        d = json.loads(out)
        expect_close([d["lhs"], d["rhs"]], [lhs, rhs], 1e-12, "Bell sides")
        expect(d["satisfied"] is satisfied, f"satisfied {d['satisfied']!r}, expected {satisfied}")

    return check


def bell_sides(x, y, z, q) -> tuple[float, float, bool]:
    e_xy, e_yz, e_xz = float(x * y @ q), float(y * z @ q), float(x * z @ q)
    lhs, rhs = abs(e_xy - e_yz), 1.0 - e_xz
    return lhs, rhs, lhs <= rhs + 1e-12


# -- trajectory jobs ----------------------------------------------------------


def kraus_path(kraus, start: np.ndarray, steps: int, sampled) -> dict[int, np.ndarray]:
    """Densities Phi^t(start) at the sampled t, by direct Kraus evolution."""
    out = {}
    x = start
    for t in range(steps + 1):
        if t in sampled:
            out[t] = x
        x = apply_kraus(kraus, x)
    return out


def check_evolve(kraus, start: np.ndarray, steps: int, fmt: str, sampled):
    want = kraus_path(kraus, start, steps, sampled)
    n = start.shape[0]

    def check(out: str) -> None:
        if fmt == "json":
            d = json.loads(out)
            expect([e["t"] for e in d] == list(range(steps + 1)), "t field")
            for t, x in want.items():
                expect_close(parse_matrix(d[t]["matrix"]), x, 1e-10, f"density at t={t}")
        else:
            rows = csv_rows(out, "t,coordinate_index,value")
            expect(len(rows) == (steps + 1) * n * n, f"{len(rows)} rows")
            for t, x in want.items():
                block = rows[t * n * n : (t + 1) * n * n]
                expect(all(int(r[0]) == t for r in block), f"t column at t={t}")
                expect_close([float(r[2]) for r in block], coords(x), 1e-10, f"coordinates at t={t}")

    return check


def check_walk_steps(kraus, edges, nodes: int, start: np.ndarray, steps: int, fmt: str, sampled):
    path = kraus_path(kraus, start, steps, sampled)
    want = {t: node_masses(edges, nodes, np.diagonal(x).real) for t, x in path.items()}

    def check(out: str) -> None:
        if fmt == "json":
            d = json.loads(out)
            expect(len(d) == steps + 1, f"{len(d)} steps")
            got = {t: d[t]["probabilities"] for t in want}
        else:
            rows = csv_rows(out, "t,node,probability")
            expect(len(rows) == (steps + 1) * nodes, f"{len(rows)} rows")
            got = {t: [float(r[2]) for r in rows[t * nodes : (t + 1) * nodes]] for t in want}
        for t in want:
            expect_close(got[t], want[t], 1e-10, f"node probabilities at t={t}")

    return check


def check_feynman(sx: float, sy: float, sz: float):
    want = [
        (1 + sz + sx + sy) / 4,
        (1 + sz - sx - sy) / 4,
        (1 + sz + sx - sy) / 4,
        (1 - sz - sx - sy) / 4,
    ]

    def check(out: str) -> None:
        d = json.loads(out)
        expect(d["states"] == ["++", "+-", "-+", "--"], "state labels")
        expect_close(d["q"], want, 1e-15, "two-spin table")

    return check

