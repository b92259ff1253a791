"""Correctness checks on what the program answered.

A wrong answer is a failed operation: it counts in ``failed`` and makes
the run exit non-zero, exactly like an error or a shed request.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Ranking = List[Tuple[int, float]]


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str) -> None:
        """Count one failed operation and keep its description."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def result(self, metrics: Dict[str, float]) -> Dict:
        """``metrics`` with the tally, as a workload reports them."""
        return {"metrics": metrics, "attempted": self.attempted,
                "failed": self.failed, "problems": self.problems}


def topk_problem(
    user: int, k: int, ranking: Ranking, known_indptr, known_indices, n: int
) -> Optional[str]:
    """Why a top-k answer is malformed, or ``None`` when it is well formed.

    An answer holds ``k`` distinct ids (fewer only when the user has
    fewer candidates), never the user itself or a known link, with scores
    that do not increase.
    """
    known = set(known_indices[known_indptr[user]:known_indptr[user + 1]].tolist())
    ids = [c for c, _ in ranking]
    scores = [s for _, s in ranking]
    if len(ids) != min(k, n - 1 - len(known)):
        return f"user {user}: {len(ids)} candidates for k={k}"
    if len(set(ids)) != len(ids):
        return f"user {user}: repeated candidate ids"
    if user in ids:
        return f"user {user}: self-link answered"
    if known.intersection(ids):
        return f"user {user}: known link answered"
    if any(b > a for a, b in zip(scores, scores[1:])):
        return f"user {user}: scores increase"
    return None


def parse_topk_body(body: bytes) -> Tuple[int, Ranking]:
    """The user a JSON top-k answer is for, and its ``(id, score)`` pairs."""
    payload = json.loads(body)
    ranking = [(int(c["user"]), float(c["score"])) for c in payload["candidates"]]
    return int(payload["user"]), ranking


def reference_row(estimate, known_csr, user: int) -> np.ndarray:
    """Masked candidate scores of ``user`` computed straight from the factors.

    Follows the factored scoring convention: ``(u_i ∘ σ) Vᵀ`` plus the
    residual row, clipped at zero, with the user and its known links set
    to ``-inf``.
    """
    u = np.asarray(estimate.u)
    row = (u[user] * np.asarray(estimate.s)) @ np.asarray(estimate.vt)
    residual = estimate.residual
    start, end = residual.indptr[user], residual.indptr[user + 1]
    np.add.at(row, residual.indices[start:end], residual.data[start:end])
    np.maximum(row, 0.0, out=row)
    row[known_csr.indices[known_csr.indptr[user]:known_csr.indptr[user + 1]]] = -np.inf
    row[user] = -np.inf
    return row


def matches_reference(
    estimate, known_csr, user: int, k: int, ranking: Ranking
) -> Optional[str]:
    """Compare one answer with the factors: ``None`` when they agree.

    Each answered ``(id, score)`` must carry that id's reference score,
    and the answered scores must be the reference's ``k`` best (ties may
    be broken either way).
    """
    row = reference_row(estimate, known_csr, user)
    finite = row[np.isfinite(row)]
    best = np.sort(finite)[::-1][:k]
    got = np.array([s for _, s in ranking])
    if got.shape != best.shape or not np.allclose(got, best, rtol=1e-9, atol=1e-12):
        return f"user {user}: scores differ from the factors' top-{k}"
    for candidate, score in ranking:
        if not np.isclose(row[candidate], score, rtol=1e-9, atol=1e-12):
            return f"user {user}: candidate {candidate} carries a wrong score"
    return None


def heldout_auc(predictor, held: np.ndarray, negatives: Sequence[Tuple[int, int]]) -> float:
    """AUC of ``predictor`` on the held-out links vs sampled non-links."""
    from repro.evaluation.metrics import auc_score

    pairs = [tuple(e) for e in held.tolist()]
    scores = predictor.score_pairs(pairs + list(negatives))
    labels = np.r_[np.ones(len(pairs)), np.zeros(len(negatives))]
    return float(auc_score(scores, labels))


def sample_users(rng: np.random.Generator, users: Sequence[int], count: int) -> List[int]:
    """A seeded sample of distinct users among those answered."""
    distinct = sorted(set(int(u) for u in users))
    if len(distinct) <= count:
        return distinct
    return sorted(rng.choice(distinct, size=count, replace=False).tolist())
