"""Majorization of non-negative integer exponent tuples.

q majorizes p when every prefix sum of the decreasing rearrangement of q
dominates the corresponding prefix sum for p, with equal totals.  Any such
pair is connected by a chain of elementary one-unit transfers (move a unit
from a later, smaller entry to an earlier, larger one), and those transfers
are exactly what the convolution-polynomial comparisons are built from.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import LengthMismatch, NotMajorized

ExponentTuple = tuple[int, ...]


def sorted_desc(p: Sequence[int]) -> ExponentTuple:
    """Validated decreasing rearrangement."""
    if len(p) < 1:
        raise ValueError("exponent tuples must have at least one entry")
    for e in p:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponent {e!r} is not a non-negative integer")
    return tuple(sorted(p, reverse=True))


def majorizes(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff p is majorized by q (written p < q elsewhere in the package)."""
    if len(p) != len(q):
        raise LengthMismatch(f"tuple lengths differ: {len(p)} vs {len(q)}")
    ph, qh = sorted_desc(p), sorted_desc(q)
    if sum(ph) != sum(qh):
        return False
    run_p = run_q = 0
    for a, b in zip(ph, qh):
        run_p += a
        run_q += b
        if run_p > run_q:
            return False
    return True


def is_s_step(p: Sequence[int], q: Sequence[int]) -> bool:
    """Elementary transfer: the decreasing rearrangements differ by +1 at
    some position and -1 at a strictly later one, nowhere else."""
    if len(p) != len(q):
        raise LengthMismatch(f"tuple lengths differ: {len(p)} vs {len(q)}")
    ph, qh = sorted_desc(p), sorted_desc(q)
    ups = [i for i, (a, b) in enumerate(zip(ph, qh)) if b == a + 1]
    downs = [i for i, (a, b) in enumerate(zip(ph, qh)) if b == a - 1]
    same = sum(1 for a, b in zip(ph, qh) if a == b)
    return len(ups) == 1 and len(downs) == 1 and same == len(ph) - 2 and ups[0] < downs[0]


def s_step_chain(p: Sequence[int], q: Sequence[int]) -> list[ExponentTuple]:
    """Chain of sorted tuples from p-hat to q-hat whose consecutive pairs are
    elementary transfers; empty when the rearrangements already coincide.

    Each round locates the first block of positions where the running
    prefix sums are strictly below the target's, receives one unit at the
    block's first position and donates it from the position just past the
    block (where prefix equality resumes, forcing an entry surplus there).
    That transfer keeps the tuple sorted, is a single-unit step, raises the
    strict prefixes by exactly one, and so never overshoots the target.
    Every produced step is still re-validated, so a bad transfer cannot
    slip through silently.
    """
    if not majorizes(p, q):
        raise NotMajorized(f"{tuple(p)} is not majorized by {tuple(q)}")
    current, target = sorted_desc(p), sorted_desc(q)
    if current == target:
        return []
    chain = [current]
    while current != target:
        receive = donate = None
        prefix_gap = 0
        for l, (c, t) in enumerate(zip(current, target)):
            prefix_gap += t - c
            if prefix_gap > 0 and receive is None:
                receive = l
            elif prefix_gap == 0 and receive is not None:
                donate = l
                break
        if receive is None or donate is None:
            raise AssertionError("internal: no strict prefix block despite inequality")
        bumped = list(current)
        bumped[receive] += 1
        bumped[donate] -= 1
        nxt = tuple(bumped)
        if not (is_s_step(current, nxt) and majorizes(current, nxt) and majorizes(nxt, target)):
            raise AssertionError(
                f"internal: transfer {current} -> {nxt} is not a valid step"
            )
        chain.append(nxt)
        current = nxt
    return chain


def distinct_arrangements(values: Sequence[int]) -> Iterator[ExponentTuple]:
    """Every distinct ordering of a multiset, generated without duplicates."""
    pool = sorted(values, reverse=True)

    def rec(remaining: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield ()
            return
        seen = set()
        for i, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            for rest in rec(remaining[:i] + remaining[i + 1 :]):
                yield (v,) + rest

    return rec(pool)
