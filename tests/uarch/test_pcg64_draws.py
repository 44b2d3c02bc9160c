"""Oracle for the raw-word decoder behind trace synthesis.

``PCG64Draws`` reproduces how numpy's ``Generator`` consumes the words
of a PCG64 bit generator: ``random`` takes a word per double,
``integers(0, r)`` draws buffered uint32 halves through Lemire's method.
Each test replays the same call sequence on a live
``np.random.Generator(PCG64(seed))`` and on the decoder over a second
``PCG64(seed)``.  If a numpy release changes its PCG64 buffering or its
bounded-integer algorithm, these tests fail and say which, and every
golden trace window changes with it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.uarch import trace as trace_mod
from repro.uarch.trace import MIXES, PCG64Draws, synthesize_trace
from repro.workloads import make_workload

SEEDS = [0, 1, 7, 2021, 2**63 + 12345]

NUMPY_CHANGED = ("numpy's Generator no longer consumes PCG64 words the way "
                 "repro.uarch.trace.PCG64Draws decodes them")


def _pair(seed):
    generator = np.random.Generator(np.random.PCG64(seed))
    return generator, PCG64Draws(np.random.PCG64(seed))


def _doubles(tape: PCG64Draws, n: int) -> np.ndarray:
    at = tape.take_doubles(n)
    return tape.doubles(np.arange(at, at + n))


def _regs(tape: PCG64Draws, n: int, r: int = 32) -> np.ndarray:
    """``integers(0, r, size=n)`` for a power-of-two ``r``."""
    held, start = tape.take_u32(n)
    fresh = start + np.arange(n - (held >= 0))
    at = np.concatenate(([held], fresh)) if held >= 0 else fresh
    return (tape.u32(at) * r) >> 32


def _expect(actual, expected, what: str) -> None:
    assert np.array_equal(np.asarray(actual), np.asarray(expected)), (
        f"{NUMPY_CHANGED}: {what}")


@pytest.mark.parametrize("seed", SEEDS)
class TestAgainstLiveGenerator:
    def test_random(self, seed):
        generator, tape = _pair(seed)
        for k in (1, 5, 24, 1, 3):
            _expect(_doubles(tape, k), generator.random(size=k),
                    f"random(size={k}) is (word >> 11) * 2**-53")
        _expect(tape.random(), generator.random(), "random()")

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_buffered_half_survives_double_draws(self, seed, k):
        """3k odd: the last word's high half stays buffered across the
        doubles drawn after it and starts the next uint32 run."""
        generator, tape = _pair(seed)
        for _ in range(4):
            _expect(_regs(tape, 3 * k), generator.integers(0, 32, size=3 * k),
                    f"integers(0, 32, size={3 * k}) takes buffered uint32 "
                    "halves, low half first")
            assert tape.held >= 0
            _expect(_doubles(tape, k), generator.random(size=k),
                    "random() between uint32 draws leaves the buffered "
                    "half alone")
            _expect(tape.integers(32), generator.integers(0, 32),
                    "scalar integers(0, 32) takes the buffered half")

    def test_scalar_bounded(self, seed):
        generator, tape = _pair(seed)
        for _ in range(50):
            for r in range(1, 7):
                _expect(tape.integers(r), generator.integers(0, r),
                        f"integers(0, {r}) is Lemire's method "
                        "(r = 1 draws nothing)")
                _expect(tape.random(), generator.random(),
                        f"random() after integers(0, {r})")

    def test_lemire_redraws(self, seed):
        """``r = 2**31 + 1`` rejects about half its uint32 draws, so a
        live stream exercises the redraw loop."""
        generator, tape = _pair(seed)
        r = 2**31 + 1
        draws = 0
        for _ in range(200):
            before = 2 * tape.cursor - (tape.held >= 0)
            _expect(tape.integers(r), generator.integers(0, r),
                    f"integers(0, {r}) redraws while "
                    "(u * r) & 0xFFFFFFFF < (2**32 - r) % r")
            draws += 2 * tape.cursor - (tape.held >= 0) - before
        assert draws > 250  # ~400 expected; 200 means no redraw ran
        _expect(tape.random(), generator.random(), "random() after redraws")

    def test_blocks(self, seed, monkeypatch):
        """A synthesis-shaped call mix across many small blocks, with and
        without dropping the words already read."""
        monkeypatch.setattr(trace_mod, "_BLOCK_WORDS", 64)
        generator, tape = _pair(seed)
        blocks = 0
        for step in range(400):
            if step % 3 == 0:
                tape.refill(40)
                blocks += 1
            k = 1 + step % 6
            _expect(_doubles(tape, k), generator.random(size=k),
                    f"random(size={k}) across a block boundary")
            _expect(_regs(tape, 3 * k), generator.integers(0, 32, size=3 * k),
                    f"integers(0, 32, size={3 * k}) across a block boundary")
            _expect(tape.integers(min(step, 6) or 1),
                    generator.integers(0, min(step, 6) or 1),
                    "scalar integers across a block boundary")
            _expect(tape.integers(32), generator.integers(0, 32),
                    "scalar integers(0, 32) across a block boundary")
        assert blocks > 100


class _WordTape:
    """A bit generator stand-in that serves fixed raw words."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, n):
        assert len(self.words) >= n, f"{NUMPY_CHANGED}: read past the tape"
        out, self.words = self.words[:n], self.words[n:]
        return np.array(out, dtype=np.uint64)


def test_lemire_redraw_branch_on_hand_built_words(monkeypatch):
    """``integers(0, 6)`` rejects ``u`` while ``(6 * u) % 2**32 < 4``:
    low half 0 (leftover 0) and high half 0xAAAAAAAB (leftover 2) are
    rejected, the next word's low half 0xFFFFFFFF is accepted with
    ``(6 * u) >> 32 == 5`` and buffers that word's high half.  A
    leftover equal to the threshold (u = 0x55555556) is accepted."""
    monkeypatch.setattr(trace_mod, "_BLOCK_WORDS", 1)
    tape = PCG64Draws(_WordTape([0xAAAAAAAB_00000000,
                                 0x12345678_FFFFFFFF,
                                 0x3FF << 53,
                                 0x55555556]))
    assert tape.integers(6) == 5, NUMPY_CHANGED
    assert (tape.cursor, tape.held) == (2, 3)
    assert tape.integers(32) == 0x12345678 >> 27
    assert tape.random() == (0x3FF << 42) * 2.0**-53
    assert tape.integers(6) == 2, NUMPY_CHANGED
    assert (tape.cursor, tape.held) == (4, 7)


def test_memory_bound_on_a_full_window():
    """One 100k-instruction window (cg's small golden op stream) decodes
    block by block: its transient peak stays under 8 MiB, where decoding
    the whole window at once peaked above 23 MiB."""
    workload = make_workload("cg", scale="small", seed=2021)
    ctx = workload.make_context(record_trace=True, trace_cap=1_000_000)
    workload.run(ctx)
    ops = ctx.fp_op_sequence()
    mix = MIXES[workload.mix_name]
    tracemalloc.start()
    try:
        window = synthesize_trace("cg", ops, mix=mix, seed=2021)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(window) == 99_996
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
