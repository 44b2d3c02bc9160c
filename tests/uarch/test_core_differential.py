"""Bit-identity oracle for the OoO scheduler and trace synthesis.

``OoOCore.simulate`` is one plain-Python pass; ``synthesize_trace``
decodes the raw words of its PCG64 stream in blocks, walks the draw
cursor in one plain-Python pass and gathers the columns with numpy.
The reference implementations below are frozen copies of the earlier
per-instruction loops (numpy scalar indexing, full
fetch/issue/writeback/commit arrays, an ``emit`` closure, one generator
call per draw).  Every ``PipelineSchedule`` field, every ``TraceWindow``
column and every dtype must match them exactly, and the golden windows
and schedules of every benchmark are pinned by digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import repro.campaign.runner as runner_mod  # noqa: E402
from repro.campaign.runner import CampaignRunner  # noqa: E402
from repro.fpu.formats import ALL_OPS, FpOp  # noqa: E402
from repro.uarch.core import (  # noqa: E402
    CoreParams,
    OoOCore,
    PipelineSchedule,
)
from repro.uarch.isa import CLASS_LATENCY, NUM_REGS, InstrClass  # noqa: E402
from repro.uarch.trace import (  # noqa: E402
    MIXES,
    TraceMix,
    TraceWindow,
    synthesize_trace,
)
from repro.utils.rng import RngStream  # noqa: E402
from repro.workloads import WORKLOADS, make_workload  # noqa: E402


# -- frozen reference implementations -----------------------------------------

def _reference_simulate(p: CoreParams, window: TraceWindow,
                        total_fp_instructions: Optional[int] = None,
                        ops_per_fp: Optional[float] = None
                        ) -> PipelineSchedule:
    n = len(window)
    if n == 0:
        return PipelineSchedule(
            window_instructions=0, window_cycles=0, cpi=0.0,
            fp_writeback=np.zeros(0, dtype=np.int64),
            fp_global_index=np.zeros(0, dtype=np.int64),
            wrong_path_fp_fraction=0.0, dead_fp_fraction=0.0,
            store_forward_rate=0.0,
        )

    fetch = np.zeros(n, dtype=np.float64)
    issue = np.zeros(n, dtype=np.float64)
    writeback = np.zeros(n, dtype=np.float64)
    commit = np.zeros(n, dtype=np.float64)

    reg_ready = np.zeros(2 * NUM_REGS, dtype=np.float64)
    int_free = [0.0] * p.int_units
    mem_free = [0.0] * p.mem_units
    fp_free = [0.0] * p.fp_units
    redirect_at = 0.0
    wrong_path_cycles = 0.0

    cls = window.cls
    lat = window.latency
    for i in range(n):
        c = cls[i]
        f = fetch[i - 1] + (1.0 / p.fetch_width) if i else 0.0
        if i >= p.rob_size:
            f = max(f, commit[i - p.rob_size])
        f = max(f, redirect_at)
        fetch[i] = f

        bank = NUM_REGS if c == int(InstrClass.FP) else 0
        ready = f + 1.0
        s1, s2 = window.src1[i], window.src2[i]
        if s1 >= 0:
            ready = max(ready, reg_ready[bank + s1])
        if s2 >= 0:
            ready = max(ready, reg_ready[bank + s2])

        if c == int(InstrClass.FP):
            pool = fp_free
        elif c in (int(InstrClass.LOAD), int(InstrClass.STORE)):
            pool = mem_free
        else:
            pool = int_free
        slot = min(range(len(pool)), key=lambda k: pool[k])
        start = max(ready, pool[slot])
        issue[i] = start
        done = start + float(lat[i])
        blocking = (p.fp_div_blocking and c == int(InstrClass.FP)
                    and lat[i] >= 20)
        pool[slot] = done if blocking else start + 1.0
        writeback[i] = done

        d = window.dest[i]
        if d >= 0:
            reg_ready[bank + d] = done

        commit[i] = max(done, commit[i - 1] if i else 0.0)

        if c == int(InstrClass.BRANCH) and window.mispredicted[i]:
            resolve = done + p.mispredict_penalty
            wrong_path_cycles += max(0.0, resolve - fetch[i])
            redirect_at = resolve

    window_cycles = int(np.ceil(commit[-1]))
    cpi = window_cycles / n

    fp_mask = cls == int(InstrClass.FP)
    fp_wb = writeback[fp_mask].astype(np.int64)
    fp_idx = window.fp_index[fp_mask]

    fp_density = fp_mask.mean()
    wrong_fp = wrong_path_cycles * p.fetch_width * fp_density
    wrong_frac = wrong_fp / max(1.0, wrong_fp + fp_mask.sum())

    dead_frac = _reference_dead_write_fraction(window)
    fwd_rate = _reference_store_forward_rate(window)

    total_fp = total_fp_instructions or int(fp_mask.sum())
    opf = ops_per_fp if ops_per_fp is not None else (
        (n - fp_mask.sum()) / max(1, fp_mask.sum())
    )
    total_instr = int(round(total_fp * (1.0 + opf)))
    total_cycles = int(round(total_instr * cpi))

    return PipelineSchedule(
        window_instructions=n,
        window_cycles=window_cycles,
        cpi=cpi,
        fp_writeback=fp_wb,
        fp_global_index=fp_idx,
        wrong_path_fp_fraction=float(wrong_frac),
        dead_fp_fraction=float(dead_frac),
        store_forward_rate=float(fwd_rate),
        total_instructions=total_instr,
        total_cycles=total_cycles,
    )


def _reference_dead_write_fraction(window: TraceWindow) -> float:
    cls = window.cls
    fp = int(InstrClass.FP)
    last_write: Dict[int, int] = {}
    read_since: Dict[int, bool] = {}
    dead = 0
    total = 0
    for i in range(len(window)):
        if cls[i] != fp:
            continue
        s1, s2, d = window.src1[i], window.src2[i], window.dest[i]
        for s in (s1, s2):
            if s >= 0 and s in last_write:
                read_since[s] = True
        if d >= 0:
            total += 1
            if d in last_write and not read_since.get(d, False):
                dead += 1
            last_write[d] = i
            read_since[d] = False
    return dead / total if total else 0.0


def _reference_store_forward_rate(window: TraceWindow) -> float:
    recent_stores: List[int] = []
    forwards = 0
    loads = 0
    for i in range(len(window)):
        c = window.cls[i]
        if c == int(InstrClass.STORE):
            recent_stores.append(int(window.src2[i]))
            if len(recent_stores) > 16:
                recent_stores.pop(0)
        elif c == int(InstrClass.LOAD):
            loads += 1
            if int(window.src1[i]) in recent_stores:
                forwards += 1
    return forwards / loads if loads else 0.0


def _reference_synthesize_trace(workload: str, fp_ops: List[FpOp],
                                mix: Optional[TraceMix] = None,
                                seed: int = 2021,
                                max_window: int = 100_000) -> TraceWindow:
    mix = mix or MIXES.get(workload, MIXES["default"])
    rng = RngStream(seed, f"trace/{workload}")

    filler_per_fp = mix.ops_per_fp
    n_fp_window = max(1, min(
        len(fp_ops),
        int(max_window / (1.0 + filler_per_fp)),
    )) if fp_ops else 0

    cls: List[int] = []
    latency: List[int] = []
    dest: List[int] = []
    src1: List[int] = []
    src2: List[int] = []
    fp_index: List[int] = []
    mispred: List[bool] = []

    def emit(c: InstrClass, lat: int, d: int, s1: int, s2: int,
             fpi: int = -1, mp: bool = False) -> None:
        cls.append(int(c))
        latency.append(lat)
        dest.append(d)
        src1.append(s1)
        src2.append(s2)
        fp_index.append(fpi)
        mispred.append(mp)

    carry = 0.0
    recent_fp: List[int] = []
    for i in range(n_fp_window):
        carry += filler_per_fp
        n_filler = int(carry)
        carry -= n_filler
        draws = rng.random(size=max(1, n_filler))
        regs = rng.integers(0, NUM_REGS, size=3 * max(1, n_filler))
        for j in range(n_filler):
            r = draws[j]
            d, s1, s2 = (int(regs[3 * j]), int(regs[3 * j + 1]),
                         int(regs[3 * j + 2]))
            if r < mix.load_fraction:
                emit(InstrClass.LOAD, CLASS_LATENCY[InstrClass.LOAD],
                     d, s1, -1)
            elif r < mix.load_fraction + mix.store_fraction:
                emit(InstrClass.STORE, CLASS_LATENCY[InstrClass.STORE],
                     -1, s1, s2)
            elif r < (mix.load_fraction + mix.store_fraction
                      + mix.branch_fraction):
                mp = bool(rng.random() < mix.branch_mispredict)
                emit(InstrClass.BRANCH, CLASS_LATENCY[InstrClass.BRANCH],
                     -1, s1, s2, mp=mp)
            else:
                emit(InstrClass.INT_ALU, CLASS_LATENCY[InstrClass.INT_ALU],
                     d, s1, s2)
        op = fp_ops[i]
        dest_reg = int(2 + (i % (NUM_REGS - 2)))
        if rng.random() < 0.9 and recent_fp:
            s1_reg = recent_fp[int(rng.integers(0, len(recent_fp)))]
        else:
            s1_reg = int(rng.integers(0, NUM_REGS))
        if rng.random() < 0.6 and recent_fp:
            s2_reg = recent_fp[int(rng.integers(0, len(recent_fp)))]
        else:
            s2_reg = int(rng.integers(0, NUM_REGS))
        emit(InstrClass.FP, op.latency_cycles, dest_reg, s1_reg, s2_reg,
             fpi=i)
        recent_fp.append(dest_reg)
        if len(recent_fp) > 6:
            recent_fp.pop(0)

    return TraceWindow(
        cls=np.asarray(cls, dtype=np.int8),
        latency=np.asarray(latency, dtype=np.int16),
        dest=np.asarray(dest, dtype=np.int16),
        src1=np.asarray(src1, dtype=np.int16),
        src2=np.asarray(src2, dtype=np.int16),
        fp_index=np.asarray(fp_index, dtype=np.int64),
        mispredicted=np.asarray(mispred, dtype=bool),
    )


# -- exact comparison ---------------------------------------------------------

def _assert_identical(actual, expected) -> None:
    """Every dataclass field equal, arrays with the same dtype and shape,
    scalars with the same type."""
    assert type(actual) is type(expected)
    for f in dataclasses.fields(expected):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(e, np.ndarray):
            assert isinstance(a, np.ndarray), f.name
            assert a.dtype == e.dtype, (f.name, a.dtype, e.dtype)
            assert a.shape == e.shape, (f.name, a.shape, e.shape)
            assert np.array_equal(a, e), f.name
        else:
            assert type(a) is type(e), (f.name, type(a), type(e))
            assert a == e, (f.name, a, e)


def _digest(obj) -> str:
    """sha256 over a dataclass's fields: array dtype, shape and bytes,
    scalar repr."""
    h = hashlib.sha256()
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


# -- random windows and cores -------------------------------------------------

FP = int(InstrClass.FP)
BRANCH = int(InstrClass.BRANCH)
FP_LATENCIES = sorted({op.latency_cycles for op in FpOp})

#: Class weights per stream flavour: mixed (any FP latency), div-heavy
#: FP, mispredict-heavy branches.
FLAVOURS = {
    "mixed": ([0, 1, 2, 3, 4, 5], [3, 3, 2, 2, 3, 1]),
    "div": ([0, 1, 4], [1, 1, 6]),
    "branchy": ([0, 1, 3, 4], [1, 1, 5, 2]),
}


@st.composite
def trace_windows(draw) -> TraceWindow:
    """A random window of one flavour: hypothesis picks the flavour, the
    length and a numpy seed that fills the columns."""
    flavour = draw(st.sampled_from(sorted(FLAVOURS)))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes, weights = FLAVOURS[flavour]
    cls = rng.choice(classes, size=n, p=np.divide(weights, sum(weights)))
    is_fp = cls == FP
    fp_latencies = {"mixed": list(range(1, 33)),
                    "div": FP_LATENCIES + [24] * 3,
                    "branchy": FP_LATENCIES}[flavour]
    latency = np.where(is_fp, rng.choice(fp_latencies, size=n),
                       rng.integers(1, 5, size=n))
    fp_index = np.full(n, -1, dtype=np.int64)
    fp_index[is_fp] = np.arange(int(is_fp.sum()))
    p_mispredict = 0.8 if flavour == "branchy" else 0.2
    regs = rng.integers(-1, NUM_REGS, size=(3, n))
    return TraceWindow(
        cls=cls.astype(np.int8),
        latency=latency.astype(np.int16),
        dest=regs[0].astype(np.int16),
        src1=regs[1].astype(np.int16),
        src2=regs[2].astype(np.int16),
        fp_index=fp_index,
        mispredicted=(cls == BRANCH) & (rng.random(n) < p_mispredict),
    )


core_params = st.builds(
    CoreParams,
    fetch_width=st.integers(1, 4),
    rob_size=st.integers(1, 128),
    int_units=st.integers(1, 3),
    mem_units=st.integers(1, 3),
    fp_units=st.integers(1, 3),
    mispredict_penalty=st.integers(0, 12),
    fp_div_blocking=st.booleans(),
)


class TestSimulateMatchesReference:
    @settings(max_examples=300)
    @given(window=trace_windows(), params=core_params,
           total_fp=st.one_of(st.none(), st.integers(1, 10**6)),
           ops_per_fp=st.one_of(st.none(), st.floats(0, 30)))
    def test_random_windows(self, window, params, total_fp, ops_per_fp):
        actual = OoOCore(params).simulate(window, total_fp, ops_per_fp)
        expected = _reference_simulate(params, window, total_fp, ops_per_fp)
        _assert_identical(actual, expected)

    @pytest.mark.parametrize("params", [
        CoreParams(),
        CoreParams(rob_size=1, fetch_width=1),
        CoreParams(fp_units=3, mem_units=2, int_units=3, fetch_width=4,
                   rob_size=128, fp_div_blocking=False),
    ], ids=["default", "rob1", "wide"])
    def test_synthesized_windows(self, params):
        ops = [ALL_OPS[i % len(ALL_OPS)] for i in range(3000)]
        for workload in ("cg", "is"):
            window = synthesize_trace(workload, ops, seed=5)
            _assert_identical(OoOCore(params).simulate(window),
                              _reference_simulate(params, window))


class TestSynthesizeMatchesReference:
    STREAM = [ALL_OPS[(7 * i) % len(ALL_OPS)] for i in range(400)]
    CASES = {
        "empty": ([], 100_000),
        "one-op": (STREAM[:1], 100_000),
        "truncated": (STREAM, 600),
    }

    @pytest.mark.parametrize("seed", [2021, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("workload", sorted(MIXES))
    def test_every_mix(self, workload, case, seed):
        ops, max_window = self.CASES[case]
        actual = synthesize_trace(workload, ops, seed=seed,
                                  max_window=max_window)
        expected = _reference_synthesize_trace(workload, ops, seed=seed,
                                               max_window=max_window)
        _assert_identical(actual, expected)
        if case == "truncated":
            assert len(actual) <= max_window
            assert actual.fp_count < len(ops)

    @pytest.mark.parametrize("mix", [
        TraceMix(0.0),
        TraceMix(2.7, 0.0, 0.0, 0.0),
        TraceMix(3.0, 0.0, 0.3, 0.7, branch_mispredict=1.0),
        TraceMix(5.0, 0.4, -0.15, 0.25),
    ], ids=["no-filler", "all-alu", "all-branch", "negative-store"])
    def test_edge_mixes(self, mix):
        ops = self.STREAM[:150]
        _assert_identical(synthesize_trace("x", ops, mix=mix),
                          _reference_synthesize_trace("x", ops, mix=mix))

    @settings(max_examples=100)
    @given(ops=st.lists(st.sampled_from(ALL_OPS), max_size=120),
           ops_per_fp=st.sampled_from([0.0, 0.5, 1.0, 2.7, 5.0, 24.0]),
           fractions=st.tuples(*[st.sampled_from(
               [-0.15, 0.0, 0.1, 0.25, 0.4, 0.7])] * 3),
           mispredict=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**16),
           max_window=st.integers(1, 2000))
    def test_random_mixes(self, ops, ops_per_fp, fractions, mispredict,
                          seed, max_window):
        """Any valid mix, including zero and negative class fractions
        (``TraceMix`` only bounds their sum)."""
        try:
            mix = TraceMix(ops_per_fp, *fractions,
                           branch_mispredict=mispredict)
        except ValueError:
            hypothesis.assume(False)
        window = synthesize_trace("x", ops, mix=mix, seed=seed,
                                  max_window=max_window)
        _assert_identical(
            window,
            _reference_synthesize_trace("x", ops, mix=mix, seed=seed,
                                        max_window=max_window))
        # One FP instruction and its fillers may alone exceed max_window.
        assert len(window) <= max(max_window, 1 + int(ops_per_fp))


#: sha256 of the golden TraceWindow and PipelineSchedule of every
#: benchmark at scale small, plus hotspot at scale paper (the golden the
#: ``campaign_cells`` benchmark restores into), seed 2021.  All were
#: computed with the per-instruction numpy implementations (commit
#: fe9dc4f, one generator call per draw), before trace synthesis decoded
#: raw words.
GOLDEN_DIGESTS = {
    ("bt", "small"): (
        "dddedfabda8d9388fea242b4749ca4455cb8796d478e34aa5496930d78e3cf00",
        "862c68249aafcbb1b36f179c1b014ae74f99461affe9580e6f024e65ea48542c",
    ),
    ("cg", "small"): (
        "89be4e18b9d44ea01df40f23861641d2e6854adae074f5ffa39337ad05f52457",
        "5717edb9b6ab09a1568b0b6c0cd984cff8ac06a39615b772e0674bfb9f351c45",
    ),
    ("hotspot", "small"): (
        "a48c03121629f59909584e503d49cd73f131f4ab656a794e86e3bcae757fec01",
        "09b3d2f1c9c4ae1f0daed463a1cdec4f98ab91997511da8a5a31683b08dbf8c1",
    ),
    ("is", "small"): (
        "962b5e920928f03398a751c50c3df494aa6180b52622ca907513864a99f12f66",
        "b59052068b89c860494136ee862cbad0f12fc0e1a65d7d52c8dd256ef1e136d5",
    ),
    ("kmeans", "small"): (
        "133029f6f98cfd2094090bf8b6485dcc4aaac15373bef7f4399c45263ccd86d9",
        "72b53a83705454f85c6053ab96e237d3a08e7468a888359017b0fd200bff141b",
    ),
    ("mg", "small"): (
        "f6ffe2487dc3f76665b028fe3f2b45d80c4b72c4d5835062fc5422d95ca9d225",
        "34659461b234b905edb837688454ad36cece2dfd9f66d371ae8e2ef00f9f6171",
    ),
    ("sobel", "small"): (
        "fbf445b763ffc58156e278b2c0600e93efd1183daa3212f8075788db1349e5b6",
        "97cf7065adb6cfa1efd34df69723da59d5868e3a7e4e60f14bf3629c763dadf3",
    ),
    ("srad_v1", "small"): (
        "dcf240d63c1c0fa2f692b8be4af55ab68062402b9b74cf57767e643cab70ba99",
        "4cddd6999fd0dda780d913916467fa9cbe753ac82a7726d4e8671a94db306fd1",
    ),
    ("hotspot", "paper"): (
        "1478e767a10562843f3d3b4d2cfb3605a765417081af61bb291e525005a668f5",
        "442ab58510013d92aeb582e435be5237c744fdf97af5022d0122bb8b2f1b44a9",
    ),
}


def test_every_workload_pinned():
    assert {name for name, scale in GOLDEN_DIGESTS
            if scale == "small"} == set(WORKLOADS)


@pytest.mark.parametrize("name,scale", [
    pytest.param(name, scale, id=name if scale == "small"
                 else f"{name}-{scale}")
    for name, scale in sorted(GOLDEN_DIGESTS)])
def test_golden_digests_pinned(name, scale, monkeypatch):
    windows = []

    def recording_synthesize(*args, **kwargs):
        window = synthesize_trace(*args, **kwargs)
        windows.append(window)
        return window

    monkeypatch.setattr(runner_mod, "synthesize_trace", recording_synthesize)
    runner = CampaignRunner(make_workload(name, scale=scale, seed=2021),
                            seed=2021)
    golden = runner.golden()
    assert len(windows) == 1
    assert (_digest(windows[0]), _digest(golden.schedule)) == \
        GOLDEN_DIGESTS[name, scale]
