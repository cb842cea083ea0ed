"""live_stream: 8 real-time sessions of an integrator embedding StreamContext.

Open loop. One thread plays 8 sessions at 10 Hz, phases staggered by 12.5 ms.
Each session gets the user channel of a seeded scripted dialogue in 20 ms
chunks through ``push_audio`` (no robot channel, as deployed) and ticks when a
hop is complete. A session starts at a seeded offset into its first dialogue,
chosen so that the dialogue ends at a seeded point inside the run: then it
calls ``reset()`` and starts the next one. So every run holds one cold
post-reset tick per session, whatever the dialogue lengths. A tick's
latency runs from when its hop-completing chunk was due to when its
FrameResult is back. At about a quarter of one core nothing queues, so a
faster tick shows directly.

All of it runs on the load thread's run time (``RunClock``): wall time that
stops while the host keeps the thread off the CPU. On a quiet host the two
are equal. A pause of the virtual machine or preemption by another process
says nothing about the program; on the wall clock it would make ticks late
and pile up a backlog, so the failure count of two runs of the same code
would differ. A tick fails as late when it is emitted more than one tick
period after it was due.
"""

from __future__ import annotations

import heapq
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from checks import check_chunking, check_offline, finite_result, result_fields
from common import Tally, percentile, tail_percentile

SESSIONS = 8
STAGGER_S = 0.0125
CHUNK_S = 0.02
CHUNK_SAMPLES = 320
DIALOGUES = 4
CHECK_EVERY = 10  # offline check on every 10th tick of each session
WARMUP_TICKS = 10
HOP = 1600  # samples per tick
# a tick emitted more than one tick period after its hop-completing chunk was
# due counts as failed
LATE_TICK_S = 0.1
SAMPLE_RATE = 16000


@dataclass
class State:
    params: dict
    cfg: object
    tails: list  # per session: the end of its first dialogue
    heads: list  # per session: the start of the next dialogue
    shares: list  # per session: share of the run before its first dialogue ends


def setup(seed: int, work, seconds: float) -> State:
    """Generate the dialogues and keep, per session, only the audio a run of
    ``seconds`` can reach, so the input held does not grow with the seeded
    dialogue lengths."""
    import vapturn.simulate as simulate
    from vapturn.model import ModelConfig, init_params
    from vapturn.streaming import run_stream

    cfg = ModelConfig()
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    shares = [float(rng.uniform(0.1, 0.9)) for _ in range(SESSIONS)]
    tails, heads = [None] * SESSIONS, [None] * SESSIONS
    scripts = simulate.session_scripts(DIALOGUES, simulate.DialogueScript(), seed)
    for d, script in enumerate(scripts):
        audio = simulate.generate_scripted_dialogue(script).stereo.channel_a.samples
        for s in range(SESSIONS):
            if s % DIALOGUES == d:
                keep = HOP + _samples(shares[s] * seconds)
                tails[s] = audio[-keep:].copy()
            if (s + 1) % DIALOGUES == d:
                heads[s] = audio[: _samples((1.0 - shares[s]) * seconds + 1.0)].copy()
        if d == 0:  # warm-up: feature and attention lru caches, first BLAS calls
            run_stream(params, cfg, audio[: WARMUP_TICKS * HOP], chunk_samples=CHUNK_SAMPLES)
        del audio
    return State(params, cfg, tails, heads, shares)


def _samples(seconds: float) -> int:
    return CHUNK_SAMPLES * int(seconds * SAMPLE_RATE / CHUNK_SAMPLES)


@dataclass
class _Session:
    ctx: object
    segments: tuple  # (tail, head); after the head ends it plays again
    pos: int
    segment_start: int
    segment: int = 0
    ticks: int = 0

    @property
    def audio(self) -> np.ndarray:
        return self.segments[min(self.segment, 1)]

    def next_chunk(self) -> np.ndarray:
        if self.pos >= self.audio.size:
            self.ctx.reset()
            self.pos = self.segment_start = 0
            self.segment += 1
        chunk = self.audio[self.pos : self.pos + CHUNK_SAMPLES]
        self.pos += chunk.size
        return chunk


@dataclass
class Measured:
    latencies_ms: list = field(default_factory=list)
    lateness_ms: list = field(default_factory=list)
    offline: list = field(default_factory=list)  # (audio, end, p_user, p_robot)
    first_segment: list = field(default_factory=list)  # session 0, result_fields
    cold_ms: list = field(default_factory=list)  # first tick of a segment
    starts: list = field(default_factory=list)  # per session, in its tail
    off_cpu_ms: float = 0.0  # how long the host kept the load thread off the CPU
    iterations: int = 0


def _record(m: Measured, s: int, sess: _Session, result) -> None:
    """Keep what the untimed checks need from one tick."""
    sess.ticks += 1
    if result.frame_index == 1 or sess.ticks % CHECK_EVERY == 0:
        audio = sess.audio[sess.segment_start :]
        m.offline.append((audio, result.frame_index * HOP, result.p_now_user, result.p_now_robot))
    if s == 0 and sess.segment == 0:
        m.first_segment.append(result_fields(result))


class RunClock:
    """Wall time that stops while the host keeps the load thread off the CPU.

    The thread never sleeps (it spins between events), so between two reads
    its CPU time is its wall time minus the time it was not run: another
    process had the core, or the hypervisor did (this guest kernel accounts
    steal time outside task CPU time). Over a span in which the thread gave
    up the CPU itself (a voluntary context switch: a wait on I/O, on a lock,
    a sleep) the clock advances by wall time instead, so the program's own
    waits are always counted.
    """

    def __init__(self):
        self._wall, self._cpu, self._blocks = self._read()
        self._off = 0.0  # time kept off the CPU so far

    @staticmethod
    def _read() -> tuple[float, float, int]:
        rusage = resource.getrusage(resource.RUSAGE_THREAD)
        return time.perf_counter(), time.thread_time(), rusage.ru_nvcsw

    def now(self) -> float:
        wall, cpu, blocks = self._read()
        if blocks == self._blocks:
            self._off += (wall - self._wall) - (cpu - self._cpu)
        self._wall, self._cpu, self._blocks = wall, cpu, blocks
        return wall - self._off

    @property
    def off_cpu_s(self) -> float:
        return self._off


def _wait_until(due: float, clock: RunClock) -> float:
    """Spin until ``due``; returns the time reached. Sleeping between events
    lets this virtual CPU idle, and the tick after an idle gap ran up to 2x
    slower with a long tail, which buried the cost of the tick under wake-up
    noise; spinning keeps the core busy, so the latency measures the code."""
    while (now := clock.now()) < due:
        pass
    return now


def run(state: State, seconds: float, tally: Tally, tracer=None) -> Measured:
    from vapturn.streaming import StreamContext

    m = Measured()
    sessions = []
    for s in range(SESSIONS):
        tail = state.tails[s]
        # start so that the first dialogue ends at the session's share of the run
        start = max(0, tail.size - HOP - _samples(state.shares[s] * seconds))
        m.starts.append(start)
        sess = _Session(StreamContext(state.params, state.cfg), (tail, state.heads[s]), start, start)
        # the first tick of a fresh context is cold; take it before timing so
        # that 8 sessions do not all start cold at once
        for _ in range(HOP // CHUNK_SAMPLES):
            sess.ctx.push_audio(sess.next_chunk())
        _record(m, s, sess, sess.ctx.tick())
        sessions.append(sess)
    clock = RunClock()
    t0 = clock.now() + 0.01
    t_end = t0 + seconds
    events = [(t0 + s * STAGGER_S + CHUNK_S, s) for s in range(SESSIONS)]
    heapq.heapify(events)
    while events[0][0] <= t_end:
        due, s = heapq.heappop(events)
        heapq.heappush(events, (due + CHUNK_S, s))
        m.lateness_ms.append(1000.0 * (_wait_until(due, clock) - due))
        sess = sessions[s]
        if tracer is not None:
            tracer.group = f"s{s}.t{sess.ticks}"
        try:
            sess.ctx.push_audio(sess.next_chunk())
            result = sess.ctx.tick() if sess.ctx.tick_due else None
        except Exception as exc:  # noqa: BLE001 - a failed tick is counted, the loop goes on
            tally.add(1, [f"session {s}: {type(exc).__name__}: {exc}"])
            continue
        if result is None:
            continue
        latency = clock.now() - due
        m.latencies_ms.append(1000.0 * latency)
        if result.frame_index == 1:
            m.cold_ms.append(1000.0 * latency)
        if not finite_result(result):
            tally.add(1, [f"session {s} tick {result.frame_index}: non-finite output"])
        elif latency > LATE_TICK_S:
            tally.add(1, [f"session {s}: tick {1000 * latency:.1f} ms late"], wrong=False)
        else:
            tally.add(1)
        _record(m, s, sess, result)
    m.off_cpu_ms = 1000.0 * clock.off_cpu_s
    m.iterations = len(m.latencies_ms)
    return m


def check(state: State, m: Measured, tally: Tally) -> None:
    from vapturn.streaming import run_stream

    tally.add(0, check_offline(state.params, state.cfg, m.offline))
    start = m.starts[0]
    audio = state.tails[0][start : start + len(m.first_segment) * HOP]
    replayed = run_stream(state.params, state.cfg, audio, chunk_samples=HOP)
    tally.add(0, check_chunking(m.first_segment, replayed))


def summarize(m: Measured) -> tuple[float, float, dict]:
    """(primary_ms, secondary_ms, report): the p50 latency of all ticks and
    of the 8 cold post-reset ticks.

    The tail percentiles are reported but are not metrics: on a 2-vCPU
    virtual machine, host noise moved p90 by 25-50 % and p99 by 20-55 %
    (quartile spread over 5 seeds), more than any bound the benchmark may
    set.
    """
    n = len(m.latencies_ms)
    tail = tail_percentile(n)
    p50, cold = percentile(m.latencies_ms, 50), percentile(m.cold_ms, 50)
    report = {
        "tick_latency_p50_ms": {"value": p50, "unit": "ms", "samples": n},
        "cold_tick_latency_p50_ms": {"value": cold, "unit": "ms", "samples": len(m.cold_ms)},
        "tick_latency_p90_ms": {"value": percentile(m.latencies_ms, 90), "unit": "ms", "samples": n},
        "tick_latency_p99_ms": {
            "value": percentile(m.latencies_ms, tail),
            "unit": "ms",
            "samples": n,
            "percentile": tail,
        },
        "generator_lateness_p99_ms": {
            "value": percentile(m.lateness_ms, 99),
            "unit": "ms",
            "samples": len(m.lateness_ms),
        },
        "host_off_cpu_ms": m.off_cpu_ms,
        "offline_checked_ticks": len(m.offline),
        "chunking_checked_ticks": len(m.first_segment),
    }
    return p50, cold, report
