"""Which calls the traced run wraps, and the per-layer metrics taken from them.

Layers are the modules of ``src/vapturn``. Each call is wrapped under the
name the *calling* module imported it by (``vapturn.streaming.forward``,
``vapturn.cli.fit``, ...), so a span says which caller paid for it.

``PER_LAYER`` is the single table of per-layer metrics: name, unit, better
direction, and which end-to-end metric the layer metric should move on which
workload. ``BENCHMARK.json`` lists the same names (a test checks that).
"""

from __future__ import annotations

from statistics import fmean

from spans import Tracer

# name, unit, better, moves (end-to-end metric on workload)
PER_LAYER = [
    ("features.calls_per_tick", "count", "lower", "primary_ms, secondary_ms on live_stream"),
    ("features.rows_per_tick", "count", "lower", "primary_ms, secondary_ms on live_stream"),
    ("features.ms_per_tick", "ms", "lower", "live_stream tick latency; simulate_sessions primary_ms"),
    ("features.ms_per_train_window", "ms", "lower", "train_eval primary_ms (augmentation re-extraction)"),
    ("model.forward.ms_per_call", "ms", "lower", "live_stream tick latency; simulate_sessions primary_ms"),
    ("model.forward.rows_used_ratio", "ratio", "higher", "live_stream tick latency; simulate_sessions primary_ms"),
    ("model.train_step.ms_per_window", "ms", "lower", "train_eval primary_ms only"),
    ("model.eval_forward.ms_per_window", "ms", "lower", "train_eval secondary_ms, and primary_ms via per-epoch validation"),
    ("codebook.ms_per_tick", "ms", "lower", "live_stream tick latency"),
    ("streaming.push.ms_per_call", "ms", "lower", "live_stream tick latency; simulate_sessions primary_ms"),
    ("streaming.tick.ms_per_call", "ms", "lower", "live_stream tick latency; simulate_sessions primary_ms"),
    ("streaming.tick.self_ms", "ms", "lower", "live_stream tick latency; simulate_sessions primary_ms"),
    ("streaming.max_pending_samples", "count", "lower", "live_stream tick latency"),
    ("endpointing.ms_per_turn", "ms", "lower", "simulate_sessions primary_ms, secondary_ms (predicted negligible)"),
    ("endpointing.vap_fire_ratio", "ratio", "higher", "none: replay cost does not depend on firing"),
    ("simulate.generate.ms_per_dialogue", "ms", "lower", "simulate_sessions both; setup_s on live_stream, train_eval"),
    ("simulate.session.self_ms_per_dialogue", "ms", "lower", "simulate_sessions primary_ms"),
    ("noise.apply.calls", "count", "lower", "train_eval primary_ms, secondary_ms"),
    ("noise.apply.ms_per_call", "ms", "lower", "train_eval primary_ms, secondary_ms"),
    ("training.self_ms_per_window", "ms", "lower", "train_eval primary_ms"),
    ("training.epoch_s", "s", "lower", "train_eval primary_ms"),
    ("datasets.load.ms_per_item", "ms", "lower", "train_eval primary_ms, secondary_ms"),
    ("audio.load_wav.ms_per_call", "ms", "lower", "train_eval primary_ms, secondary_ms"),
    ("stats.ms_per_call", "ms", "lower", "simulate_sessions primary_ms, secondary_ms"),
    ("cli.self_ms", "ms", "lower", "simulate_sessions and train_eval, all timed metrics"),
]


def _rows(args, result):
    return float(result.shape[0])


def _pending(args, result):
    return float(args[0].samples_pending)


def instrument(tracer: Tracer) -> None:
    """Wrap the calls into each layer. Import vapturn before calling this."""
    import vapturn.cli as cli
    import vapturn.datasets as datasets
    import vapturn.simulate as simulate
    import vapturn.streaming as streaming
    import vapturn.training as training

    w = tracer.wrap
    w(streaming.StreamContext, "push_audio", "streaming.push", _pending)
    w(streaming.StreamContext, "tick", "streaming.tick")
    w(streaming, "extract_features", "features.streaming", _rows)
    w(streaming, "forward", "model.forward", lambda a, r: float(a[1].features_a.shape[0]))
    w(streaming, "p_now_pair", "codebook.p_now_pair")
    w(streaming, "entropy_nats", "codebook.entropy")
    w(simulate, "run_stream", "streaming.run_stream")
    w(simulate, "vap_decide", "endpointing.vap_decide", lambda a, r: float(r is not None))
    w(simulate, "stt_decide", "endpointing.stt_decide")
    w(simulate, "arbitrate", "endpointing.arbitrate")
    w(simulate, "apply_condition", "noise.apply")
    for fn in ("describe", "histogram_fixed", "rank_sum_test"):
        w(simulate, fn, f"stats.{fn}")
    for owner in (cli, datasets, simulate):
        w(owner, "generate_scripted_dialogue", "simulate.generate")
    w(cli, "run_session", "simulate.run_session")
    tracer.mark(cli, "run_session", "dialogue")
    w(training, "batch_loss_and_grads", "model.train_step", lambda a, r: float(a[2].shape[0]))
    w(training, "_forward", "model.eval_forward", lambda a, r: float(a[1].shape[0]))
    w(training, "extract_features", "features.training", _rows)
    w(training, "apply_condition", "noise.apply")
    w(cli, "fit", "training.fit")
    tracer.mark(training, "_epoch_windows", "epoch")
    w(cli, "eval_per_snr", "training.eval_per_snr")
    w(cli, "load_dataset", "datasets.load", lambda a, r: float(sum(len(v) for v in r.values())))
    w(datasets, "load_wav", "audio.load_wav")
    w(cli, "main", "cli.main")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, iterations: int) -> dict:
    """Per-layer numbers from the recorded spans. Spans of set-up are left
    out except for dialogue generation, which live_stream does only there.
    A layer the workload never calls reports 0."""
    spans = tracer.spans
    covered = tracer.child_time()
    timed = [i for i, s in enumerate(spans) if s.group != "setup"]
    by_name: dict[str, list[int]] = {}
    for i in timed:
        by_name.setdefault(spans[i].name, []).append(i)

    def ids(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(*names):
        return sum(spans[i].duration for i in ids(*names))

    def info(*names):
        return sum(spans[i].info or 0.0 for i in ids(*names))

    def mean_ms(*names):
        d = [spans[i].duration for i in ids(*names)]
        return 1000.0 * fmean(d) if d else 0.0

    def mean_self_ms(name):
        d = [spans[i].duration - covered[i] for i in ids(name)]
        return 1000.0 * fmean(d) if d else 0.0

    ticks = len(ids("streaming.tick"))
    windows = info("model.train_step")
    fits = ids("training.fit")
    under_fit = [
        i for i in timed if any(a.name == "training.fit" for a in tracer.ancestors(i))
    ]
    fit_children = sum(
        spans[i].duration
        for i in under_fit
        if spans[i].name.split(".")[0] in ("model", "features", "noise")
    )
    train_features = sum(spans[i].duration for i in under_fit if spans[i].name == "features.training")
    epochs = []
    for i in fits:
        fit = spans[i]
        starts = [t for n, t, _ in tracer.marks if n == "epoch" and fit.start <= t <= fit.end]
        epochs += [b - a for a, b in zip(starts, starts[1:] + [fit.end])]
    generate = [s.duration for s in spans if s.name == "simulate.generate"]
    stats = [n for n in by_name if n.startswith("stats.")]
    return {
        "features.calls_per_tick": _ratio(len(ids("features.streaming")), ticks),
        "features.rows_per_tick": _ratio(info("features.streaming"), ticks),
        "features.ms_per_tick": 1000.0 * _ratio(total("features.streaming"), ticks),
        "features.ms_per_train_window": 1000.0 * _ratio(train_features, windows),
        "model.forward.ms_per_call": mean_ms("model.forward"),
        "model.forward.rows_used_ratio": _ratio(len(ids("model.forward")), info("model.forward")),
        "model.train_step.ms_per_window": 1000.0 * _ratio(total("model.train_step"), windows),
        "model.eval_forward.ms_per_window": 1000.0
        * _ratio(total("model.eval_forward"), info("model.eval_forward")),
        "codebook.ms_per_tick": 1000.0
        * _ratio(total("codebook.p_now_pair", "codebook.entropy"), ticks),
        "streaming.push.ms_per_call": mean_ms("streaming.push"),
        "streaming.tick.ms_per_call": mean_ms("streaming.tick"),
        "streaming.tick.self_ms": mean_self_ms("streaming.tick"),
        "streaming.max_pending_samples": max(
            (spans[i].info for i in ids("streaming.push")), default=0.0
        ),
        "endpointing.ms_per_turn": 1000.0
        * _ratio(
            total("endpointing.vap_decide", "endpointing.stt_decide", "endpointing.arbitrate"),
            len(ids("endpointing.stt_decide")),
        ),
        "endpointing.vap_fire_ratio": _ratio(
            info("endpointing.vap_decide"), len(ids("endpointing.vap_decide"))
        ),
        "simulate.generate.ms_per_dialogue": 1000.0 * fmean(generate) if generate else 0.0,
        "simulate.session.self_ms_per_dialogue": mean_self_ms("simulate.run_session"),
        "noise.apply.calls": _ratio(len(ids("noise.apply")), iterations),
        "noise.apply.ms_per_call": mean_ms("noise.apply"),
        "training.self_ms_per_window": 1000.0
        * _ratio(total("training.fit") - fit_children, windows),
        "training.epoch_s": fmean(epochs) if epochs else 0.0,
        "datasets.load.ms_per_item": 1000.0 * _ratio(total("datasets.load"), info("datasets.load")),
        "audio.load_wav.ms_per_call": mean_ms("audio.load_wav"),
        "stats.ms_per_call": mean_ms(*stats),
        "cli.self_ms": mean_self_ms("cli.main"),
    }
