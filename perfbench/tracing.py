"""Per-layer tracing from outside the package.

``install`` replaces the module and class attributes through which the
pipeline stages call each layer with wrappers, and ``Tracer.restore`` puts
the originals back. Coarse calls become spans (name, start, end, parent);
per-document calls (normalisation, language ID, phrase matching, framing)
are tallied as a call count plus busy time, because a span each would cost
more than the call. ``tracemalloc`` runs only inside the numpy-bound topic
layers, so it does not slow the pure-Python layers it would distort.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
import tracemalloc
from pathlib import Path

STAGES = ("ingest", "cleanse", "extract", "framing", "topics",
          "forecast", "correlate", "sectors", "report")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [(f"cli.{s}.s", "s", "lower") for s in STAGES] + [
    ("cli.load_postings.calls", "count", "lower"),
    ("cli.load_postings.s", "s", "lower"),
    ("cli.manifest.s", "s", "lower"),
    ("cli.write.s", "s", "lower"),
    ("ingest.records", "count", "higher"),
    ("ingest.duplicates_removed", "count", "higher"),
    ("cleanse.s", "s", "lower"),
    ("cleanse.normalize.s", "s", "lower"),
    ("cleanse.normalize.calls", "count", "lower"),
    ("cleanse.retained_share", "share", "higher"),
    ("language.detect.s", "s", "lower"),
    ("language.detect.calls", "count", "lower"),
    ("taxonomy.match.s", "s", "lower"),
    ("taxonomy.match.calls", "count", "lower"),
    ("taxonomy.match_calls_per_posting", "count", "lower"),
    ("skills.detect.s", "s", "lower"),
    ("embed.s", "s", "lower"),
    ("embed.texts", "count", "lower"),
    ("embed.texts_per_posting", "count", "lower"),
    ("framing.frame.s", "s", "lower"),
    ("framing.anchors.s", "s", "lower"),
    ("topics.dtm.build.s", "s", "lower"),
    ("topics.dtm.vocab", "count", "higher"),
    ("topics.dtm.cluster_terms.s", "s", "lower"),
    ("topics.dtm.cluster_terms.calls", "count", "lower"),
    ("topics.dtm.cluster_terms.peak_mb", "MB", "lower"),
    ("topics.lda.s", "s", "lower"),
    ("topics.lda.tokens", "count", "higher"),
    ("topics.lda.token_sweeps_per_s", "1/s", "higher"),
    ("topics.kmeans.s", "s", "lower"),
    ("topics.kmeans.iterations", "count", "lower"),
    ("topics.kmeans.peak_mb", "MB", "lower"),
    ("topics.density.s", "s", "lower"),
    ("topics.density.peak_mb", "MB", "lower"),
    ("topics.density.noise_share", "share", "lower"),
    ("trends.forecast.s", "s", "lower"),
    ("trends.sector.s", "s", "lower"),
    ("trends.sector.calls", "count", "lower"),
    ("arima.fit.s", "s", "lower"),
    ("arima.fits", "count", "lower"),
    ("arima.not_converged", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


class Tracer:
    """Spans and tallies recorded by wrappers; all state lives here."""

    def __init__(self):
        self.spans: list[dict] = []
        self.tallies: dict[str, list] = {}   # name -> [calls, busy_s, self_s]
        self.values: dict[str, float] = {}   # numbers read off arguments and results
        self.notes: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _observe(self, observe, args, kwargs, result) -> None:
        try:
            observe(self.values, args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError) as e:
            self.notes.append(f"{observe.__name__}: {type(e).__name__}: {e}")

    def span(self, name, fn, observe=None, memory=False):
        """Wrap ``fn`` so each call records a span; ``name`` may be a
        function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rec = {"id": len(tracer.spans),
                   "name": name(args, kwargs) if callable(name) else name,
                   "parent": next((f["id"] for f in reversed(stack) if "id" in f), None),
                   "child_s": 0.0}
            tracer.spans.append(rec)
            stack.append(rec)
            traced = memory and not tracemalloc.is_tracing()
            if traced:
                tracemalloc.start()
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                if traced:
                    rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += rec["end"] - rec["start"]
            if observe is not None:
                tracer._observe(observe, args, kwargs, result)
            return result
        return wrapper

    def tally(self, name, fn):
        """Wrap a per-document ``fn``: count calls and sum busy time."""
        tracer = self
        counts = self.tallies.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = {"child_s": 0.0}
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                stack.pop()
                counts[0] += 1
                counts[1] += busy
                counts[2] += busy - frame["child_s"]
                if stack:
                    stack[-1]["child_s"] += busy
            return result
        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; a missing target is
        noted and left untraced, so its layer reads zero."""
        original = vars(owner).get(attr)
        if original is None:
            self.notes.append(f"untraced: {getattr(owner, '__name__', owner)}.{attr} not found")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        spans = [{"name": s["name"], "parent": s["parent"], "start": s["start"],
                  "end": s["end"], "self_s": s["end"] - s["start"] - s["child_s"],
                  **({"peak_mb": s["peak_mb"]} if "peak_mb" in s else {})}
                 for s in self.spans if "end" in s]
        tallies = {name: {"calls": c, "busy_s": b, "self_s": own}
                   for name, (c, b, own) in self.tallies.items()}
        path.write_text(json.dumps({"spans": spans, "tallies": tallies}, indent=1),
                        encoding="utf-8")

    def self_times(self) -> dict[str, float]:
        """Self time summed per span or tally name."""
        out: dict[str, float] = {}
        for s in self.spans:
            if "end" in s:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - s["child_s"]
        for name, (_, _, own) in self.tallies.items():
            out[name] = out.get(name, 0.0) + own
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        peak: dict[str, float] = {}
        for s in self.spans:
            if "end" not in s:
                continue
            total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            if "peak_mb" in s:
                peak[s["name"]] = max(peak.get(s["name"], 0.0), s["peak_mb"])
        tally = {name: (c, b) for name, (c, b, _) in self.tallies.items()}
        for name in ("cleanse.normalize", "language.detect", "taxonomy.match",
                     "skills.detect", "framing.frame", "framing.anchors"):
            tally.setdefault(name, (0, 0.0))
        v = self.values
        postings = v.get("postings", 0)

        def per_posting(x):
            return x / postings if postings else 0.0

        lda_s = total.get("topics.lda", 0.0)
        out = {f"cli.{s}.s": total.get(f"cli.{s}", 0.0) for s in STAGES}
        out.update({
            "cli.load_postings.calls": calls.get("cli.load_postings", 0),
            "cli.load_postings.s": total.get("cli.load_postings", 0.0),
            "cli.manifest.s": total.get("cli.manifest", 0.0),
            "cli.write.s": total.get("cli.write", 0.0),
            "ingest.records": v.get("ingest.records", 0),
            "ingest.duplicates_removed": v.get("ingest.duplicates_removed", 0),
            "cleanse.s": total.get("cleanse", 0.0),
            "cleanse.normalize.s": tally["cleanse.normalize"][1],
            "cleanse.normalize.calls": tally["cleanse.normalize"][0],
            "cleanse.retained_share": v.get("cleanse.retained_share", 0.0),
            "language.detect.s": tally["language.detect"][1],
            "language.detect.calls": tally["language.detect"][0],
            "taxonomy.match.s": tally["taxonomy.match"][1],
            "taxonomy.match.calls": tally["taxonomy.match"][0],
            "taxonomy.match_calls_per_posting": per_posting(tally["taxonomy.match"][0]),
            "skills.detect.s": tally["skills.detect"][1],
            "embed.s": total.get("embed", 0.0),
            "embed.texts": v.get("embed.texts", 0),
            "embed.texts_per_posting": per_posting(v.get("embed.texts", 0)),
            "framing.frame.s": tally["framing.frame"][1],
            "framing.anchors.s": tally["framing.anchors"][1],
            "topics.dtm.build.s": total.get("topics.dtm.build", 0.0),
            "topics.dtm.vocab": v.get("topics.dtm.vocab", 0),
            "topics.dtm.cluster_terms.s": total.get("topics.dtm.cluster_terms", 0.0),
            "topics.dtm.cluster_terms.calls": calls.get("topics.dtm.cluster_terms", 0),
            "topics.dtm.cluster_terms.peak_mb": peak.get("topics.dtm.cluster_terms", 0.0),
            "topics.lda.s": lda_s,
            "topics.lda.tokens": v.get("topics.lda.tokens", 0),
            "topics.lda.token_sweeps_per_s":
                v.get("topics.lda.token_sweeps", 0) / lda_s if lda_s else 0.0,
            "topics.kmeans.s": total.get("topics.kmeans", 0.0),
            "topics.kmeans.iterations": v.get("topics.kmeans.iterations", 0),
            "topics.kmeans.peak_mb": peak.get("topics.kmeans", 0.0),
            "topics.density.s": total.get("topics.density", 0.0),
            "topics.density.peak_mb": peak.get("topics.density", 0.0),
            "topics.density.noise_share": v.get("topics.density.noise_share", 0.0),
            "trends.forecast.s": total.get("trends.forecast", 0.0),
            "trends.sector.s": total.get("trends.sector", 0.0),
            "trends.sector.calls": calls.get("trends.sector", 0),
            "arima.fit.s": total.get("arima.fit", 0.0),
            "arima.fits": calls.get("arima.fit", 0),
            "arima.not_converged": v.get("arima.not_converged", 0),
        })
        return out


# --- observers: numbers read off a layer's arguments or result ---------------

def _add(values, key, x):
    values[key] = values.get(key, 0) + x


def _stage_counts(values, args, kwargs, counts):
    if args[0] == "ingest":
        values["ingest.records"] = counts["records"]
        values["ingest.duplicates_removed"] = counts["duplicates_removed"]


def _postings(values, args, kwargs, postings):
    values["postings"] = max(values.get("postings", 0), len(postings))


def _retained(values, args, kwargs, result):
    _, report = result
    values["cleanse.retained_share"] = report.retained / report.input if report.input else 0.0


def _embedded(values, args, kwargs, vectors):
    _add(values, "embed.texts", len(vectors))


def _vocab(values, args, kwargs, dtm):
    values["topics.dtm.vocab"] = dtm.n_terms


def _lda_work(values, args, kwargs, model):
    dtm, cfg = args[0], args[1]
    tokens = sum(int(c.sum()) for c in dtm.doc_counts)
    _add(values, "topics.lda.tokens", tokens)
    _add(values, "topics.lda.token_sweeps", tokens * cfg.iterations)


def _kmeans_iterations(values, args, kwargs, model):
    _add(values, "topics.kmeans.iterations", model.iterations_run)


def _noise_share(values, args, kwargs, model):
    values["topics.density.noise_share"] = float((model.labels == -1).mean())


def _converged(values, args, kwargs, model):
    _add(values, "arima.not_converged", int(not model.converged))


def install(tracer: Tracer) -> None:
    """Wrap the boundaries the pipeline stages call through."""
    import skillscope.cleanse as cleanse
    import skillscope.cli as cli
    import skillscope.embed as embed
    import skillscope.framing as framing
    import skillscope.taxonomy as taxonomy
    import skillscope.trends as trends

    def span(name, **kw):
        return lambda fn: tracer.span(name, fn, **kw)

    def tally(name):
        return lambda fn: tracer.tally(name, fn)

    tracer.patch(cli, "run_stage", span(lambda a, k: f"cli.{a[0]}", observe=_stage_counts))
    tracer.patch(cli, "load_postings", span("cli.load_postings", observe=_postings))
    tracer.patch(cli, "atomic_write", span("cli.write"))
    tracer.patch(cli.Manifest, "record", span("cli.manifest"))
    tracer.patch(cli, "cleanse", span("cleanse", observe=_retained))
    tracer.patch(cleanse, "normalize_text", tally("cleanse.normalize"))
    tracer.patch(cleanse, "detect_language", tally("language.detect"))
    tracer.patch(taxonomy.CompiledMatcher, "match_hits", tally("taxonomy.match"))
    tracer.patch(cli, "detect_skills", tally("skills.detect"))
    tracer.patch(embed.HashedProvider, "embed_batch", span("embed", observe=_embedded))
    tracer.patch(cli, "frame_document", tally("framing.frame"))
    tracer.patch(framing, "anchor_centroid", tally("framing.anchors"))
    tracer.patch(cli, "build_dtm", span("topics.dtm.build", observe=_vocab))
    tracer.patch(cli, "cluster_terms", span("topics.dtm.cluster_terms", memory=True))
    tracer.patch(cli, "lda_fit", span("topics.lda", observe=_lda_work))
    tracer.patch(cli, "kmeans_fit", span("topics.kmeans", observe=_kmeans_iterations,
                                         memory=True))
    tracer.patch(cli, "density_topics", span("topics.density", observe=_noise_share,
                                             memory=True))
    tracer.patch(cli, "forecast_series", span("trends.forecast"))
    tracer.patch(trends, "arima_fit", span("arima.fit", observe=_converged))
    tracer.patch(cli, "sector_rates", span("trends.sector"))
    tracer.patch(cli, "sector_totals", span("trends.sector"))


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
