"""The benchmark workloads and the correctness checks they carry.

Every workload is one closed-loop client running one pipeline at a time
through ``bem``'s public API. Inputs come only from the workload seed:
``synthgen.generate`` makes the tables, and the benchmark hands the
package nothing else. Stage timings are taken here, around the calls, so
that no package code has to change to be measured.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bem import dataio, elbo, evalkit, nets, synthgen, trainer
from bem.rng import named_rng

import reference

RECALL_QUERIES = 200
RECALL_K = 10
CLASSIFY_IDS = 2000        # labelled entities sampled for the classifier
# The probe's first step size; it halves on any loss increase. At the CLI's
# 0.1, 300 epochs leave a 50-class probe at 4-18% accuracy, varying by seed.
CLASSIFY_LR = 10.0
REFERENCE_ROWS = 256       # rows re-derived independently for the refine check
REPLAY_ROWS = 2000         # rows refined twice by the table-scale replay check
REPLAY_STEPS = 2           # steps of the short same-seed training replay
RANDOM_HIDDEN = 500        # hidden width of the untrained workload's nets
ROUND_QUERIES = 10         # recall queries per re-timed call on sliced tables


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    # None: no training; refine runs with random nets instead.
    cfg: trainer.TrainConfig | None
    # The pipeline writes the input files itself instead of set-up doing it.
    writes_inputs: bool = False
    # Rows per re-timed call, if the stage rates are timed on slices of the
    # tables (and on ROUND_QUERIES recall queries) instead of on whole ones.
    round_rows: int | None = None

    def synth_spec(self, seed: int) -> synthgen.SynthSpec:
        return synthgen.SynthSpec(**self.spec, seed=seed)


# Why each workload exists is recorded in BENCHMARK.json; in short:
WORKLOADS = {w.name: w for w in (
    # The per-pair ELBO gradient is about 97% of the time: FLOP-bound, large
    # nets. 40 steps is the shortest run whose oracle MSE clearly beats raw
    # BG (20 steps does not).
    Workload(name="train-desk", spec={}, cfg=trainer.TrainConfig(epochs=10.0)),
    # Same ELBO layer with tiny per-pair work: call overhead, the prior
    # estimate and Adam weigh more, and the 2*bg_dim identity edge runs.
    # Not in BENCHMARK.json: 22 runs of three workloads at the run length
    # table-scale needs do not fit the time allowed for all runs.
    Workload(name="train-bemi", spec={},
             cfg=trainer.TrainConfig(edge=elbo.Edge.IDENTITY, n_batch=100,
                                     hidden_dim=64, epochs=15.0)),
    # No training, so no ELBO: table IO, refine and hit recall on 66 MB
    # files, far beyond the last-level cache. A call on a whole table lasts
    # seconds, too long to be bracketed by reference samples, so the stage
    # rates are re-timed on 5000-row slices; recall still ranks against the
    # whole table.
    Workload(name="table-scale", spec={"n_entities": 100_000, "n_clusters": 50},
             cfg=None, writes_inputs=True, round_rows=5000),
)}


# Reference kernel (see reference.py) beside each re-timed call of a stage.
STAGE_REFERENCE = {"load": "py", "write": "py", "refine": "np", "recall": "np"}


@dataclass
class Part:
    """One re-timed call of a row-counted stage and the check of its output."""

    stage: str
    fn: Callable
    rows: int
    check: Callable[[object], bool]


class Ledger:
    """Stage timings, attempted operations and named check outcomes.

    Pipeline calls are recorded per stage: ``calls`` holds their seconds and
    ``scaled`` the same seconds, with training steps scaled to the
    reference's nominal speed when there is a reference. The re-timed calls
    that the stage rates come from are kept apart in ``timed``, per part.
    Reference samples are never inside a recorded time; their total is
    ``ref_s``.
    """

    def __init__(self, ref: reference.Reference | None = None):
        self.ref = ref
        # stage -> seconds, and scaled seconds, of each pipeline call
        self.calls: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        # part name -> [(seconds, reference seconds per kernel)] of each call
        self.timed: dict[str, list[tuple[float, float]]] = {}
        self.ref_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def _call(self, fn):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except BaseException:
            self.failed += 1
            raise
        return out, time.perf_counter() - t0

    def _sample(self, kind: str, target_s: float) -> tuple[float, int]:
        seconds, n = self.ref.sample(kind, target_s)
        self.ref_s += seconds
        return seconds, n

    def _bracketed(self, kind: str, fn, last_s: float):
        """Call fn between two reference samples; return its output, its
        seconds and the reference's seconds per kernel beside it."""
        before_s, before_n = self._sample(kind, reference.SAMPLE_SHARE * last_s)
        out, seconds = self._call(fn)
        after_s, after_n = self._sample(kind, reference.SAMPLE_SHARE * seconds)
        return out, seconds, (before_s + after_s) / (before_n + after_n)

    def run(self, name: str, fn):
        """Time one call of a pipeline stage and return its result.

        Only training is scaled: its steps can be interleaved with reference
        samples. Other stages are a few calls each, some of seconds, and
        samples at their edges track the host worse than not scaling them.
        """
        if name == "train" and self.ref is not None:
            out, seconds, scaled = self._run_train(fn)
        else:
            out, seconds = self._call(fn)
            scaled = seconds
        self.calls.setdefault(name, []).append(seconds)
        self.scaled.setdefault(name, []).append(scaled)
        return out

    def _run_train(self, fn):
        """Run ``trainer.train`` with a reference sample at the start of every
        step, taken by wrapping ``trainer.sample_paired_batches``, so each
        step is scaled by the samples on either side of it. Each sample's
        time is taken out of its step and of the call. Without that function,
        or if the step records do not line up, the call is scaled as a whole.
        """
        kind = "np"
        nominal = reference.NOMINAL_S[kind]
        original = getattr(trainer, "sample_paired_batches", None)
        if original is None:
            out, seconds, kernel_s = self._bracketed(kind, fn, 0.0)
            return out, seconds, seconds * nominal / kernel_s
        samples = []
        step_start = 0.0

        def sampled(*args, **kwargs):
            nonlocal step_start
            now = time.perf_counter()
            step_s = now - step_start - samples[-1][0] if samples else 0.0
            samples.append(self._sample(kind, reference.SAMPLE_SHARE * step_s))
            step_start = now
            return original(*args, **kwargs)

        trainer.sample_paired_batches = sampled
        try:
            out, seconds = self._call(fn)
        finally:
            trainer.sample_paired_batches = original
        inside_s = sum(s for s, _ in samples)
        mean_step_s = seconds / max(len(samples), 1)
        samples.append(self._sample(kind, reference.SAMPLE_SHARE * mean_step_s))
        seconds -= inside_s
        steps = [r.wall_s for r in out[2].records]
        if len(steps) + 1 != len(samples):
            kernel_s = sum(s for s, _ in samples) / sum(n for _, n in samples)
            return out, seconds, seconds * nominal / kernel_s
        scaled = seconds - (sum(steps) - inside_s)
        for i, wall_s in enumerate(steps):
            (s0, n0), (s1, n1) = samples[i], samples[i + 1]
            scaled += (wall_s - s0) * nominal * (n0 + n1) / (s0 + s1)
        return out, seconds, scaled

    def retime(self, parts: dict[str, Part], deadline: float) -> None:
        """Call the parts in turn, each call bracketed by samples of its
        stage's reference kernel, for one round and then until ``deadline``
        (a ``time.perf_counter`` value), then check each part's last output.
        A part is called again only if its last call, with its samples,
        still fits; taking turns spreads every stage over the same stretch.
        """
        grow = 1.0 + 2.0 * reference.SAMPLE_SHARE
        last_out = {}
        while True:
            called = False
            for name, part in parts.items():
                timed = self.timed.setdefault(name, [])
                last = timed[-1][0] if timed else 0.0
                if timed and time.perf_counter() + grow * last > deadline:
                    continue
                last_out[name], seconds, kernel_s = self._bracketed(
                    STAGE_REFERENCE[part.stage], part.fn, last)
                timed.append((seconds, kernel_s))
                called = True
            if not called:
                break
        for name, part in parts.items():
            self.check(f"retimed.{name}", part.check(last_out[name]))

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        ok = bool(ok)
        if not ok:
            self.failed += 1
        self.checks[name] = self.checks.get(name, True) and ok


def stage_rate(ledger: Ledger, parts: dict[str, Part], stage: str,
               normalized: bool = True) -> float:
    """Rows per second of a stage over its re-timed calls.

    Normalized, each call's seconds are scaled by the reference kernel's
    nominal over its measured seconds beside that call (see reference.py),
    which gives rows per second on a host as fast as the nominal one.
    """
    nominal = reference.NOMINAL_S[STAGE_REFERENCE[stage]]
    rows = seconds = 0.0
    for name, part in parts.items():
        if part.stage == stage:
            timed = ledger.timed.get(name, [])
            rows += part.rows * len(timed)
            seconds += sum(c * nominal / k if normalized else c for c, k in timed)
    return rows / seconds if seconds else 0.0


@dataclass
class Inputs:
    """What set-up leaves for the pipeline: the truth and the input files."""

    truth: synthgen.SynthTruth
    kg_path: Path
    bg_path: Path
    work: Path
    nets: tuple | None = None


@dataclass
class PipelineResult:
    pipeline_s: float          # scaled to the reference's nominal speed, if any
    pipeline_wall_s: float
    ledger: Ledger
    oracle_mse: float
    raw_mse: float
    recall_at_10: float
    classify_acc: float
    step_s: list = field(default_factory=list)
    # The calls the stage rates are re-timed on, by part name.
    round_parts: dict = field(default_factory=dict)
    n_steps: int = 0
    param_checksum: str = ""
    refined_sha: str = ""
    refined_prefix_sha: str = ""


def table_sha(*tables) -> str:
    h = hashlib.sha256()
    for table in tables:
        h.update("\n".join(table.ids).encode("utf-8"))
        h.update(np.ascontiguousarray(table.matrix).tobytes())
    return h.hexdigest()


def same_table(a, b) -> bool:
    return a.ids == b.ids and np.array_equal(a.matrix, b.matrix)


def setup(workload: Workload, seed: int, work: Path) -> Inputs:
    """Generate the dataset and, unless the pipeline does it, write its files."""
    truth = synthgen.generate(workload.synth_spec(seed))
    inputs = Inputs(truth=truth, kg_path=work / "kg.tsv", bg_path=work / "bg.tsv",
                    work=work)
    if not workload.writes_inputs:
        dataio.write_table(truth.kg, inputs.kg_path)
        dataio.write_table(truth.bg, inputs.bg_path)
    if workload.cfg is None:
        rng = named_rng(seed, "bench.random-nets")
        kg_dim, bg_dim = truth.kg.dim, truth.bg.dim
        h = RANDOM_HIDDEN
        inputs.nets = (nets.DiffNet.random(kg_dim, h, bg_dim, rng),
                       nets.DiffNet.random(kg_dim + bg_dim, h, 2 * kg_dim + 2 * bg_dim, rng))
    return inputs


def _classify_and_recall(led: Ledger, table, truth, seed: int):
    ids = table.ids
    rng = named_rng(seed, "bench.eval")
    class_ids = ids if len(ids) <= CLASSIFY_IDS else tuple(
        ids[i] for i in np.sort(rng.choice(len(ids), CLASSIFY_IDS, replace=False)))

    def classify():
        split = evalkit.make_split(class_ids, seed)
        model = evalkit.train_classifier(table, truth.labels, split, lr=CLASSIFY_LR)
        return evalkit.classify_accuracy(model, table, truth.labels, split.test_ids)

    acc = led.run("classify", classify)
    users = [ids[i] for i in rng.choice(len(ids), RECALL_QUERIES, replace=False)]
    triggers = {uid: [uid] for uid in users}
    wanted = {uid: {truth.attributes[uid]} for uid in users}
    result = led.run("recall", lambda: evalkit.hit_recall(
        table, table, triggers, wanted, truth.attributes, RECALL_K))
    return acc, result, (users, wanted)


def _reference_hits(table, users, wanted, attrs, hits: int) -> bool:
    """Recount hits with GEMM and partial sorts; near-ties may go either way."""
    mat = table.matrix
    norms = np.linalg.norm(mat, axis=1)
    unit = mat / np.where(norms > 0.0, norms, 1.0)[:, None]
    ref_hits = ambiguous = 0
    for start in range(0, len(users), 25):
        block = users[start:start + 25]
        rows = np.array([table.id_index[u] for u in block])
        sims = unit[rows] @ unit.T
        sims[np.arange(len(rows)), rows] = -np.inf
        sims[:, norms == 0.0] = -np.inf
        part = np.argpartition(-sims, RECALL_K, axis=1)[:, :RECALL_K + 1]
        for q, uid in enumerate(block):
            top = sorted(part[q], key=lambda i: (-sims[q, i], i))
            ref_hits += sum(attrs[table.ids[i]] in wanted[uid]
                            for i in top[:RECALL_K] if np.isfinite(sims[q, i]))
            if sims[q, top[RECALL_K - 1]] - sims[q, top[RECALL_K]] < 1e-9:
                ambiguous += 1
    return abs(ref_hits - hits) <= ambiguous


def _reference_refine_ok(kg_n, bg_n, kg_r, bg_r, proj, infer, seed: int) -> bool:
    """Re-derive sampled refined rows with batched numpy, not the package loop."""
    n = len(kg_n)
    rows = named_rng(seed, "bench.refine-ref").choice(n, min(n, REFERENCE_ROWS),
                                                      replace=False)

    def forward(net, X):
        return np.maximum(X @ net.W1.T + net.b1, 0.0) @ net.W2.T + net.b2

    X = np.hstack([bg_n.matrix[rows], kg_n.matrix[rows]])
    kg_ref = kg_n.matrix[rows] + forward(infer, X)[:, :kg_n.dim]
    bg_ref = forward(proj, kg_ref)
    return (np.allclose(kg_r.matrix[rows], kg_ref, rtol=1e-9, atol=1e-12)
            and np.allclose(bg_r.matrix[rows], bg_ref, rtol=1e-9, atol=1e-12))


def run_pipeline(workload: Workload, inputs: Inputs, seed: int,
                 led: Ledger) -> PipelineResult:
    """One client request: files in, refined table and eval scores out."""
    truth, work = inputs.truth, inputs.work
    n = len(truth.kg)
    t0 = time.perf_counter()
    if workload.writes_inputs:
        led.run("write", lambda: (dataio.write_table(truth.kg, inputs.kg_path),
                                  dataio.write_table(truth.bg, inputs.bg_path)))
    kg, bg = led.run("load", lambda: (dataio.load_table(inputs.kg_path),
                                      dataio.load_table(inputs.bg_path)))
    kg, bg, _ = led.run("align", lambda: dataio.align(kg, bg))
    report = None
    cfg = workload.cfg
    if cfg is not None:
        proj, infer, report = led.run("train", lambda: trainer.train(kg, bg, cfg))
        model_path = work / "model.bem"

        def model_io():
            dataio.save_model(proj, infer, cfg, model_path)
            return dataio.load_model(model_path)

        proj_l, infer_l, cfg_l = led.run("model_io", model_io)
        saved = [a for net in (proj, infer) for a in net.param_dict().values()]
        loaded = [a for net in (proj_l, infer_l) for a in net.param_dict().values()]
        led.check("roundtrip.model",
                  all(np.array_equal(a, b) for a, b in zip(saved, loaded))
                  and cfg_l.to_dict() == cfg.to_dict())
        proj, infer = proj_l, infer_l
    else:
        proj, infer = inputs.nets
    kg_n, bg_n = led.run("normalize", lambda: (dataio.normalize_rows(kg),
                                               dataio.normalize_rows(bg)))
    kg_r, bg_r = led.run("refine", lambda: trainer.refine(kg_n, bg_n, proj, infer))
    led.run("write", lambda: dataio.write_table(bg_r, work / "bg_refined.tsv"))
    acc, recall, (users, wanted) = _classify_and_recall(led, bg_r, truth, seed)
    # Wall time without reference samples; scaled, the untimed glue between
    # stages is added unscaled.
    wall_s = time.perf_counter() - t0 - led.ref_s
    stages_s = sum(map(sum, led.calls.values()))
    pipeline_s = wall_s - stages_s + sum(map(sum, led.scaled.values()))

    led.check("roundtrip.inputs", same_table(kg, truth.kg) and same_table(bg, truth.bg))
    led.check("refine.reference",
              _reference_refine_ok(kg_n, bg_n, kg_r, bg_r, proj, infer, seed))
    led.check("recall.reference",
              _reference_hits(bg_r, users, wanted, truth.attributes, recall.hits))
    # Score in input scale: undo the row normalization with the BG row norms.
    norms = np.linalg.norm(bg.matrix, axis=1, keepdims=True)
    rescaled = dataio.EmbeddingTable(ids=bg_r.ids, matrix=bg_r.matrix * norms)
    oracle_mse = synthgen.oracle_error(rescaled, truth)
    raw_mse = synthgen.oracle_error(bg, truth)
    if cfg is not None:
        led.check("quality.beats_raw_bg", oracle_mse < raw_mse)
    prefix = range(min(n, REPLAY_ROWS))
    sliced = workload.round_rows is not None
    round_parts = _round_parts(
        workload.round_rows if sliced else n, truth, work, (kg_n, bg_n, kg_r, bg_r),
        (proj, infer), users[:ROUND_QUERIES] if sliced else users, wanted)
    return PipelineResult(
        pipeline_s=pipeline_s, pipeline_wall_s=wall_s, ledger=led,
        oracle_mse=oracle_mse, raw_mse=raw_mse, recall_at_10=recall.recall,
        classify_acc=acc,
        step_s=[r.wall_s for r in report.records] if report else [],
        round_parts=round_parts,
        n_steps=report.n_steps if report else 0,
        param_checksum=report.param_checksum if report else "",
        refined_sha=table_sha(kg_r, bg_r),
        refined_prefix_sha=table_sha(kg_r.subset(prefix), bg_r.subset(prefix)),
    )


def _round_parts(n_rows: int, truth, work: Path, tables, nets_pair, queries,
                 wanted) -> dict[str, Part]:
    """The pipeline's row-counted calls, one table file or table per call, in
    pipeline order, on its first ``n_rows`` rows and ``queries``; recall
    still ranks against the whole refined table. Each checks its output."""
    rows = range(n_rows)
    kg_n, bg_n, kg_r, bg_r = tables
    kg, bg = truth.kg.subset(rows), truth.bg.subset(rows)
    kg_n, bg_n = kg_n.subset(rows), bg_n.subset(rows)
    kg_rs, bg_rs = kg_r.subset(rows), bg_r.subset(rows)
    paths = {name: work / f"round_{name}.tsv" for name in ("kg", "bg", "refined")}
    dataio.write_table(kg, paths["kg"])
    dataio.write_table(bg, paths["bg"])
    triggers = {uid: [uid] for uid in queries}

    def write(table, path):
        return Part("write", lambda: dataio.write_table(table, path), n_rows,
                    lambda _: same_table(dataio.load_table(path), table))

    def load(table, path):
        return Part("load", lambda: dataio.load_table(path), n_rows,
                    lambda out: same_table(out, table))

    return {
        "write.kg": write(kg, paths["kg"]),
        "write.bg": write(bg, paths["bg"]),
        "load.kg": load(kg, paths["kg"]),
        "load.bg": load(bg, paths["bg"]),
        "refine": Part("refine", lambda: trainer.refine(kg_n, bg_n, *nets_pair), n_rows,
                       lambda out: same_table(out[0], kg_rs) and same_table(out[1], bg_rs)),
        "write.refined": write(bg_rs, paths["refined"]),
        "recall": Part("recall", lambda: evalkit.hit_recall(
            bg_r, bg_r, triggers, wanted, truth.attributes, RECALL_K), len(queries),
            lambda out: _reference_hits(bg_r, queries, wanted, truth.attributes, out.hits)),
    }


def replay_check(workload: Workload, inputs: Inputs, first: PipelineResult,
                 led: Ledger) -> None:
    """Same-seed reruns must give the same bytes.

    Trained workloads train a short run twice and refine with both models;
    the untrained one refines a prefix of the rows twice, which must also
    equal the prefix of the full refine.
    """
    truth = inputs.truth
    kg_n = dataio.normalize_rows(truth.kg)
    bg_n = dataio.normalize_rows(truth.bg)
    if workload.cfg is not None:
        short = dataclasses.replace(
            workload.cfg, epochs=REPLAY_STEPS * workload.cfg.n_batch / len(truth.kg))
        runs = [trainer.train(truth.kg, truth.bg, short) for _ in range(2)]
        led.check("determinism.param_checksum",
                  runs[0][2].param_checksum == runs[1][2].param_checksum)
        shas = [table_sha(*trainer.refine(kg_n, bg_n, p, q)) for p, q, _ in runs]
        led.check("determinism.refined_sha", shas[0] == shas[1])
        return
    rows = range(min(len(kg_n), REPLAY_ROWS))
    kg_p, bg_p = kg_n.subset(rows), bg_n.subset(rows)
    shas = [table_sha(*trainer.refine(kg_p, bg_p, *inputs.nets)) for _ in range(2)]
    led.check("determinism.refined_sha",
              shas[0] == shas[1] == first.refined_prefix_sha)


def same_outputs(a: PipelineResult, b: PipelineResult) -> bool:
    return (a.param_checksum == b.param_checksum and a.refined_sha == b.refined_sha
            and a.oracle_mse == b.oracle_mse and a.recall_at_10 == b.recall_at_10
            and a.classify_acc == b.classify_acc)


def step_gflop(cfg: trainer.TrainConfig, kg_dim: int, bg_dim: int) -> float:
    """FLOPs of one training step's two-net forward and backward passes.

    Per node and net, a forward pass is 2*h*(in + out) multiply-adds and the
    backward pass (input gradient plus two outer products) twice that.
    """
    edge_dim = {elbo.Edge.TRANSLATION: bg_dim, elbo.Edge.INNER_PRODUCT: 1,
                elbo.Edge.IDENTITY: 2 * bg_dim}[cfg.edge]
    widths = (kg_dim + bg_dim) + (kg_dim + bg_dim + 2 * kg_dim + 2 * edge_dim)
    return cfg.n_iter * cfg.n_batch * 2 * 6 * cfg.hidden_dim * widths / 1e9

