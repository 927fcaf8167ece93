"""Pipeline orchestrator: gen-scenarios -> build-kg (graphs with lineage
resolved) -> sample-paths -> train -> evaluate -> report.

Each stage owns one directory, named in ``STAGE_DIRS``: ``<task>/scenarios``
for gen-scenarios, ``<task>/<profile>/<name>`` for a cell's stages.  The
directory is made before the stage runs, and never cleared.  A stage's
outputs are every file under its directory; report's alone are
``results.tsv`` and ``report.txt`` in the run's root.  A sidecar beside the
directory records the stage's config digest and each output's sha256, and a
rerun skips the stage while both are unchanged.  So a file added to or
removed from a stage's directory, even a stray one, reruns that stage; once
any stage actually runs, every downstream stage runs too.  The sidecar also
records the stage's seconds and what it counted: build-kg its graphs'
triples and the lineage edges resolution added per family, sample-paths the
processes it walked in, train its samples, per-epoch losses, and the path
rows of its batches next to the distinct rows the LSTM ran and their non-PAD
positions.  No skip decision and no artifact reads these.

Skip decisions are taken up front, in serial order.  gen-scenarios and
report run here.  Between them, the (task, profile) cells with a stage to run
go through ``parallel.fork_imap``: on two or more usable CPUs each runs in a
forked worker, one per CPU share, and this process only waits.  Each worker
pins itself to its share of the CPUs, so its sample-paths forks its pairs only
when cells are fewer than CPUs.  A single cell runs here on every CPU.  A cell
returns only its failure.  Once the cells are done, the log is printed from
the skip plan: one ``[run ]`` or ``[skip]`` line per stage, in serial order, up
to the first stage that failed.

sample-paths walks each pair of its cell once (``paths.PairWalk``): the
training pairs in the order in which the first epoch (``model.epoch_orders``)
first reads one of each pair's samples, then the eval pairs, in forked
children on a share of two or more CPUs (run alone, each sends its whole share
when done, as handing each pair on cost walk time on desk-paths), else all in
the cell's process before it takes one in.  The walk order changes no artifact
(``paths`` module docstring).  train fits on that walk's training set when
sample-paths runs in the same call (``Pipeline.stage_sample_and_train``): as
the children fill it, or once the cell's own walks are done; the sample files
are written after the fit, whose seconds count for train.  Otherwise train
reads ``train.txt``.  A walk that fails fails sample-paths, and train writes
nothing; a fit that fails fails train after sample-paths is done.

Only train and evaluate run the model (``siamese``), and only the model needs
numpy, whose import is about a third of a process's set-up and about 11 MiB of
peak memory; manifest validation and sample-paths' walk order read ``model``
alone.  So ``Pipeline.run`` imports the model once, before its first stage, and
only when a train or evaluate step will run: a run of the other stages never
loads numpy, and in one that trains, the import is done before any cell or
walking child forks, so each shares the loaded module instead of importing it
again or importing it while the walks compete for the CPU.  Where numpy is
missing, that import fails the run with one line and exit status 2.

BLAS sizes its thread pool to the CPUs it sees as it loads, and a cell worker
pinned to one of them ran that many threads on it, several times slower.  So
before that import, ``Pipeline.run`` sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 where the environment leaves
them unset; a value set there wins.  An API caller that loaded numpy before its
first run keeps the pool size it loaded with, which cannot change afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from . import convert, metrics, parallel, paths, scenario
from .kgstore import KnowledgeGraph, parse_ntriples, serialize_ntriples
from .model import ModelConfig, ModelError, epoch_orders
from .ontology import export_profile, vocabulary
from .reldb import northwind_fixture

# each stage's directory, in its cell (gen-scenarios: in its task), in order
STAGE_DIRS = {"gen-scenarios": "scenarios", "build-kg": "kg", "sample-paths": "samples",
              "train": "model", "evaluate": "eval", "report": ""}
STAGES = tuple(STAGE_DIRS)
# the stages of one (task, profile) cell, in order, and their methods
CELL_STAGES = {"build-kg": "stage_build_kg", "sample-paths": "stage_sample",
               "train": "stage_train", "evaluate": "stage_evaluate"}

PRESETS = {
    "desk": dict(rows_per_table=10, scenarios_per_task=7, train_scenarios=5,
                 eval_negatives=200, walk_budget=24),
    "paper": dict(rows_per_table=50, scenarios_per_task=20, train_scenarios=17,
                  eval_negatives=4000, walk_budget=64),
}


class ManifestError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunManifest:
    out_dir: str = ""  # a manifest file may leave it to --out
    seed: int = 0
    profile: str = "both"  # baseline | rddl | both
    tasks: list[str] = field(default_factory=lambda: ["all"])
    rows_per_table: int = 10
    scenarios_per_task: int = 7
    train_scenarios: int = 5
    eval_negatives: int = 200
    num_paths: int = 3
    max_length: int = 6
    walk_budget: int = 24
    restart_prob: float = 0.2
    k_negatives: int = 1
    embed_dim: int = 32
    hidden_dim: int = 32
    layers: int = 2
    fusion_dim: int = 64
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 3

    def validate(self) -> None:
        for f in fields(self):
            # field types are strings under postponed annotations
            kinds = {"int": int, "float": (int, float), "str": str}.get(f.type)
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ManifestError(f"{f.name} must be {f.type}, got {value!r}")
        if not self.out_dir:
            raise ManifestError(
                "out_dir is not set; give it in the manifest or with --out")
        if self.profile not in ("baseline", "rddl", "both"):
            raise ManifestError(f"unknown profile: {self.profile!r}")
        if not isinstance(self.tasks, list) or not self.tasks:
            raise ManifestError(
                f"tasks must be a non-empty list of task names, got {self.tasks!r}")
        for task in self.expanded_tasks():
            if task not in scenario.TASK_NAMES:
                raise ManifestError(f"unknown task: {task!r}")
        if len(set(self.tasks)) != len(self.tasks):
            raise ManifestError(f"tasks must not repeat a name, got {self.tasks!r}")
        if self.seed < 0:
            raise ManifestError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.train_scenarios < self.scenarios_per_task:
            raise ManifestError(
                f"train_scenarios must split {self.scenarios_per_task} scenarios"
            )
        if self.rows_per_table < 2:
            raise ManifestError("rows_per_table must be >= 2")
        if self.k_negatives < 0:
            raise ManifestError("k_negatives must be >= 0")
        if self.eval_negatives < 1:
            raise ManifestError("eval_negatives must be >= 1")
        try:  # the graphs give the model its vocabulary and relation counts, each >= 1
            self.sampler_config()
            self.model_config(vocab_size=1, num_relations=1)
        except (paths.PathError, ModelError) as exc:
            raise ManifestError(str(exc)) from exc

    def expanded_tasks(self) -> list[str]:
        if self.tasks == ["all"]:
            return list(scenario.TASK_NAMES)
        return list(self.tasks)

    def profiles(self) -> list[str]:
        return ["baseline", "rddl"] if self.profile == "both" else [self.profile]

    def sampler_config(self) -> paths.SamplerConfig:
        return paths.SamplerConfig(
            num_paths=self.num_paths, max_length=self.max_length,
            walk_budget=self.walk_budget, restart_prob=self.restart_prob,
            seed=self.seed,
        )

    def model_config(self, vocab_size: int, num_relations: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size, num_relations=num_relations,
            num_paths=self.num_paths, embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim, layers=self.layers,
            fusion_dim=self.fusion_dim, learning_rate=self.learning_rate,
            batch_size=self.batch_size, epochs=self.epochs, seed=self.seed,
        )

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ManifestError(f"manifest is not UTF-8: {exc}") from None
        if not isinstance(data, dict):
            raise ManifestError(
                f"manifest must be a JSON object, got {type(data).__name__}")
        data.pop("deterministic", None)  # unused key of older manifests
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ManifestError(f"unknown manifest key(s): {', '.join(unknown)}")
        return cls(**data)


def _parse_graph(path, profile_name: str) -> KnowledgeGraph:
    return parse_ntriples(
        Path(path).read_text(encoding="utf-8"),
        relations=tuple(vocabulary(profile_name).relation_names()),
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    def __init__(self, manifest: RunManifest, echo=print):
        manifest.validate()
        self.m = manifest
        self.out = Path(manifest.out_dir)
        self.skipped: set[tuple[str, str, str]] = set()  # (stage, task, profile)
        self.echo = echo

    # -- stage bookkeeping ----------------------------------------------------

    def dir_of(self, stage: str, task: str, profile: str = "") -> Path:
        return self.out.joinpath(task, profile, STAGE_DIRS[stage])

    def _ok_path(self, stage: str, task: str, profile: str) -> Path:
        return self.out.joinpath(task, profile, f".stage_{stage}.ok")

    def _config_digest(self, stage: str, task: str, profile: str) -> str:
        payload = json.dumps(
            {"stage": stage, "task": task, "profile": profile,
             "manifest": asdict(self.m)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _outputs(self, stage: str, task: str, profile: str) -> dict[str, str]:
        """{path relative to the run's root: sha256} of every file in the
        stage's directory; report's are its two files in the root."""
        if stage == "report":
            files = [self.out / "results.tsv", self.out / "report.txt"]
        else:
            files = self.dir_of(stage, task, profile).rglob("*")
        return {str(p.relative_to(self.out)): _sha256(p)
                for p in sorted(files) if p.is_file()}

    def _should_skip(self, stage: str, task: str, profile: str) -> bool:
        ok_path = self._ok_path(stage, task, profile)
        if not ok_path.is_file():
            return False
        try:
            record = json.loads(ok_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return False
        # a sidecar that is not the object _mark_done writes counts as absent
        return (isinstance(record, dict)
                and record.get("config") == self._config_digest(stage, task, profile)
                and record.get("outputs") == self._outputs(stage, task, profile))

    def _mark_done(self, stage: str, task: str, profile: str,
                   telemetry: dict) -> None:
        record = {
            "config": self._config_digest(stage, task, profile),
            "outputs": self._outputs(stage, task, profile),
            **telemetry,
        }
        self._ok_path(stage, task, profile).write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")

    def _run_stage(self, stage: str, task: str, profile: str, fn) -> None:
        """Runs ``fn`` as the stage, once its directory exists, unless the
        stage is skipped; a ``seconds`` that ``fn`` returns adds to its wall time."""
        if (stage, task, profile) in self.skipped:
            return
        label = _label(stage, task, profile)
        start = time.perf_counter()
        self.dir_of(stage, task, profile).mkdir(parents=True, exist_ok=True)
        try:
            telemetry = fn() or {}
        except ManifestError:  # the manifest's fault, not the stage's: exit 1
            raise
        except Exception as exc:
            raise StageError(label, exc) from exc
        elapsed = time.perf_counter() - start
        telemetry["seconds"] = round(telemetry.get("seconds", 0) + elapsed, 3)
        self._mark_done(stage, task, profile, telemetry)

    # -- stages -----------------------------------------------------------------

    def _database(self):
        return northwind_fixture(self.m.rows_per_table, self.m.seed)

    def stage_scenarios(self, task: str) -> None:
        def build():
            db = self._database()
            suite = scenario.ScenarioSuite(db=db)
            kind = scenario.task_by_name(task)
            suite.scenarios[task] = [
                scenario.generate_scenario(db, kind, self.m.seed, idx)
                for idx in range(self.m.scenarios_per_task)
            ]
            scenario.save_suite(suite, self.dir_of("gen-scenarios", task))

        self._run_stage("gen-scenarios", task, "", build)

    def stage_build_kg(self, task: str, profile: str) -> None:
        kg = self.dir_of("build-kg", task, profile)

        def build():
            suite = scenario.load_suite(self.dir_of("gen-scenarios", task),
                                        db=self._database())
            split = convert.split_train_test(
                suite, task, profile, self.m.train_scenarios)
            (kg / "train.nt").write_text(serialize_ntriples(split.train), encoding="utf-8")
            (kg / "test.nt").write_text(serialize_ntriples(split.test), encoding="utf-8")
            convert.write_ground_truth(kg / "ground_truth.csv", split)
            convert.write_report(kg / "counts_train.txt", split.train_report)
            convert.write_report(kg / "counts_test.txt", split.test_report)
            convert.write_report(kg / "resolve_counts.txt", split.resolve_counts)
            (kg / "schema.nt").write_text(
                export_profile(vocabulary(profile)), encoding="utf-8")
            return {"train_triples": len(split.train), "test_triples": len(split.test),
                    "train_nodes": split.train.num_nodes,
                    "test_nodes": split.test.num_nodes,
                    "resolve_counts": split.resolve_counts,
                    "train_tuples_matched": split.train_tuples_matched,
                    "test_tuples_matched": split.test_tuples_matched}

        self._run_stage("build-kg", task, profile, build)

    def stage_sample(self, task: str, profile: str, fit=None) -> None:
        """sample-paths (``paths.PairWalk``); ``fit``, if given, is called with
        the vocabulary and the training set once the walk has started, before
        any sample file is written, and returns its seconds."""
        kg = self.dir_of("build-kg", task, profile)
        out = self.dir_of("sample-paths", task, profile)
        cfg = self.m.sampler_config()

        def build():
            train_g = _parse_graph(kg / "train.nt", profile).freeze()
            test_g = _parse_graph(kg / "test.nt", profile).freeze()
            if train_g.relation_names() != test_g.relation_names():
                raise ValueError("train/test relation registries differ")
            # drawn before the train-set walks, so that too many negatives fail fast
            ground_truth = convert.read_ground_truth(kg / "ground_truth.csv", test_g)
            try:
                negatives = paths.draw_negatives(
                    test_g, ground_truth, self.m.eval_negatives, cfg.seed)
            except paths.PathError as exc:  # a count that only the data can bound
                raise ManifestError(f"eval_negatives: {exc}") from exc
            pairs = paths.TrainingPairs(paths.PathSampler(train_g, cfg), self.m.k_negatives)
            first_epoch = next(epoch_orders(len(pairs) * pairs.per_pair, self.m.seed))
            walk = paths.PairWalk(pairs, first_epoch, test_g, ground_truth, negatives,
                                  streamed=fit is not None)
            del train_g, test_g, pairs  # held by the walk alone, freed here once it forks
            seconds = 0.0  # the fit's, which count for train (_run_stage)
            try:
                if fit is not None:
                    walk.take()  # forks the walking children, or walks every pair here
                    seconds = fit(walk.vocab, walk)
                paths.save_samples(out / "train.txt", paths.build_training_set(walk))
                walk.vocab.save(out / "vocab.txt")
                for name, samples in zip(("pos", "neg"), paths.build_eval_set(walk)):
                    paths.save_samples(out / f"eval_{name}.txt", samples)
                convert.write_report(out / "walk_stats.txt", walk.walk_stats())
            finally:
                walk.close()
            return {"processes": len(walk.pids), "seconds": -seconds}  # never in an artifact

        self._run_stage("sample-paths", task, profile, build)

    def _fit(self, vocab: paths.EdgeVocabulary, samples) -> tuple:
        from . import siamese

        cfg = self.m.model_config(vocab.size, len(vocab.relation_names))
        params = siamese.init_parameters(cfg)
        return len(samples), params, siamese.train(params, samples, cfg)

    def stage_train(self, task: str, profile: str, fitted=None, seconds=0.0) -> None:
        """train; ``fitted``, if given, is what ``stage_sample_and_train``'s
        fit gave in ``seconds``: saved here, or raised if an exception."""
        samples_dir = self.dir_of("sample-paths", task, profile)
        out = self.dir_of("train", task, profile)

        def build():
            from . import siamese

            model = fitted
            if model is None:
                vocab = paths.EdgeVocabulary.load(samples_dir / "vocab.txt")
                model = self._fit(vocab, paths.load_samples(
                    samples_dir / "train.txt", self.m.num_paths, self.m.max_length))
            if isinstance(model, Exception):
                raise model
            count, params, result = model
            siamese.save_checkpoint(params, out / "checkpoint.bin")
            lines = [f"epoch {i} mean_loss {loss!r}"
                     for i, loss in enumerate(result.epoch_losses)]
            (out / "losses.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            return {"samples": count, "epoch_losses": result.epoch_losses,
                    "path_rows": count * params.cfg.num_paths * params.cfg.epochs,
                    "lstm_rows": result.lstm_rows, "lstm_positions": result.lstm_positions,
                    "seconds": seconds}

        self._run_stage("train", task, profile, build)

    def stage_sample_and_train(self, task: str, profile: str) -> None:
        """Both stages in one call, as the module docstring describes."""
        fitted = []  # the model, or what the fit raised, then the fit's seconds

        def fit(vocab: paths.EdgeVocabulary, samples) -> float:
            start = time.perf_counter()
            try:
                fitted.append(self._fit(vocab, samples))
            except Exception as exc:  # train's failure, raised once sample-paths is done
                fitted.append(exc)
            fitted.append(time.perf_counter() - start)
            return fitted[1]

        self.stage_sample(task, profile, fit)
        self.stage_train(task, profile, *fitted)

    def stage_evaluate(self, task: str, profile: str) -> None:
        out = self.dir_of("evaluate", task, profile)
        samples_dir = self.dir_of("sample-paths", task, profile)

        def build():
            from . import siamese

            params = siamese.load_checkpoint(
                self.dir_of("train", task, profile) / "checkpoint.bin")
            pos = paths.load_samples(
                samples_dir / "eval_pos.txt", self.m.num_paths, self.m.max_length)
            neg = paths.load_samples(
                samples_dir / "eval_neg.txt", self.m.num_paths, self.m.max_length)
            # one call, so that equal inputs tie across the two sets
            scores = siamese.predict(params, pos + neg)
            pos_scores, neg_scores = scores[:len(pos)], scores[len(pos):]
            scored = [(s, 1) for s in pos_scores] + [(s, 0) for s in neg_scores]
            (out / "scores.tsv").write_text("label\tscore\n" + "".join(
                f"{label}\t{score!r}\n" for score, label in scored), encoding="utf-8")
            precision, recall = metrics.precision_recall(scored)
            result = metrics.TaskResult(
                task=task, profile=profile, precision=precision, recall=recall,
                pr_auc=metrics.pr_auc(scored),
                hits_at_10=metrics.hits_at_k(pos_scores, neg_scores, 10),
                positives=len(pos_scores), negatives=len(neg_scores),
                seed=self.m.seed)
            metrics.write_results(out / "result.tsv", [result])

        self._run_stage("evaluate", task, profile, build)

    def stage_report(self) -> None:
        def build():
            results = []
            for task in self.m.expanded_tasks():
                for profile in self.m.profiles():
                    results.extend(metrics.read_results(
                        self.dir_of("evaluate", task, profile) / "result.tsv"))
            metrics.write_results(self.out / "results.tsv", results)
            if set(self.m.profiles()) == {"baseline", "rddl"}:
                text = metrics.report(results)
            else:
                text = "task\tprofile\tprecision\trecall\tpr_auc\thits_at_10\n" + "".join(
                    "\t".join([r.task, r.profile, *(f"{v:.4f}" for v in r.metrics())]) + "\n"
                    for r in results)
            (self.out / "report.txt").write_text(text, encoding="utf-8")

        self._run_stage("report", "", "", build)

    # -- full run ------------------------------------------------------------------

    def _section(self, steps, task: str, profile: str) -> Optional[tuple]:
        """Runs the steps of a task's scenarios (profile "") or of one cell:
        the label and message of a stage that failed, if one did (a cell may
        run in a worker, and a StageError does not unpickle).  A cell that
        runs both sample-paths and train runs them in one call."""
        stages = [stage for stage, t, p in steps if (t, p) == (task, profile)]
        together = ("train" in stages and "sample-paths" in stages
                    and ("sample-paths", task, profile) not in self.skipped)
        try:
            for stage in stages:
                if not profile:
                    self.stage_scenarios(task)
                elif together and stage == "sample-paths":
                    self.stage_sample_and_train(task, profile)
                elif not (together and stage == "train"):
                    getattr(self, CELL_STAGES[stage])(task, profile)
        except StageError as exc:
            return exc.stage, str(exc.cause)
        return None

    def run(self, only_stage: Optional[str] = None) -> None:
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in its place or on its path, say
            raise ManifestError(
                f"cannot make out_dir {self.m.out_dir!r}: {exc.strerror}") from exc
        self.m.save(self.out / "manifest.json")
        sections = [(task, profile) for task in self.m.expanded_tasks()
                    for profile in [""] + self.m.profiles()]
        steps = [(stage, task, profile) for task, profile in sections
                 for stage in (CELL_STAGES if profile else ["gen-scenarios"])]
        steps = [step for step in steps + [("report", "", "")]
                 if only_stage in (None, step[0])]
        # as in a serial run, every stage after the first one that runs runs too
        first = next((i for i, step in enumerate(steps) if not self._should_skip(*step)),
                     len(steps))
        self.skipped = set(steps[:first])
        if any(step[0] in ("train", "evaluate") for step in steps[first:]):
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ.setdefault(name, "1")  # read as BLAS loads (module docstring)
            from . import siamese  # noqa: F401 - once, before any fork (module docstring)
        failures, cells = [], []
        for key in sections:  # scenarios here, first; cells with nothing to run not at all
            if not any(step[1:] == key and step not in self.skipped for step in steps):
                continue
            if key[1]:
                cells.append(key)
                continue
            failure = self._section(steps, *key)
            if failure:
                failures.append(failure)
                break  # a serial run would stop here
        shares = parallel.processes(len(cells))
        # fork_imap runs index i in share i % shares.  Cells alternate profiles
        # in serial order, so dealt in that order over two shares one would get
        # every baseline cell and the other every rddl cell; every other round
        # of shares cells is dealt in reverse instead
        rounds = [cells[i:i + shares] for i in range(0, len(cells), shares)]
        dealt = [key for k, keys in enumerate(rounds)
                 for key in (keys[::-1] if k % 2 else keys)]
        coordinator = os.getpid()

        def cell(index: int) -> Optional[tuple]:
            # a worker pins itself to every shares-th CPU, over which the
            # cell's sampler forks; a cell run here keeps this process's CPUs
            if os.getpid() != coordinator:
                _pin(sorted(os.sched_getaffinity(0))[index % shares::shares])
            return self._section(steps, *dealt[index])

        failures += [failure for _, failure in
                     parallel.fork_imap(len(dealt), cell, batch=max(1, len(dealt))) if failure]
        labels = [_label(*step) for step in steps]
        failure = min(failures, key=lambda f: labels.index(f[0]), default=None)
        for step in steps[:labels.index(failure[0]) + 1 if failure else len(steps)]:
            self.echo(f"[{'skip' if step in self.skipped else 'run '}] {_label(*step)}")
        if failure:
            raise StageError(*failure)
        if only_stage in (None, "report"):
            self.stage_report()


def _label(stage: str, task: str, profile: str) -> str:
    return "/".join(p for p in (stage, task, profile) if p)


def _pin(cpus: list[int]) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # CPU ids this machine does not have: run where it ran
        pass


def run_pipeline(manifest: RunManifest, echo=print,
                 only_stage: Optional[str] = None) -> tuple[int, Optional[Path]]:
    """Returns (exit status, results path)."""
    try:
        pipeline = Pipeline(manifest, echo=echo)
        pipeline.run(only_stage)
    except ManifestError as exc:
        echo(f"validation error: {exc}")
        return 1, None
    except (StageError, ChildProcessError) as exc:
        echo(str(exc))
        return 2, None
    except ImportError as exc:  # the model's, imported by Pipeline.run before any stage
        echo(f"cannot import {exc.name or exc}, which train and evaluate need")
        return 2, None
    return 0, pipeline.out / "results.tsv"


def _build_manifest(args) -> RunManifest:
    manifest = RunManifest.load(args.manifest) if args.manifest else RunManifest()
    if args.out:
        manifest.out_dir = args.out
    if args.preset:
        for key, value in PRESETS[args.preset].items():
            setattr(manifest, key, value)
    if args.profile:
        manifest.profile = args.profile
    if args.task:
        manifest.tasks = ["all"] if args.task == "all" else [args.task]
    if args.seed is not None:
        manifest.seed = args.seed
    manifest.validate()
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lineagekg",
        description="Lineage link prediction pipeline over ontology-grounded graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES + ("run",):
        cmd = sub.add_parser(name)
        cmd.add_argument("--manifest", default=None)
        cmd.add_argument("--preset", choices=sorted(PRESETS), default=None)
        cmd.add_argument("--profile", choices=["baseline", "rddl", "both"],
                         default=None)
        cmd.add_argument("--task", default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        manifest = _build_manifest(args)
    except (ManifestError, OSError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    only = None if args.command == "run" else args.command
    status, results = run_pipeline(manifest, only_stage=only)
    if status == 0 and results is not None and args.command in ("run", "report"):
        print(f"results: {results}")
    return status


if __name__ == "__main__":
    sys.exit(main())
