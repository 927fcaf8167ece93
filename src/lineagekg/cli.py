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
records the stage's wall seconds and what it counted: build-kg its graphs'
triples and the lineage edges resolution added per family, sample-paths the
processes it sampled in, train its samples, per-epoch losses, and the path
rows of its batches next to the distinct rows the LSTM ran and their non-PAD
positions.  No skip decision and no artifact reads these.

Skip decisions are taken up front, in serial order.  The (task, profile)
cells then run through ``parallel.fork_map``, one worker per usable CPU, after
gen-scenarios and before report, which run here.  Each worker pins itself to
its share of the CPUs, so its path sampler, which forks per usable CPU, forks
only when cells are fewer than CPUs, and processes never outnumber CPUs but
for a training cell's walker, below.  A single cell runs here on every CPU.
Workers send their log lines back, and the log is echoed in serial order once
the cells are done.

The sample-paths stage walks the training set one way, however it runs
(``paths.build_training_set``): each pair once, on every usable CPU, each
process in the order in which the first epoch (``siamese.epoch_orders``)
first reads one of its pairs' samples.  The walk order changes no artifact:
every pair walks with its own rng, seeded by its index, the samples are
written in pair order, and walk counts only enter sums.

A cell that runs both sample-paths and train, on a share of two or more CPUs,
runs them at once (``Pipeline.stage_sample_and_train``).  The cell's process
trains; it forks a walker, which lowers its own priority to the lowest (nice
19) and runs the whole sample-paths stage: its processes hand each training
pair on as soon as it is walked, the walker sends it to the trainer, and it
then writes every sample-paths artifact and walks the eval set as the stage
run alone does.  So the walker's processes and the trainer outnumber the CPUs
by one, but the walker only takes the CPU time the trainer leaves: while the
trainer trains, it keeps a CPU to itself, and while it waits for a sample,
the walks run on every CPU, as in a serial run.  Pinned to the CPUs but one
instead, a walk-heavy cell on two CPUs took 1.02-1.58 times as long as one
stage after the other, and niced 0.79-1.05 times (``BENCH_19.json``,
``walk_heavy``).  The trainer waits only for a sample that has not arrived.
Train writes its model and sidecar only once the walker has exited 0; a
walker that fails or dies fails sample-paths, as in a serial run, and a
failing trainer waits for the walker first.  In such a cell, sample-paths'
``seconds`` is the walker's wall time and its ``processes`` the most
processes one of its walk sets ran in (the walker and its children; the
trainer is not counted); train's ``seconds`` runs from the walker's fork to
train's sidecar, so it overlaps sample-paths' and includes the waits for
samples and for the walker's exit.

A cell whose sample-paths is skipped, a run of one stage, and a cell on one
CPU run each stage on its own: train reads ``train.txt``, and sample-paths
walks in the same order, its children sending their whole shares when done,
as handing each pair on cost 4-6% more training-walk time on the
desk-paths graph.  On one CPU the walker and the trainer would only take
turns: the fixed desk workload, pinned to one vCPU of a 2-vCPU VM, took 55 s
that way against 47 s one stage after the other.
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

from . import convert, metrics, parallel, paths, scenario, siamese
from .kgstore import KnowledgeGraph, parse_ntriples, serialize_ntriples
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
        except (paths.PathError, siamese.ModelError) as exc:
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

    def model_config(self, vocab_size: int, num_relations: int) -> siamese.ModelConfig:
        return siamese.ModelConfig(
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

    def stage_dir(self, stage: str, task: str, profile: str = "") -> Path:
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
            files = self.stage_dir(stage, task, profile).rglob("*")
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

    def _run_stage(self, stage: str, task: str, profile: str, fn,
                   start: Optional[float] = None) -> None:
        """Runs ``fn`` as the stage, timed from ``start`` (default: now), once
        the stage's directory exists."""
        label = _label(stage, task, profile)
        if (stage, task, profile) in self.skipped:
            self.echo(f"[skip] {label}")
            return
        self.echo(f"[run ] {label}")
        if start is None:
            start = time.perf_counter()
        self.stage_dir(stage, task, profile).mkdir(parents=True, exist_ok=True)
        try:
            telemetry = fn() or {}
        except ManifestError:  # the manifest's fault, not the stage's: exit 1
            raise
        except Exception as exc:
            raise StageError(label, exc) from exc
        telemetry["seconds"] = round(time.perf_counter() - start, 3)
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
            scenario.save_suite(suite, self.stage_dir("gen-scenarios", task))

        self._run_stage("gen-scenarios", task, "", build)

    def stage_build_kg(self, task: str, profile: str) -> None:
        kg = self.stage_dir("build-kg", task, profile)

        def build():
            suite = scenario.load_suite(self.stage_dir("gen-scenarios", task),
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

    def _sample(self, task: str, profile: str, send=None) -> dict:
        """sample-paths' work.  The training pairs are walked in the order
        the first epoch reads them (``paths.build_training_set``); ``send``,
        if given, gets a header, (relation names, pair count), and then each
        pair as it is walked (``stage_sample_and_train``)."""
        kg = self.stage_dir("build-kg", task, profile)
        out = self.stage_dir("sample-paths", task, profile)
        cfg = self.m.sampler_config()
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
        sampler = paths.PathSampler(train_g, cfg)
        pairs = paths.TrainingPairs(sampler, self.m.k_negatives)
        if send is not None:
            send((sampler.vocab.relation_names, len(pairs)))
        first_epoch = next(siamese.epoch_orders(len(pairs) * pairs.per_pair, self.m.seed))
        train_samples = paths.build_training_set(pairs, first_epoch, send)
        paths.save_samples(out / "train.txt", train_samples)
        sampler.vocab.save(out / "vocab.txt")
        stats = {"train": sampler.walk_stats()}
        processes = sampler.processes
        del sampler, pairs  # free the train graph's index before indexing the test graph
        sampler = paths.PathSampler(test_g, cfg)
        pos, neg = paths.build_eval_set(sampler, ground_truth, negatives)
        paths.save_samples(out / "eval_pos.txt", pos)
        paths.save_samples(out / "eval_neg.txt", neg)
        stats["eval_pos"] = sampler.walk_stats(0, len(pos))
        stats["eval_neg"] = sampler.walk_stats(len(pos))
        convert.write_report(out / "walk_stats.txt", {
            f"{part}.{key}": value
            for part, counts in stats.items() for key, value in counts.items()
        })
        # caller-side only: the artifacts must not depend on the CPU count
        return {"processes": max(processes, sampler.processes)}

    def stage_sample(self, task: str, profile: str) -> None:
        self._run_stage("sample-paths", task, profile,
                        lambda: self._sample(task, profile))

    def _fit(self, vocab: paths.EdgeVocabulary, samples) -> tuple:
        cfg = self.m.model_config(vocab.size, len(vocab.relation_names))
        params = siamese.init_parameters(cfg)
        return params, siamese.train(params, samples, cfg)

    def _save_model(self, task: str, profile: str, samples, params: siamese.Parameters,
                    result: siamese.TrainResult) -> dict:
        out = self.stage_dir("train", task, profile)
        siamese.save_checkpoint(params, out / "checkpoint.bin")
        lines = [f"epoch {i} mean_loss {loss!r}"
                 for i, loss in enumerate(result.epoch_losses)]
        (out / "losses.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = params.cfg
        return {"samples": len(samples), "epoch_losses": result.epoch_losses,
                "path_rows": len(samples) * cfg.num_paths * cfg.epochs,
                "lstm_rows": result.lstm_rows,
                "lstm_positions": result.lstm_positions}

    def stage_train(self, task: str, profile: str) -> None:
        samples_dir = self.stage_dir("sample-paths", task, profile)

        def build():
            vocab = paths.EdgeVocabulary.load(samples_dir / "vocab.txt")
            samples = paths.load_samples(
                samples_dir / "train.txt", self.m.num_paths, self.m.max_length)
            return self._save_model(task, profile, samples, *self._fit(vocab, samples))

        self._run_stage("train", task, profile, build)

    def _walk(self, task: str, profile: str, send) -> None:
        """The walker of ``stage_sample_and_train``, in its forked process:
        at the lowest priority, so that it runs on the CPU time the trainer
        leaves, runs sample-paths, streaming the training set to ``send``,
        and sends last, if it fails, the stage's failure message, a str, or
        the ``ManifestError`` itself."""
        os.nice(19)
        try:
            self._run_stage("sample-paths", task, profile,
                            lambda: self._sample(task, profile, send))
        except StageError as exc:
            send(str(exc.cause))
        except ManifestError as exc:
            send(exc)

    def stage_sample_and_train(self, task: str, profile: str) -> None:
        """sample-paths in a forked walker (``_walk``) and train here, at once,
        as the module docstring describes; ``siamese.train`` reads the samples
        from a ``_TrainingStream``.  Whatever the trainer does, the walker runs
        to its end and is reaped before train writes or fails.  Where no
        process can be forked, the two stages run one after the other."""
        start = time.perf_counter()
        try:
            walker = parallel.Forked(lambda send: self._walk(task, profile, send))
        except OSError:
            self.stage_sample(task, profile)
            self.stage_train(task, profile)
            return
        self.echo(f"[run ] {_label('sample-paths', task, profile)}")
        with walker:
            stream = _TrainingStream(walker, 1 + self.m.k_negatives)
            try:
                model = self._fit(paths.EdgeVocabulary(stream.relation_names()), stream)
            except Exception as exc:  # raised below, unless the walker failed
                model = exc
            failure = stream.finish()
        if isinstance(failure, ManifestError):
            raise failure
        if failure is not None:
            raise StageError(_label("sample-paths", task, profile), failure)

        def build():
            if isinstance(model, Exception):
                raise model
            return self._save_model(task, profile, stream, *model)

        self._run_stage("train", task, profile, build, start)

    def stage_evaluate(self, task: str, profile: str) -> None:
        out = self.stage_dir("evaluate", task, profile)
        samples_dir = self.stage_dir("sample-paths", task, profile)

        def build():
            params = siamese.load_checkpoint(
                self.stage_dir("train", task, profile) / "checkpoint.bin")
            pos = paths.load_samples(
                samples_dir / "eval_pos.txt", self.m.num_paths, self.m.max_length)
            neg = paths.load_samples(
                samples_dir / "eval_neg.txt", self.m.num_paths, self.m.max_length)
            # one call, so that equal inputs tie across the two sets
            scores = siamese.predict(params, pos + neg)
            pos_scores, neg_scores = scores[:len(pos)], scores[len(pos):]
            with (out / "scores.tsv").open("w", encoding="utf-8") as fh:
                fh.write("label\tscore\n")
                for score in pos_scores:
                    fh.write(f"1\t{score!r}\n")
                for score in neg_scores:
                    fh.write(f"0\t{score!r}\n")
            scored = [(s, 1) for s in pos_scores] + [(s, 0) for s in neg_scores]
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
                        self.stage_dir("evaluate", task, profile) / "result.tsv"))
            metrics.write_results(self.out / "results.tsv", results)
            if set(self.m.profiles()) == {"baseline", "rddl"}:
                text = metrics.report(results)
            else:
                lines = ["task\tprofile\tprecision\trecall\tpr_auc\thits_at_10"]
                for r in results:
                    lines.append(
                        f"{r.task}\t{r.profile}\t{r.precision:.4f}\t{r.recall:.4f}"
                        f"\t{r.pr_auc:.4f}\t{r.hits_at_10:.4f}")
                text = "\n".join(lines) + "\n"
            (self.out / "report.txt").write_text(text, encoding="utf-8")

        self._run_stage("report", "", "", build)

    # -- full run ------------------------------------------------------------------

    def _section(self, steps, task: str, profile: str) -> tuple[list[str], Optional[tuple]]:
        """Runs the steps of a task's scenarios (profile "") or of one cell: the
        log lines, and the label and message of a stage that failed (a cell may
        run in a worker, and a StageError does not unpickle).  A cell that
        runs both sample-paths and train on two or more CPUs runs them at
        once."""
        echo, lines = self.echo, []
        self.echo = lines.append
        stages = [stage for stage, t, p in steps if (t, p) == (task, profile)]
        # on one CPU the walker and the trainer would only take turns
        together = ("train" in stages and "sample-paths" in stages
                    and ("sample-paths", task, profile) not in self.skipped
                    and parallel.processes(2) > 1)
        try:
            for stage in stages:
                if not profile:
                    self.stage_scenarios(task)
                elif together and stage == "sample-paths":
                    self.stage_sample_and_train(task, profile)
                elif not (together and stage == "train"):
                    getattr(self, CELL_STAGES[stage])(task, profile)
        except StageError as exc:
            return lines, (exc.stage, str(exc.cause))
        finally:
            self.echo = echo
        return lines, None

    def run(self, only_stage: Optional[str] = None) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
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
        logs, cells = {}, []
        for key in sections:  # scenarios, and cells with nothing to run, first
            if key[1] and any(step[1:] == key and step not in self.skipped
                              for step in steps):
                cells.append(key)
                continue
            logs[key] = self._section(steps, *key)
            if logs[key][1]:
                break  # a serial run would stop here
        shares = parallel.processes(len(cells))
        cpus = sorted(os.sched_getaffinity(0)) if shares > 1 else []
        # fork_map runs index i in share i % shares.  Cells alternate profiles
        # in serial order, so dealt in that order over two shares one would get
        # every baseline cell and the other every rddl cell; every other round
        # of shares cells is dealt in reverse instead
        rounds = [cells[i:i + shares] for i in range(0, len(cells), shares)]
        dealt = [key for k, keys in enumerate(rounds)
                 for key in (keys[::-1] if k % 2 else keys)]

        def cell(index: int) -> tuple:
            if shares > 1:  # every shares-th CPU: the cell's sampler forks over these
                _pin(cpus[index % shares::shares])
            return self._section(steps, *dealt[index])

        try:
            logs.update(zip(dealt, parallel.fork_map(len(dealt), cell)))
        finally:
            if shares > 1:
                _pin(cpus)
        for key in sections:
            lines, failure = logs[key]
            for line in lines:
                self.echo(line)
            if failure:
                raise StageError(*failure)
        if only_stage in (None, "report"):
            self.stage_report()


def _label(stage: str, task: str, profile: str) -> str:
    return "/".join(p for p in (stage, task, profile) if p)


class _TrainingStream:
    """The training set as ``Pipeline.stage_sample_and_train``'s walker sends
    it, read by ``siamese.train`` like a list.

    The walker sends a header, (relation names, pair count), then one record
    per pair (``Pipeline._sample``), and last, if its stage failed, a failure
    message, a str, or a ``ManifestError``.  Reading a sample whose pair has
    not arrived blocks until it has.  While pairs are missing, every read
    first takes in whatever has arrived, so the walker, which may run ahead,
    never waits long on a full pipe.
    """

    def __init__(self, walker: parallel.Forked, per_pair: int):
        self.walker = walker
        self.per_pair = per_pair
        self.header: Optional[tuple] = None
        self.samples: list = []
        self.missing = -1  # pairs not arrived yet; -1 until the header has
        self.failure: Optional[str | ManifestError] = None

    def _take(self, block: bool) -> None:
        for obj in self.walker.receive(block):
            if isinstance(obj, (str, ManifestError)):
                self.failure = obj
            elif self.header is None:
                self.header = obj
                self.samples = [None] * (obj[1] * self.per_pair)
                self.missing = obj[1]
            else:
                index, *record = obj
                start = index * self.per_pair
                self.samples[start:start + self.per_pair] = paths.pair_samples(*record)
                self.missing -= 1

    def _wait(self) -> None:
        """Blocks until more has arrived; raises if nothing more will."""
        if self.walker.closed or self.failure is not None:
            raise ChildProcessError(
                f"forked process {self.walker.pid} stopped sending the training set")
        self._take(block=True)

    def relation_names(self) -> list[str]:
        while self.header is None:
            self._wait()
        return self.header[0]

    def __len__(self) -> int:
        self.relation_names()  # the header sizes the set
        return len(self.samples)

    def __getitem__(self, index: int) -> paths.PathSample:
        if self.missing:
            self._take(block=False)
            while self.samples[index] is None:
                self._wait()
        return self.samples[index]

    def finish(self) -> Optional[str | ManifestError]:
        """Takes in the rest of what the walker sends and reaps it: the
        stage's failure, or None."""
        while not self.walker.closed:
            self._take(block=True)
        code = self.walker.wait()
        if self.failure is None and code != 0:
            self.failure = f"forked process {self.walker.pid} exited with code {code}"
        return self.failure


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
