"""Tests for the repo-aware static-analysis pass (``repro.lint``).

Each rule gets a positive fixture (the finding fires with the right name
and severity), a negative fixture (idiomatic code stays clean), and a
pragma-suppressed fixture.  Engine behaviour — pragma parsing, module-name
derivation, rule selection, exit codes — is covered separately, and the
suite ends with the gates: ``repro lint src/ tests/ benchmarks/`` is
clean, deliberately injected lock and seeding defects make it exit 1,
and (where mypy is available) the strict-typed core type-checks.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    ERROR,
    LAYERS,
    WARNING,
    lint_paths,
    lint_source,
    module_name_for,
    render_json,
    render_rules,
    render_text,
    rule_by_name,
)
from repro.lint.engine import parse_pragmas


def findings(source, module="fixture", **kwargs):
    """Lint a dedented snippet and return the findings list."""
    return lint_source(
        textwrap.dedent(source), module=module, **kwargs
    ).findings


def rule_names(source, module="fixture", **kwargs):
    return [f.rule for f in findings(source, module=module, **kwargs)]


class TestUnseededRandom:
    def test_flags_bare_random(self):
        found = findings("import random\nr = random.Random()\n")
        assert [f.rule for f in found] == ["unseeded-random"]
        assert found[0].severity == ERROR
        assert found[0].line == 2

    def test_flags_module_level_functions(self):
        assert "unseeded-random" in rule_names(
            "import random\nx = random.random()\n"
        )
        assert "unseeded-random" in rule_names(
            "from random import shuffle\n"
        )

    def test_seeded_random_is_clean(self):
        assert rule_names("import random\nr = random.Random(42)\n") == []

    @pytest.mark.parametrize(
        "source",
        [
            "from random import Random\nr = Random()\n",
            "import random\nr = random.Random(None)\n",
            "import random\nimport time\n\n"
            "def make():\n    return random.Random(time.time())\n",
            "import os\nimport random\nr = random.Random(os.getpid() ^ 7)\n",
            "import random\nimport uuid\nr = random.Random(uuid.uuid4().int)\n",
            "import random\nfrom time import time_ns\n"
            "r = random.Random(time_ns())\n",
            "from datetime import datetime\nfrom random import Random as R\n"
            "r = R(int(datetime.now().timestamp()))\n",
            "import random\nr = random.Random(hash(object()))\n",
        ],
        ids=[
            "imported-no-arg", "none", "time-seed", "pid-seed", "uuid-seed",
            "time-ns-seed", "datetime-seed", "hash-seed",
        ],
    )
    def test_flags_nondeterministic_seed(self, source):
        found = findings(source)
        assert [f.rule for f in found] == ["unseeded-random"]
        assert found[0].severity == ERROR

    @pytest.mark.parametrize(
        "source",
        [
            """\
            import random

            DEFAULT_SEED = 20070611

            def from_param(seed):
                return random.Random(seed)

            def from_constant():
                return random.Random(DEFAULT_SEED)

            def derived(seed, worker_index):
                return random.Random(seed + worker_index * 7919)
            """,
            """\
            import random

            from pkg.seeds import DEFAULT_SEED

            def make():
                return random.Random(DEFAULT_SEED)
            """,
            # Unknown provenance is clean by design (documented imprecision).
            "import random\n\ndef make(thing):\n"
            "    return random.Random(thing.whatever())\n",
        ],
        ids=["seeded-pair", "imported-constant", "unknown-provenance"],
    )
    def test_seed_provenance_is_clean(self, source):
        assert rule_names(source) == []

    def test_seeding_module_is_exempt(self):
        source = "import random\nr = random.Random()\n"
        assert rule_names(source, module="repro.workloads.seeding") == []

    def test_pragma_suppresses(self):
        source = (
            "import random\n"
            "r = random.Random()  # lint: disable=unseeded-random -- test rig\n"
        )
        assert rule_names(source) == []


class TestSetIterationOrder:
    IN_SCOPE = "repro.parallel.worker"

    def test_flags_for_over_set_literal(self):
        found = findings("for x in {1, 2}:\n    x\n", module=self.IN_SCOPE)
        assert [f.rule for f in found] == ["set-iteration-order"]
        assert found[0].severity == ERROR

    def test_flags_list_of_set_call(self):
        assert "set-iteration-order" in rule_names(
            "xs = list(set(items))\n", module=self.IN_SCOPE
        )

    def test_flags_comprehension_over_set_algebra(self):
        assert "set-iteration-order" in rule_names(
            "ys = [f(x) for x in set(a) & set(b)]\n", module=self.IN_SCOPE
        )

    def test_sorted_set_is_clean(self):
        assert rule_names(
            "for x in sorted({1, 2}):\n    x\n", module=self.IN_SCOPE
        ) == []

    def test_out_of_scope_module_is_clean(self):
        assert rule_names(
            "for x in {1, 2}:\n    x\n", module="repro.plans.logical"
        ) == []

    def test_pragma_suppresses(self):
        source = (
            "for x in {1, 2}:  # lint: disable=set-iteration-order -- sum\n"
            "    x\n"
        )
        assert rule_names(source, module=self.IN_SCOPE) == []


class TestIdentityOrdering:
    def test_flags_id_sort_key(self):
        found = findings("xs.sort(key=lambda x: id(x))\n")
        assert [f.rule for f in found] == ["identity-ordering"]

    def test_flags_hash_in_sorted(self):
        assert "identity-ordering" in rule_names(
            "ys = sorted(xs, key=lambda x: hash(x))\n"
        )

    def test_attribute_key_is_clean(self):
        assert rule_names("ys = sorted(xs, key=lambda x: x.name)\n") == []


class TestBinPopcount:
    def test_flags_bin_count(self):
        found = findings('n = bin(mask).count("1")\n')
        assert [f.rule for f in found] == ["bin-popcount"]
        assert found[0].severity == ERROR

    def test_popcount_is_clean(self):
        assert rule_names(
            "from repro.core.bitset import popcount\nn = popcount(mask)\n"
        ) == []

    def test_pragma_suppresses(self):
        assert rule_names(
            'n = bin(mask).count("1")  # lint: disable=bin-popcount -- bench\n'
        ) == []


class TestBitsetMaterialization:
    IN_SCOPE = "repro.partition.mincut"

    def test_flags_set_of_iter_bits(self):
        found = findings(
            "s = set(iter_bits(mask))\n", module=self.IN_SCOPE
        )
        assert [f.rule for f in found] == ["bitset-materialization"]

    def test_flags_membership_via_set_of(self):
        assert "bitset-materialization" in rule_names(
            "ok = v in set_of(mask)\n", module=self.IN_SCOPE
        )

    def test_bitwise_test_is_clean(self):
        assert rule_names(
            "ok = bool(mask & (1 << v))\n", module=self.IN_SCOPE
        ) == []

    def test_out_of_scope_module_is_clean(self):
        assert rule_names(
            "s = set(iter_bits(mask))\n", module="repro.analysis.counting"
        ) == []

    def test_standalone_pragma_attaches_to_next_code_line(self):
        source = (
            "# lint: disable=bitset-materialization -- sanctioned boundary\n"
            "s = set(iter_bits(mask))\n"
        )
        assert rule_names(source, module=self.IN_SCOPE) == []


class TestPerBitLoop:
    IN_SCOPE = "repro.core.biconnection"

    def test_flags_range_probe_loop_as_warning(self):
        source = """\
        for v in range(n):
            if (mask >> v) & 1:
                work(v)
        """
        report = lint_source(textwrap.dedent(source), module=self.IN_SCOPE)
        assert [f.rule for f in report.findings] == ["per-bit-loop"]
        assert report.findings[0].severity == WARNING
        # Warnings never fail the run.
        assert report.ok
        assert report.exit_code == 0

    def test_iter_bits_loop_is_clean(self):
        assert rule_names(
            "for v in iter_bits(mask):\n    work(v)\n", module=self.IN_SCOPE
        ) == []


class TestHotPathPurity:
    IN_SCOPE = "repro.enumerator"

    def test_flags_unguarded_tracer_event(self):
        source = """\
        def step(self, tracer, subset):
            tracer.event("expand", subset)
        """
        found = findings(source, module=self.IN_SCOPE)
        assert [f.rule for f in found] == ["hotpath-purity"]
        assert found[0].severity == ERROR

    def test_flags_unguarded_fstring(self):
        source = """\
        def step(self, subset):
            label = f"subset={subset}"
            return label
        """
        assert "hotpath-purity" in rule_names(source, module=self.IN_SCOPE)

    def test_guarded_payload_is_clean(self):
        source = """\
        def step(self, tracer, subset):
            if tracer.enabled:
                tracer.event(f"subset={subset}")
        """
        assert rule_names(source, module=self.IN_SCOPE) == []

    def test_cold_functions_and_error_paths_are_exempt(self):
        source = """\
        def describe(self):
            return f"{self!r}"

        def step(self, subset):
            raise ValueError(f"bad subset {subset}")
        """
        assert rule_names(source, module=self.IN_SCOPE) == []

    def test_out_of_scope_module_is_clean(self):
        source = """\
        def step(self, tracer, subset):
            tracer.event("expand", subset)
        """
        assert rule_names(source, module="repro.obs.tracer") == []

    def test_flags_unguarded_profiler_enter(self):
        source = """\
        def step(self, subset):
            self.profiler.enter("memo.table")
            probe(subset)
            self.profiler.exit()
        """
        found = findings(source, module=self.IN_SCOPE)
        assert [f.rule for f in found] == ["hotpath-purity", "hotpath-purity"]
        assert all(f.severity == ERROR for f in found)
        assert "profiler" in found[0].message

    def test_flags_unguarded_profiler_count(self):
        source = """\
        def step(self, profiler, subset):
            profiler.count("memo.table", "probes")
        """
        assert "hotpath-purity" in rule_names(source, module=self.IN_SCOPE)

    def test_guarded_profiler_calls_are_clean(self):
        source = """\
        def step(self, subset):
            if self._profiling:
                self.profiler.enter("memo.table")
            probe(subset)
            if self.profiler.enabled:
                self.profiler.exit()
        """
        assert rule_names(source, module=self.IN_SCOPE) == []

    def test_profiler_module_itself_is_exempt(self):
        source = """\
        def step(self, profiler, subset):
            profiler.enter("memo.table")
        """
        assert rule_names(source, module="repro.obs.profile") == []


class TestMetricsField:
    def test_flags_undeclared_field_write(self):
        found = findings("metrics.memo_evictionz += 1\n")
        assert [f.rule for f in found] == ["metrics-field"]
        assert "memo_evictionz" in found[0].message

    def test_declared_fields_are_clean(self):
        assert rule_names(
            "metrics.memo_evictions += 1\n"
            "self.metrics.partitions_emitted += n\n"
        ) == []

    def test_assigning_the_metrics_object_is_clean(self):
        assert rule_names("self.metrics = metrics\n") == []


class TestInstrumentName:
    def test_flags_undeclared_literal(self):
        found = findings('c = registry.counter("bogus_instrument")\n')
        assert [f.rule for f in found] == ["instrument-name"]

    def test_declared_literal_and_constant_are_clean(self):
        assert rule_names(
            'c = registry.counter("memo_evictions")\n'
            "h = registry.histogram(MEMO_OCCUPANCY)\n"
        ) == []

    def test_registry_module_itself_is_exempt(self):
        assert rule_names(
            'c = registry.counter("anything_goes")\n',
            module="repro.obs.registry",
        ) == []


class TestImportLayering:
    def test_flags_module_level_upward_import(self):
        found = findings(
            "from repro.cli import main\n", module="repro.core.bitset"
        )
        assert [f.rule for f in found] == ["import-layering"]
        assert found[0].severity == ERROR
        assert "upward import" in found[0].message

    def test_lazy_upward_import_is_warning(self):
        source = """\
        def build():
            from repro.parallel.scheduler import ParallelEnumerator
            return ParallelEnumerator
        """
        found = findings(source, module="repro.registry")
        assert [f.rule for f in found] == ["import-layering"]
        assert found[0].severity == WARNING

    def test_downward_import_is_clean(self):
        assert rule_names(
            "from repro.core.bitset import popcount\n", module="repro.cli"
        ) == []

    def test_layer_map_is_a_dag_order(self):
        assert LAYERS["repro.core"] == 0
        assert LAYERS["repro.core"] < LAYERS["repro.partition"]
        assert LAYERS["repro.partition"] < LAYERS["repro.enumerator"]
        assert LAYERS["repro.enumerator"] < LAYERS["repro.parallel"]
        assert LAYERS["repro.conformance"] < LAYERS["repro.cli"]
        # The fast path subclasses the oracle enumerator and is built by
        # the registry: same rank as the former, below the latter.
        assert LAYERS["repro.fastpath"] == LAYERS["repro.enumerator"]
        assert LAYERS["repro.fastpath"] < LAYERS["repro.registry"]


LOCK_FIXTURE = """\
    import threading

    class Shared:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def read_racy(self):
            return self._count

        def write_racy(self):
            self._count = 0
    """


class TestLockDiscipline:
    def test_flags_unguarded_read_and_write(self):
        found = findings(LOCK_FIXTURE)
        assert [f.rule for f in found] == ["lock-discipline"] * 2
        assert all(f.severity == ERROR for f in found)
        assert "Shared._count is read without a lock" in found[0].message
        assert "Shared._count is written without a lock" in found[1].message

    def test_flags_attribute_guarded_by_two_locks(self):
        found = findings(
            """\
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._aux_lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def bump_other(self):
                    with self._aux_lock:
                        self._count += 1
            """
        )
        assert [f.rule for f in found] == ["lock-discipline"]
        assert "guarded by 2 different locks" in found[0].message

    @pytest.mark.parametrize(
        "source",
        [
            """\
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def read(self):
                    with self._lock:
                        return self._count
            """,
            """\
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def store(self, key, value):
                    with self._lock:
                        self._put(key, value)

                def _put(self, key, value):
                    self._items[key] = value
            """,
            # SharedBound style: with self._value.get_lock(): ...
            """\
            class Bound:
                def __init__(self, context, initial):
                    self._value = context.Value("d", initial)

                def get(self):
                    with self._value.get_lock():
                        return self._value.value

                def tighten(self, candidate):
                    with self._value.get_lock():
                        self._value.value = candidate
            """,
        ],
        ids=["consistently-locked", "private-helper-under-lock", "get-lock"],
    )
    def test_is_clean(self, source):
        assert rule_names(source) == []

    def test_helper_also_called_unlocked_is_not_locked_context(self):
        source = """\
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def store(self, key, value):
                    with self._lock:
                        self._put(key, value)

                def store_racy(self, key, value):
                    self._put(key, value)

                def size(self):
                    with self._lock:
                        return len(self._items)

                def _put(self, key, value):
                    self._items[key] = value
            """
        found = findings(source)
        assert [f.rule for f in found] == ["lock-discipline"]
        assert "Shared._items is written without a lock" in found[0].message

    def test_pragma_suppresses_with_reason(self):
        source = LOCK_FIXTURE.replace(
            "return self._count",
            "return self._count  "
            "# lint: disable=lock-discipline -- latch read, torn reads benign",
        ).replace(
            "def write_racy(self):\n            self._count = 0",
            "def write_racy(self):\n            self._count = 0  "
            "# lint: disable=lock-discipline -- test fixture waiver",
        )
        assert rule_names(source) == []


class TestEngine:
    def test_trailing_pragma_with_reason_keeps_rule_name_exact(self):
        """Regression: the `-- reason` suffix must not leak into the rule
        name (the pragma regex once swallowed it)."""
        pragmas = parse_pragmas(
            "x = 1  # lint: disable=bin-popcount -- justified\n"
        )
        assert pragmas.by_line == {1: frozenset({"bin-popcount"})}

    def test_pragma_accepts_rule_list(self):
        pragmas = parse_pragmas("x = 1  # lint: disable=rule-a, rule-b\n")
        assert pragmas.by_line[1] == frozenset({"rule-a", "rule-b"})

    def test_standalone_pragma_skips_blank_and_comment_lines(self):
        pragmas = parse_pragmas(
            "# lint: disable=rule-a -- spans the block below\n"
            "\n"
            "# ordinary comment\n"
            "x = 1\n"
        )
        assert pragmas.by_line == {4: frozenset({"rule-a"})}

    def test_disable_file_is_module_wide(self):
        pragmas = parse_pragmas("# lint: disable-file=rule-a\nx = 1\ny = 2\n")
        assert pragmas.suppresses("rule-a", 3)
        assert not pragmas.suppresses("rule-b", 3)

    def test_pragma_inside_string_literal_is_ignored(self):
        pragmas = parse_pragmas('s = "# lint: disable=rule-a"\n')
        assert pragmas.by_line == {}
        assert pragmas.file_wide == frozenset()

    def test_module_name_for_anchors_at_repro(self):
        assert module_name_for("src/repro/core/bitset.py") == "repro.core.bitset"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("/tmp/fixtures/sample.py") == "sample"

    def test_unknown_rule_in_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", select=["no-such-rule"])

    def test_select_and_ignore_restrict_rules(self):
        source = 'import random\nr = random.Random()\nn = bin(r).count("1")\n'
        only = lint_source(source, select=["bin-popcount"])
        assert [f.rule for f in only.findings] == ["bin-popcount"]
        without = lint_source(source, ignore=["bin-popcount"])
        assert "bin-popcount" not in [f.rule for f in without.findings]

    def test_findings_sorted_by_location(self):
        source = (
            'n = bin(mask).count("1")\n'
            "import random\n"
            "r = random.Random()\n"
        )
        report = lint_source(source)
        assert [f.line for f in report.findings] == sorted(
            f.line for f in report.findings
        )

    def test_rule_registry_is_consistent(self):
        names = [rule.name for rule in ALL_RULES]
        assert len(names) == len(set(names)) == 11
        assert not any(name.startswith("flow-") for name in names)
        assert "lock-discipline" in names
        for name in names:
            assert rule_by_name(name).name == name
        with pytest.raises(KeyError):
            rule_by_name("no-such-rule")

    def test_reporters_render_both_shapes(self):
        report = lint_source("import random\nr = random.Random()\n")
        text = render_text(report)
        assert "[error] unseeded-random" in text
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"
        catalog = render_rules(ALL_RULES)
        assert "unseeded-random" in catalog and "import-layering" in catalog


class TestCli:
    BAD = "import random\nr = random.Random()\n"

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert cli_main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert cli_main(["lint", str(path)]) == 1
        assert "unseeded-random" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert cli_main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"

    def test_pragma_quiets_the_cli_too(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text(
            "import random\n"
            "r = random.Random()  # lint: disable=unseeded-random -- fixture\n"
        )
        assert cli_main(["lint", str(path)]) == 0
        capsys.readouterr()

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert cli_main(["lint"]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert cli_main(["lint", str(path), "--select", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def (:\n")
        assert cli_main(["lint", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.name in out


def _inject(source, anchor, old, new):
    """``source`` with ``old`` replaced by ``new`` after ``anchor``."""
    at = source.index(anchor)
    assert old in source[at:]
    return source[:at] + source[at:].replace(old, new, 1)


class TestRepoGate:
    """The tree passes its own analysis, and injected defects do not."""

    def test_repo_is_fully_clean_including_benchmarks(self):
        report = lint_paths(["src", "tests", "benchmarks"])
        assert report.files_checked > 150
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"lint findings at HEAD:\n{rendered}"

    @pytest.mark.parametrize(
        "path,anchor,old,new,message",
        [
            (
                "src/repro/memo.py",
                "class GlobalPlanCache",
                "\n    def ",
                "\n    def racy_poke(self, key, names):\n"
                "        self._name_maps[key] = names\n\n    def ",
                "GlobalPlanCache._name_maps is written without a lock",
            ),
            (
                "src/repro/serve/stats.py",
                "def requests(self)",
                "        with self._lock:\n            return self._requests",
                "        return self._requests",
                "ServiceStats._requests is read without a lock",
            ),
        ],
        ids=["GlobalPlanCache-write", "ServiceStats-read"],
    )
    def test_injected_unlocked_access_fails_lint(
        self, tmp_path, capsys, path, anchor, old, new, message
    ):
        source = open(path, encoding="utf-8").read()
        copy = tmp_path / path.rsplit("/", 1)[1]
        copy.write_text(source)
        assert cli_main(["lint", str(copy)]) == 0, "pristine copy must lint clean"
        copy.write_text(_inject(source, anchor, old, new))
        capsys.readouterr()
        assert cli_main(["lint", str(copy)]) == 1
        out = capsys.readouterr().out
        assert "lock-discipline" in out and message in out

    def test_injected_unseeded_hotpath_rng_fails_lint(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "enumerator"
        pkg.mkdir(parents=True)
        helper = pkg / "jitter.py"
        helper.write_text(
            "import random\n\n"
            "def _jitter():\n"
            "    return random.Random()\n\n"
            "def _calc_best_join(xs):\n"
            "    rng = _jitter()\n"
            "    return rng\n"
        )
        assert cli_main(["lint", str(helper)]) == 1
        assert "unseeded-random" in capsys.readouterr().out

    def test_mypy_strict_core_is_clean(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
