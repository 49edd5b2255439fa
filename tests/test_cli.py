import errno
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import steenrod_transfer
from steenrod_transfer import checks
from steenrod_transfer.bv import HElement, _basis_index, action_matrix, degree_basis
from steenrod_transfer.checks import SUITES, CheckResult
from steenrod_transfer.cli import main, parse_algebra, parse_degree_range
from steenrod_transfer.gf2 import BudgetError
from steenrod_transfer.milnor import Profile
from steenrod_transfer.transfer import transfer_chain

SRC = str(Path(steenrod_transfer.__file__).resolve().parent.parent)


# --algebra values past cli.MAX_ALGEBRA_VALUE, too large for an index-sized int
OVER_RANGE = (
    "E99999999999999999999",
    "D99999999999999999999",
    "profile=99999999999999999999",
    "profile=1,99999999999999999999",
)


# --algebra values with a parenthesis missing, doubled or out of place
MISPLACED_PARENS = ("E)2(", "E(2", "D((3", "(A", "A()", "D()", "(E2)", "E(2))")


def set_cpus(monkeypatch, n):
    """Make the CLI see n CPUs, so that it uses n workers (or none for 1)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def run_cli_python(code):
    """Run Python code in a fresh interpreter with the package importable,
    its stdout a pipe; returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ends with the code of the command, after printing whether a child was left
NO_CHILD_LEFT = (
    "try:\n"
    "    os.waitpid(-1, os.WNOHANG)\n"
    "    print('a child left')\n"
    "except ChildProcessError:\n"
    "    print('no child left')\n"
    "sys.exit(rc)\n"
)


class TestParsing:
    def test_algebra_names(self):
        assert parse_algebra("A") == Profile.full()
        assert parse_algebra("a") == Profile.full()
        assert parse_algebra("D") == Profile.D()
        assert parse_algebra("E2") == Profile.E(2)
        assert parse_algebra("E(2)") == Profile.E(2)
        assert parse_algebra("e3") == Profile.E(3)
        assert parse_algebra("D2") == Profile.D(2)
        assert parse_algebra("d(1)") == Profile.D(1)
        assert parse_algebra("D(3)") == Profile.D(3)
        assert parse_algebra("E64") == Profile.E(64)

    def test_profile_literal(self):
        assert parse_algebra("profile=0,1,1") == Profile((0, 1), "const", 1)
        assert parse_algebra("profile=2,inf") == Profile((2,), "const", None)

    def test_bad_algebra(self):
        for bad in ("B", "E0", "Ex", "profile=", "", "E65", "D65", "profile=65") + MISPLACED_PARENS:
            with pytest.raises(ValueError):
                parse_algebra(bad)

    def test_degree_range(self):
        assert parse_degree_range("3..7") == range(3, 8)
        assert parse_degree_range("5..5") == range(5, 6)
        assert list(parse_degree_range("6..4")) == []
        for bad in ("3-7", "3..", "..7", "a..b"):
            with pytest.raises(ValueError):
                parse_degree_range(bad)


class TestAnnihilated:
    def test_text_output(self, capsys):
        rc = main(["annihilated", "--algebra", "A", "--rank", "1", "--degree", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim P H_7(BV_1) = 1" in out
        assert "b(7)" in out

    def test_json_output(self, capsys):
        rc = main(
            [
                "annihilated",
                "--algebra",
                "E2",
                "--rank",
                "2",
                "--degree",
                "11",
                "--format",
                "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["dim"] == 4
        assert data["ambient_dim"] == 12
        assert len(data["basis"]) == 4

    def test_oracle_route_agrees(self, capsys):
        # the default reduces these cells: Kameko doubling at r2 d8 and d10
        # and r3 d9, Wood vanishing at r2 d5; --oracle bypasses both
        for rank, degree in ((2, 8), (2, 10), (2, 5), (3, 9)):
            outs = []
            for extra in ([], ["--oracle"]):
                argv = ["annihilated", "--algebra", "A", "--rank", str(rank), "--degree", str(degree)]
                assert main(argv + ["--format", "csv"] + extra) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]

    def test_empty_kernel(self, capsys):
        rc = main(["annihilated", "--algebra", "A", "--rank", "1", "--degree", "6"])
        assert rc == 0
        assert "= 0" in capsys.readouterr().out


class TestTransfer:
    def test_rank2_degree11(self, capsys):
        rc = main(["transfer", "--algebra", "E2", "--rank", "2", "--degree", "11"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim 4" in out
        assert "h_{3,0} h_{2,1}" in out

    def test_json_cocycles(self, capsys):
        rc = main(
            ["transfer", "--algebra", "E1", "--rank", "2", "--degree", "5",
             "--format", "json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        for row in data["elements"]:
            assert row["cocycle"] is True
            assert row["class"] is not None

    def test_text_word_counts_match_json_images(self, capsys):
        # both outputs count the words from the slot factors; the JSON
        # output lists the factors, whose words are the products of one
        # monomial per slot
        args = ["transfer", "--algebra", "A", "--rank", "4", "--degree", "14"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert main(args + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["elements"]
        assert len(lines) == len(rows) == 50
        for line, row in zip(lines, rows):
            image = row["image"]
            tag = line.split(" -> ")[1].split(",")[0]
            assert tag == (f"{image['word_count']} words" if image["terms"] else "zero")
            assert image["word_count"] == sum(math.prod(map(len, t["slots"])) for t in image["terms"])
            for term in image["terms"]:
                assert len(term["slots"]) == 4
                assert all(slot == sorted(slot) for slot in term["slots"])
            assert image["terms"] == sorted(image["terms"], key=lambda t: t["slots"])
            words = {
                tuple(tuple(map(tuple, m)) for m in word)
                for t in image["terms"]
                for word in itertools.product(*t["slots"])
            }
            x = HElement(4, 14, map(tuple, row["element"]["terms"]))
            assert words == transfer_chain(x, Profile.full()).words


class TestVerify:
    def test_pass_suite(self, capsys):
        rc = main(["verify", "thm1.1-d0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_json_report(self, capsys):
        rc = main(["verify", "example5.11", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["passed"] is True
        assert data["criteria"][0]["name"] == "stratified-invariance-example"

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2
        assert "argument suite: invalid choice: 'nope'" in capsys.readouterr().err


class TestTable:
    def test_rank1_diagonal(self, capsys):
        rc = main(["table", "--algebra", "D", "--rank", "1", "--degree-range", "1..12"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,annihilated_dim,coinvariant_dim"
        nonzero = [int(l.split(",")[0]) for l in lines[1:] if l.split(",")[1] != "0"]
        assert nonzero == [1, 3, 5, 7, 11]

    def test_releases_action_matrices(self, capsys, monkeypatch):
        # no cell of a table reuses another degree's matrices or bases; one
        # CPU keeps the cells in this process, where the caches can be seen
        set_cpus(monkeypatch, 1)
        caches = (action_matrix, degree_basis, _basis_index)
        for cache in caches:
            cache.cache_clear()
        rc = main(["table", "--algebra", "A", "--rank", "3", "--degree-range", "1..9"])
        capsys.readouterr()
        assert rc == 0
        for cache in caches:
            assert cache.cache_info().currsize == 0

    def test_rank4_kameko_cells_within_budget(self, capsys):
        # doubling from degrees 16 and 18; the direct Sq^2 matrices are over budget
        for d, row in ((36, "36,73,0"), (40, "40,126,2")):
            assert main(["table", "--algebra", "A", "--rank", "4", "--degree-range", f"{d}..{d}"]) == 0
            assert capsys.readouterr().out.splitlines()[1] == row


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["annihilated", "--algebra", "A", "--rank", "0", "--degree", "3"], "--rank"),
            (["transfer", "--algebra", "E2", "--rank", "0", "--degree", "11"], "--rank"),
            (["annihilated", "--algebra", "A", "--rank", "4", "--degree", "-1"], "--degree"),
            (["table", "--algebra", "A", "--rank", "1", "--degree-range", "9..3"], "--degree-range"),
            (["table", "--algebra", "A", "--rank", "1", "--degree-range", "3-9"], "--degree-range"),
            (["annihilated", "--algebra", "Q", "--rank", "1", "--degree", "3"], "--algebra"),
            (["transfer", "--algebra", "profile=1,x", "--rank", "2", "--degree", "3"], "--algebra"),
            (["transfer", "--algebra", "E65", "--rank", "1", "--degree", "3"], "--algebra"),
        ]
        + [(["transfer", "--algebra", a, "--rank", "1", "--degree", "3"], "--algebra") for a in OVER_RANGE]
        + [(["table", "--algebra", a, "--rank", "1", "--degree-range", "3..3"], "--algebra") for a in OVER_RANGE]
        + [(["annihilated", "--algebra", a, "--rank", "1", "--degree", "3"], "--algebra") for a in MISPLACED_PARENS],
        ids=[
            "rank-zero",
            "transfer-rank-zero",
            "negative-degree",
            "reversed-range",
            "malformed-range",
            "unknown-algebra",
            "bad-profile-literal",
            "algebra-above-bound",
        ]
        + [f"transfer-{a}" for a in OVER_RANGE]
        + [f"table-{a}" for a in OVER_RANGE]
        + [f"parens-{a}" for a in MISPLACED_PARENS],
    )
    def test_rejected_while_parsing(self, capsys, argv, flag):
        # exit 2 with a message naming the flag, before any computation
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"argument {flag}:" in captured.err
        assert captured.out == ""


class TestBudgetsAndCache:
    def test_rank_budget(self, capsys):
        rc = main(["annihilated", "--algebra", "A", "--rank", "5", "--degree", "4"])
        assert rc == 3
        assert "budget" in capsys.readouterr().err

    def test_degree_budget_depends_on_rank(self, capsys):
        rc = main(["annihilated", "--algebra", "A", "--rank", "3", "--degree", "41"])
        assert rc == 3
        capsys.readouterr()
        # same degree is fine at rank <= 2
        rc = main(["annihilated", "--algebra", "A", "--rank", "2", "--degree", "41"])
        assert rc == 0

    def test_oracle_degree_budget_at_every_rank(self, capsys):
        # the oracle enumerates every Milnor basis element up to the
        # degree, so the rank <= 2 allowance does not apply to it
        argv = ["annihilated", "--algebra", "A", "--rank", "2", "--degree", "41"]
        assert main(argv + ["--oracle"]) == 3
        assert "budget" in capsys.readouterr().err
        assert main(argv) == 0

    def test_bad_algebra_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["annihilated", "--algebra", "Q", "--rank", "1", "--degree", "3"])
        assert exc.value.code == 2
        assert "argument --algebra: cannot read algebra 'Q'" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("subspace is not GL-stable")

        monkeypatch.setattr("steenrod_transfer.cli.coinvariant_quotient", broken)
        rc = main(["table", "--algebra", "A", "--rank", "1", "--degree-range", "1..2"])
        err = capsys.readouterr().err
        assert rc == 4
        assert "internal error: subspace is not GL-stable" in err
        assert "usage error" not in err

    def test_any_exception_in_a_command_is_internal(self, capsys, monkeypatch):
        # exit 1 would say a verification check failed
        def broken(*args, **kwargs):
            raise KeyError("no such monomial")

        monkeypatch.setattr("steenrod_transfer.cli.annihilated_subspace", broken)
        rc = main(["annihilated", "--algebra", "A", "--rank", "2", "--degree", "3"])
        assert rc == 4
        assert capsys.readouterr().err.splitlines() == ["internal error: 'no such monomial'"]

    def test_writes_nothing_to_disk(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        for argv in (
            ["annihilated", "--algebra", "E2", "--rank", "2", "--degree", "11"],
            ["transfer", "--algebra", "E2", "--rank", "2", "--degree", "11"],
            ["table", "--algebra", "A", "--rank", "3", "--degree-range", "1..9"],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestWorkers:
    """verify and table share their items among forked workers."""

    @staticmethod
    def reports(capsys, suite):
        rc = main(["verify", suite, "--format", "json"])
        criteria = json.loads(capsys.readouterr().out)["criteria"]
        for c in criteria:
            del c["elapsed"]
        return rc, criteria

    def test_same_reports_with_and_without_workers(self, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        with_workers = self.reports(capsys, "lemmas")
        set_cpus(monkeypatch, 1)
        serial = self.reports(capsys, "lemmas")
        assert with_workers == serial
        assert [c["name"] for c in serial[1]] == list(SUITES["lemmas"])
        assert_no_child()

    def test_table_same_rows_with_and_without_workers(self, capsys, monkeypatch):
        argv = ["table", "--algebra", "A", "--rank", "3", "--degree-range", "1..12"]
        outs = []
        for n in (2, 1):
            set_cpus(monkeypatch, n)
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert_no_child()

    @pytest.mark.parametrize(
        "error, rc, prefix",
        [
            (ValueError, 4, "internal error: "),
            (TypeError, 4, "internal error: "),
            (AssertionError, 4, "internal error: "),
            (BudgetError, 3, "budget error: "),
        ],
        ids=["internal", "type", "assertion", "budget"],
    )
    def test_error_in_a_worker(self, capsys, monkeypatch, error, rc, prefix):
        parent = os.getpid()

        def broken():
            raise error(f"raised in {'a worker' if os.getpid() != parent else 'the parent'}")

        set_cpus(monkeypatch, 2)
        monkeypatch.setitem(checks.CRITERIA, "transfer-image-windows", broken)
        assert main(["verify", "lemmas"]) == rc
        err = capsys.readouterr().err
        assert f"{prefix}raised in a worker" in err.splitlines()
        assert_no_child()

    def test_no_worker_left_after_a_failed_suite(self, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        monkeypatch.setitem(checks.CRITERIA, "kameko-frobenius", lambda: [CheckResult("no", False)])
        assert main(["verify", "lemmas"]) == 1
        assert "FAIL  kameko-frobenius" in capsys.readouterr().out
        assert_no_child()

    def test_each_line_printed_once_to_a_pipe(self):
        # a line still buffered when the workers fork must not be written
        # again by each worker as it exits
        proc = run_cli_python(
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from steenrod_transfer.cli import main\n"
            "print('before the workers')\n"
            "sys.exit(main(['verify', 'lemmas']))\n"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines.count("before the workers") == 1
        verdicts = [line.split()[1] for line in lines if line.startswith(("PASS", "FAIL"))]
        assert verdicts == list(SUITES["lemmas"])

    def test_no_pool_modules_imported(self):
        # the workers are forked over plain pipes: no multiprocessing, no
        # executor and its threads
        proc = run_cli_python(
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from steenrod_transfer.cli import main\n"
            "rc = main(['verify', 'lemmas'])\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
            + NO_CHILD_LEFT
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "no child left"]

    def test_killed_worker_is_an_internal_error(self):
        # not exit 1, which would say that a check failed; no hang, no child left
        proc = run_cli_python(
            "import os, signal, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from steenrod_transfer import checks\n"
            "from steenrod_transfer.cli import main\n"
            "parent = os.getpid()\n"
            "def killed():\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return []\n"
            "checks.CRITERIA['kameko-frobenius'] = killed\n"
            "rc = main(['verify', 'lemmas'])\n"
            + NO_CHILD_LEFT
        )
        assert proc.returncode == 4, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("internal error: ")]
        assert len(errors) == 1, proc.stderr
        assert f"killed by signal {int(signal.SIGKILL)}" in errors[0]
        assert proc.stdout.splitlines()[-1] == "no child left"
        assert "FAIL" not in proc.stdout

    def test_one_criterion_forks_nothing(self):
        proc = run_cli_python(
            "import sys\n"
            "from steenrod_transfer.cli import main\n"
            "rc = main(['verify', 'thm1.1-g'])\n"
            "print('multiprocessing' in sys.modules)\n"
            "sys.exit(rc)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class ClosedAfterOneLine(io.StringIO):
    """A stdout whose reader goes away once it has read one line."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)


class TestClosedStdout:
    """A closed stdout stops a command as SIGPIPE would, exit 141, and
    is not an internal error."""

    def test_in_process(self, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(sys, "stdout", ClosedAfterOneLine())
        saved = os.dup(1)  # main points fd 1 at /dev/null
        try:
            rc = main(["verify", "lemmas"])
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        assert rc == 141
        assert capsys.readouterr().err == ""
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2, 1], ids=["workers", "serial"])
    def test_pipe_closed_after_one_line(self, cpus):
        # the last criterion waits, so that it is printed after the pipe
        # is closed; a pipe's stdout is block-buffered without
        # PYTHONUNBUFFERED
        code = (
            "import os, sys, time\n"
            f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
            "from steenrod_transfer import checks\n"
            "from steenrod_transfer.cli import main\n"
            "last = checks.SUITES['lemmas'][-1]\n"
            "run = checks.CRITERIA[last]\n"
            "checks.CRITERIA[last] = lambda: time.sleep(1) or run()\n"
            "sys.exit(main(['verify', 'lemmas']))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.readline().startswith(b"PASS")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


class TestLayering:
    """The package root re-exports nothing, so importing a module loads
    only the modules it depends on, in a fresh interpreter."""

    ALL = {"gf2", "milnor", "bv", "cobar", "transfer", "hit", "stratr", "checks", "criteria", "cli"}
    LOADS = {
        "": set(),
        ".gf2": {"gf2"},
        ".milnor": {"milnor"},
        ".stratr": {"stratr"},
        ".bv": {"gf2", "milnor", "bv"},
        ".cobar": {"gf2", "milnor", "cobar"},
        ".transfer": {"gf2", "milnor", "bv", "cobar", "transfer"},
        ".hit": {"gf2", "milnor", "bv", "hit"},
        # the registry alone; its entries import criteria as they run
        ".checks": {"checks"},
        ".criteria": {"gf2", "milnor", "bv", "checks", "criteria"},
        ".cli": {"gf2", "milnor", "bv", "checks", "cli"},
    }

    def test_every_module_is_pinned(self):
        package = Path(steenrod_transfer.__file__).parent
        modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
        assert modules == self.ALL == {m[1:] for m in self.LOADS if m}

    @pytest.mark.parametrize("module", sorted(LOADS), ids=lambda m: "steenrod_transfer" + m)
    def test_import_loads_only_its_layers(self, module):
        proc = run_cli_python(
            f"import sys, steenrod_transfer{module}\n"
            "print(*(m.split('.')[1] for m in sys.modules if m.startswith('steenrod_transfer.')))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) == self.LOADS[module]

    def test_json_only_for_json_output(self):
        # a text transfer and a table never write JSON, so they do not
        # pay for importing json
        proc = run_cli_python(
            "import sys\n"
            "from steenrod_transfer.cli import main\n"
            "loaded = ['json' in sys.modules]\n"
            "for argv in (['transfer', '--algebra', 'E2', '--rank', '2', '--degree', '11'],\n"
            "             ['table', '--algebra', 'A', '--rank', '2', '--degree-range', '1..4']):\n"
            "    assert main(argv) == 0\n"
            "    loaded.append('json' in sys.modules)\n"
            "print(loaded)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[False, False, False]"

    def test_commands_load_only_their_layers(self):
        # annihilated and table never reach the cobar side, the hit
        # criterion, the stratified reading or the criteria bodies;
        # transfer adds cobar and transfer only
        proc = run_cli_python(
            "import sys\n"
            "from steenrod_transfer.cli import main\n"
            "layers = ('cobar', 'transfer', 'hit', 'stratr', 'criteria')\n"
            "loaded = []\n"
            "for argv in (['annihilated', '--algebra', 'E2', '--rank', '2', '--degree', '11'],\n"
            "             ['table', '--algebra', 'A', '--rank', '2', '--degree-range', '1..4'],\n"
            "             ['transfer', '--algebra', 'E2', '--rank', '2', '--degree', '11']):\n"
            "    assert main(argv) == 0\n"
            "    loaded.append([m for m in layers if 'steenrod_transfer.' + m in sys.modules])\n"
            "print(loaded)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[[], [], ['cobar', 'transfer']]"


class TestFrozenHeap:
    """main freezes the heap once the arguments are parsed and again as
    it returns, so that neither its collections, nor its workers', nor
    interpreter exit walk what the imports built or the command cached."""

    @pytest.mark.parametrize(
        "argv, rc",
        [
            (["table", "--algebra", "A", "--rank", "2", "--degree-range", "5..5"], 0),
            # three criteria, shared among two forked workers; exit 1 for
            # the refuted rank2-degree11-witness
            (["verify", "props"], 1),
        ],
        ids=["table-one-cell", "verify-workers"],
    )
    def test_heap_frozen_and_collector_enabled(self, argv, rc):
        proc = run_cli_python(
            "import gc, os, sys, weakref\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from steenrod_transfer.cli import main\n"
            "gc.collect()  # untracks what it can, as any collection inside main would\n"
            "imported = len(gc.get_objects())\n"
            f"rc = main({argv!r})\n"
            "class Node:\n"
            "    pass\n"
            "node = Node()\n"
            "node.self = node\n"
            "alive = weakref.ref(node)\n"
            "del node\n"
            "gc.collect()\n"
            "print(gc.isenabled(), gc.get_freeze_count() >= imported, alive() is None,\n"
            "      gc.get_freeze_count(), imported)\n"
            "sys.exit(rc)\n"
        )
        assert proc.returncode == rc, proc.stderr
        enabled, frozen, cycle_freed = proc.stdout.splitlines()[-1].split()[:3]
        assert enabled == "True"
        assert frozen == "True", proc.stdout.splitlines()[-1]
        assert cycle_freed == "True"

    def test_criteria_layers_frozen_before_the_fork(self):
        # verify imports the criteria and their layers in the parent and
        # freezes them, so that both workers inherit them compiled and frozen;
        # gc.get_objects() lists no frozen object
        proc = run_cli_python(
            "import gc, os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from steenrod_transfer.cli import main\n"
            "seen = []\n"
            "fork = os.fork\n"
            "def watched_fork():\n"
            "    if not seen:\n"
            "        layers = [sys.modules.get('steenrod_transfer.' + m)\n"
            "                  for m in ('cobar', 'transfer', 'hit', 'stratr', 'criteria')]\n"
            "        tracked = {id(o) for o in gc.get_objects()}\n"
            "        seen.append((all(layers), gc.get_freeze_count() > 0,\n"
            "                     not any(m and id(vars(m)) in tracked for m in layers)))\n"
            "    return fork()\n"
            "os.fork = watched_fork\n"
            "rc = main(['verify', 'props'])\n"
            "print(*seen)\n"
            "sys.exit(rc)\n"
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines()[-1] == "(True, True, True)"
