import json

import pytest

from steenrod_transfer.cli import (
    RunConfig,
    main,
    parse_algebra,
    parse_degree_range,
)
from steenrod_transfer.gf2 import GF2Matrix
from steenrod_transfer.milnor import Profile


def cfg(tmp_path, **kw):
    return RunConfig(cache_dir=tmp_path / "cache", **kw)


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

    def test_profile_literal(self):
        assert parse_algebra("profile=0,1,1") == Profile((0, 1), "const", 1)
        assert parse_algebra("profile=2,inf") == Profile((2,), "const", None)

    def test_bad_algebra(self):
        for bad in ("B", "E0", "Ex", "profile=", ""):
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
    def test_text_output(self, tmp_path, capsys):
        rc = main(
            ["annihilated", "--algebra", "A", "--rank", "1", "--degree", "7"],
            config=cfg(tmp_path),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim P H_7(BV_1) = 1" in out
        assert "b(7)" in out

    def test_json_output(self, tmp_path, capsys):
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
            ],
            config=cfg(tmp_path),
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["dim"] == 4
        assert data["ambient_dim"] == 12
        assert len(data["basis"]) == 4

    def test_oracle_route_agrees(self, tmp_path, capsys):
        outs = []
        for extra in ([], ["--oracle"]):
            main(
                ["annihilated", "--algebra", "A", "--rank", "2", "--degree", "8",
                 "--format", "csv"] + extra,
                config=cfg(tmp_path),
            )
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_empty_kernel(self, tmp_path, capsys):
        rc = main(
            ["annihilated", "--algebra", "A", "--rank", "1", "--degree", "6"],
            config=cfg(tmp_path),
        )
        assert rc == 0
        assert "= 0" in capsys.readouterr().out


class TestTransfer:
    def test_rank2_degree11(self, tmp_path, capsys):
        rc = main(
            ["transfer", "--algebra", "E2", "--rank", "2", "--degree", "11"],
            config=cfg(tmp_path),
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim 4" in out
        assert "h_{3,0} h_{2,1}" in out

    def test_json_cocycles(self, tmp_path, capsys):
        rc = main(
            ["transfer", "--algebra", "E1", "--rank", "2", "--degree", "5",
             "--format", "json"],
            config=cfg(tmp_path),
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        for row in data["elements"]:
            assert row["cocycle"] is True
            assert row["class"] is not None


class TestVerify:
    def test_pass_suite(self, tmp_path, capsys):
        rc = main(["verify", "thm1.1-d0"], config=cfg(tmp_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_json_report(self, tmp_path, capsys):
        rc = main(
            ["verify", "example5.11", "--format", "json"], config=cfg(tmp_path)
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["passed"] is True
        assert data["criteria"][0]["name"] == "stratified-invariance-example"

    def test_unknown_suite(self, tmp_path, capsys):
        rc = main(["verify", "nope"], config=cfg(tmp_path))
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err


class TestTable:
    def test_rank1_diagonal(self, tmp_path, capsys):
        rc = main(
            ["table", "--algebra", "D", "--rank", "1", "--degree-range", "1..12"],
            config=cfg(tmp_path),
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,annihilated_dim,coinvariant_dim"
        nonzero = [int(l.split(",")[0]) for l in lines[1:] if l.split(",")[1] != "0"]
        assert nonzero == [1, 3, 5, 7, 11]


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["annihilated", "--algebra", "A", "--rank", "0", "--degree", "3"], "--rank"),
            (["transfer", "--algebra", "E2", "--rank", "0", "--degree", "11"], "--rank"),
            (["annihilated", "--algebra", "A", "--rank", "4", "--degree", "-1"], "--degree"),
            (["table", "--algebra", "A", "--rank", "1", "--degree-range", "9..3"], "--degree-range"),
            (["table", "--algebra", "A", "--rank", "1", "--degree-range", "3-9"], "--degree-range"),
        ],
        ids=["rank-zero", "transfer-rank-zero", "negative-degree", "reversed-range", "malformed-range"],
    )
    def test_rejected_while_parsing(self, tmp_path, capsys, argv, flag):
        # exit 2 with a message naming the flag, before any computation
        with pytest.raises(SystemExit) as exc:
            main(argv, config=cfg(tmp_path))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"argument {flag}:" in captured.err
        assert captured.out == ""


class TestBudgetsAndCache:
    def test_rank_budget(self, tmp_path, capsys):
        rc = main(
            ["annihilated", "--algebra", "A", "--rank", "5", "--degree", "4"],
            config=cfg(tmp_path),
        )
        assert rc == 3
        assert "budget" in capsys.readouterr().err

    def test_degree_budget_depends_on_rank(self, tmp_path, capsys):
        c = cfg(tmp_path)
        rc = main(
            ["annihilated", "--algebra", "A", "--rank", "3", "--degree", "41"],
            config=c,
        )
        assert rc == 3
        capsys.readouterr()
        # same degree is fine at rank <= 2
        rc = main(
            ["annihilated", "--algebra", "A", "--rank", "2", "--degree", "41"],
            config=c,
        )
        assert rc == 0

    def test_bad_algebra_usage_error(self, tmp_path, capsys):
        rc = main(
            ["annihilated", "--algebra", "Q", "--rank", "1", "--degree", "3"],
            config=cfg(tmp_path),
        )
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_cache_files_written_and_reused(self, tmp_path, capsys):
        c = cfg(tmp_path)
        main(
            ["annihilated", "--algebra", "E2", "--rank", "2", "--degree", "11"],
            config=c,
        )
        capsys.readouterr()
        files = sorted(p.name for p in c.cache_dir.glob("*.gf2m"))
        assert files
        blobs = {p.name: p.read_bytes() for p in c.cache_dir.glob("*.gf2m")}
        # second run must reuse the cache and leave the bytes untouched
        main(
            ["annihilated", "--algebra", "E2", "--rank", "2", "--degree", "11"],
            config=c,
        )
        capsys.readouterr()
        for p in c.cache_dir.glob("*.gf2m"):
            assert p.read_bytes() == blobs[p.name]
        assert not list(c.cache_dir.glob("*.tmp"))

    def _rerun_after(self, tmp_path, capsys, damage):
        """Run a cell, damage its cache files, then run it twice more: both
        reruns must print the first output and leave well-formed files."""
        c = cfg(tmp_path)
        argv = ["annihilated", "--algebra", "E2", "--rank", "2", "--degree", "11"]
        assert main(argv, config=c) == 0
        first = capsys.readouterr().out
        blobs = {p: p.read_bytes() for p in c.cache_dir.glob("*.gf2m")}
        for p in blobs:
            damage(p)
        for _ in range(2):
            assert main(argv, config=c) == 0
            assert capsys.readouterr().out == first
        for p, blob in blobs.items():
            assert p.read_bytes() == blob
        assert not list(c.cache_dir.glob("*.tmp"))

    def test_truncated_cache_file_is_rebuilt(self, tmp_path, capsys):
        self._rerun_after(tmp_path, capsys, lambda p: p.write_bytes(p.read_bytes()[:-3]))

    def test_wrong_shape_cache_file_is_rebuilt(self, tmp_path, capsys):
        # a well-formed GF2M file of another cell's shape
        wrong = GF2Matrix.identity(3).to_bytes()
        self._rerun_after(tmp_path, capsys, lambda p: p.write_bytes(wrong))

    def test_env_cache_dir(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "envcache"
        monkeypatch.setenv("STRAT_CACHE", str(target))
        rc = main(["annihilated", "--algebra", "A", "--rank", "1", "--degree", "3"])
        capsys.readouterr()
        assert rc == 0
        assert list(target.glob("*.gf2m"))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(cache_dir=tmp_path, max_rank=0)
