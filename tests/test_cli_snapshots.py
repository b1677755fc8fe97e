"""CLI tests for the snapshot and dataset-cache commands."""

import pytest

from repro.cli import main
from repro.store import read_snapshot_metadata


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("SP2B_CACHE_DIR", str(directory))
    return directory


class TestGenerateSaveSnapshot:
    def test_writes_document_and_snapshot(self, tmp_path, capsys):
        output = tmp_path / "doc.nt"
        assert main(["generate", str(output), "--triples", "400",
                     "--save-snapshot"]) == 0
        snapshot = tmp_path / "doc.sp2b"
        assert output.exists() and snapshot.exists()
        assert read_snapshot_metadata(snapshot)["statistics"]["triples"] >= 400
        out = capsys.readouterr().out
        assert "saved store snapshot" in out

    def test_snapshot_and_document_answer_identically(self, tmp_path, capsys):
        # 2000 triples reach the 1940 entry points Q1 relies on.
        output = tmp_path / "doc.nt"
        main(["generate", str(output), "--triples", "2000", "--save-snapshot"])
        capsys.readouterr()

        def rows(document):
            main(["query", document, "--query", "Q1"])
            return capsys.readouterr().out.splitlines()

        snapshot_rows = rows(str(tmp_path / "doc.sp2b"))
        assert "Q1: 1 results" in snapshot_rows[0]
        assert snapshot_rows[1:] == rows(str(output))[1:]

    def test_snapshot_works_with_every_engine_preset(self, tmp_path, capsys):
        output = tmp_path / "doc.nt"
        main(["generate", str(output), "--triples", "2000", "--save-snapshot"])
        # A memory-profile engine loads the snapshot as a scan store.
        assert main(["query", str(tmp_path / "doc.sp2b"), "--query", "Q1",
                     "--engine", "inmemory-optimized"]) == 0
        assert "Q1: 1 results" in capsys.readouterr().out


class TestBuildAndCacheCommands:
    def test_build_then_rebuild_hits_cache(self, cache_dir, capsys):
        assert main(["build", "--triples", "300", "500"]) == 0
        first = capsys.readouterr().out
        assert first.count("built") == 2
        assert len(list(cache_dir.glob("*.sp2b"))) == 2
        assert main(["build", "--triples", "300", "500"]) == 0
        second = capsys.readouterr().out
        assert second.count("cached") == 2

    def test_build_force_rebuilds(self, cache_dir, capsys):
        main(["build", "--triples", "300"])
        capsys.readouterr()
        assert main(["build", "--triples", "300", "--force"]) == 0
        assert "built" in capsys.readouterr().out

    def test_cache_list_and_clear(self, cache_dir, capsys):
        main(["build", "--triples", "300"])
        capsys.readouterr()
        assert main(["cache", "list"]) == 0
        listing = capsys.readouterr().out
        assert "300t-" in listing and "1 snapshot(s)" in listing
        assert main(["cache", "clear"]) == 0
        assert "removed 1 snapshot(s)" in capsys.readouterr().out
        assert main(["cache", "list"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_prune_drops_stale_entries(self, cache_dir, capsys):
        main(["build", "--triples", "300", "500"])
        capsys.readouterr()
        assert main(["cache", "prune", "--sizes", "300"]) == 0
        assert "pruned 1 snapshot(s)" in capsys.readouterr().out
        assert len(list(cache_dir.glob("*.sp2b"))) == 1

    @pytest.mark.parametrize("sizes", ["", " , "])
    def test_cache_prune_with_no_sizes_keeps_the_cache(self, cache_dir, capsys,
                                                       sizes):
        # An unset $SP2B_BENCH_SIZES must not empty the cache.
        main(["build", "--triples", "300"])
        with pytest.raises(SystemExit) as exited:
            main(["cache", "prune", "--sizes", sizes])
        assert exited.value.code == 2
        assert "--sizes takes positive integers" in capsys.readouterr().err
        assert len(list(cache_dir.glob("*.sp2b"))) == 1

    def test_cache_key_is_stable_and_parameter_sensitive(self, capsys):
        def key(arguments):
            assert main(["cache", "key"] + arguments) == 0
            return capsys.readouterr().out.strip()

        base = key(["--sizes", "1000,2500"])
        assert base == key(["--sizes", "1000,2500"])
        assert base.startswith("v")
        assert key(["--sizes", "1000"]) != base
        assert key(["--sizes", "1000,2500", "--seed", "1"]) != base

    def test_bench_uses_cache_dir(self, cache_dir, capsys):
        assert main(["bench", "--sizes", "400", "--queries", "Q1",
                     "--timeout", "10"]) == 0
        assert len(list(cache_dir.glob("*.sp2b"))) == 1
        capsys.readouterr()

    def test_bench_no_cache_skips_cache(self, cache_dir, capsys):
        assert main(["bench", "--sizes", "400", "--queries", "Q1",
                     "--timeout", "10", "--no-cache"]) == 0
        assert not cache_dir.exists()
        capsys.readouterr()


class TestSnapshotPath:
    def test_suffix_replacement(self):
        from repro.cli import _snapshot_path_for

        assert _snapshot_path_for("doc.nt") == "doc.sp2b"
        assert _snapshot_path_for("dir/doc.nt") == "dir/doc.sp2b"
        assert _snapshot_path_for("noext") == "noext.sp2b"
        assert _snapshot_path_for(".hidden") == ".hidden.sp2b"
        assert _snapshot_path_for("a.b.nt") == "a.b.sp2b"


class TestDispatch:
    def test_unknown_command_prints_usage(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage: repro" in capsys.readouterr().err
