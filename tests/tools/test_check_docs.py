"""Tests for the docs checker: the repo's own docs must pass, and the
checker must actually catch broken links, bad anchors, and CLI drift."""

import importlib.util
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_docs", _REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


def test_repo_docs_pass(capsys):
    assert check_docs.main([str(_REPO_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "README.md" in out and "DESIGN.md" in out


def _fake_repo(tmp_path, readme):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "README.md").write_text(readme)
    return tmp_path


def test_broken_file_link_fails(tmp_path, capsys):
    root = _fake_repo(tmp_path, "see [the spec](docs/missing.md) here\n")
    assert check_docs.main([str(root)]) == 1
    assert "broken link" in capsys.readouterr().out


def test_bad_anchor_fails(tmp_path, capsys):
    root = _fake_repo(
        tmp_path,
        "# Title\n\n## Real heading\n\njump [there](#not-a-heading)\n",
    )
    assert check_docs.main([str(root)]) == 1
    assert "matches no heading" in capsys.readouterr().out


def test_good_anchor_passes(tmp_path):
    root = _fake_repo(
        tmp_path,
        "# Title\n\n## Real heading\n\njump [there](#real-heading) "
        "and [away](docs/other.md#sub-part)\n",
    )
    (root / "docs" / "other.md").write_text("## Sub part\n")
    assert check_docs.main([str(root)]) == 0


def test_headings_inside_code_fences_are_not_anchors(tmp_path, capsys):
    root = _fake_repo(
        tmp_path,
        "# Title\n\n```console\n## fake heading\n```\n\n"
        "[bad](#fake-heading)\n",
    )
    assert check_docs.main([str(root)]) == 1
    assert "matches no heading" in capsys.readouterr().out


def test_unknown_subcommand_fails(tmp_path, capsys):
    root = _fake_repo(
        tmp_path, "```console\n$ repro frobnicate --hard\n```\n"
    )
    (root / "src").rmdir()
    (root / "src").symlink_to(_REPO_ROOT / "src")
    assert check_docs.main([str(root)]) == 1
    assert "unknown subcommand" in capsys.readouterr().out


def test_unknown_flag_fails(tmp_path, capsys):
    root = _fake_repo(
        tmp_path, "```console\n$ repro query doc.nt --no-such-flag\n```\n"
    )
    (root / "src").rmdir()
    (root / "src").symlink_to(_REPO_ROOT / "src")
    assert check_docs.main([str(root)]) == 1
    assert "--no-such-flag" in capsys.readouterr().out


def test_continuation_lines_are_joined(tmp_path, capsys):
    root = _fake_repo(
        tmp_path,
        "```console\n$ repro query doc.nt --query Q1 \\\n"
        "    --bogus-continued-flag\n```\n",
    )
    (root / "src").rmdir()
    (root / "src").symlink_to(_REPO_ROOT / "src")
    assert check_docs.main([str(root)]) == 1
    assert "--bogus-continued-flag" in capsys.readouterr().out


def _metrics_repo(tmp_path, source, doc):
    root = _fake_repo(tmp_path, "# Title\n")
    (root / "src" / "mod.py").write_text(source)
    if doc is not None:
        (root / "docs" / "metrics.md").write_text(doc)
    return root


def test_undocumented_metric_fails(tmp_path, capsys):
    root = _metrics_repo(
        tmp_path,
        'X = reg.counter(\n    "sp2b_widgets_total",\n    "Widgets.")\n',
        "# Metrics\n\nnothing here\n",
    )
    assert check_docs.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "sp2b_widgets_total" in out and "not documented" in out


def test_unregistered_metric_fails(tmp_path, capsys):
    root = _metrics_repo(
        tmp_path, "\n", "# Metrics\n\n`sp2b_ghost_total` haunts.\n"
    )
    assert check_docs.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "sp2b_ghost_total" in out and "no longer registered" in out


def test_metrics_in_sync_pass_with_suffixed_mentions(tmp_path):
    root = _metrics_repo(
        tmp_path,
        'H = reg.histogram("sp2b_wait_seconds", "Wait.")\n',
        "# Metrics\n\n`sp2b_wait_seconds` expands into "
        "`sp2b_wait_seconds_bucket` / `sp2b_wait_seconds_sum` / "
        "`sp2b_wait_seconds_count`.\n",
    )
    assert check_docs.main([str(root)]) == 0


def test_missing_metrics_doc_fails_only_with_registrations(tmp_path, capsys):
    root = _metrics_repo(
        tmp_path, 'G = reg.gauge("sp2b_depth", "Depth.")\n', None
    )
    assert check_docs.main([str(root)]) == 1
    assert "docs/metrics.md: missing" in capsys.readouterr().out


def _snapshot_repo(tmp_path, spec):
    root = _fake_repo(tmp_path, "# Title\n")
    (root / "src" / "repro" / "store").mkdir(parents=True)
    (root / "src" / "repro" / "store" / "snapshot.py").write_text(
        "FORMAT_VERSION = 3\n")
    (root / "docs" / "snapshot-format.md").write_text(spec)
    return root


def test_snapshot_spec_naming_another_version_fails(tmp_path, capsys):
    root = _snapshot_repo(tmp_path, "# Spec\n\nThis build writes version 2 "
                                    "and reads only version 2.\n")
    assert check_docs.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "snapshot-format.md:3: says version 2" in out
    assert "FORMAT_VERSION = 3" in out


def test_snapshot_spec_without_the_sentence_fails(tmp_path, capsys):
    root = _snapshot_repo(tmp_path, "# Spec\n\nNo version here.\n")
    assert check_docs.main([str(root)]) == 1
    assert "This build writes version" in capsys.readouterr().out


def test_snapshot_spec_in_sync_passes(tmp_path):
    root = _snapshot_repo(tmp_path, "# Spec\n\nThis build writes version 3.\n")
    assert check_docs.main([str(root)]) == 0
