"""Fail CI when the docs drift from the repo or the CLI.

Four independent checks over README.md, DESIGN.md, and docs/*.md:

1. **Intra-repo links.**  Every relative markdown link must point at a
   file that exists, and every ``#anchor`` fragment must match a
   GitHub-style heading slug in the target document.  External links
   (``http://``, ``https://``, ``mailto:``) are ignored.

2. **README command drift.**  Every ``$ repro <sub> ...`` line inside a
   README console block is checked against the live CLI: the subcommand
   must exist, and every ``--flag`` the line uses must appear in that
   subcommand's ``--help`` output.

3. **Metrics reference drift.**  Every ``sp2b_*`` series registered in
   ``src/repro`` (a ``.counter(``/``.gauge(``/``.histogram(`` call) must
   appear in ``docs/metrics.md``, and every ``sp2b_*`` name that page
   documents must still be registered somewhere in the source tree.

4. **Snapshot version drift.**  The "This build writes version N"
   sentence of ``docs/snapshot-format.md`` must name the
   ``FORMAT_VERSION`` that ``src/repro/store/snapshot.py`` writes.

Exit status is non-zero iff any check fails; every failure is reported
with file and line.  Run from anywhere:

    python tools/check_docs.py [repo-root]
"""

import os
import re
import subprocess
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE_RE = re.compile(r"^(```|~~~)")
#: characters GitHub keeps when slugging a heading (besides spaces/hyphens)
SLUG_DROP_RE = re.compile(r"[^\w\- ]", re.UNICODE)
COMMAND_RE = re.compile(r"^\$ (repro\s.*)$")
FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")
#: a registry registration call; the name literal may sit on the next line
METRIC_REGISTRATION_RE = re.compile(
    r"\.(?:counter|gauge|histogram)\(\s*\"(sp2b_[a-z0-9_]+)\"")
METRIC_NAME_TOKEN_RE = re.compile(r"sp2b_[a-z0-9_]+")
#: per-sample suffixes histograms expand into — not separate series
METRIC_SUFFIX_RE = re.compile(r"_(?:bucket|sum|count)$")
FORMAT_VERSION_RE = re.compile(r"^FORMAT_VERSION = (\d+)", re.MULTILINE)
WRITES_VERSION_RE = re.compile(r"This build writes version (\d+)")


def doc_files(root):
    files = [root / "README.md", root / "DESIGN.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.is_file()]


def iter_prose_lines(text):
    """Yield (lineno, line) outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def iter_fenced_lines(text):
    """Yield (lineno, line) inside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            yield lineno, line


def github_slug(heading, seen):
    """The anchor GitHub generates for a heading, deduplicated via *seen*."""
    # Strip inline-code backticks and markdown emphasis before slugging.
    text = heading.replace("`", "").replace("*", "").replace("_", " ")
    slug = SLUG_DROP_RE.sub("", text.strip().lower()).replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def anchors_of(path, cache):
    anchors = cache.get(path)
    if anchors is None:
        seen = {}
        anchors = set()
        for _, line in iter_prose_lines(path.read_text(encoding="utf-8")):
            match = HEADING_RE.match(line)
            if match:
                anchors.add(github_slug(match.group(2), seen))
        cache[path] = anchors
    return anchors


def check_links(root, errors):
    cache = {}
    for path in doc_files(root):
        rel = path.relative_to(root)
        for lineno, line in iter_prose_lines(path.read_text(encoding="utf-8")):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                base, _, fragment = target.partition("#")
                dest = (path.parent / base).resolve() if base else path
                if not dest.is_file():
                    errors.append(f"{rel}:{lineno}: broken link {target!r} "
                                  f"({dest} does not exist)")
                    continue
                if fragment and dest.suffix == ".md":
                    if fragment not in anchors_of(dest, cache):
                        errors.append(
                            f"{rel}:{lineno}: link {target!r} points at "
                            f"anchor #{fragment}, which matches no heading "
                            f"in {dest.name}"
                        )


def readme_commands(readme_text):
    """Yield (lineno, argv-tokens) for each ``$ repro ...`` console line."""
    pending = None
    for lineno, line in iter_fenced_lines(readme_text):
        stripped = line.strip()
        if pending is not None:
            start, words = pending
            words.extend(stripped.rstrip("\\").split())
            pending = (start, words) if stripped.endswith("\\") else None
            if pending is None:
                yield start, words
            continue
        match = COMMAND_RE.match(stripped)
        if match:
            words = match.group(1).rstrip("\\").split()
            if stripped.endswith("\\"):
                pending = (lineno, words)
            else:
                yield lineno, words


def subcommand_help(root, sub, cache):
    if sub not in cache:
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; sys.exit(main())",
             sub, "--help"],
            capture_output=True, text=True, cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        # Unknown subcommands make main() print usage and return 2; --help
        # on a real subcommand always exits 0.
        ok = result.returncode == 0
        cache[sub] = (result.stdout + result.stderr) if ok else None
    return cache[sub]


def check_commands(root, errors):
    readme = root / "README.md"
    cache = {}
    for lineno, words in readme_commands(readme.read_text(encoding="utf-8")):
        if len(words) < 2:
            errors.append(f"README.md:{lineno}: bare `repro` invocation")
            continue
        sub = words[1]
        help_text = subcommand_help(root, sub, cache)
        if help_text is None:
            errors.append(f"README.md:{lineno}: unknown subcommand "
                          f"`repro {sub}`")
            continue
        for token in words[2:]:
            for flag in FLAG_RE.findall(token.split("=", 1)[0]):
                if flag not in help_text:
                    errors.append(
                        f"README.md:{lineno}: `repro {sub}` does not "
                        f"accept {flag} (not in its --help output)"
                    )


def registered_metric_names(root):
    """Map sp2b series name -> "file:line" of its registration call."""
    registered = {}
    for path in sorted((root / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in METRIC_REGISTRATION_RE.finditer(text):
            lineno = text.count("\n", 0, match.start(1)) + 1
            registered.setdefault(
                match.group(1), f"{path.relative_to(root)}:{lineno}")
    return registered


def documented_metric_names(metrics_doc):
    """Map sp2b series name -> first line mentioning it in metrics.md."""
    documented = {}
    for lineno, line in enumerate(
            metrics_doc.read_text(encoding="utf-8").splitlines(), start=1):
        for token in METRIC_NAME_TOKEN_RE.findall(line):
            documented.setdefault(METRIC_SUFFIX_RE.sub("", token), lineno)
    return documented


def check_metrics_reference(root, errors):
    metrics_doc = root / "docs" / "metrics.md"
    registered = registered_metric_names(root)
    if not metrics_doc.is_file():
        # A tree with no registered series needs no reference page.
        if registered:
            errors.append(
                f"docs/metrics.md: missing, but {len(registered)} sp2b_* "
                f"series are registered under src/"
            )
        return
    documented = documented_metric_names(metrics_doc)
    for name in sorted(set(registered) - set(documented)):
        errors.append(
            f"{registered[name]}: metric {name!r} is registered but not "
            f"documented in docs/metrics.md"
        )
    for name in sorted(set(documented) - set(registered)):
        errors.append(
            f"docs/metrics.md:{documented[name]}: metric {name!r} is "
            f"documented but no longer registered under src/"
        )


def check_snapshot_version(root, errors):
    source = root / "src" / "repro" / "store" / "snapshot.py"
    if not source.is_file():
        return
    written = FORMAT_VERSION_RE.search(source.read_text(encoding="utf-8"))
    spec = root / "docs" / "snapshot-format.md"
    text = spec.read_text(encoding="utf-8") if spec.is_file() else ""
    documented = WRITES_VERSION_RE.search(text)
    if written is None:
        errors.append("src/repro/store/snapshot.py: no `FORMAT_VERSION = N` line")
    elif documented is None:
        errors.append("docs/snapshot-format.md: no \"This build writes version "
                      "N\" sentence to check against FORMAT_VERSION")
    elif documented.group(1) != written.group(1):
        lineno = text.count("\n", 0, documented.start()) + 1
        errors.append(
            f"docs/snapshot-format.md:{lineno}: says version "
            f"{documented.group(1)}, but src/repro/store/snapshot.py writes "
            f"FORMAT_VERSION = {written.group(1)}"
        )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = (Path(argv[0]) if argv else Path(__file__).resolve().parent.parent)
    root = root.resolve()
    errors = []
    check_links(root, errors)
    check_commands(root, errors)
    check_metrics_reference(root, errors)
    check_snapshot_version(root, errors)
    if errors:
        print(f"docs check failed ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  {error}")
        return 1
    files = ", ".join(str(p.relative_to(root)) for p in doc_files(root))
    print(f"docs check passed ({files})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
