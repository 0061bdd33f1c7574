"""No solver verdict is read from disk.

Caches of earlier formats kept every decided query in a verdict log next
to the trace log, and served it back with nothing to check it: one edited
line could prune a feasible branch or skip a proof path.  The cache now
holds traces only, and the old log's path is never opened, whatever it
holds.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cache import CACHE_FORMAT_VERSION, DiskCache
from repro.smt.solver import clear_check_cache

#: Where caches of earlier formats kept their verdict log.
OLD_VERDICT_LOG = Path(f"v{CACHE_FORMAT_VERSION}") / "smt" / "verdicts.jsonl"

JUNK = (
    b'{"k": "' + b"0" * 64 + b'", "r": "unsat"}\n'
    b"not json at all\n"
    b"\xff\xfe\x00 binary junk\n"
    b'{"k": "dangling, no newline", "r": "sa'
)


def _verify_all(capsys, *argv) -> None:
    from repro.tools.verify import main

    clear_check_cache()  # each run starts from the same solver state
    assert main(["--all", *argv]) == 0
    capsys.readouterr()


def _certs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_junk_verdict_log_is_never_read(tmp_path, capsys):
    _verify_all(capsys, "--no-cache", "--cert-dir", str(tmp_path / "plain"))

    root = tmp_path / "junk"
    (root / OLD_VERDICT_LOG).parent.mkdir(parents=True)
    (root / OLD_VERDICT_LOG).write_bytes(JUNK)
    _verify_all(capsys, "--cache-dir", str(root), "--cert-dir", str(tmp_path / "j"))
    assert (root / OLD_VERDICT_LOG).read_bytes() == JUNK

    fresh = tmp_path / "fresh"
    _verify_all(capsys, "--cache-dir", str(fresh), "--cert-dir", str(tmp_path / "f"))
    files = [str(p.relative_to(fresh)) for p in fresh.rglob("*") if p.is_file()]
    assert files == [f"v{CACHE_FORMAT_VERSION}/traces.log"]

    plain = _certs(tmp_path / "plain")
    assert plain and _certs(tmp_path / "j") == plain == _certs(tmp_path / "f")


_record_line = st.one_of(
    st.builds(
        lambda k, r: b'{"k": "%s", "r": "%s"}' % (k.encode(), r.encode()),
        st.text(alphabet="0123456789abcdef", max_size=64),
        st.sampled_from(["sat", "unsat", "unknown"]),
    ),
    st.binary(max_size=64).filter(lambda b: b"\n" not in b),
)

old_log = st.one_of(
    st.binary(max_size=512),
    st.builds(
        lambda lines, tail: b"\n".join(lines) + tail,
        st.lists(_record_line, max_size=12),
        st.sampled_from([b"", b"\n"]),
    ),
)


@settings(max_examples=100, deadline=None)
@given(old_log)
def test_old_verdict_log_is_never_read(data):
    """Opening a cache neither reads, repairs nor counts the old log."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / OLD_VERDICT_LOG
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        cache = DiskCache(root)
        assert path.read_bytes() == data
        assert not any(cache.stats.snapshot().values())
