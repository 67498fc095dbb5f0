"""Fuzz tests of the CSV heads: the '#' metadata lines and the column
header of a paired CSV (the ``--reference``) and of a samples CSV, mutated
and then scored by ``bridgediff eval``. Every run must exit 2 with one
``error:`` line on stderr, or exit 0 with the unmutated files' report.

The reference's ``.selfdist`` file is fuzzed too: any mutation of it must
give the report ``eval`` writes with no file there."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgediff import cli, metrics
from bridgediff.data import gen_two_moons_paired, load, save

OPS = ("truncate", "flip", "drop_equals", "drop", "duplicate")


def _eval(samples: bytes, reference: bytes, selfdist: bytes | None = None):
    """Exit code, stderr and report of ``eval`` on the two files, each in a
    fresh directory, so no ``.selfdist`` file is shared between runs; with
    ``selfdist``, the reference's ``.selfdist`` file holds it."""
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "s.csv").write_bytes(samples)
        (root / "ref.csv").write_bytes(reference)
        if selfdist is not None:
            (root / ("ref.csv" + metrics.SELF_SUM_SUFFIX)).write_bytes(selfdist)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(["eval", "--samples", str(root / "s.csv"), "--reference",
                             str(root / "ref.csv"), "--k", "2", "--out", str(root / "r.csv")])
        # Bytes decoded as they are: a '\r' in an echoed seed stays one.
        report = (root / "r.csv").read_bytes().decode("utf-8") if code == 0 else None
    return code, err.getvalue(), report


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    ref = tmp_path_factory.mktemp("fuzz") / "ref.csv"
    save(gen_two_moons_paired(n=40, noise_sd=0.05, seed=77), ref)
    values = gen_two_moons_paired(n=6, noise_sd=0.05, seed=78).x0
    samples = "".join(
        ["# format=samples-csv\n# version=1\n# seed=3\n# steps=200\n# eta=1.0\n",
         "# k=2\n# n=3\n# dim=2\ny_index,sample_index,dim_0,dim_1\n",
         *(f"{i // 2},{i % 2},{a!r},{b!r}\n" for i, (a, b) in enumerate(values.tolist()))])
    metrics.reference_self_sum(ref, load(ref).x0)
    files = {"samples": samples.encode("utf-8"), "reference": ref.read_bytes(),
             "selfdist": ref.with_name(ref.name + metrics.SELF_SUM_SUFFIX).read_bytes()}
    code, err, report = _eval(files["samples"], files["reference"])
    assert (code, err) == (0, "")
    assert _eval(files["samples"], files["reference"], files["selfdist"]) == (0, "", report)
    return files, report


def _mutate(data, blob: bytes, whole: bool = False) -> bytes:
    """``blob`` with one to three mutations of its head, the '#' lines and
    the column header after them, or with ``whole`` of any of its lines."""
    lines = blob.splitlines(keepends=True)
    size = len(lines) if whole else next(
        i for i, line in enumerate(lines) if not line.startswith(b"#")) + 1
    head, rest = lines[:size], lines[size:]
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=3)):
        if not head:
            break
        i = data.draw(st.integers(0, len(head) - 1))
        line, text = head[i], head[i].rstrip(b"\n")
        if op == "truncate":
            head[i] = text[: data.draw(st.integers(0, max(len(text) - 1, 0)))] + b"\n"
        elif op == "flip":
            at, bit = data.draw(st.integers(0, len(line) - 1)), data.draw(st.integers(0, 7))
            head[i] = line[:at] + bytes([line[at] ^ 1 << bit]) + line[at + 1 :]
        elif op == "drop_equals":
            head[i] = line.replace(b"=", b"", 1)
        elif op == "drop":
            del head[i]
        else:
            head.insert(i, line)
    return b"".join(head + rest)


def _same_but_seed(got: str, report: str) -> bool:
    # The seed column echoes the samples file's own seed line, which no
    # checksum covers, so a mutated seed is reported as it reads: one value
    # on every row, after the clean report's other fields.
    got_lines, lines = got.split("\n"), report.split("\n")
    prefixes = [line[: line.rindex(",") + 1] for line in lines[1:-1]]
    rows = list(zip(got_lines[1:-1], prefixes))
    return (len(got_lines) == len(lines) and got_lines[0] == lines[0] and got_lines[-1] == ""
            and all(g.startswith(p) for g, p in rows) and len({g[len(p):] for g, p in rows}) == 1)


@pytest.mark.parametrize("target", ["reference", "samples"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_head_exits_two_or_reports_the_same(clean, target, data):
    files, report = clean
    mutated = dict(files, **{target: _mutate(data, files[target])})
    code, err, got = _eval(mutated["samples"], mutated["reference"])
    if code == 0:
        assert err == ""
        assert _same_but_seed(got, report)
    else:
        assert code == 2
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_selfdist_gives_the_no_file_report(clean, data):
    # Truncated, bit-flipped, or with a line dropped, repeated or without
    # its '=': the file is not believed, so the report is the one a missing
    # file gives.
    files, report = clean
    mutated = _mutate(data, files["selfdist"], whole=True)
    assert _eval(files["samples"], files["reference"], mutated) == (0, "", report)


def test_no_single_bit_flip_of_selfdist_is_believed(tmp_path):
    # Every bit of the value and checksum lines, where a flipped hex digit
    # still spells a canonical value: each flip is recomputed and the file
    # rewritten as it was. (A flip in the first two lines changes the
    # format or the key, which the file is also checked against.)
    ref = tmp_path / "ref.csv"
    save(gen_two_moons_paired(n=40, noise_sd=0.05, seed=77), ref)
    x0 = load(ref).x0
    expected = metrics.self_distance_sum(x0)
    path = ref.with_name(ref.name + metrics.SELF_SUM_SUFFIX)
    assert metrics.reference_self_sum(ref, x0) == expected
    good = path.read_bytes()
    for at in range(good.index(b"\n", good.index(b"\n") + 1) + 1, len(good)):
        for bit in range(8):
            path.write_bytes(good[:at] + bytes([good[at] ^ 1 << bit]) + good[at + 1 :])
            assert metrics.reference_self_sum(ref, x0).hex() == expected.hex()
            assert path.read_bytes() == good
