"""Byte-exact golden outputs of the CLI and of ``scripts/probe_gallery.py``.

Every case's standard output is compared with ``tests/golden/<name>.out``,
or, for outputs above ``SHA_ABOVE`` bytes, with the SHA-256 of its bytes in
``tests/golden/<name>.sha256``. The exit code of every CLI case is part of
the case. After an intended change of output, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import contextlib
import hashlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from secantplane.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SHA_ABOVE = 20_000

# The functions of scripts/probe_gallery.py as expressions: (name, expression,
# point, companions a and b for estimate, --seqs or None, probe exit code).
# The kinked ones are probed from opposite sides, as the gallery does.
OPPOSITE = "radial:1,0;radial:-1,0"
GALLERY = [
    ("square-origin", "x^2+y^2", "0,0", "0.01,0", "0.005,0.01", None, 0),
    ("square-12", "x^2+y^2", "1,2", "1.01,2", "1.005,2.01", None, 0),
    ("sincos", "sin(x)*cos(y)", "0.5,0.2", "0.51,0.2", "0.505,0.21", None, 0),
    ("abs", "abs(x)", "0,0", "0.01,0", "0.005,0.01", OPPOSITE, 4),
    ("cone", "sqrt(x^2+y^2)", "0,0", "0.01,0", "0.005,0.01", OPPOSITE, 4),
]
FORMATS = ("json", "csv", "table")
COLLAPSING = "counterexample:ab;counterexample:ac"


def _cases():
    """(name, argv, exit code) of every CLI case."""
    cases = []
    for name, source, point, a, b, seqs, probe_code in GALLERY:
        for fmt in FORMATS:
            cases.append((f"estimate-{name}-{fmt}",
                          ["estimate", "--function", source, "--point", point,
                           "--a", a, "--b", b, "--format", fmt], 0))
            argv = ["probe", "--function", source, "--point", point, "--format", fmt]
            if seqs is not None:
                argv += ["--seqs", seqs]
            cases.append((f"probe-{name}-{fmt}", argv, probe_code))
    for steps, code in (("40", 5), ("2000", 4)):
        for fmt in FORMATS:
            cases.append((f"probe-collapsing-steps{steps}-{fmt}",
                          ["probe", "--function", "x^2+y^2", "--point", "0,0",
                           "--seqs", COLLAPSING, "--steps", steps, "--format", fmt], code))
    # The random spec's floor: raised by --p above its minimum, defaulted and
    # set explicitly in a --seqs entry.
    for name, extra in (("p08", ["--p", "0.8"]),
                        ("random-seed3", ["--seqs", "radial:0,1;random:seed=3"]),
                        ("random-floor09", ["--seqs", "radial:1,1;random:seed=1,floor=0.9"])):
        cases.append((f"probe-square-12-{name}-json",
                       ["probe", "--function", "x^2+y^2", "--point", "1,2",
                        "--format", "json", *extra], 0))
    for kmax in ("10", "1000"):
        for fmt in FORMATS:
            cases.append((f"counterexample-kmax{kmax}-{fmt}",
                          ["counterexample", "--kmax", kmax, "--format", fmt], 0))
    return cases


CASES = _cases()


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


def _run_gallery():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(ROOT / "scripts" / "probe_gallery.py"), run_name="__main__")
    return buf.getvalue().encode("utf-8")


def _check(name, data):
    path = GOLDEN / f"{name}.out"
    if path.exists():
        assert data == path.read_bytes(), f"{name}: output differs from {path.name}"
    else:
        want = (GOLDEN / f"{name}.sha256").read_text().split()[0]
        assert hashlib.sha256(data).hexdigest() == want, f"{name}: SHA-256 differs"


def _write(name, data):
    for suffix in (".out", ".sha256"):
        (GOLDEN / f"{name}{suffix}").unlink(missing_ok=True)
    if len(data) > SHA_ABOVE:
        digest = hashlib.sha256(data).hexdigest()
        (GOLDEN / f"{name}.sha256").write_text(f"{digest}  {len(data)} bytes\n")
    else:
        (GOLDEN / f"{name}.out").write_bytes(data)


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_byte_exact(name, argv, code):
    got_code, data = _run_cli(argv)
    assert got_code == code
    _check(name, data)


def test_probe_gallery_output_is_byte_exact():
    _check("probe-gallery", _run_gallery())


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        got_code, data = _run_cli(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, the case says {code}")
        _write(name, data)
    _write("probe-gallery", _run_gallery())


if __name__ == "__main__":
    regenerate()
