"""Each reprolint rule catches its fixture's known-bad pattern at the
expected line, and the clean fixtures stay clean."""

import os
import subprocess
import sys

from repro.lint import lint_paths

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def lint_fixture(*names):
    paths = [os.path.join(FIXTURES, name) for name in names]
    violations, checked = lint_paths(paths)
    assert checked == len(paths)
    return violations


def ids_and_lines(violations):
    return [(v.rule_id, v.line) for v in violations]


def test_lck001_flags_unlocked_read():
    violations = lint_fixture("lck001_bad.py")
    assert ids_and_lines(violations) == [("LCK001", 16)]
    assert "Counter.count" in violations[0].message
    assert "outside" in violations[0].message


def test_lck001_ignores_a_suppression_comment():
    """No rule can be silenced inline: the comment that once suppressed
    this touch is now just a comment."""
    assert ids_and_lines(lint_fixture("lck001_suppressed.py")) == [("LCK001", 16)]


def test_rel001_flags_leak_and_double_release():
    violations = lint_fixture("rel001_bad.py")
    assert ids_and_lines(violations) == [("REL001", 5), ("REL001", 15)]
    assert "never released" in violations[0].message
    assert "released again" in violations[1].message


def test_ebd001_flags_float32_bound():
    violations = lint_fixture(os.path.join("compression", "ebd001_bad.py"))
    assert ids_and_lines(violations) == [("EBD001", 7)]
    assert "float64" in violations[0].message


def test_det001_flags_clock_rng_and_set_iteration():
    violations = lint_fixture("det001_bad.py")
    assert ids_and_lines(violations) == [
        ("DET001", 10),
        ("DET001", 14),
        ("DET001", 15),
        ("DET001", 19),
    ]
    messages = " | ".join(v.message for v in violations)
    assert "time.time()" in messages
    assert "np.random.seed" in messages
    assert "hash-dependent" in messages


def test_reg001_flags_direct_codec_construction():
    violations = lint_fixture("reg001_bad.py")
    assert ids_and_lines(violations) == [("REG001", 7)]
    assert "get_codec" in violations[0].message


def test_bkd001_flags_private_kernel_references():
    violations = lint_fixture(os.path.join("compression", "szlike", "bkd001_bad.py"))
    assert ids_and_lines(violations) == [("BKD001", 3), ("BKD001", 7), ("BKD001", 11)]
    assert "get_backend" in violations[0].message
    assert "_numpy_quantize_decode" in violations[1].message
    assert "_numpy_huffman_pack_words" in violations[2].message


def test_imp001_flags_import_time_scipy_only():
    violations = lint_fixture("imp001_bad.py")
    assert ids_and_lines(violations) == [("IMP001", 4), ("IMP001", 7), ("IMP001", 13)]
    assert "'scipy'" in violations[0].message
    assert "'scipy.fft'" in violations[1].message
    assert "inside the function" in violations[2].message


def test_alloc001_flags_temporaries_allocated_in_forward_and_backward():
    violations = lint_fixture(os.path.join("nn", "layers", "alloc001_bad.py"))
    # the returned ``dx`` and the saved ``np.full`` are not flagged
    assert ids_and_lines(violations) == [("ALLOC001", 8), ("ALLOC001", 10), ("ALLOC001", 16)]
    assert "np.zeros(...) in forward()" in violations[0].message
    assert "WORKSPACE.take" in violations[2].message


def test_clean_fixtures_have_no_violations():
    violations = lint_fixture(
        "clean.py",
        "imp001_good.py",
        os.path.join("nn", "layers", "alloc001_good.py"),
        os.path.join("compression", "clean.py"),
        os.path.join("compression", "szlike", "clean.py"),
    )
    assert violations == [], "\n".join(v.format() for v in violations)


def _run_cli(*argv):
    env = dict(os.environ)
    src = os.path.join(FIXTURES, os.pardir, os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_output_and_exit_code():
    proc = _run_cli(os.path.join(FIXTURES, "reg001_bad.py"))
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == ["REG001"]
    assert lines[-1] == "reprolint: 1 violation(s) in 1 file(s)"


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in (
        "LCK001", "REL001", "EBD001", "DET001", "REG001", "BKD001", "IMP001", "ALLOC001"
    ):  # fmt: skip
        assert rule_id in proc.stdout
