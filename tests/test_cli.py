import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from szverify import cli
from szverify import fixed_set as fs
from szverify import groups as gr
from szverify import kernels as kn
from szverify.errors import BudgetExceededError


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items()
                if k != "elapsed_s"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def test_field_selftest_passes(capsys):
    rc, out, _ = run(capsys, "field-selftest", "--q", "8")
    assert rc == 0
    assert "[field" in out and "PASS" in out


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["build-group", "--budget", "200"],
    ["verify-all", "--cache-dir", "d"],
    ["verify-all", "--jobs", "2"],
], ids=["unknown-command", "no-budget-option", "no-cache-dir-option",
        "no-jobs-option"])
def test_usage_error_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as ex:
        cli.main(argv)
    assert ex.value.code == 2


def test_missing_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as ex:
        cli.main([])
    assert ex.value.code == 2


def test_enumerate_x_closed_form(capsys):
    rc, out, _ = run(capsys, "enumerate-x", "--q", "8",
                     "--mode", "closed-form")
    assert rc == 0
    assert "closed form (8 matrices):" in out
    assert len([l for l in out.splitlines() if l.startswith("  ")]) == 8


def test_enumerate_x_scan(capsys):
    rc, out, _ = run(capsys, "enumerate-x", "--q", "8", "--mode", "scan")
    assert rc == 0
    assert "scan: 456 matrices" in out


def test_enumerate_x_both_detects_mismatch(capsys, tmp_path):
    rpt = tmp_path / "x.json"
    rc, out, _ = run(capsys, "enumerate-x", "--q", "8", "--mode", "both",
                     "--report", str(rpt))
    assert rc == 3
    assert "closed form == brute force: false" in out
    payload = json.loads(rpt.read_text())
    assert payload["schema"] == "szverify-fixed-set v1"
    assert payload["scan_size"] == 456
    assert payload["equal"] is False
    assert list(payload)[0] == "schema"


def test_check_equations(capsys, tmp_path):
    rpt = tmp_path / "eq.json"
    rc, out, _ = run(capsys, "check-equations", "--q", "8",
                     "--report", str(rpt))
    assert rc == 0
    assert "scan members: 456" in out
    assert "S11" in out and "[not perpendicular]" in out
    assert "full-system solutions: 8 (closed form size 8)" in out
    payload = json.loads(rpt.read_text())
    assert payload["per_label"]["S1"] == 456
    assert payload["per_label"]["S12"] == 64
    assert payload["solutions_match_closed_form"] is True


def test_involutions_command(capsys):
    rc, out, _ = run(capsys, "involutions", "--q", "8",)
    assert rc == 0
    assert "455" in out


def test_search_rank4_exit_3(capsys, tmp_path):
    rpt = tmp_path / "r4.json"
    rc, out, _ = run(capsys, "search-rank4", "--q", "8",
                     "--report", str(rpt))
    assert rc == 3
    assert "candidates: 49, successes: 0" in out
    assert "restriction incomplete: 3 generating triple(s)" in out
    payload = json.loads(rpt.read_text())
    assert payload["schema"] == "szverify-triples v1"
    assert payload["certifies_nonexistence"] is False


def test_budget_error_is_a_defect_exit_5(capsys, monkeypatch):
    """The group is always closed with its own order as the ceiling, so
    a closure that passes it is a defect: exit 5, like any other."""
    def over(ctx, gens, ceiling):
        raise BudgetExceededError(ceiling + 1, ceiling)
    monkeypatch.setattr(gr, "closure", over)
    rc, _, err = run(capsys, "build-group", "--q", "8")
    assert rc == cli.EXIT_INTERNAL == 5
    assert "verification error" in err


def test_verify_all_exit_3_and_report(capsys, tmp_path):
    rpt1 = tmp_path / "run1.json"
    rc, out, _ = run(capsys, "verify-all", "--q", "8",
                     "--report", str(rpt1))
    assert rc == 3
    for name in ("field", "wilson", "group", "fixed-set", "involutions",
                 "rank4"):
        assert f"[{name}" in out
    assert "overall: FAIL" in out
    assert out.count("FAIL") >= 3  # fixed-set, rank4, overall
    payload = json.loads(rpt1.read_text())
    assert payload["schema"] == "szverify-run v1"
    assert [s["name"] for s in payload["stages"]] \
        == ["field", "wilson", "group", "fixed-set", "involutions", "rank4"]
    assert payload["overall"] is False
    passes = {s["name"]: s["passed"] for s in payload["stages"]}
    assert passes == {"field": True, "wilson": True, "group": True,
                      "fixed-set": False, "involutions": True,
                      "rank4": False}

    rpt2 = tmp_path / "run2.json"
    rc2, _, _ = run(capsys, "verify-all", "--q", "8",
                    "--report", str(rpt2))
    assert rc2 == 3
    a = strip_elapsed(json.loads(rpt1.read_text()))
    b = strip_elapsed(json.loads(rpt2.read_text()))
    assert a == b


# sha256 of the verify-all --q 8 report with every elapsed_s dropped,
# re-dumped with sorted keys: any change in a finding, a count or a
# verdict shows here.  Only a change meant to alter the report may
# record a new digest.
VERIFY_ALL_Q8_DIGEST = \
    "74a0ba025f8df0fd2fc328c29b48c9bddf67276767970a965b35042eaabe6f7a"


def test_verify_all_q8_report_pinned(capsys, tmp_path):
    rpt = tmp_path / "run.json"
    rc, _, _ = run(capsys, "verify-all", "--q", "8", "--report", str(rpt))
    assert rc == 3
    body = json.dumps(strip_elapsed(json.loads(rpt.read_text())),
                      sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == VERIFY_ALL_Q8_DIGEST


# sha256 of stdout, with the "(  0.00s)" stage timings cut out, and of
# the --report JSON, with every elapsed_s dropped and keys sorted, for
# each of the other subcommands at q = 8.
SUBCOMMAND_Q8_DIGESTS = {
    "verify-all": (
        3, "f29904b06f870cc4aa94fdd1ab8c0f3b0b1055b0a7c6fd4d7a1fa4ee1ddd0a37",
        VERIFY_ALL_Q8_DIGEST),
    "field-selftest": (
        0, "cdc9289753e5f0918575a2d3ee21b897580d0b2e2c2ab563f414f601b24a8eac",
        "032cb3fe09189fcd12d524bbd887f80d0338acb333e860b66566a0e65ba3faca"),
    "build-group": (
        0, "d0db901b50d2c1633b8b5ab481e424cf4ca3d7d417a0f26abec3608d6fb8d177",
        "e4272c596c29e8330f5b8b2b2c7f2d96ea0605691587df1f9a0822739d21f30b"),
    "involutions": (
        0, "b4451df17c7ccd0f439dd250c432573f71107224173e28d49f484e7a1b7d49f5",
        "e530d804ceb3a5a3538715760bd9b9cf11956f1d24fb51a5b4876409bf8640b6"),
    "search-rank4": (
        3, "cfc2eef5fd333d1fcda7c3291946dc8ff21991845faeda46a02791c1b2c40366",
        "f87486fe13ddfb64bc78c5ef9ba21948160ceaa7151e33096aece104acaeeb5d"),
    "enumerate-x": (
        3, "5c16b6290467ee7f32ce0631589445018d9198fab2a8abe5ce88e19313562747",
        "3f87214e12d671465e5def1e353c1f5dc20fe33144d7af9987dc3f0a1f82cdbd"),
    "check-equations": (
        0, "a8b395cb732a316dd84ed5036e61c164bb11997ec3af8b8b5be4fe6c63c99001",
        "d16404d7fe097b379f369f78409953dc104241b931c51670a7d86e99de869cb5"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_Q8_DIGESTS))
def test_subcommand_q8_pinned(capsys, tmp_path, command):
    rpt = tmp_path / "run.json"
    extra = ["--mode", "both"] if command == "enumerate-x" else []
    rc, out, _ = run(capsys, command, "--q", "8", *extra,
                     "--report", str(rpt))
    out = re.sub(r"\(\s*\d+\.\d+s\)", "", out)
    body = json.dumps(strip_elapsed(json.loads(rpt.read_text())),
                      sort_keys=True)
    assert (rc, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(body.encode()).hexdigest()) \
        == SUBCOMMAND_Q8_DIGESTS[command]


def test_verify_all_scans_fixed_points_once(capsys, monkeypatch):
    """One verify-all makes one whole-group fixed-point pass: the
    fixed-set stage, the involutions and the rank-4 walk all read
    GroupSet.fixed_points, and no whole-group involution_mask pass is
    made.  The rank-4 searches also call both kernels, on their own
    triples only: no call may reach the group's 29,120 rows."""
    rows = {"fixed_point_mask": [], "involution_mask": []}
    for name in rows:
        def counted(ctx, ents, _name=name, _fn=getattr(kn, name)):
            rows[_name].append(len(ents.reshape(-1, 16)))
            return _fn(ctx, ents)
        monkeypatch.setattr(kn, name, counted)
    rc, _, _ = run(capsys, "verify-all", "--q", "8")
    assert rc == 3
    whole = {name: [n for n in ns if n >= 29120] for name, ns in rows.items()}
    assert whole == {"fixed_point_mask": [29120], "involution_mask": []}


def test_fixed_set_stage_fails_on_an_asymmetric_member():
    """A scan member that is not symmetric fails the fixed-set stage
    with scan_all_symmetric false, rather than raise from the census:
    the census runs on the symmetric members, and the equations holding
    on every member are null.  The group is a stand-in whose scan is
    the closed form plus one asymmetric row."""
    state = cli.RunState(argparse.Namespace(q=8))
    closed = fs.closed_form_X(state.ctx)
    asym = (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    state.__dict__["group"] = types.SimpleNamespace(
        fixed_points=np.concatenate([closed, kn.mats_to_entries([asym])]))
    res = state.stage("fixed-set")
    assert not res.passed
    assert res.findings["scan_all_symmetric"] is False
    assert res.findings["equations_holding_on_every_scan_member"] is None
    assert res.findings["full_system_solutions"] == len(closed)
    assert res.findings["full_system_solutions_equal_closed_form"]


def test_check_equations_fails_on_an_asymmetric_member(capsys,
                                                      monkeypatch):
    """check-equations runs the census on the symmetric scan members, as
    the fixed-set stage does, and fails with exit 3 on an asymmetric
    one rather than raise from the census.  The group is the stand-in of
    test_fixed_set_stage_fails_on_an_asymmetric_member."""
    ctx = cli.make_context(1)
    closed = fs.closed_form_X(ctx)
    asym = (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    monkeypatch.setattr(gr, "build_suzuki", lambda ctx: types.SimpleNamespace(
        fixed_points=np.concatenate([closed, kn.mats_to_entries([asym])])))
    rc, out, _ = run(capsys, "check-equations", "--q", "8")
    assert rc == 3
    assert f"scan members: {len(closed)}" in out
    assert "asymmetric scan members, outside the system: 1" in out


def test_report_in_missing_directory_is_a_usage_error(capsys, tmp_path):
    """Refused before the first stage runs (it prints nothing), with
    exit 2 and a one-line message: a report whose directory is missing,
    and a report path that is an existing directory."""
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        rc, out, err = run(capsys, "field-selftest", "--report", str(path))
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_unwritable_report_is_a_usage_error(capsys, tmp_path, monkeypatch):
    """A report szverify may not write, an existing file or a new one in
    a directory it may not write to, is refused before the first stage
    with exit 2.  Under root no mode bit denies a write, so os.access
    is made to deny it."""
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    existing = tmp_path / "old.json"
    existing.write_text("{}\n")
    for path in (existing, tmp_path / "new.json"):
        rc, out, err = run(capsys, "field-selftest", "--report", str(path))
        assert rc == 2
        assert out == ""
        assert "not writable" in err and len(err.splitlines()) == 1
    assert existing.read_text() == "{}\n"
    assert sorted(tmp_path.iterdir()) == [existing]


def _python(*argv):
    """Run a fresh interpreter with the package's source tree on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_package_runs_as_a_module():
    out = _python("-m", "szverify", "field-selftest", "--q", "8")
    assert out.returncode == 0, out.stderr
    assert "[field" in out.stdout and "PASS" in out.stdout


def test_verify_all_imports_no_numpy_ma():
    """A cold verify-all never imports numpy.ma: np.unique(..., axis=0)
    pulls it in at numpy 2.4, some 15 ms of import, so the engine
    deduplicates matrices by their sort keys instead."""
    probe = ("import sys\n"
             "from szverify import cli\n"
             "rc = cli.main(['verify-all', '--q', '8'])\n"
             "print(rc, 'numpy.ma' in sys.modules)\n")
    out = _python("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "3 False"
