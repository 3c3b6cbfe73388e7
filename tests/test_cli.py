"""CLI behavior, exit codes, and byte-stable report output."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ringcent import NotAssociative, enumerate_rings
from ringcent.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_inspect_gallery_ring(capsys):
    code, out = run_cli(capsys, "inspect", "gallery:row_ring:3")
    assert code == 0
    assert "|Cent(R)|: 5" in out
    assert "d(R): 11/27" in out
    assert "R/Z(R): Z_3 x Z_3" in out


def test_inspect_json_golden(capsys):
    code, out = run_cli(capsys, "inspect", "gallery:four_element_matrix_ring",
                        "--json")
    assert code == 0
    assert out == (GOLDEN / "inspect_four_element_matrix_ring.json").read_text()


def test_inspect_quaternion_golden(capsys):
    code, out = run_cli(capsys, "inspect", "gallery:quaternion_ring:3", "--json")
    assert code == 0
    assert out == (GOLDEN / "inspect_quaternion_3.json").read_text()


def test_inspect_spec_file(tmp_path, capsys):
    from ringcent.gallery import modular_ring

    path = tmp_path / "z9.json"
    modular_ring(9).spec().save(path)
    code, out = run_cli(capsys, "inspect", str(path))
    assert code == 0
    assert "|Cent(R)|: 1" in out
    assert "d(R): 1" in out


def test_gallery_emit_round_trip(tmp_path, capsys):
    path = tmp_path / "ut2.json"
    code, _ = run_cli(capsys, "inspect", "gallery:upper_triangular_ring:2",
                      "--emit", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["order"] == 8
    code, out = run_cli(capsys, "inspect", str(path))
    assert code == 0
    assert "|Cent(R)|: 4" in out


def test_product_emit_round_trips_through_the_full_proof(tmp_path, capsys):
    from ringcent.gallery import direct_product, row_ring
    from ringcent.rings import load_ring

    path = tmp_path / "r2xr3.json"
    code, _ = run_cli(capsys, "product", "gallery:row_ring:2", "gallery:row_ring:3",
                      "--emit", str(path))
    assert code == 0
    loaded = load_ring(path)  # validate proves every law on load
    built = direct_product(row_ring(2), row_ring(3))
    assert loaded.proved and loaded.label == built.label
    assert np.array_equal(loaded.add, built.add)
    assert np.array_equal(loaded.mul, built.mul)


def test_gallery_bad_param_exit_code(capsys):
    code = main(["inspect", "gallery:row_ring:9"])
    err = capsys.readouterr().err
    assert code == 2
    assert "NotPrime" in err


def test_inspect_catalog_token_reports_the_zero_ring(capsys):
    code, out = run_cli(capsys, "inspect", "catalog:1")
    assert code == 0
    assert "order: 1" in out
    assert "|Cent(R)|: 1" in out
    assert "Z(R) = [0]" in out


def test_verify_one_gallery_ring(capsys):
    code, out = run_cli(capsys, "verify", "--universe", "gallery:row_ring:3",
                        "--json", "--no-timing")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 17 and all(doc["passed"] for doc in docs)
    assert {doc["universe"] for doc in docs} == {"ring gallery:row_ring:3"}
    assert max(doc["checked"] for doc in docs) == 1


@pytest.mark.parametrize("argv", [
    ["gallery", "row_ring"],
    ["inspect", "gallery:row_ring:3", "--json", "--emit", "r3.json"],
])
def test_gallery_verb_and_json_with_emit_are_usage_errors(argv, capsys,
                                                          tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "r3.json").exists()


MALFORMED_SPECS = {
    "ragged": '{"add": [[0, 1], [1]], "mul": [[0, 0], [0, 0]]}',
    "no_mul": '{"add": [[0, 1], [1, 0]]}',
    "truncated": '{"add": [[0, 1], [1, 0]], "mul": [[0, 0],',
    "bad_group": '{"group": [2, "x"], "mul_constants": []}',
    "scalar_table": '{"add": 5, "mul": 5}',
    "float_table": '{"add": [[0, 1.7], [1.2, 0]], "mul": [[0, 0], [0, 0]]}',
    "float_group": '{"group": [2.5], "mul_constants": [[[0]]]}',
    "float_constants": '{"group": [2], "mul_constants": [[[1.5]]]}',
    "array_spec": "[1, 2]",
    "nested_group": '{"group": [[2]], "mul_constants": [[[0]]]}',
    "unit_group": '{"group": [1], "mul_constants": [[[0]]]}',
}


@pytest.mark.parametrize("label", ["3", '["r"]', "{}", "true"],
                         ids=["int", "list", "object", "bool"])
def test_inspect_rejects_a_label_that_is_not_a_string(tmp_path, capsys, label):
    # verify names its violation dumps after the label, so it must be text
    path = tmp_path / "spec.json"
    path.write_text('{"label": %s, "add": [[0, 1], [1, 0]], '
                    '"mul": [[0, 0], [0, 0]]}' % label)
    code = main(["inspect", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ValidationError: ")


# catalog directories whose manifest.json is absent (None), not JSON, JSON
# without an order, with a listing of the wrong shape, with a count that is
# no integer, or marked incomplete
MALFORMED_MANIFESTS = {
    "no_manifest": None,
    "truncated_manifest": '{"order": 4, "complete": tr',
    "list_manifest": "[1, 2]",
    "orderless_manifest": '{"complete": true, "rings": []}',
    "bad_type_manifest": '{"order": 4, "complete": true, "per_type_raw": {"2xa": 1}}',
    "scalar_rings_manifest": '{"order": 4, "complete": true, "rings": 5}',
    "string_count_manifest": '{"order": 4, "complete": true, "classes": 0, '
                             '"per_type_raw": {"4": "7"}}',
    "incomplete_manifest": '{"order": 4, "complete": false}',
}


BAD_INPUTS = {
    **{name: ["inspect", f"{{dir}}/{name}.json"] for name in MALFORMED_SPECS},
    **{name: ["verify", "--universe", f"{{dir}}/{name}"]
       for name in MALFORMED_MANIFESTS},
    "missing_file": ["inspect", "{dir}/missing.json"],
    "catalog_abc": ["verify", "--universe", "catalog:abc"],
    "gallery_param_x": ["inspect", "gallery:row_ring:x"],
    "gallery_nosuch": ["inspect", "gallery:nosuch"],
    "gallery_param_unused": ["inspect", "gallery:four_element_matrix_ring:7"],
    "gallery_four_fields": ["inspect", "gallery:row_ring:3:9"],
    "catalog_many_rings": ["inspect", "catalog:2"],
    # files that cannot be written
    "inspect_emit_no_dir": ["inspect", "gallery:row_ring:2",
                            "--emit", "{dir}/missing/x.json"],
    "product_emit_no_dir": ["product", "gallery:row_ring:2", "gallery:row_ring:2",
                            "--emit", "{dir}/missing/x.json"],
    "enumerate_out_is_a_file": ["enumerate", "--order", "2",
                                "--out", "{dir}/ragged.json"],
    "enumerate_order_0": ["enumerate", "--order", "0"],
}


@pytest.mark.parametrize("argv", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
def test_malformed_input_is_one_error_line_and_exit_2(tmp_path, capsys, argv):
    for name, text in MALFORMED_SPECS.items():
        (tmp_path / f"{name}.json").write_text(text)
    for name, text in MALFORMED_MANIFESTS.items():
        (tmp_path / name).mkdir()
        if text is not None:
            (tmp_path / name / "manifest.json").write_text(text)
    code = main([a.format(dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("classes", 1.0), ("classes", True), ("raw_total", 1.0), ("raw_total", True)])
def test_manifest_counts_must_be_json_integers(tmp_path, capsys, field, value):
    # the order-1 catalog has 1 class and 1 raw ring, which 1.0 and true equal
    enumerate_rings(1, out_dir=str(tmp_path))
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc[field] = value
    manifest.write_text(json.dumps(doc))
    code = main(["verify", "--universe", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"error: RingError: catalog at {tmp_path}: manifest.json {field} is "
        f"{json.dumps(value)}, not an integer"]


def test_a_catalog_ring_file_of_another_order_is_refused(tmp_path, capsys):
    enumerate_rings(4, out_dir=str(tmp_path / "o4"))
    enumerate_rings(2, out_dir=str(tmp_path / "o2"))
    stray = tmp_path / "o4" / "rings" / "o4_c003.json"
    stray.write_text((tmp_path / "o2" / "rings" / "o2_c000.json").read_text())
    code = main(["verify", "--universe", str(tmp_path / "o4")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: RingError: catalog at {tmp_path / 'o4'}: "
        f"{Path('rings', 'o4_c003.json')} holds a ring of order 2, not 4"]


def test_a_catalog_ring_file_listed_twice_is_refused(tmp_path, capsys):
    # the class count still matches the length of the list
    enumerate_rings(4, out_dir=str(tmp_path))
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["rings"][5] = doc["rings"][2]
    manifest.write_text(json.dumps(doc))
    code = main(["verify", "--universe", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: RingError: catalog at {tmp_path}: manifest.json does not "
        "list the files of its 11 classes"]


# manifest entries that name another file than enumerate writes for the class,
# by index: one absolute path twice, a repeat through "..", and a ring file of
# the same order from outside the catalog
@pytest.mark.parametrize("entries", [
    {2: "{other}/rings/o4_c002.json", 5: "{other}/rings/o4_c002.json"},
    {5: "rings/../rings/o4_c002.json"},
    {5: "../other/rings/o4_c005.json"},
], ids=["absolute_twice", "dotdot_repeat", "outside"])
def test_a_manifest_listing_other_files_is_refused(tmp_path, capsys, entries):
    enumerate_rings(4, out_dir=str(tmp_path / "cat"))
    enumerate_rings(4, out_dir=str(tmp_path / "other"))
    manifest = tmp_path / "cat" / "manifest.json"
    doc = json.loads(manifest.read_text())
    for i, entry in entries.items():
        doc["rings"][i] = entry.format(other=tmp_path / "other")
    manifest.write_text(json.dumps(doc))
    code = main(["verify", "--universe", str(tmp_path / "cat"),
                 "--suite", "T1_no_2_3"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: RingError: catalog at {tmp_path / 'cat'}: manifest.json does "
        "not list the files of its 11 classes"]


def test_a_catalog_ring_file_that_breaks_a_law_is_named(tmp_path, capsys):
    enumerate_rings(2, out_dir=str(tmp_path))
    ring_file = tmp_path / "rings" / "o2_c001.json"
    doc = json.loads(ring_file.read_text())
    doc["mul"] = [[0, 1], [1, 0]]
    ring_file.write_text(json.dumps(doc))
    code = main(["verify", "--universe", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: NotDistributive: catalog at {tmp_path}: rings/o2_c001.json: "
        "left distributivity fails at triple (1, 0, 0)"]


def test_catalog_universe_above_the_cap_fails_before_searching(capsys):
    start = time.monotonic()
    code = main(["verify", "--universe", "catalog:17"])
    err = capsys.readouterr().err
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert err.startswith("error: TooLarge: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
def test_bad_time_budget_env_exit_code(capsys, monkeypatch, raw):
    monkeypatch.setenv("RINGCENT_TIME_BUDGET_SECS", raw)
    code = main(["enumerate", "--order", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "RINGCENT_TIME_BUDGET_SECS" in err and repr(raw) in err


def test_enumerate_and_verify_catalog_dir(tmp_path, capsys):
    out_dir = tmp_path / "cat4"
    code, out = run_cli(capsys, "enumerate", "--order", "4",
                        "--out", str(out_dir))
    assert code == 0
    assert "11 isomorphism classes" in out
    code, out = run_cli(capsys, "verify", "--suite", "all",
                        "--universe", str(out_dir), "--no-timing")
    assert code == 0
    assert "VIOLATION" not in out


def test_verify_catalog_universe_takes_its_order_from_the_token(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all",
                        "--universe", "catalog:4", "--json", "--no-timing")
    assert code == 0
    docs = json.loads(out)
    assert {doc["universe"] for doc in docs} == {"catalog orders 1..4"}


@pytest.mark.parametrize("argv", [
    ["verify", "--universe", "catalog", "--max-order", "4"],
    ["inspect", "gallery:row_ring", "--p", "3"],
])
def test_duplicate_order_and_parameter_flags_are_gone(argv, capsys):
    # the order is given by catalog:N, the parameter by gallery:NAME:P
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_enumerate_resume(tmp_path, capsys):
    out_dir = tmp_path / "cat6"
    run_cli(capsys, "enumerate", "--order", "6", "--out", str(out_dir))
    code, out = run_cli(capsys, "enumerate", "--order", "6",
                        "--out", str(out_dir), "--resume")
    assert code == 0
    assert "4 isomorphism classes" in out


# Aut(Z_2 x Z_2)-orbits of rows (g1 g1, g1 g2, g2 g1, g2 g2), each of 6 rows
ASSOCIATIVE_ORBIT = [[0, 0, 0, 1], [0, 0, 0, 3], [1, 1, 1, 1],
                     [2, 0, 0, 0], [2, 2, 2, 2], [3, 0, 0, 0]]
NONASSOCIATIVE_ORBIT = [[0, 0, 1, 0], [0, 0, 3, 3], [0, 2, 0, 0],
                        [0, 2, 0, 2], [1, 0, 1, 0], [3, 3, 0, 0]]


def test_enumerate_resume_validates_the_rows_of_part_files(tmp_path, capsys):
    # a part file is input: an associative orbit swapped for a non-associative
    # one of the same size passes the orbit guard, and the class proof
    # rejects it
    out_dir = tmp_path / "cat4"
    run_cli(capsys, "enumerate", "--order", "4", "--out", str(out_dir))
    part = out_dir / "parts" / "t2x2.json"
    doc = json.loads(part.read_text())
    rows = doc["assignments"]
    for old, new in zip(ASSOCIATIVE_ORBIT, NONASSOCIATIVE_ORBIT):
        rows[rows.index(old)] = new
    part.write_text(json.dumps(doc))
    with pytest.raises(NotAssociative):
        enumerate_rings(4, out_dir=str(out_dir), resume=True)
    code = main(["enumerate", "--order", "4", "--out", str(out_dir), "--resume"])
    assert code == 2
    # the kernels' message on the class's canonical table, not on the raw
    # row, whose first failing triple is (1, 2, 2)
    assert capsys.readouterr().err.splitlines() == [
        "error: NotAssociative: multiplication not associative at triple (2, 1, 1)"]


def test_enumerate_resume_without_out_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--order", "4", "--resume"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--resume needs --out" in captured.err
    assert captured.out == ""


def test_search_empty_and_nonempty(capsys):
    code, out = run_cli(capsys, "search", "--cent", "2", "--max-order", "8")
    assert code == 0
    assert "no ring" in out
    code, out = run_cli(capsys, "search", "--cent", "4", "--max-order", "4")
    assert code == 0
    assert "order 4" in out


def test_verify_gallery_golden(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all",
                        "--universe", "gallery", "--json", "--no-timing")
    assert code == 0
    assert out == (GOLDEN / "verify_gallery.json").read_text()


# the rings each suite checks on the catalog of orders 1..13: coverage must
# not fall silently
CATALOG_IN_SCOPE = {
    "D_58": 117, "D_bound": 26, "D_conv": 22, "D_rc": 26,
    "L1_intersection": 117, "L2_union": 26, "L3_two_subrings": 116,
    "L4_index2": 21, "L5C2_counting": 2, "P2_product": 60, "T1_no_2_3": 117,
    "T_4c": 117, "T_5c": 117, "T_dc": 117, "T_p2": 4, "T_p3_unital": 1,
    "T_pring": 22,
}


def test_verify_catalog_in_scope_counts(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all",
                        "--universe", "catalog", "--json", "--no-timing")
    assert code == 0
    assert {doc["suite"]: doc["checked"] for doc in json.loads(out)} \
        == CATALOG_IN_SCOPE


def test_verify_dumps_violations_and_exits_nonzero(tmp_path, capsys, monkeypatch):
    # corrupt a larger ring so suites (not validation) must flag it
    from ringcent.gallery import row_ring

    monkeypatch.chdir(tmp_path)
    doc = row_ring(3).spec().to_json()
    doc["mul"][1][2] = (doc["mul"][1][2] + 3) % 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    # the corrupted table is not a valid ring: loading it must fail loudly
    code = main(["verify", "--suite", "all", "--universe", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_product_verb(capsys):
    code, out = run_cli(capsys, "product", "gallery:row_ring:2",
                        "gallery:row_ring:3")
    assert code == 0
    assert "order: 36" in out
    assert "|Cent(R)|: 20" in out


def test_verify_violation_dump_path(tmp_path, capsys, monkeypatch):
    # theorems never fail on valid rings, so plant a failing suite to
    # exercise the dump machinery and the nonzero exit code
    import ringcent.suites as suites_mod

    def always_fails(rings, violations):
        for R in rings:
            suites_mod._report(violations, R, "impossible", "by design")
        return len(rings)

    monkeypatch.setitem(suites_mod.SUITES, "planted_failure", always_fails)
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "verify", "--suite", "planted_failure",
                        "--universe", "gallery", "--no-timing",
                        "--dump-dir", str(tmp_path / "dumps"))
    assert code == 1
    assert "VIOLATIONS" in out
    dumped = list((tmp_path / "dumps").glob("planted_failure_*.json"))
    assert dumped
    doc = json.loads(dumped[0].read_text())
    assert "mul" in doc and "add" in doc


def test_violation_dump_stays_in_the_dump_dir_whatever_the_label(
        tmp_path, capsys, monkeypatch):
    # the label comes from the spec file; its path separators must not
    # steer the dump out of --dump-dir, nor into a missing directory
    import ringcent.suites as suites_mod
    from ringcent.gallery import row_ring
    from ringcent.rings import FiniteRing

    def always_fails(rings, violations):
        for R in rings:
            suites_mod._report(violations, R, "impossible", "by design")
        return len(rings)

    monkeypatch.setitem(suites_mod.SUITES, "planted_failure", always_fails)

    R = row_ring(2)
    spec = tmp_path / "ring.json"
    FiniteRing(R.add, R.mul, "../escaped").spec().save(spec)
    dumps = tmp_path / "out" / "d"
    code, _ = run_cli(capsys, "verify", "--suite", "planted_failure",
                      "--universe", str(spec), "--dump-dir", str(dumps))
    assert code == 1
    assert [p.name for p in dumps.iterdir()] == ["planted_failure_.._escaped.json"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["d"]
    doc = json.loads((dumps / "planted_failure_.._escaped.json").read_text())
    assert doc["label"] == "../escaped"


def test_reader_that_closes_early_gets_no_traceback():
    # the read end is closed before the command starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = ["inspect", "gallery:quaternion_ring:3", "--json"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ringcent.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


def _readme_cli_lines():
    """The `ringcent ...` lines of the README's CLI block, comments cut."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("ringcent ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_parse(line):
    # each line must parse with its optional [...] parts dropped and kept
    parser = build_parser()
    for text in (re.sub(r"\[[^]]*\]", "", line), re.sub(r"[][]", "", line)):
        try:
            parser.parse_args(shlex.split(text)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {text}")


def test_enumerate_resume_into_a_catalog_of_another_order_fails(tmp_path, capsys):
    # resuming would rewrite the manifest and orphan the order-4 files
    out_dir = tmp_path / "cat4"
    run_cli(capsys, "enumerate", "--order", "4", "--out", str(out_dir))
    manifest = (out_dir / "manifest.json").read_bytes()
    files = sorted(out_dir.rglob("*"))
    code = main(["enumerate", "--order", "5", "--out", str(out_dir), "--resume"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: RingError: cannot resume order 5 ")
    assert "catalog of order 4" in err
    assert (out_dir / "manifest.json").read_bytes() == manifest
    assert sorted(out_dir.rglob("*")) == files


def test_enumerate_over_a_catalog_of_another_order_fails(tmp_path, capsys):
    # without --resume the run would write over the manifest just the same
    out_dir = tmp_path / "cat4"
    run_cli(capsys, "enumerate", "--order", "4", "--out", str(out_dir))
    manifest = (out_dir / "manifest.json").read_bytes()
    files = sorted(out_dir.rglob("*"))
    code = main(["enumerate", "--order", "5", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: RingError: cannot write order 5 ")
    assert "catalog of order 4" in err
    assert (out_dir / "manifest.json").read_bytes() == manifest
    assert sorted(out_dir.rglob("*")) == files


def _schema_1_catalog(capsys, out_dir):
    """A complete order-4 catalog under a schema-1 manifest: the same rings
    and counts, with a journal of g1*g1 partitions in place of group types.
    Returns the manifest's bytes."""
    run_cli(capsys, "enumerate", "--order", "4", "--out", str(out_dir))
    manifest = out_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["schema"] = 1
    doc["partitions"] = [
        {"factors": e["factors"], "g11": 0, "raw_count": e["raw_count"],
         "status": "done", "file": e["file"].replace(".json", "_g00.json")}
        for e in doc.pop("types")]
    manifest.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return manifest.read_bytes()


@pytest.mark.parametrize("verb", ["write", "resume"])
def test_enumerate_refuses_a_schema_1_journal(tmp_path, capsys, verb):
    # its part files are not the group types' parts, and writing over the
    # manifest would orphan them
    out_dir = tmp_path / "cat4"
    manifest = _schema_1_catalog(capsys, out_dir)
    files = sorted(out_dir.rglob("*"))
    code = main(["enumerate", "--order", "4", "--out", str(out_dir)]
                + (["--resume"] if verb == "resume" else []))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: RingError: cannot {verb} order 4 ")
    assert "has schema 1, not 2" in err and len(err.splitlines()) == 1
    assert (out_dir / "manifest.json").read_bytes() == manifest
    assert sorted(out_dir.rglob("*")) == files


def test_verify_loads_a_complete_schema_1_catalog(tmp_path, capsys):
    out_dir = tmp_path / "cat4"
    _schema_1_catalog(capsys, out_dir)
    code, out = run_cli(capsys, "verify", "--suite", "all", "--universe",
                        str(out_dir), "--json", "--no-timing")
    docs = {doc["suite"]: doc for doc in json.loads(out)}
    assert code == 0 and all(doc["passed"] for doc in docs.values())
    assert docs["D_58"]["checked"] == 11  # one check per ring
