"""End-to-end coverage of the command line front end.

Fixtures live in temp dirs; reports are checked as parsed key=value maps
plus raw-byte determinism.  Exit statuses: 0 ok, 2 malformed input,
3 failed precondition, 4 violated internal invariant.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grkoszul
from grkoszul import cli, selftest
from grkoszul.algebra_core import build_algebra
from grkoszul.exactlin import QQ, FieldSpec

B5_QALG = """\
# two-vertex cycle with one nilpotency relation
field Q
vertex 1 length=0 weight=3
vertex 2 length=1 weight=5
arrow a 1 2
arrow b 2 1
relation 1*b*a
order 1 < 2
duality a:b b:a
"""

CUBIC_QALG = """\
field Q
vertex v length=0
arrow x v v
relation 1*x*x*x
"""

# a Q algebra whose relation and module have non-integral coefficients
FRACTIONAL_QALG = """\
field Q
vertex v length=0
arrow x v v
arrow y v v
relation 1*x*y + -3/2*y*x
relation 1*x*x
relation 1*y*y
"""

FRACTIONAL_QREP = """\
vertexdim v 2
matrix x
0 0
3/2 0
matrix y
0 0
1 0
"""

def cube_qalg(field_line):
    """k<x,y>/(all eight cubes) over the given field."""
    words = [(a, b, c) for a in "xy" for b in "xy" for c in "xy"]
    return "\n".join([field_line, "vertex v", "arrow x v v", "arrow y v v"]
                     + ["relation 1*%s" % "*".join(w) for w in words]) + "\n"


CUBE_SIMPLE_QREP = "vertexdim v 1\nmatrix x\n0\nmatrix y\n0\n"

# k^3 with x: e1 -> e2 -> e3 and y: e1 -> e3; y lands two layers down, so gr
# kills it and the restriction to the whole cube algebra is not gradable
CUBE_NONGRADABLE_QREP = """\
vertexdim v 3
matrix x
0 0 0
1 0 0
0 1 0
matrix y
0 0 0
0 0 0
1 0 0
"""

# the A1 double chain at n = 4 (tests/test_qha_engine.py::a1_chain_with_duality)
# with the order i+1 < i and the lengths 4 - i, as `write_qalg` renders it
CHAIN4_QALG = """\
field Q
vertex 1 length=3
vertex 2 length=2
vertex 3 length=1
vertex 4 length=0
arrow a1 1 2
arrow a2 2 3
arrow a3 3 4
arrow b1 2 1
arrow b2 3 2
arrow b3 4 3
relation 1*a1*b1
relation 1*a2*b2 + -1*b1*a1
relation 1*a3*b3 + -1*b2*a2
order 2 < 1
order 3 < 2
order 4 < 3
duality a1:b1 b1:a1 a2:b2 b2:a2 a3:b3 b3:a3
"""

DELTA2_QREP = """\
vertexdim 1 1
vertexdim 2 1
matrix a
0
matrix b
1
"""


@pytest.fixture
def b5_path(tmp_path):
    p = tmp_path / "b5.qalg"
    p.write_text(B5_QALG)
    return p


@pytest.fixture
def cubic_path(tmp_path):
    p = tmp_path / "cubic.qalg"
    p.write_text(CUBIC_QALG)
    return p


@pytest.fixture
def delta2_path(tmp_path):
    p = tmp_path / "delta2.qrep"
    p.write_text(DELTA2_QREP)
    return p


def run_cli(args, capsys):
    status = cli.main([str(a) for a in args])
    out = capsys.readouterr().out
    return status, out


def report_map(text):
    """key=value lines as a dict; repeated keys keep the last value."""
    pairs = {}
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        key, sep, value = line.partition("=")
        assert sep, "non-comment line without '=': %r" % line
        pairs[key] = value
    return pairs


# -- file format round trips -----------------------------------------------------------


def test_qalg_round_trip():
    pres = cli.parse_qalg(B5_QALG)
    again = cli.parse_qalg(cli.write_qalg(pres))
    assert again == pres


def test_qalg_round_trip_modular():
    text = "field F 5\nvertex v\narrow x v v\nrelation 3/2*x*x\n"
    pres = cli.parse_qalg(text)
    assert pres.field == FieldSpec(5)
    assert cli.parse_qalg(cli.write_qalg(pres)) == pres


def test_qalg_multi_term_relation_round_trip():
    # paths compose left to right: a*b runs 1 -> 2 -> 3
    text = ("field Q\nvertex 1\nvertex 2\nvertex 3\n"
            "arrow a 1 2\narrow b 2 3\narrow c 1 2\narrow d 2 3\n"
            "relation 1*a*b + -2/3*c*d\n")
    pres = cli.parse_qalg(text)
    assert cli.parse_qalg(cli.write_qalg(pres)) == pres


def test_chain4_fixture_is_the_decorated_a1_chain():
    from test_qha_engine import a1_chain_with_duality

    pres = a1_chain_with_duality(4)
    pres.order_pairs = [(str(i + 1), str(i)) for i in range(1, 4)]
    pres.lengths = {str(i): 4 - i for i in range(1, 5)}
    assert cli.write_qalg(pres) == CHAIN4_QALG
    assert cli.parse_qalg(CHAIN4_QALG) == pres


def write_qrep(rep):
    """Render a module so that parse_qrep returns an equal value."""
    field = rep.algebra.field
    out = ["vertexdim %s %d" % (v, rep.dims[v]) for v in rep.vertices]
    for name, _, _ in rep.algebra.presentation.arrows:
        out.append("matrix %s" % name)
        out.extend(" ".join(field.format_scalar(x) for x in row)
                   for row in rep.action[name].rows if row)
    return "\n".join(out) + "\n"


def test_qrep_round_trip():
    pres = cli.parse_qalg(B5_QALG)
    algebra = build_algebra(pres)
    rep = cli.parse_qrep(DELTA2_QREP, algebra)
    text = write_qrep(rep)
    again = cli.parse_qrep(text, algebra)
    assert again.dims == rep.dims
    assert all(again.action[a] == rep.action[a] for a in rep.action)
    assert write_qrep(again) == text


def test_qrep_zero_dimension_blocks():
    pres = cli.parse_qalg(B5_QALG)
    algebra = build_algebra(pres)
    rep = cli.parse_qrep("vertexdim 1 1\nvertexdim 2 0\nmatrix a\nmatrix b\n",
                         algebra)
    assert rep.dims == {"1": 1, "2": 0}
    again = cli.parse_qrep(write_qrep(rep), algebra)
    assert again.dims == rep.dims


def test_qalg_errors_carry_locations():
    with pytest.raises(Exception, match=r"bad\.qalg:3"):
        cli.parse_qalg("field Q\nvertex 1\narrow a\n", source="bad.qalg")


def test_weight_list_parsing(tmp_path):
    weights = cli.parse_weight_list("1 1\n# comment\n2 0\n", rank=2)
    assert [w.coordinates for w in weights] == [(1, 1), (2, 0)]
    with pytest.raises(Exception, match=r"w:1"):
        cli.parse_weight_list("1 2 3\n", rank=2, source="w")


# -- exit statuses ----------------------------------------------------------------------


def test_exit_0_on_success(b5_path, capsys):
    status, out = run_cli(["algebra", "build", b5_path], capsys)
    assert status == 0
    assert report_map(out)["dim"] == "5"


def test_exit_2_on_missing_file(capsys):
    status, _ = run_cli(["algebra", "build", "no-such-file.qalg"], capsys)
    assert status == 2
    assert "no-such-file" in capsys.readouterr().err or True


def test_exit_2_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qalg"
    bad.write_text("vertex 1\nfield Q\n")
    status, _ = run_cli(["algebra", "build", bad], capsys)
    assert status == 2


def test_exit_3_on_failed_precondition(tmp_path, capsys):
    nolen = tmp_path / "nolen.qalg"
    nolen.write_text("field Q\nvertex 1\nvertex 2\narrow a 1 2\narrow b 2 1\n"
                     "relation 1*b*a\norder 1 < 2\n")
    status, _ = run_cli(["qha", "parity", nolen], capsys)
    assert status == 3


def test_exit_3_on_nondominant_weight(capsys):
    status, _ = run_cli(["kl", "predict", "--type", "A", "--rank", "1",
                         "--e", "5", "--lambda=-1"], capsys)
    assert status == 3


def test_exit_4_on_internal_failure(monkeypatch, capsys):
    def broken():
        return False, ["synthetic failure"]

    monkeypatch.setattr(selftest, "CRITERIA", ((3, "koszul_discrimination", broken),))
    status, out = run_cli(["selftest", "--criterion", "3"], capsys)
    assert status == 4
    assert report_map(out)["selftest"] == "fail"


def test_exit_3_when_memory_runs_out(b5_path, monkeypatch, capsys):
    from grkoszul import rep_homology

    def exhausted(*args, **kwargs):
        raise MemoryError

    # the handler imports koszul_check from rep_homology when it runs
    monkeypatch.setattr(rep_homology, "koszul_check", exhausted)
    status = cli.main(["algebra", "koszul-check", str(b5_path)])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert captured.err == "error (resources): out of memory in algebra koszul-check\n"


def test_exit_3_names_the_degree_when_a_resolution_runs_out_of_memory(
        monkeypatch, tmp_path, capsys):
    from grkoszul import rep_homology

    real = rep_homology.projective_cover
    covers = []

    def exhausted_at_the_third(rep):
        covers.append(rep)
        if len(covers) == 3:
            raise MemoryError
        return real(rep)

    monkeypatch.setattr(rep_homology, "projective_cover", exhausted_at_the_third)
    cube = tmp_path / "cube.qalg"
    cube.write_text(cube_qalg("field Q"))
    simple = tmp_path / "simple.qrep"
    simple.write_text(CUBE_SIMPLE_QREP)
    status = cli.main(["module", "resolve", str(cube), str(simple), "--max-degree", "3"])
    captured = capsys.readouterr()
    assert status == 3 and captured.out == ""
    # the third cover is of the second syzygy of the simple, of dimension 8
    assert captured.err == ("error (resources): out of memory in module resolve"
                            " (minimal resolution, degree 2, module dimension 8)\n")


@pytest.mark.parametrize("attribute, message", [
    ("map", "resolution is not exact at an interior term"),
    ("syzygy_inclusion", "consecutive resolution maps do not compose to zero"),
])
def test_exit_4_when_a_resolution_map_is_perturbed(monkeypatch, tmp_path, capsys,
                                                   attribute, message):
    from grkoszul import rep_homology

    real = rep_homology.projective_cover
    covers = []

    def perturbed(rep):
        # the second cover's map, or the first syzygy inclusion, with its
        # (0, 0) entry, row 0 of column 0, zeroed or raised by one
        cov = real(rep)
        if len(covers) == (1 if attribute == "map" else 0):
            cols = [dict(col) for col in getattr(cov, attribute)]
            if attribute == "map":
                cols[0].pop(0, None)
            else:
                cols[0][0] = cols[0].get(0, 0) + 1
            setattr(cov, attribute, cols)
        covers.append(cov)
        return cov

    monkeypatch.setattr(rep_homology, "projective_cover", perturbed)
    cube = tmp_path / "cube.qalg"
    cube.write_text(cube_qalg("field Q"))
    simple = tmp_path / "simple.qrep"
    simple.write_text(CUBE_SIMPLE_QREP)
    status = cli.main(["module", "resolve", str(cube), str(simple), "--max-degree", "3"])
    captured = capsys.readouterr()
    assert status == 4 and captured.out == ""
    assert captured.err == "error (internal invariant): %s\n" % message


# -- report conventions -----------------------------------------------------------------


def test_reports_are_key_value_only(b5_path, capsys):
    _, out = run_cli(["qha", "check", b5_path], capsys)
    for line in out.splitlines():
        assert line.startswith("#") or "=" in line


def test_header_echoes_version_and_args(b5_path, capsys):
    _, out = run_cli(["algebra", "koszul-check", b5_path,
                      "--max-degree", "8"], capsys)
    pairs = report_map(out)
    assert pairs["command"] == "algebra koszul-check"
    assert pairs["arg.max_degree"] == "8"
    assert "version" in pairs


def test_byte_identical_repeat_runs(b5_path, tmp_path, capsys):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert run_cli(["qha", "pipeline", b5_path, "--out", out1], capsys)[0] == 0
    assert run_cli(["qha", "pipeline", b5_path, "--out", out2], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("jobs", ["2", "0", "-1", "two"])
def test_jobs_flag_rejects_bad_values_with_exit_2(b5_path, capsys, jobs):
    # the flag is gone, so every value is an unrecognised argument
    with pytest.raises(SystemExit) as exc:
        cli.main(["algebra", "build", str(b5_path), "--jobs", jobs])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs %s" % jobs in capsys.readouterr().err


# -- pinned command examples --------------------------------------------------------------


def test_koszul_check_example(b5_path, capsys):
    _, out = run_cli(["algebra", "koszul-check", b5_path,
                      "--max-degree", "8"], capsys)
    pairs = report_map(out)
    assert pairs["koszul"] == "true"
    assert pairs["exact"] == "true"
    assert pairs["global_dimension"] == "2"


def test_koszul_check_cubic_witness(cubic_path, capsys):
    _, out = run_cli(["algebra", "koszul-check", cubic_path,
                      "--max-degree", "8"], capsys)
    pairs = report_map(out)
    assert pairs["koszul"] == "false"
    assert "degree-2" in pairs["witness"] and "grade 3" in pairs["witness"]


def test_kl_table_example_all_ones(capsys):
    _, out = run_cli(["kl", "table", "--type", "A", "--rank", "1",
                      "--e", "5", "--max-length", "6"], capsys)
    pairs = report_map(out)
    rows = [v for k, v in pairs.items() if k.startswith("row.")]
    assert rows and all(r.endswith("p=1") for r in rows)
    _, out = run_cli(["kl", "inverse", "--type", "A", "--rank", "1",
                      "--e", "5", "--max-length", "6"], capsys)
    rows = [v for k, v in report_map(out).items() if k.startswith("row.")]
    assert rows and all(r.endswith("q=1") for r in rows)


def test_predict_layers_alias_example(capsys):
    _, out = run_cli(["predict", "layers", "--type", "A", "--rank", "1",
                      "--e", "5", "--lambda", "5"], capsys)
    pairs = report_map(out)
    assert pairs["layer.0"] == "5:1"
    assert pairs["layer.1"] == "3:1"
    _, out2 = run_cli(["kl", "predict", "--type", "A", "--rank", "1",
                       "--e", "5", "--lambda", "5"], capsys)
    assert out2 == out


def test_qha_check_b5(b5_path, capsys):
    _, out = run_cli(["qha", "check", b5_path], capsys)
    pairs = report_map(out)
    assert pairs["quasi_hereditary"] == "true"
    assert pairs["filtration.1"] == "1,2"
    assert pairs["filtration.2"] == "2"


def test_module_slices_delta2(b5_path, delta2_path, capsys):
    _, out = run_cli(["module", "slices", b5_path, delta2_path], capsys)
    pairs = report_map(out)
    assert pairs["total_dim"] == "2"
    assert pairs["radical.0.2"] == "1"
    assert pairs["radical.1.1"] == "1"


def test_alcove_linkage_depth(capsys):
    _, out = run_cli(["alcove", "linkage", "--type", "A", "--rank", "1",
                      "--e", "5", "--lambda", "5"], capsys)
    pairs = report_map(out)
    assert pairs["antidominant"] == "-5"
    assert pairs["carrier_length"] == "2"
    assert pairs["regular"] == "true"


def test_lcf_dimension_two(capsys):
    _, out = run_cli(["kl", "lcf", "--type", "A", "--rank", "1",
                      "--e", "5", "--lambda", "5"], capsys)
    pairs = report_map(out)
    assert pairs["dimension"] == "2"
    assert pairs["non_negative"] == "true"
    assert pairs["mult.5"] == "1"


def test_gr_emit_round_trips(cubic_path, tmp_path, capsys):
    out_path = tmp_path / "gr.qalg"
    status, out = run_cli(["algebra", "gr", cubic_path, "--emit", out_path],
                          capsys)
    assert status == 0
    assert report_map(out)["graded_dims_match"] == "true"
    pres = cli.parse_qalg(out_path.read_text(), source=str(out_path))
    assert pres.field == QQ
    assert cli.parse_qalg(cli.write_qalg(pres)) == pres


def test_selftest_single_criterion(capsys):
    status, out = run_cli(["selftest", "--criterion", "3"], capsys)
    assert status == 0
    pairs = report_map(out)
    assert pairs["criterion.3"] == "pass"
    assert pairs["selftest"] == "pass"


@pytest.mark.parametrize("number", ["0", "12"])
def test_selftest_rejects_unknown_criterion_with_exit_2(capsys, number):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--criterion", number])
    assert exc.value.code == 2
    assert ("argument --criterion: invalid choice: %s (choose from 1, 2, 3, 4, 5, 6, 7, 8, 9)"
            % number) in capsys.readouterr().err


def child_env():
    """This environment with the package's source directory on PYTHONPATH."""
    src = str(Path(grkoszul.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_process(args):
    """(exit status, stdout, stderr) of one command in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "grkoszul", *map(str, args)],
                          capture_output=True, text=True, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_in_a_process(cubic_path, tmp_path, capsys):
    simple = tmp_path / "simple.qrep"
    simple.write_text("vertexdim v 1\nmatrix x\n0\n")
    resolve = ["module", "resolve", cubic_path, simple, "--max-degree", "3"]
    for args in (["selftest", "--criterion", "3"], resolve,
                 ["selftest", "--criterion", "12"], resolve):
        try:
            status = cli.main([str(a) for a in args])
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == fresh_process(args), args


def test_reused_parser_follows_the_criteria_table(monkeypatch, capsys):
    cli.main(["selftest", "--criterion", "3", "--out", os.devnull])
    monkeypatch.setattr(selftest, "CRITERIA", ((12, "extra", lambda: (True, [])),))
    status, out = run_cli(["selftest", "--criterion", "12"], capsys)
    assert status == 0 and report_map(out)["criterion.12"] == "pass"
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--criterion", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 3 (choose from 12)" in capsys.readouterr().err


def test_cache_dir_round_trip(tmp_path, monkeypatch, capsys):
    args = ["kl", "table", "--type", "A", "--rank", "2", "--e", "3", "--max-length", "3"]
    monkeypatch.setenv("GRKOSZUL_CACHE_DIR", str(tmp_path))
    status, with_var = run_cli(args, capsys)
    assert status == 0 and list(tmp_path.iterdir()) == []
    monkeypatch.delenv("GRKOSZUL_CACHE_DIR")
    assert run_cli(args, capsys) == (0, with_var)


# Prints the grkoszul modules loaded by importing the CLI and, given
# arguments, by one command run through it; then every grkoszul module in
# sys.modules, which adds the layers left there unloaded (lazy) after a command.
LOADED_MODULES = """\
import sys
from types import ModuleType
from grkoszul import cli
if sys.argv[1:]:
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
names = sorted(name for name in sys.modules if name.startswith("grkoszul"))
print(*[name for name in names if type(sys.modules[name]) is ModuleType])
print(*names)
"""
FRONT_END = {"grkoszul", "grkoszul.cli", "grkoszul.errors"}
MODULE_STACK = {"grkoszul.exactlin", "grkoszul.algebra_core", "grkoszul.rep_homology"}
KL_STACK = {"grkoszul.alcove", "grkoszul.klpoly"}
LAYERS = MODULE_STACK | KL_STACK | {"grkoszul.qha_engine"}


def loaded_modules(args, paths, script=LOADED_MODULES):
    argv = [str(paths.get(a, a)) for a in args]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=child_env(), check=True)
    return [set(line.split()) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("args, loaded, present", [
    ([], FRONT_END, FRONT_END),
    (["--version"], FRONT_END, FRONT_END),
    (["module", "resolve", "CUBIC", "SIMPLE", "--max-degree", "2"],
     FRONT_END | MODULE_STACK, FRONT_END | LAYERS),
    (["algebra", "koszul-check", "B5"], FRONT_END | MODULE_STACK, FRONT_END | LAYERS),
    (["kl", "table", "--type", "A", "--rank", "2", "--e", "3", "--max-length", "3"],
     FRONT_END | KL_STACK, FRONT_END | LAYERS),
    (["selftest", "--criterion", "8"],
     FRONT_END | LAYERS | {"grkoszul.selftest"}, FRONT_END | LAYERS | {"grkoszul.selftest"}),
], ids=["import", "version", "module-resolve", "koszul-check", "kl-table", "selftest"])
def test_each_command_loads_only_the_layers_it_runs(cubic_path, b5_path, tmp_path,
                                                    args, loaded, present):
    simple = tmp_path / "simple.qrep"
    simple.write_text("vertexdim v 1\nmatrix x\n0\n")
    paths = {"CUBIC": cubic_path, "SIMPLE": simple, "B5": b5_path}
    assert loaded_modules(args, paths)[-2:] == [loaded, present]


def test_layers_left_unloaded_by_a_command_load_on_first_use(b5_path):
    """perfbench's tracer wraps the functions of all six layers after a
    command has run; the ones the command never loaded must load then."""
    script = LOADED_MODULES + """\
import grkoszul.klpoly
from grkoszul.alcove import Weight
assert grkoszul.klpoly.predict_layers.__module__ == "grkoszul.klpoly"
assert Weight((1, 0)).coordinates == (1, 0)
assert "pipeline_checks" in vars(sys.modules["grkoszul.qha_engine"])
print(*sorted(name for name in sys.modules if name.startswith("grkoszul")
              and type(sys.modules[name]) is ModuleType))
"""
    lines = loaded_modules(["algebra", "koszul-check", "B5"], {"B5": b5_path}, script)
    assert lines[-3] == FRONT_END | MODULE_STACK
    assert lines[-1] == FRONT_END | LAYERS


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grkoszul", "selftest", "--criterion", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "criterion.3=pass" in proc.stdout


# SHA-256 of whole reports (header included), recorded before the alcove and
# KL engines moved to integer coordinates and a wall-multiplication table.
GOLDEN_REPORTS = [
    (["kl", "table", "--type", "A", "--rank", "2", "--e", "5", "--max-length", "8"],
     "1c04d0141d4afbd849128a26d488995e6861dfaabf3010f4c0dd934d816edf8f"),
    (["kl", "inverse", "--type", "A", "--rank", "2", "--e", "5", "--max-length", "8"],
     "2a1159500720cdea1ed2d770c4f8f755d967d48b0aa91c70236d7566cd1df0cc"),
    (["kl", "table", "--type", "B", "--rank", "2", "--e", "5", "--max-length", "8"],
     "4a07e49d8e01fa7aa8c7731622e7e87a9832af72a6cfee6a48f1a25cf5c4f836"),
    (["kl", "inverse", "--type", "B", "--rank", "2", "--e", "5", "--max-length", "8"],
     "4692504f0a9e20a2d8113bfd9c4a2e7b9df44e5efe95655275ae9b5dd6299b09"),
    (["kl", "table", "--type", "G", "--rank", "2", "--e", "7", "--max-length", "6"],
     "58addc0e4b674e1b930e70d2e303eedf1e6a6208de63ddc0bb01395acba65d84"),
    (["kl", "inverse", "--type", "G", "--rank", "2", "--e", "7", "--max-length", "6"],
     "95966bad63e05f47df4f798aab606367ab9abea7e59e16a4eb733e09a4d766ab"),
    (["kl", "lcf", "--type", "A", "--rank", "2", "--e", "7", "--lambda", "5,5"],
     "1b0f20b44f023c359edd56991eef0d1389109a7a2331cf702229a6c160266162"),
    (["alcove", "linkage", "--type", "A", "--rank", "2", "--e", "7", "--lambda", "1,1"],
     "ab184f72af87bd750640f253c50a625d77d0aa9174ce3962d8a60d6ea2742b3c"),
    (["alcove", "bounds", "--type", "A", "--rank", "2", "--e", "7", "--lambda", "1,1",
      "--m-max", "2"],
     "4b5275c3e95b492bee1aa40cceb8c0291ae5b7244f4d166fc11affae6929c967"),
    # recorded before the reported polynomials became classical dicts in q
    (["kl", "weightpoly", "--type", "A", "--rank", "2", "--e", "5", "--lambda", "7,7",
      "--mu", "1,1"],
     "595dd75e01b17bc595ed616ae14bcf18dd417868eeceaa75dc4844ae499a5d59"),
    (["kl", "weightpoly", "--type", "A", "--rank", "2", "--e", "5", "--lambda", "7,7",
      "--mu", "0,0"],
     "57ff26f90eebcb1ca74b8d706500eac2179339e8d05933e5547cacb60dd833ef"),
    (["kl", "predict", "--type", "A", "--rank", "2", "--e", "5", "--lambda", "7,7"],
     "b94d32d9d3be9fbb4080c626b219383ee22a7ce40a0c5385a7c4814b19f71f8e"),
    (["kl", "predict", "--type", "B", "--rank", "2", "--e", "7", "--lambda", "9,9"],
     "e90d4813d6f1e0113a89b1e256854ad78218142cf53b9847e50e0507b1ef284f"),
    # recorded before ideals became unions of memoised principal ideals,
    # interned on the datum
    (["alcove", "fatten", "--type", "A", "--rank", "2", "--e", "5",
      "--weights", "gens.weights", "--stages", "2"],
     "37d541f5cfb1db617ca10797ad01419c336145e47ed019bbda1cb93d815c403f"),
    (["alcove", "fatten", "--type", "A", "--rank", "2", "--e", "5",
      "--weights", "gens.weights", "--stages", "2", "--regular"],
     "d5ff9c7ed79ebd0e3e61dcf3b0a0427427ee003543c21a3d8e32971304d5e1d4"),
    (["alcove", "bounds", "--type", "A", "--rank", "2", "--e", "5",
      "--weights", "gens.weights", "--m-max", "1", "--regular"],
     "dd66cadb149145d9c894cae996819c39f3efde17cf4c9d11df1dc81ba9819cc9"),
]

# Weight files the golden reports read, written to the working directory so
# that the `arg.weights` line is the same on every run.  (2, 0) lies below
# (3, 1), and (0, 2) is listed twice.
GOLDEN_WEIGHT_FILES = {"gens.weights": "3 1\n0 2\n1 1\n2 0\n0 2\n"}


def _golden_id(args):
    """Command, type and rank; a `--mu` value tells weightpoly pairs apart,
    and a weight file plus `--regular` the weight-file reports."""
    tail = args[args.index("--mu") + 1:] if "--mu" in args else []
    if "--weights" in args:
        tail = [args[args.index("--weights") + 1]] + ["regular"] * ("--regular" in args)
    return "-".join(args[:2] + args[3:6:2] + tail)


@pytest.mark.parametrize("args,digest", GOLDEN_REPORTS,
                         ids=[_golden_id(a) for a, _ in GOLDEN_REPORTS])
def test_golden_report_digest(args, digest, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_WEIGHT_FILES.items():
        (tmp_path / name).write_text(text)
    status, out = run_cli(args, capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["fatten", "bounds"])
@pytest.mark.parametrize("regular", [False, True])
def test_non_dominant_generator_after_dominant_ones(command, regular, tmp_path, capsys):
    """The generators are checked in file order: a non-dominant one after
    dominant ones exits 2 with one stderr line and no report."""
    gens = tmp_path / "bad.weights"
    gens.write_text("3 1\n2 0\n-1 2\n0 2\n")
    args = ["alcove", command, "--type", "A", "--rank", "2", "--e", "5",
            "--weights", gens] + ["--regular"] * regular
    status = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error (input): ideal generators must be dominant, got (-1, 2)\n"


def body_digest(text):
    """SHA-256 of a report without its `arg.` lines (which name temp paths)."""
    body = [line for line in text.splitlines() if not line.startswith("arg.")]
    return hashlib.sha256("\n".join(body).encode()).hexdigest()


# Body digests of representation-side reports, recorded before integral
# scalars over Q became plain ints; the "emit" entry digests the written file.
GOLDEN_BODIES = {
    "module-resolve":
        "adb4822e34d7a2de99ad728bc56d62085834c82781fc004b38cac6c42490fed0",
    "module-ext":
        "eeae6c4db1a7af8ed9e10cca4cc78e8041f75097259cb53b6394132f246e39a7",
    "algebra-gr":
        "6f494b229efe9ae22c881e38a284156911b951df74916b8dff1ee7d7955c51be",
    "algebra-gr-emit":
        "0deea47f12dd95a7cc5e9b50396fd31c46b483024cf80cdc33c3a33cb40a03fb",
    "qha-standard":
        "59d8601a384e12436d53f1a6228ce79369e468665d1b2e82f1cabf403dde39a8",
    "qha-pipeline":
        "3ebeb22f25b83010157675234a46f2001f79f9eada0ac0818d00642801897093",
    # recorded before the subalgebra restriction moved onto the module code
    "module-restrict-frac":
        "6c3788f5479286b88f15d183754e8f8a1327474d7d18b0c7ccf1fc8a7681a44f",
    "module-restrict-b5":
        "e868db066126d79cd1d2d2671ebfa5b9514118f363f85da19be08f3b70d35042",
    "module-grcompare-frac":
        "938c0b82c157a6381533b15659d6d99c58d60bbc245b8716889c1bb6f39dfc1e",
    "module-grcompare-b5":
        "054e3a6a74ff162df1aca00d1dac6782d4d468ea1567285c155f8fc2bfd3f4ab",
    "module-ext-graded":
        "c5d660cd02f63d547dc4d7ffd4cced5a90f4e5bb3fde9a9119bee50eb13802e1",
    "koszul-check-b5":
        "41824acfbabd071f5991b8f81e8cfe4079bce6b8a632eb57fb2d4367ae976d29",
    "koszul-check-cubic":
        "80beb2dc3a050dc72c9f430a11bfa14ac3648b61f85710f6eddd485a9e3d5559",
    "qha-parity":
        "2a627947dbbc9503e3e16abf435b4b5bf0023e47afcd2079c664e396d564a3b6",
    # recorded before the cover path took internal matrices without coercion
    # and split rows by their RREF blocks; the report names no field, so
    # F_2 and F_3 agree
    "module-resolve-cube-f2":
        "8be2cd800ce9ce9fa10fcd6d8cb98e49bda0053b65fa6c8b8083d5296adbdc40",
    "module-resolve-cube-f3":
        "8be2cd800ce9ce9fa10fcd6d8cb98e49bda0053b65fa6c8b8083d5296adbdc40",
    "module-resolve-cube-q":
        "1ee77368266354f7a2beb484662e2c501d1edfc3d306e425e162e5ca30d69a87",
    # recorded before the restriction check ran on the restricted module
    "module-restrict-cube-nongradable":
        "3786d3a30234792d791447082de6342a0078d71e5e195090395aa173d3c9dcbc",
    # algebra-side reports on the n = 4 chain, recorded before algebra
    # elements became sparse dicts and algebra maps sparse columns
    "chain4-qha-dual":
        "552eece5205f3d3f73d322d7838bd0ecde074b3a679610e90e29e586c48bd155",
    "chain4-qha-truncate":
        "b33028a9c2ae1600ae0978ef287e8e199a1695f9e140877868636d71c8d06d8a",
    "chain4-qha-pipeline":
        "ecc4368602d6bbd739916a28305962884ef900628258ebb849eb9f04fc2aac86",
    "chain4-algebra-subalgebra":
        "f2b1421a89c8a64bb08cbe86e40b60cd17da5a459aad1f8726cd0dc0b17bbe82",
    "chain4-algebra-radgen":
        "8f29d758bea6397b30e74bd90025e494df4aa2429823ee557a474f2dedc57510",
}


def test_golden_representation_digests(b5_path, cubic_path, delta2_path, tmp_path,
                                       capsys):
    alg = tmp_path / "frac.qalg"
    alg.write_text(FRACTIONAL_QALG)
    rep = tmp_path / "frac.qrep"
    rep.write_text(FRACTIONAL_QREP)
    emit = tmp_path / "gr.qalg"
    cube = {}
    for name, field_line in (("f2", "field F 2"), ("f3", "field F 3"), ("q", "field Q")):
        cube[name] = tmp_path / ("cube-%s.qalg" % name)
        cube[name].write_text(cube_qalg(field_line))
    simple = tmp_path / "cube-simple.qrep"
    simple.write_text(CUBE_SIMPLE_QREP)
    nongradable = tmp_path / "cube-nongradable.qrep"
    nongradable.write_text(CUBE_NONGRADABLE_QREP)
    chain4 = tmp_path / "chain4.qalg"
    chain4.write_text(CHAIN4_QALG)
    runs = {
        "module-resolve": ["module", "resolve", alg, rep, "--max-degree", "4"],
        "module-ext": ["module", "ext", alg, rep, "--max-degree", "4"],
        "algebra-gr": ["algebra", "gr", alg, "--emit", emit],
        "qha-standard": ["qha", "standard", b5_path],
        "qha-pipeline": ["qha", "pipeline", b5_path],
        "module-restrict-frac": ["module", "restrict", alg, rep],
        "module-restrict-b5": ["module", "restrict", b5_path, delta2_path],
        "module-grcompare-frac": ["module", "grcompare", alg, rep],
        "module-grcompare-b5": ["module", "grcompare", b5_path, delta2_path],
        "module-ext-graded": ["module", "ext", alg, rep, "--graded"],
        "koszul-check-b5": ["algebra", "koszul-check", b5_path],
        "koszul-check-cubic": ["algebra", "koszul-check", cubic_path],
        "qha-parity": ["qha", "parity", b5_path],
        "module-resolve-cube-f2": ["module", "resolve", cube["f2"], simple, "--max-degree", "3"],
        "module-resolve-cube-f3": ["module", "resolve", cube["f3"], simple, "--max-degree", "3"],
        "module-resolve-cube-q": ["module", "resolve", cube["q"], simple, "--max-degree", "4"],
        "module-restrict-cube-nongradable": ["module", "restrict", cube["q"], nongradable],
        "chain4-qha-dual": ["qha", "dual", chain4],
        "chain4-qha-truncate": ["qha", "truncate", chain4, "--keep", "3,4"],
        "chain4-qha-pipeline": ["qha", "pipeline", chain4, "--keep", "4"],
        "chain4-algebra-subalgebra": ["algebra", "subalgebra", chain4,
                                      "--generators", "1,2,3,4,a1,a2,a3,b1,b2,b3"],
        "chain4-algebra-radgen": ["algebra", "radgen-check", chain4],
    }
    digests = {}
    for name, args in runs.items():
        status, out = run_cli(args, capsys)
        assert status == 0, name
        digests[name] = body_digest(out)
    digests["algebra-gr-emit"] = hashlib.sha256(emit.read_bytes()).hexdigest()
    assert digests == GOLDEN_BODIES
