import pytest

from bangles import snakegraph
from bangles.cli import main
from bangles.curve import arc_curve, parse_curve, transport_curve
from bangles.fixtures import CLOSED_CURVES, fixture_text, load_curve_text, load_surface
from bangles.poly import lp_format, var_names, xy_names
from bangles.surface import flip, format_triangulation


# the punctured square with every end at its puncture notched
NOTCHED_SQUARE = format_triangulation(load_surface("punctured-square")) + (
    "tag 1 0 notched\ntag 2 1 notched\ntag 3 1 notched\ntag 4 1 notched\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_band_annulus(capsys):
    code, out, _ = run(
        capsys, "compute", "--triangulation", "annulus", "--curve", "annulus-core"
    )
    assert code == 0
    assert "graph: band, 2 tiles" in out
    assert "tile 1: diagonal 1 at (0, 0), N=4 E=2 S=3 W=2" in out
    assert "gluing: U" in out
    assert "F = 1 + y2 + y1*y2" in out
    assert "g = (1, -1)" in out
    assert "h = (0, -1)" in out
    assert "MSW = x1^-1*x2^-1 + x1^-1*x2 + x1*x2^-1" in out


def test_compute_principal_coefficients(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--triangulation",
        "annulus",
        "--curve",
        "annulus-core",
        "--coefficients",
        "principal",
    )
    assert code == 0
    assert "MSW = x1^-1*x2^-1*y2 + x1*x2^-1 + x1^-1*x2*y1*y2" in out


def test_compute_snake_from_file(tmp_path, capsys):
    t = load_surface("pentagon")
    res = flip(t, 1)
    back = transport_curve(arc_curve(1), res.quad, forward=False)
    curve_file = tmp_path / "c.curve"
    # the pulled-back flipped arc: across arc 1, from marked point 4 to 3
    curve_file.write_text("curve closed=0\nend marked:4\ntri 1 cross 1\nend marked:3\n")
    assert parse_curve(t, curve_file.read_text()) == back
    code, out, _ = run(
        capsys, "compute", "--triangulation", "pentagon", "--curve", str(curve_file)
    )
    assert code == 0
    assert "graph: snake, 1 tile\n" in out
    assert "F = 1 + y1" in out
    assert "MSW = x1^-1 + x1^-1*x2" in out


def test_compute_plain_arc(tmp_path, capsys):
    curve_file = tmp_path / "a.curve"
    curve_file.write_text("curve closed=0\narc 2\n")
    code, out, _ = run(
        capsys, "compute", "--triangulation", "pentagon", "--curve", str(curve_file)
    )
    assert code == 0
    assert "graph: none" in out
    assert "g = (0, 1)" in out
    assert "MSW = x2" in out


@pytest.mark.parametrize(
    "surface, text, fragment",
    [
        (
            "punctured-square",
            "curve closed=0\narc 1\nend puncture:1 tag=notched\nend marked:1\n",
            "only plain ends have expansions",
        ),
        ("annulus", "curve closed=0\narc 1\nend marked:1\nend marked:99\n", "the label fixes the arc"),
        ("annulus", "curve closed=0\narc 1\nend puncture:7\nend marked:1\n", "the label fixes the arc"),
        ("annulus", "curve closed=1 colour=red\ntri 1 cross 1\ntri 2 cross 2\n", "unknown option 'colour'"),
        ("annulus", "curve closed=1\ntri 1 cross 1 twice\ntri 2 cross 2\n", "line 2: cannot parse"),
        ("annulus", "curve closed=0\narc 1 extra\n", "line 2: cannot parse"),
        ("annulus", "curve closed=1\ncurve closed=0\narc 1\n", "a second curve header"),
        ("annulus", "curve closed=0\narc 1\narc 2\n", "a second arc line"),
    ],
    ids=["notched", "marked-99", "puncture-7", "curve-option", "tri-extra", "arc-extra", "two-headers", "two-arcs"],
)
def test_compute_refuses_arc_files_it_cannot_honour(tmp_path, capsys, surface, text, fragment):
    # a notched end would get the plain expansion, end lines the arc form
    # never resolves would pass unread, and an unknown option, an extra
    # token or a repeated header or arc line would be dropped
    curve_file = tmp_path / "a.curve"
    curve_file.write_text(text)
    code, out, err = run(capsys, "compute", "--triangulation", surface, "--curve", str(curve_file))
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize("coefficients", ["none", "principal"])
@pytest.mark.parametrize("surface", sorted(CLOSED_CURVES))
def test_compute_prints_the_graph_reads(capsys, surface, coefficients):
    curve = CLOSED_CURVES[surface]
    code, out, _ = run(
        capsys,
        "compute",
        "--triangulation",
        surface,
        "--curve",
        curve,
        "--coefficients",
        coefficients,
    )
    assert code == 0
    t = load_surface(surface)
    g = snakegraph.build_band_graph(t, parse_curve(t, load_curve_text(curve)))
    n = t.n_arcs
    if coefficients == "principal":
        msw = lp_format(g.principal_msw, xy_names(n))
    else:
        msw = lp_format(g.msw, var_names("x", n))
    assert out.splitlines()[-4:] == [
        f"F = {lp_format(g.f_poly, var_names('y', n))}",
        f"g = {g.g_vector}",
        f"h = {g.h_vector}",
        f"MSW = {msw}",
    ]


def test_compute_builds_one_graph(monkeypatch, capsys):
    real = snakegraph._build
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(snakegraph, "_build", counting)
    for coefficients in ("none", "principal"):
        calls.clear()
        code, _, _ = run(
            capsys,
            "compute",
            "--triangulation",
            "annulus",
            "--curve",
            "annulus-core",
            "--coefficients",
            coefficients,
        )
        assert code == 0
        assert len(calls) == 1


def test_mutate_prints_matrix_and_triangulation(capsys):
    code, out, _ = run(capsys, "mutate", "--triangulation", "annulus", "--flips", "1")
    assert code == 0
    assert "flip 1: B = ((0, 2), (-2, 0))" in out
    assert "surface g=0 b=2 m=1,1 p=0" in out
    assert "triangle" in out


def test_verify_keylemma_word(capsys):
    code, out, _ = run(
        capsys,
        "verify-keylemma",
        "--triangulation",
        "annulus",
        "--curve",
        "annulus-core",
        "--flips",
        "1 2",
    )
    assert code == 0
    assert out.count("[pass]") == 6
    assert "keylemma-F" in out and "keylemma-g" in out and "keylemma-h" in out


def test_verify_shear_prints_each_step(capsys):
    code, out, _ = run(
        capsys,
        "verify-shear",
        "--triangulation",
        "annulus",
        "--curve",
        "annulus-core",
        "--flips",
        "1 2",
    )
    assert code == 0
    assert "step 0: Sh = (1, -1)" in out
    assert "step 1: Sh = (-1, 1)" in out
    assert "step 2: Sh = (1, -1)" in out
    assert out.count("[pass] shear-flip") == 2


def test_verify_shear_stops_at_a_flip_the_curve_cannot_follow(tmp_path, capsys):
    curve_file = tmp_path / "a.curve"
    curve_file.write_text("curve closed=0\narc 1\n")
    code, out, err = run(
        capsys,
        "verify-shear",
        "--triangulation",
        "punctured-square",
        "--curve",
        str(curve_file),
        "--flips",
        "1 3 2",
    )
    assert code == 2
    assert "step 2: Sh =" in out
    assert err == "error: flip at 2 has no transportable quadrilateral\n"


def test_verify_shear_stops_at_a_flip_that_rewrites_tags(tmp_path, capsys):
    # every puncture end notched: flipping arc 1 switches tags, so there is
    # no quadrilateral to carry the curve across
    tri_file, curve_file = tmp_path / "notched.tri", tmp_path / "a.curve"
    tri_file.write_text(NOTCHED_SQUARE)
    curve_file.write_text("curve closed=0\narc 1\n")
    code, out, err = run(
        capsys,
        "verify-shear",
        "--triangulation",
        str(tri_file),
        "--curve",
        str(curve_file),
        "--flips",
        "1",
    )
    assert (code, out) == (2, "step 0: Sh = (0, 0, 0, 0)\n")
    assert err == "error: flip at 1 has no transportable quadrilateral\n"


@pytest.mark.parametrize("command", ["verify-arc", "verify-shear"])
@pytest.mark.parametrize(
    "notched, flips, k",
    [
        (False, "1 3 2", 2),  # the third flip makes a self-folded triangle
        (True, "1", 1),  # every puncture end notched: the flip switches tags
    ],
)
def test_verify_commands_refuse_an_uncarryable_flip_with_one_text(
    tmp_path, capsys, command, notched, flips, k
):
    tri_file, curve_file = tmp_path / "square.tri", tmp_path / "a.curve"
    tri_file.write_text(NOTCHED_SQUARE if notched else format_triangulation(load_surface("punctured-square")))
    curve_file.write_text("curve closed=0\narc 1\n")
    code, out, err = run(
        capsys, command, "--triangulation", str(tri_file), "--curve", str(curve_file), "--flips", flips
    )
    assert (code, err) == (2, f"error: flip at {k} has no transportable quadrilateral\n")
    # verify-shear prints the shear vector before each flip it reaches
    steps = len(flips.split()) if command == "verify-shear" else 0
    assert [line.split(" Sh = ")[0] for line in out.splitlines()] == [f"step {i}:" for i in range(steps)]


def test_verify_arc_roundtrip(tmp_path, capsys):
    curve_file = tmp_path / "a.curve"
    curve_file.write_text("curve closed=0\narc 1\n")
    code, out, _ = run(
        capsys,
        "verify-arc",
        "--triangulation",
        "annulus",
        "--curve",
        str(curve_file),
        "--flips",
        "1",
    )
    assert code == 0
    assert "[pass] arc-vs-cluster" in out


def test_run_corpus_exits_zero(capsys):
    code, out, _ = run(capsys, "run-corpus")
    assert code == 0
    assert out.strip().endswith("0 failed")


def test_unknown_fixture_is_a_user_error(capsys):
    code, _, err = run(
        capsys, "compute", "--triangulation", "nowhere", "--curve", "annulus-core"
    )
    assert code == 2
    assert "neither a file nor a bundled fixture" in err


def test_bad_flip_word(capsys):
    code, _, err = run(
        capsys, "mutate", "--triangulation", "annulus", "--flips", "one two"
    )
    assert code == 2
    assert "whitespace-separated integers" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mutate", "--triangulation", "annulus"],
        ["verify-keylemma", "--triangulation", "annulus", "--curve", "annulus-core"],
        ["verify-shear", "--triangulation", "annulus", "--curve", "annulus-core"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("flips", ["", "  "], ids=["empty", "blank"])
def test_empty_flip_word_is_a_user_error(capsys, argv, flips):
    # a verify command that checks nothing must not report success
    code, out, err = run(capsys, *argv, "--flips", flips)
    assert code == 2
    assert out == ""
    assert "flip word is empty" in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (
            ["mutate", "--triangulation", "annulus", "--flips", "0"],
            "flip word entries are 1-based arc labels",
        ),
        (
            ["verify-arc", "--triangulation", "annulus", "--curve", "annulus-core"],
            "verify-arc wants a label-only curve file",
        ),
        # a label past the last arc is refused before any flip is printed
        (["mutate", "--triangulation", "annulus", "--flips", "1 2 7"], "cannot flip arc 7"),
        (
            ["verify-shear", "--triangulation", "annulus", "--curve", "annulus-core", "--flips", "1 9"],
            "cannot flip arc 9",
        ),
    ],
    ids=["zero-label", "closed-curve-arc", "mutate-label-7", "shear-label-9"],
)
def test_bad_arguments_are_user_errors(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize("command", ["compute", "mutate"])
def test_triangulation_text_it_cannot_read_is_a_user_error(tmp_path, capsys, command):
    # a token the parser does not read is refused, not dropped
    tri_file = tmp_path / "t.tri"
    tri_file.write_text(fixture_text("annulus.tri").replace("arcs 2", "arcs 2 7"))
    args = ["--curve", "annulus-core"] if command == "compute" else ["--flips", "1"]
    code, out, err = run(capsys, command, "--triangulation", str(tri_file), *args)
    assert code == 2
    assert out == ""
    assert "cannot parse" in err


def test_unsupported_flip_label(capsys):
    code, _, err = run(capsys, "mutate", "--triangulation", "annulus", "--flips", "9")
    assert code == 2
    assert "cannot flip arc 9" in err
