import io
import json
import xml.dom.minidom
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendromap import suites, tau12
from dendromap.cli import main, parse_point, format_point
from dendromap.dynamics import RhoContext
from dendromap.rationals import format_rational
from dendromap.errors import DomainError
from dendromap.space import CutPoint, EndPoint, cut

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_point_forms():
    p = parse_point("cut:[1/2,1/4],3/8")
    assert isinstance(p, CutPoint)
    assert p.word == (F(1, 2), F(1, 4)) and p.t == F(3, 8)
    q = parse_point("end:[1/2,1/2]")
    assert isinstance(q, EndPoint)
    assert format_point(p) == "cut:[1/2,1/4],3/8"
    assert format_point(q) == "end:[1/2,1/2]"
    assert parse_point("cut:[],1/2") == cut((), F(1, 2))
    # End cylinders need at least two letters of prefix.
    with pytest.raises(DomainError):
        parse_point("end:[]")


def test_eval_phi0(capsys):
    code, out, _ = run(capsys, "eval", "--phi0", "1/2")
    assert code == 0
    assert out == "1/4\n"


def test_eval_tau0_matches_engine(capsys):
    code, out, _ = run(capsys, "eval", "--tau0", "1/2")
    assert code == 0
    assert out.strip() == format_rational(RhoContext().xi(F(1, 2)))


def test_eval_rho_matches_context(capsys):
    code, out, _ = run(capsys, "eval", "--rho", "1/2,1/4")
    assert code == 0
    image = RhoContext().rho((F(1, 2), F(1, 4)))
    assert out.strip() == ",".join(format_rational(a) for a in image)


def test_eval_point(capsys):
    code, out, _ = run(capsys, "eval", "--point", "cut:[],1/2")
    assert code == 0
    assert out.strip() == format_point(RhoContext().apply_F(cut((), F(1, 2))))


def test_eval_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "eval", "--phi0", "1/2", "--tau0", "1/2")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "eval")
    assert code == 2


def test_eval_bad_rational(capsys):
    code, _, err = run(capsys, "eval", "--phi0", "zebra")
    assert code == 2


def test_eval_phi0_out_of_domain_prints_rationals(capsys):
    code, out, err = run(capsys, "eval", "--phi0", "3/2")
    assert code == 2 and out == ""
    assert err == "usage error: 3/2 outside domain [0, 1]\n"
    assert "Fraction(" not in err


def test_orbit_root_cut(capsys):
    code, out, _ = run(capsys, "orbit", "--start", "cut:[],1/2", "--n", "3", "--m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    # The root arc touches every depth-2 cell, so no single label applies.
    assert all(line.endswith("\t-") for line in lines)


def test_orbit_end_cells_follow_the_adding_machine(capsys):
    start = "end:[" + ",".join(["1/2"] * 6) + "]"
    code, out, _ = run(capsys, "orbit", "--start", start, "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["cell"] for row in payload["steps"]] == ["11", "00", "10"]


def test_orbit_reports_early_stop(capsys):
    start = "end:[" + ",".join(["1/2"] * 6) + "]"
    code, out, _ = run(
        capsys, "orbit", "--start", start, "--n", "6", "--budget", "64",
        "--format", "json",
    )
    assert code == 3
    payload = json.loads(out)
    assert "stopped" in payload
    assert len(payload["steps"]) >= 2


def test_orbit_text_root_cut(capsys):
    code, out, _ = run(capsys, "orbit", "--start", "cut:[],1/2", "--n", "1")
    assert code == 0
    assert out == "0\tcut:[],1/2\t-\n1\tcut:[],1/4\t-\n"


def test_orbit_text_end_prefix(capsys):
    code, out, _ = run(
        capsys, "orbit", "--start", "end:[" + ",".join(["1/2"] * 6) + "]", "--n", "2"
    )
    assert code == 0
    assert out == (
        "0\tend:[1/2,1/2,1/2,1/2,1/2,1/2]\t11\n"
        "1\tend:[17/64,1/16,1/4,1/4,1/4,5/16]\t00\n"
        "2\tend:[69/512,1/16,1/16,1/16,9/64]\t10\n"
    )


def test_orbit_bad_point_syntax(capsys):
    code, _, err = run(capsys, "orbit", "--start", "mid:[1/2],1/2")
    assert code == 2 and "point syntax" in err


def test_witness_single_letter(capsys):
    code, out, _ = run(
        capsys, "witness", "--alpha", "1/2", "--target", "1/2", "--delta", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == ["1/2"]
    assert payload["delta"] == [0]
    assert payload["steps"] >= 1
    assert payload["levels"] >= 1


def test_witness_bad_delta(capsys):
    code, _, err = run(
        capsys, "witness", "--alpha", "1/2", "--target", "1/2", "--delta", "02"
    )
    assert code == 2


@pytest.mark.parametrize(
    "alpha,target,delta",
    [("", "1/2", "0"), ("1/2", "1/3", "0"), ("1/2", "1/2", "01")],
)
def test_witness_malformed_request_is_a_usage_error(capsys, alpha, target, delta):
    code, out, err = run(
        capsys, "witness", "--alpha", alpha, "--target", target, "--delta", delta
    )
    assert code == 2
    assert out == "" and err.startswith("usage error:")


def test_render_shallow(tmp_path, capsys):
    out = tmp_path / "x1.svg"
    code, _, _ = run(capsys, "render", "--m", "1", "--out", str(out))
    assert code == 0
    xml.dom.minidom.parse(str(out))


def test_render_depth_three(tmp_path, capsys):
    out = tmp_path / "x3.svg"
    code, _, _ = run(capsys, "render", "--m", "3", "--out", str(out))
    assert code == 0
    doc = xml.dom.minidom.parse(str(out))
    # Root arc plus three levels over the four-letter grid.
    assert len(doc.getElementsByTagName("line")) == 1 + 3 + 9 + 27


def test_render_depth_limits(capsys):
    code, _, err = run(capsys, "render", "--m", "5")
    assert code == 2
    code, _, err = run(capsys, "render", "--m", "0")
    assert code == 2
    # A negative exponent, and a 54,241-arc skeleton, are refused up front.
    for m, letters in (("1", "-1"), ("4", "4")):
        code, out, err = run(capsys, "render", "--m", m, "--letters", letters)
        assert code == 2
        assert out == "" and err.startswith("usage error:")


def test_render_rejects_a_negative_orbit_length_like_orbit(capsys):
    code, out, err = run(capsys, "render", "--m", "1", "--start", "cut:[],1/2", "--n", "-1")
    assert code == 2 and out == ""
    _, _, orbit_err = run(capsys, "orbit", "--start", "cut:[],1/2", "--n", "-1")
    assert err == orbit_err == "usage error: --n must be nonnegative and --m at least 1\n"


def test_render_rejects_json(capsys):
    code, _, err = run(capsys, "render", "--m", "1", "--format", "json")
    assert code == 2


def test_verify_cheap_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tau12,metric")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fail"] == 0
    assert all(e["ref"] for e in report["entries"])


def test_verify_reports_are_byte_identical(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "tau12,witness")
    code2, out2, _ = run(capsys, "verify", "--suite", "tau12,witness")
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2 and "--suite" in err
    for spec in ("", ",", "tau12,nonsense"):
        code, out, err = run(capsys, "verify", "--suite", spec)
        assert code == 2 and out == "" and "--suite" in err


def test_verify_bad_depth_restriction(capsys):
    code, _, err = run(capsys, "verify", "--suite", "decomposition", "--m", "7")
    assert code == 2
    # Rejected before the run even when no chosen suite reads --m.
    code, out, err = run(capsys, "verify", "--suite", "tau12", "--m", "7")
    assert code == 2
    assert out == "" and err.startswith("usage error:")


def test_verify_domain_error_inside_the_run_is_a_fail(capsys, monkeypatch):
    def broken(ctx, config):
        raise DomainError("injected inside the run")

    monkeypatch.setattr(suites, "suite_metric", broken)
    code, out, err = run(capsys, "verify", "--suite", "metric")
    assert code == 1
    assert out == "" and err.startswith("fail:")


def test_verify_corrupted_engine_dump(capsys, monkeypatch):
    corrupted = []

    def corrupting(dumped):
        if not corrupted:
            (x, value), *rest = dumped["nodes"]
            moved = format_rational(Fraction(value) + 1)
            dumped = {**dumped, "nodes": [[x, moved]] + rest}
            corrupted.append(dumped["label"])
        return tau12.replay_check(dumped)

    monkeypatch.setattr(suites, "replay_check", corrupting)
    code, out, _ = run(capsys, "verify", "--suite", "tau12")
    assert code == 1
    report = json.loads(out)
    failing = [e["id"] for e in report["entries"] if e["verdict"] == "fail"]
    assert corrupted and len(failing) == 1
    assert failing[0].startswith("tau12/replay/")


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "period", "--depth", "0"],
        ["verify", "--suite", "decomposition", "--samples", "0"],
        ["verify", "--suite", "rho", "--horizon", "0"],
        ["verify", "--suite", "tau0", "--budget", "-1"],
        ["eval", "--tau0", "1/2", "--budget", "-5"],
        ["eval", "--phi0", "1/2", "--budget", "0"],
        ["orbit", "--start", "cut:[],1/2", "--budget", "0"],
        ["witness", "--alpha", "1/2", "--target", "1/2", "--delta", "0", "--budget", "0"],
        ["render", "--m", "1", "--budget", "0"],
    ],
)
def test_out_of_range_scales_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("usage error:")


# Half the literals are shallow dyadics of [0, 1]; the rest are junk,
# float-like, negative, out of range or not dyadic.  An exponent literal
# once stalled the parser for minutes.
GOOD = ["1/2", "1/4", "3/4", "3/8", "0", "1"]
BAD = [
    "junk", "", "1/0", "1/2/3", "nan", "inf", "0.5", ".25", "1e3", "1e99999999",
    "-1/2", "-1", "3/2", "1/3", "2/5",
]
literals = st.one_of(st.sampled_from(GOOD), st.sampled_from(BAD))
words = st.lists(literals, max_size=3).map(",".join)
points = st.one_of(
    st.builds("cut:[{}],{}".format, words, literals),
    st.builds("end:[{}]".format, words),
    st.sampled_from(["cut:[1/2]", "mid:[1/2],1/2", "cut:[1/2,1/4", "end:[1/2],0"]),
)
small = st.integers(-1, 3)


def command(name, required, optional):
    """argv for ``name``: every required flag and any subset of the optional
    ones, each written ``--flag=value``."""
    parts = [value.map(f"--{flag}={{}}".format) for flag, value in required.items()]
    parts += [
        st.one_of(st.none(), value.map(f"--{flag}={{}}".format))
        for flag, value in optional.items()
    ]
    return st.tuples(*parts).map(lambda got: [name] + [a for a in got if a])


BUDGET = {"budget": st.integers(-1, 32)}
argvs = st.one_of(
    command("eval", {}, dict(phi0=literals, tau0=literals, rho=words, point=points, **BUDGET)),
    command("orbit", dict(start=points), dict(n=small, m=small, **BUDGET)),
    command(
        "witness",
        dict(alpha=words, target=literals, delta=st.sampled_from(["0", "1", "01", "", "2"])),
        BUDGET,
    ),
    command(
        "render",
        dict(m=st.integers(0, 4)),
        dict(letters=st.integers(-1, 2), start=points, n=small, **BUDGET),
    ),
)


@settings(max_examples=80, deadline=None)
@given(argvs)
@example(["eval", "--phi0=1e99999999"])
@example(["eval", "--tau0=1/2", "--budget=-5"])
def test_generated_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
