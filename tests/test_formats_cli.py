import json

import numpy as np
import pytest

from combtester import formats
from combtester.channels import Channel, comb_from_sequence, identity_channel, unitary_channel
from combtester.cli import build_parser, main
from combtester.matcore import LabeledOperator, tensor
from combtester.sampling import random_kraus, random_povm
from combtester.separation import build_example
from combtester import testers
from combtester.testers import TesterCircuit

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    p = tmp_path / "m.json"
    formats.save(p, m)
    back = formats.load(p)
    assert isinstance(back, np.ndarray)
    assert np.array_equal(back, m)


def test_counterexample_choi_round_trip_is_byte_identical(tmp_path):
    inst = build_example(2)
    p1, p2 = tmp_path / "c0.json", tmp_path / "c0_again.json"
    formats.save(p1, inst.c0)
    back = formats.load(p1)
    assert np.array_equal(back.choi.matrix, inst.c0.choi.matrix)
    formats.save(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_channel_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    ch = Channel(tuple(random_kraus(2, 3, 2, rng)), 2, 3)
    p = tmp_path / "ch.json"
    formats.save(p, ch)
    back = formats.load(p)
    assert back.in_dim == 2 and back.out_dim == 3
    assert all(np.array_equal(a, b) for a, b in zip(back.kraus, ch.kraus))


def test_tester_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    state = np.zeros((4, 4), dtype=complex)
    state[0, 0] = 1.0
    tc = TesterCircuit(state, (), tuple(random_povm(4, 2, rng)), (2, 2), (2,))
    t = testers.tester_from_circuit(tc)
    p = tmp_path / "t.json"
    formats.save(p, t)
    back = formats.load(p)
    assert back.uses == 1
    assert np.array_equal(back.elements[0].matrix, t.elements[0].matrix)
    assert np.array_equal(back.chain[0].matrix, t.chain[0].matrix)


def test_malformed_dims_names_offending_label(tmp_path):
    doc = {
        "kind": "choi",
        "labels": [0, 1],
        "dims": {"0": 2},
        "data": [[[1.0, 0.0]]],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(formats.FormatError, match="label 1"):
        formats.load(p)


def test_inconsistent_shape_rejected(tmp_path):
    doc = {
        "kind": "choi",
        "labels": [0],
        "dims": {"0": 2},
        "data": [[[1.0, 0.0]]],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(formats.FormatError, match="does not match"):
        formats.load(p)


def test_non_psd_choi_rejected(tmp_path):
    doc = {
        "kind": "choi",
        "labels": [0, 1],
        "dims": {"0": 2, "1": 2},
        "data": [[[float(x), 0.0] for x in row] for row in np.diag([1, 1, 1, -1.0])],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(formats.FormatError, match="positive semidefinite"):
        formats.load(p)


def test_metadata_round_trip(tmp_path):
    # every kind writes its metadata and loads back bit exact: saving what was
    # loaded, with the same metadata, writes the same bytes
    rng = np.random.default_rng(4)
    ch = Channel(tuple(random_kraus(2, 3, 2, rng)), 2, 3)
    mc = comb_from_sequence([ch])
    tc = TesterCircuit(np.diag([0.25, 0.75]).astype(complex), (),
                       tuple(random_povm(3, 2, rng)), (2, 3), (1,))
    kinds = {"matrix": rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
             "choi": mc.choi.permuted((1, 0)), "comb": mc, "channel": ch,
             "tester": testers.tester_from_circuit(tc)}
    for kind, obj in kinds.items():
        p, again = tmp_path / f"{kind}.json", tmp_path / f"{kind}_again.json"
        formats.save(p, obj, metadata=f"one {kind}")
        doc = json.loads(p.read_text())
        assert (doc["kind"], doc["metadata"]) == (kind, f"one {kind}")
        formats.save(again, formats.load(p), metadata=f"one {kind}")
        assert again.read_bytes() == p.read_bytes()
    choi = formats.load(tmp_path / "choi.json")
    assert isinstance(choi, LabeledOperator) and choi.labels == (1, 0)
    assert np.array_equal(choi.matrix, kinds["choi"].matrix)
    assert np.array_equal(formats.load(tmp_path / "comb.json").choi.matrix, mc.choi.matrix)


_PAIR = [1.0, 0.0]
_CHOI = {"kind": "choi", "labels": [0], "dims": {"0": 1}, "data": [[_PAIR]]}
_NOT_TP = [[[2.0, 0.0]]]  # the Kraus operator 2 on a qubit's first level


@pytest.mark.parametrize("doc,message", [
    (dict(_CHOI, data=5), "non-empty nested array"),
    (dict(_CHOI, data=[[[1.0]]]), r"\[re, im\] pairs"),
    (dict(_CHOI, data=[[_PAIR, _PAIR], [_PAIR]]), "rectangular matrix"),
    (dict(_CHOI, data=[[[float("nan"), 0.0]]]), "finite"),
    (dict(_CHOI, labels=None), "missing or empty 'labels'"),
    (dict(_CHOI, labels=[]), "missing or empty 'labels'"),
    (dict(_CHOI, dims=[1]), "'dims' must map"),
    (dict(_CHOI, labels=[0, 1], dims={"0": 1, "1": 2},
          data=[[_PAIR, _PAIR], [[0.0, 0.0], _PAIR]]), "not Hermitian"),
    ([_CHOI], "expected a JSON object"),
    (dict(_CHOI, kind="state"), "'kind' must be one of"),
    (dict(_CHOI, kind="comb"), "comb requires 'uses'"),
    (dict(_CHOI, kind="comb", uses=1, labels=[0, 0]), "labels must be distinct"),
    ({"kind": "channel", "in_dim": 1, "out_dim": 1}, "channel requires 'kraus'"),
    ({"kind": "channel", "in_dim": 1, "out_dim": 1, "kraus": [_NOT_TP]},
     "trace preservation"),
    ("{not json", "invalid JSON"),
    (b"\xff{", "invalid JSON"),  # not UTF-8 text
])
def test_malformed_documents_are_format_errors_naming_the_file(tmp_path, doc, message):
    p = tmp_path / "bad.json"
    if isinstance(doc, bytes):
        p.write_bytes(doc)
    else:
        p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(formats.FormatError, match=message) as exc:
        formats.load(p)
    assert str(exc.value).startswith(str(p))


def test_saving_an_unknown_type_is_a_format_error(tmp_path):
    with pytest.raises(formats.FormatError, match="cannot serialize object of type dict"):
        formats.save(tmp_path / "x.json", {"kind": "choi"})


@pytest.mark.parametrize("command,doc", [
    ("validate", {"kind": "matrix", "data": [[_PAIR, _PAIR], [_PAIR]]}),
    ("theta", {"kind": "matrix", "data": [[_PAIR, _PAIR], [_PAIR]]}),
    ("validate", dict(_CHOI, kind="comb", uses=1, data=[[[float("nan"), 0.0]]])),
    ("validate", dict(_CHOI, kind="comb", uses=1, labels=[0, 0])),
    ("theta", {"kind": "matrix", "data": [[_PAIR, [float("nan"), 0.0]], [_PAIR, _PAIR]]}),
])
def test_cli_malformed_file_is_a_usage_error(tmp_path, capsys, command, doc):
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([command, str(f)])
    assert exc.value.code == 64
    assert str(f) in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,where", [
    ("theta", {"kind": "matrix", "data": [[_PAIR, _PAIR]]}, ""),
    ("theta", {"kind": "matrix", "data": [[]]}, ""),
    # a tester element of shape (1, 2) on dims {0: 1, 1: 2}
    ("validate", {"kind": "tester", "uses": 1, "labels": [0, 1], "dims": {"0": 1, "1": 2},
                  "elements": [[[[1, 0], [0, 0]]]], "chain": [[[[1, 0]]]]}, ".elements[0]"),
])
def test_cli_non_square_matrix_is_a_usage_error(tmp_path, capsys, command, doc, where):
    # the shape is the fault, named with the file (and element) it sits in
    f = tmp_path / "non_square.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([command, str(f)])
    assert exc.value.code == 64
    assert f"{f}{where}: expected a square matrix" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    f = tmp_path / "not_unitary.json"
    formats.save(f, np.diag([1.0, 2.0]).astype(complex))
    assert main(["theta", str(f)]) == 70
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "ValueError"


def test_tester_missing_chain_lists_fields(tmp_path):
    doc = {
        "kind": "tester",
        "uses": 1,
        "labels": [0, 1],
        "dims": {"0": 2, "1": 2},
        "elements": [],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(formats.FormatError, match="chain"):
        formats.load(p)


def test_tester_chain_with_wrong_dims_is_a_format_error(tmp_path):
    elements = [
        tensor(LabeledOperator(np.diag([1.0, 0.0]), (0,), (2,)),
               LabeledOperator(m, (1,), (3,)))
        for m in (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]))
    ]
    doc = formats.to_document(testers.tester_from_elements(elements, 1))
    doc["chain"][0] = formats.to_document(np.eye(3) / 3)["data"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(formats.FormatError, match="inconsistent with dims"):
        formats.load(p)


def _files(tmp_path):
    ci = comb_from_sequence([identity_channel(2)])
    cx = comb_from_sequence([unitary_channel(X)])
    fi, fx = tmp_path / "ci.json", tmp_path / "cx.json"
    formats.save(fi, ci)
    formats.save(fx, cx)
    return str(fi), str(fx)


def test_cli_validate_ok(tmp_path, capsys):
    fi, _ = _files(tmp_path)
    assert main(["validate", fi]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_cli_validate_rejects_corrupted(tmp_path, capsys):
    mc = comb_from_sequence([identity_channel(2)])
    from combtester.channels import MemoryChannel

    bad = MemoryChannel(1.1 * mc.choi, 1)
    f = tmp_path / "bad.json"
    formats.save(f, bad)
    assert main(["validate", str(f)]) == 1


def test_cli_discriminate_exit_codes(tmp_path):
    fi, fx = _files(tmp_path)
    assert main(["discriminate", "--mode", "parallel", fi, fx]) == 0
    assert main(["discriminate", "--mode", "parallel", fi, fi]) == 2
    assert main(["discriminate", "--mode", "causal", fi, fx]) == 0


def test_cli_discriminate_undetermined(tmp_path):
    # spread just below pi: one use is proven infeasible by the distance
    # bound at the uniform point; followed by an identity use, the causal
    # minimum lands between the feasibility and infeasibility thresholds,
    # and a multi-use decision has no bound
    u = unitary_channel(np.diag([1.0, np.exp(1j * (np.pi - 2e-3))]))
    files = []
    for rest in ([], [identity_channel(2)]):
        for first in (identity_channel(2), u):
            files.append(str(tmp_path / f"c{len(files)}.json"))
            formats.save(files[-1], comb_from_sequence([first] + rest))
    assert main(["discriminate", "--mode", "parallel", *files[:2]]) == 2
    assert main(["discriminate", "--mode", "causal", *files[2:]]) == 3


def test_cli_distance(tmp_path, capsys):
    fi, fx = _files(tmp_path)
    assert main(["distance", "--kind", "cb", fi, fx, "--restarts", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 2.0) < 1e-3
    # the default stop rule closes the certified interval
    assert out["upper"] - out["value"] <= 1e-6


def test_cli_theta(tmp_path, capsys):
    f = tmp_path / "u.json"
    formats.save(f, np.eye(2, dtype=complex))
    assert main(["theta", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theta"] == 0.0 and out["discriminability"] == 1.0


def test_cli_theta_laws(capsys):
    assert main(["theta-laws", "--samples", "50", "--dim", "2", "--seed", "9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["samples"] == 50
    assert out["max_conjugation_gap"] <= 1e-9
    assert out["max_subadditivity_violation"] <= 1e-9
    assert out["max_tensor_gap_under_additive_guard"] <= 1e-9
    assert all(np.isfinite(v) for v in out.values() if isinstance(v, float))


def test_cli_paper_example(tmp_path, capsys):
    assert main(["paper-example", "--d", "2"]) == 0
    text = capsys.readouterr().out
    # an input state file holding |0> gives the default run
    psi = tmp_path / "psi.json"
    formats.save(psi, np.array([[1.0, 0.0]], dtype=complex))
    assert main(["paper-example", "--d", "2", "--psi", str(psi)]) == 0
    assert capsys.readouterr().out == text
    out = json.loads(text)
    assert out["protocol"]["max_delta_error"] <= 1e-10
    assert out["protocol"]["tester_valid"] is True
    assert out["parallel_impossibility"]["identity_residual"] <= 1e-12
    assert out["combs"]["c0"]["valid"] and out["combs"]["c1"]["valid"]


@pytest.mark.parametrize("psi, message", [
    (np.array([[1.0, 0.0, 0.0]]), "protocol input must have dimension 2"),
    (np.array([[1.0, 1.0]]), "protocol input state must be normalized"),
])
def test_cli_paper_example_rejects_a_bad_input_state(tmp_path, capsys, psi, message):
    # a numerical failure: exit 70, the error as JSON on stderr, no report
    f = tmp_path / "psi.json"
    formats.save(f, psi.astype(complex))
    assert main(["paper-example", "--d", "2", "--psi", str(f)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}


_DECISION_KEYS = ["feasible", "status", "residual", "upper", "iterations", "capped"]


def test_cli_report_layouts(tmp_path, capsys):
    # every report prints its fields in declaration order, nested reports
    # included, and leaves out its operators and histories
    fi, fx = _files(tmp_path)
    t = testers.tester_from_circuit(TesterCircuit(
        np.diag([1.0, 0.0]).astype(complex), (), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        (2, 2), (1,)))
    ft = tmp_path / "t.json"
    formats.save(ft, t)

    def report(argv):
        main(argv)
        return json.loads(capsys.readouterr().out)

    assert list(report(["discriminate", "--mode", "parallel", fi, fx])) == _DECISION_KEYS
    for kind in ("cb", "memory"):
        out = report(["distance", "--kind", kind, fi, fx, "--restarts", "2"])
        assert list(out) == ["value", "upper", "iterations", "capped"]
    assert list(report(["validate", fi])) == [
        "kind", "valid", "max_residual", "level_residuals", "min_eigenvalue"]
    assert list(report(["validate", str(ft)])) == [
        "kind", "valid", "max_residual", "normalization_residual", "chain_residuals",
        "min_element_eigenvalue"]
    imp = report(["paper-example", "--d", "2"])["parallel_impossibility"]
    assert list(imp) == ["d", "identity_residual", "proportionality_residual",
                         "fitted_constant", "expected_constant",
                         "quoted_constant_residual", "solver"]
    assert list(imp["solver"]) == _DECISION_KEYS


def test_cli_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["discriminate", "--mode", "sideways", "a", "b"])
    assert exc.value.code == 64
    f = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(f)])
    assert exc.value.code == 64
    # a single-use choi file must carry the labels (0, 1)
    fi, _ = _files(tmp_path)
    choi = formats.load(fi).choi
    bad = tmp_path / "relabelled.json"
    formats.save(bad, LabeledOperator(choi.matrix, (3, 5), choi.dims))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["discriminate", "--mode", "causal", str(bad), fi])
    assert exc.value.code == 64
    assert "got (3, 5)" in capsys.readouterr().err


def test_cli_reads_a_single_use_choi_file_as_its_comb(tmp_path, capsys):
    combs = _files(tmp_path)
    chois = []
    for f in combs:
        chois.append(f.replace(".json", "_choi.json"))
        formats.save(chois[-1], formats.load(f).choi.permuted((1, 0)))
    for command in (["discriminate", "--mode", "parallel"],
                    ["distance", "--kind", "cb", "--restarts", "3"]):
        outs = []
        for files in (list(combs), chois):
            main(command + files)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [["distance", "--kind", "cb"]])
@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_cli_rejects_restarts_below_one(tmp_path, capsys, command, restarts):
    fi, fx = _files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + [fi, fx, "--restarts", restarts])
    assert exc.value.code == 64
    assert "--restarts: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["theta-laws", "--samples", "-2"], "--samples: must be at least 1"),
    (["theta-laws", "--samples", "0"], "--samples: must be at least 1"),
    (["theta-laws", "--dim", "0"], "--dim: must be at least 1"),
    (["paper-example", "--d", "1"], "--d: must be at least 2"),
])
def test_cli_rejects_integer_options_below_their_bound(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert message in capsys.readouterr().err


def test_cli_deterministic_given_seed(tmp_path, capsys):
    # no solver step is random: a distance takes no seed, and paper-example's
    # changes nothing
    fi, fx = _files(tmp_path)
    outs = []
    for argv in (["distance", "--kind", "cb", fi, fx, "--restarts", "5"],) * 2 + (
            ["paper-example", "--d", "2", "--seed", "3"], ["paper-example", "--d", "2"]):
        main(argv)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[2] == outs[3]


# subcommand argv (positionals filled in), the shared options it reads, and
# the shared options it does not read
_SUBCOMMAND_OPTIONS = [
    (["validate", "f"], {"--tol"}),
    (["discriminate", "--mode", "causal", "a", "b"], set()),
    (["distance", "--kind", "cb", "a", "b"], {"--restarts"}),
    (["theta", "f"], set()),
    (["theta-laws"], {"--seed"}),
    (["paper-example"], {"--seed"}),
]
_SHARED_VALUES = {"--seed": ("7", 7), "--tol": ("1e-6", 1e-6), "--restarts": ("5", 5)}


@pytest.mark.parametrize("argv,reads", _SUBCOMMAND_OPTIONS)
def test_cli_subcommands_accept_only_the_options_they_read(argv, reads):
    parser = build_parser()
    for flag in reads:
        text, value = _SHARED_VALUES[flag]
        assert getattr(parser.parse_args(argv + [flag, text]), flag[2:]) == value
    for flag in set(_SHARED_VALUES) - reads:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [flag, _SHARED_VALUES[flag][0]])
        assert exc.value.code == 64


def test_cli_option_defaults_stay_per_subcommand():
    parser = build_parser()
    assert parser.parse_args(["distance", "--kind", "cb", "a", "b"]).restarts == 20
    assert parser.parse_args(["theta-laws"]).seed == 0
    assert parser.parse_args(["paper-example"]).seed == 0
    assert parser.parse_args(["validate", "f"]).tol == 1e-9
