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
    mc = comb_from_sequence([identity_channel(2)])
    p = tmp_path / "c.json"
    formats.save(p, mc, metadata="noiseless single use")
    assert json.loads(p.read_text())["metadata"] == "noiseless single use"
    back = formats.load(p)
    assert np.array_equal(back.choi.matrix, mc.choi.matrix)


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
    assert main(["discriminate", "--mode", "parallel", fi, fx, "--restarts", "4"]) == 0
    assert main(["discriminate", "--mode", "parallel", fi, fi, "--restarts", "3"]) == 2
    assert main(["discriminate", "--mode", "causal", fi, fx, "--restarts", "3"]) == 0


def test_cli_discriminate_undetermined(tmp_path):
    # spread just below pi: the converged minimum lands between the
    # feasibility and infeasibility thresholds
    fi, _ = _files(tmp_path)
    theta = np.pi - 2e-3
    cu = comb_from_sequence([unitary_channel(np.diag([1.0, np.exp(1j * theta)]))])
    fu = tmp_path / "cu.json"
    formats.save(fu, cu)
    assert main(["discriminate", "--mode", "parallel", fi, str(fu),
                 "--restarts", "3"]) == 3


def test_cli_distance(tmp_path, capsys):
    fi, fx = _files(tmp_path)
    assert main(["distance", "--kind", "cb", fi, fx, "--restarts", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 2.0) < 1e-3


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


def test_cli_paper_example(capsys):
    assert main(["paper-example", "--d", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["protocol"]["max_delta_error"] <= 1e-10
    assert out["protocol"]["tester_valid"] is True
    assert out["parallel_impossibility"]["identity_residual"] <= 1e-12
    assert out["combs"]["c0"]["valid"] and out["combs"]["c1"]["valid"]


_DECISION_KEYS = ["feasible", "status", "residual", "iterations", "restarts"]


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

    assert list(report(["discriminate", "--mode", "parallel", fi, fx, "--restarts", "2"])) \
        == _DECISION_KEYS
    for kind in ("cb", "memory"):
        out = report(["distance", "--kind", kind, fi, fx, "--restarts", "2"])
        assert list(out) == ["value", "iterations", "restarts", "capped"]
    assert list(report(["validate", fi])) == [
        "kind", "valid", "max_residual", "level_residuals", "min_eigenvalue"]
    assert list(report(["validate", str(ft)])) == [
        "kind", "valid", "max_residual", "normalization_residual", "chain_residuals",
        "min_element_eigenvalue"]
    imp = report(["paper-example", "--d", "2", "--restarts", "1"])["parallel_impossibility"]
    assert list(imp) == ["d", "identity_residual", "proportionality_residual",
                         "fitted_constant", "expected_constant",
                         "quoted_constant_residual", "solver"]
    assert list(imp["solver"]) == _DECISION_KEYS


def test_cli_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["discriminate", "--mode", "sideways", "a", "b"])
    assert exc.value.code == 64
    f = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(f)])
    assert exc.value.code == 64


@pytest.mark.parametrize("command", [["distance", "--kind", "cb"],
                                     ["discriminate", "--mode", "parallel"]])
@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_cli_rejects_restarts_below_one(tmp_path, capsys, command, restarts):
    fi, fx = _files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + [fi, fx, "--restarts", restarts])
    assert exc.value.code == 64
    assert "--restarts: must be at least 1" in capsys.readouterr().err


def test_cli_deterministic_given_seed(tmp_path, capsys):
    fi, fx = _files(tmp_path)
    main(["distance", "--kind", "cb", fi, fx, "--seed", "3", "--restarts", "5"])
    first = capsys.readouterr().out
    main(["distance", "--kind", "cb", fi, fx, "--seed", "3", "--restarts", "5"])
    second = capsys.readouterr().out
    assert first == second


# subcommand argv (positionals filled in), the shared options it reads, and
# the shared options it does not read
_SUBCOMMAND_OPTIONS = [
    (["validate", "f"], {"--tol"}),
    (["discriminate", "--mode", "causal", "a", "b"], {"--seed", "--restarts"}),
    (["distance", "--kind", "cb", "a", "b"], {"--seed", "--restarts"}),
    (["theta", "f"], set()),
    (["theta-laws"], {"--seed"}),
    (["paper-example"], {"--seed", "--restarts"}),
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
    # paper-example's own restart default does not leak into the others
    assert parser.parse_args(["paper-example"]).restarts == 3
    for argv in _SUBCOMMAND_OPTIONS[1:3]:
        args = parser.parse_args(argv[0])
        assert (args.seed, args.restarts) == (0, 20)
    assert parser.parse_args(["validate", "f"]).tol == 1e-9
