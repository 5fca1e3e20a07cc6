"""The one exit rule of ``cli.main``: 2 for a ConfigError or an InvalidHyperError, 1 for any
other JacobiPriorError or an OSError, each with one line, ``error: <message>``, on stderr."""

import pytest

from jacobiprior.cli import main

# case -> (argv, exit code, the error message); run in a directory that holds d.csv (x1..x8, y),
# m.json (a logit fit of it), bad.json, x1.csv, and latin1.json and latin1.csv, each with a 0xff byte.
EXITS = {
    "lone --a": (["fit", "--train", "d.csv", "--target", "y", "--a", "0.5", "--model-out", "o.json"],
                 2, "--a and --b must be given together"),
    "no --target": (["fit", "--train", "d.csv", "--model-out", "o.json"],
                    2, "--target is required for single-response families"),
    "shape out of range": (["fit", "--train", "d.csv", "--target", "y", "--a", "-1", "--b", "1",
                            "--model-out", "o.json"], 2, "need finite a > 0, got a=-1.0"),
    "config not JSON": (["experiment", "--config", "bad.json", "--out", "e"], 2,
                        "bad.json: invalid JSON: Expecting property name enclosed in double quotes: "
                        "line 1 column 2 (char 1)"),
    "config not UTF-8": (["experiment", "--config", "latin1.json", "--out", "e"], 2,
                         "latin1.json: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 1: "
                         "invalid start byte"),
    "CSV not UTF-8": (["fit", "--train", "latin1.csv", "--target", "y", "--model-out", "o.json"], 2,
                      "latin1.csv: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 7: "
                      "invalid start byte"),
    "missing feature": (["predict", "--model", "m.json", "--data", "x1.csv", "--out", "p.csv"],
                        1, "data is missing feature column 'x2'"),
    "missing output directory": (["fit", "--train", "d.csv", "--target", "y",
                                  "--model-out", "missing/m.json"],
                                 1, "[Errno 2] No such file or directory: 'missing/m.json'"),
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--kind", "logistic", "--n", "40", "--seed", "3", "--out", "d.csv"]) == 0
    assert main(["fit", "--train", "d.csv", "--target", "y", "--model-out", "m.json"]) == 0
    (tmp_path / "bad.json").write_text("{nope}\n")
    (tmp_path / "x1.csv").write_text("x1\n0.5\n")
    (tmp_path / "latin1.json").write_bytes(b'{\xff}\n')
    (tmp_path / "latin1.csv").write_bytes(b"x1,y\n0.\xff,1\n")
    return tmp_path


@pytest.mark.parametrize("case", sorted(EXITS))
def test_one_exit_rule(workdir, capsys, case):
    argv, code, message = EXITS[case]
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(workdir.joinpath(name).exists() for name in ("o.json", "p.csv", "e", "missing"))
