import numpy as np
import pytest

from ddradar import (
    CodeMatrix,
    random_code,
    read_code,
    reference_bad_code,
    reference_good_code,
    write_code,
)


def test_random_code_deterministic(p_default):
    a = random_code(p_default, seed=123)
    b = random_code(p_default, seed=123)
    assert np.array_equal(a.entries, b.entries)


def test_random_code_seeds_differ(p_default):
    a = random_code(p_default, seed=1)
    b = random_code(p_default, seed=2)
    assert not np.array_equal(a.entries, b.entries)


def test_random_code_entries(p_default):
    code = random_code(p_default, seed=7)
    assert int(np.sum(code.entries**2)) == 64


def test_reference_matrices():
    good = reference_good_code()
    bad = reference_bad_code()
    assert good.entries[0, 0] == -1
    assert good.entries[7, 0] == +1
    assert list(good.entries[0]) == [-1, 1, -1, 1, -1, 1, -1, -1]
    assert list(good.entries[7]) == [1, 1, 1, 1, -1, 1, 1, -1]
    assert bad.entries[0, 0] == -1
    assert bad.entries[1, 0] == +1
    assert list(bad.entries[0]) == [-1, -1, 1, -1, -1, -1, 1, 1]
    for code in (good, bad):
        assert np.all(np.abs(code.entries) == 1)


def test_code_matrix_rejects_bad_entries():
    with pytest.raises(ValueError, match="must all be"):
        CodeMatrix(np.array([[1, 0], [1, -1]]))
    with pytest.raises(ValueError, match="must be 2-D"):
        CodeMatrix(np.array([1, -1]))


def test_code_file_round_trip(tmp_path, p_default):
    code = random_code(p_default, seed=99)
    path = tmp_path / "code.txt"
    write_code(path, code)
    back = read_code(path, p_default)
    assert np.array_equal(back.entries, code.entries)
    # blank and whitespace-only lines are skipped, wherever they fall
    lines = path.read_text().splitlines()
    path.write_text("\n" + "\n  \n".join(lines) + "\n\n")
    assert np.array_equal(read_code(path, p_default).entries, code.entries)


@pytest.mark.parametrize("content", ["1 2\n-1 1\n", "1 x\n1 1\n", "1.0 -1\n1 1\n", "1 -1\n1\n", ""])
def test_code_file_rejects_bad_content(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError):
        read_code(path)
