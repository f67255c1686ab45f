import pytest

from divcensus import census


@pytest.fixture
def built_results(monkeypatch):
    """The N of every CensusResult that census builds during the test, in order."""
    built = []
    real = census.CensusResult

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        built.append(result.N)
        return result

    monkeypatch.setattr(census, "CensusResult", counting)
    return built
