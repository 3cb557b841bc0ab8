import datetime as dt

import pytest

from skillscope import net
from skillscope.cleanse import Posting
from skillscope.ingest import RawRecord

# a valid English description comfortably above the 30-token floor
LONG_EN = (
    "We are looking for a motivated professional to join our growing team. "
    "The successful candidate will work closely with colleagues across several "
    "departments and will be responsible for delivering high quality results "
    "on schedule and within the agreed budget every single week."
)

LONG_FR = (
    "Nous recherchons une personne motivée pour rejoindre notre équipe en pleine "
    "croissance. Le candidat retenu travaillera en étroite collaboration avec des "
    "collègues de plusieurs départements et sera responsable de fournir des "
    "résultats de haute qualité dans les délais et le budget convenus."
)


def record(text: str, date: str = "2022-03-04", source: str = "t", n: int = 0) -> RawRecord:
    return RawRecord(source_id=f"{source}:{n}", raw_date=date,
                     raw_text=text, source_format="csv")


def posting(text: str, year: int = 2022, pid: str = "p0") -> Posting:
    return Posting(id=pid, date=dt.date(year, 6, 15), year=year, description=text)


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retries of a web request go out at once."""
    monkeypatch.setattr(net, "BACKOFF_S", 0.0)


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    """Demo corpus plus a completed full pipeline run, shared by CLI and
    acceptance tests."""
    from skillscope.cli import RunConfig, run_all
    from skillscope.fixtures import write_demo_corpus

    root = tmp_path_factory.mktemp("demo")
    run_path = write_demo_corpus(root)
    cfg = RunConfig.load(run_path)
    run_all(cfg)
    return root
