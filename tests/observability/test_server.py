"""The live ops HTTP endpoint: routes, payload shapes, lifecycle."""

import json
import urllib.error
import urllib.request

import pytest

from repro.observability import Telemetry
from repro.relational import Engine

EDGES = [(i, (i * 3 + 1) % 20) for i in range(40)]


@pytest.fixture()
def served_engine(tmp_path):
    telemetry = Telemetry(profiling=True, slow_query_ms=0.0,
                          flight_dir=str(tmp_path / "flight"))
    engine = Engine("postgres", telemetry=telemetry)
    engine.database.load_edge_table("E", EDGES, weighted=False)
    engine.execute("select count(*) as n from E")
    server = engine.serve_metrics()
    yield engine, server
    server.stop()


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


def fetch_json(url: str):
    status, _, body = fetch(url)
    return status, json.loads(body)


class TestRoutes:
    def test_metrics_is_prometheus_text(self, served_engine):
        _, server = served_engine
        status, headers, body = fetch(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_queries_total" in body
        assert 'quantile="0.5"' in body

    def test_metrics_scrape_refreshes_storage_gauges(self, served_engine):
        _, server = served_engine
        _, _, body = fetch(server.url + "/metrics")
        assert "repro_storage_index_rebuilds" in body

    def test_healthz(self, served_engine):
        engine, server = served_engine
        status, payload = fetch_json(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["dialect"] == "postgres"
        assert payload["storage"] == engine.storage
        assert payload["profiling"] is True
        assert payload["flight"] is True
        assert payload["queries_logged"] >= 1
        assert payload["uptime_s"] >= 0

    def test_queries_newest_first_with_limit(self, served_engine):
        engine, server = served_engine
        engine.execute("select count(*) as n2 from E")
        status, payload = fetch_json(server.url + "/queries?n=1")
        assert status == 200
        assert payload["count"] >= 2
        assert len(payload["entries"]) == 1
        assert "n2" in payload["entries"][0]["sql"]
        assert payload["entries"][0]["storage"] == engine.storage

    def test_profile_snapshot(self, served_engine):
        _, server = served_engine
        status, payload = fetch_json(server.url + "/profile")
        assert status == 200
        assert payload["enabled"] is True
        assert payload["format"] == "repro-profile-v1"
        assert payload["queries"] >= 1
        assert payload["top_operators"]

    def test_flight_listing(self, served_engine):
        engine, server = served_engine
        status, payload = fetch_json(server.url + "/flight")
        assert status == 200
        assert payload["enabled"] is True
        # slow_query_ms=0 → the warm-up query produced a bundle.
        assert payload["bundles"]
        assert payload["bundles"][0]["path"].endswith(".json")

    def test_flight_route_without_recorder(self):
        engine = Engine("postgres")
        server = engine.serve_metrics()
        try:
            _, payload = fetch_json(server.url + "/flight")
            assert payload == {"enabled": False, "bundles": []}
        finally:
            server.stop()

    def test_unknown_route_is_404_with_route_list(self, served_engine):
        _, server = served_engine
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + "/nope")
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read().decode())
        assert "/metrics" in payload["routes"]


class TestLifecycle:
    def test_context_manager_stops_server(self):
        engine = Engine("postgres")
        with engine.serve_metrics() as server:
            url = server.url
            status, _ = fetch_json(url + "/healthz")
            assert status == 200
        with pytest.raises(urllib.error.URLError):
            fetch(url + "/healthz")

    def test_port_zero_binds_ephemeral(self):
        engine = Engine("postgres")
        server = engine.serve_metrics(port=0)
        try:
            assert server.port > 0
            assert str(server.port) in server.url
        finally:
            server.stop()
