package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops_total", "").Add(5)
	reg.Histogram("lat_seconds", "").Record(1024)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, ct := get("/metrics"); !strings.Contains(body, "ops_total 5") ||
		!strings.Contains(body, "# TYPE lat_seconds summary") ||
		!strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics: ct=%q body=%q", ct, body)
	}
	if body, _ := get("/metrics.json"); !strings.Contains(body, `"ops_total"`) {
		t.Fatalf("/metrics.json: %q", body)
	}
	if body, _ := get("/healthz"); !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %q", body)
	}
}
