package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeMetricsAndHealthz(t *testing.T) {
	r := New(WithNow(func() time.Duration { return 5 * time.Second }))
	r.Counter("avis_images_total", "Images fetched.").Add(2)
	r.Histogram("avis_fetch_seconds", "Fetch latency.").Observe(0.125)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE avis_images_total counter",
		"avis_images_total 2",
		"# TYPE avis_fetch_seconds histogram",
		`avis_fetch_seconds_bucket{le="+Inf"} 1`,
		"avis_fetch_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	jsonBody, jsonType := get("/metrics?format=json")
	if !strings.Contains(jsonType, "application/json") {
		t.Errorf("json content type = %q", jsonType)
	}
	if !strings.Contains(jsonBody, `"at_seconds": 5`) {
		t.Errorf("json export missing injected timestamp:\n%s", jsonBody)
	}

	health, _ := get("/healthz")
	if strings.TrimSpace(health) != "ok" {
		t.Errorf("/healthz = %q, want ok", health)
	}
}

// TestServePprof: the telemetry mux also answers the runtime profile
// routes, so every -metrics-addr is a profiling endpoint too.
func TestServePprof(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes; want 200 and a body", path, resp.StatusCode, len(body))
		}
	}
}

func TestServeBadAddrFailsFast(t *testing.T) {
	if _, err := Serve("256.0.0.1:bogus", New()); err == nil {
		t.Fatal("Serve on a bogus address must fail synchronously")
	}
}
