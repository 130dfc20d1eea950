package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// healthyWindow is a snapshot every DefaultHealthConfig check passes on.
func healthyWindow(n int) WindowSnapshot {
	return WindowSnapshot{
		Window:           n,
		AppNs:            1e9,
		Pressure:         0.01,
		ThrashRegions:    0,
		StormBytesPerSec: 1 << 20,
	}
}

func TestHealthEval(t *testing.T) {
	l := NewLive()
	h := NewHealth(l, DefaultHealthConfig())

	// No windows yet: everything at zero, all checks pass.
	st := h.Eval()
	if st.Status != "ok" {
		t.Fatalf("empty aggregator: status %q, want ok", st.Status)
	}
	if len(st.Checks) != 4 {
		t.Fatalf("got %d checks, want 4 (pressure, thrash, storm, fallback rate)", len(st.Checks))
	}
	if len(st.Transitions) != 0 {
		t.Fatalf("no state change yet, got %d transitions", len(st.Transitions))
	}

	l.RecordWindow(healthyWindow(1))
	if st = h.Eval(); st.Status != "ok" {
		t.Fatalf("healthy window: status %q, want ok", st.Status)
	}

	// Breach two thresholds at once; both names must show up as reasons.
	w := healthyWindow(2)
	w.Pressure = 0.9
	w.ThrashRegions = 1000
	l.RecordWindow(w)
	st = h.Eval()
	if st.Status != "degraded" {
		t.Fatalf("breached window: status %q, want degraded", st.Status)
	}
	if len(st.Transitions) != 1 || st.Transitions[0].To != "degraded" {
		t.Fatalf("transitions = %+v, want one entry to degraded", st.Transitions)
	}
	reasons := strings.Join(st.Transitions[0].Reasons, ",")
	if !strings.Contains(reasons, "pressure") || !strings.Contains(reasons, "thrash_regions") {
		t.Fatalf("degraded reasons = %q, want pressure and thrash_regions", reasons)
	}
	// Degraded again: no new transition.
	if st = h.Eval(); len(st.Transitions) != 1 {
		t.Fatalf("steady degraded state grew transitions: %d", len(st.Transitions))
	}

	// Recover.
	l.RecordWindow(healthyWindow(3))
	st = h.Eval()
	if st.Status != "ok" {
		t.Fatalf("recovered window: status %q, want ok", st.Status)
	}
	if len(st.Transitions) != 2 || st.Transitions[1].To != "ok" {
		t.Fatalf("transitions = %+v, want degraded then ok", st.Transitions)
	}

	// The transitions feed the Live counters and gauge.
	vars := l.Vars().(map[string]any)
	trans, _ := vars["health_transitions"].(map[string]int64)
	if trans["degraded"] != 1 || trans["ok"] != 1 {
		t.Fatalf("live transition counters = %v, want ok:1 degraded:1", trans)
	}
	if got := vars["health_degraded"]; got != false {
		t.Fatalf("health_degraded = %v after recovery, want false", got)
	}
}

func TestHealthDisabledChecks(t *testing.T) {
	l := NewLive()
	w := healthyWindow(1)
	w.Pressure = 100 // would fail any enabled pressure check
	l.RecordWindow(w)

	h := NewHealth(l, HealthConfig{}) // zero value disables everything
	st := h.Eval()
	if st.Status != "ok" || len(st.Checks) != 0 {
		t.Fatalf("all checks disabled: status %q with %d checks, want ok with none", st.Status, len(st.Checks))
	}
}

func TestHealthEndpoint(t *testing.T) {
	l := NewLive()
	srv := httptest.NewServer(Handler(l, DefaultHealthConfig()))
	defer srv.Close()

	get := func() (int, HealthStatus) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q, want application/json", ct)
		}
		var st HealthStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("invalid /healthz JSON: %v\n%s", err, body)
		}
		return resp.StatusCode, st
	}

	l.RecordWindow(healthyWindow(1))
	if code, st := get(); code != http.StatusOK || st.Status != "ok" {
		t.Fatalf("healthy probe: %d %q, want 200 ok", code, st.Status)
	}

	w := healthyWindow(2)
	w.StormBytesPerSec = 1 << 40 // over the 8 GiB/s default
	l.RecordWindow(w)
	code, st := get()
	if code != http.StatusServiceUnavailable || st.Status != "degraded" {
		t.Fatalf("degraded probe: %d %q, want 503 degraded", code, st.Status)
	}
	if len(st.Transitions) == 0 || st.Transitions[len(st.Transitions)-1].To != "degraded" {
		t.Fatalf("degraded probe transitions = %+v", st.Transitions)
	}
}
