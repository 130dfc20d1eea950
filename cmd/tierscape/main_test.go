package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"tierscape"
	"tierscape/internal/obs"
)

// TestBatchHealthFlags: batch mode serves /healthz with the -health-max-*
// thresholds, not the stock ones. One window with a small stall fraction
// is healthy under the defaults and degraded under -health-max-pressure
// 1e-9.
func TestBatchHealthFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, http.StatusOK},
		{[]string{"-health-max-pressure", "1e-9"}, http.StatusServiceUnavailable},
	} {
		o, err := testOptions(tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		live := tierscape.NewLiveMetrics()
		live.RecordWindow(obs.WindowSnapshot{Window: 1, AppNs: 1e9, Pressure: 0.01})
		srv := httptest.NewServer(obs.Handler(live, o.health))
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("flags %q: /healthz status %d, want %d", tc.args, resp.StatusCode, tc.want)
		}
	}
}
