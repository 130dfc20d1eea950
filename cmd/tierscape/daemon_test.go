package main

import (
	"strings"
	"testing"

	"tierscape/internal/daemon"
)

// TestSpecBuilderRejectsBadSpecs: attach specs with unknown fields or
// negative counts are refused with an error (which /command turns into a
// 400) instead of being silently ignored, while well-formed specs still
// build.
func TestSpecBuilderRejectsBadSpecs(t *testing.T) {
	b := &specBuilder{defaults: specDefaults{
		Workload: "memcached-ycsb",
		Model:    "am",
		Alpha:    0.1,
		Pct:      25,
		Tiers:    "standard",
		Pages:    2 * 512,
		Seed:     42,
		Ops:      1000,
		Push:     2,
	}}
	cases := []struct {
		name, spec string
		wantErr    string // "" = must build
	}{
		{"empty", ``, ""},
		{"defaults", `{}`, ""},
		{"overrides", `{"pages":1024,"push":1,"ops":500,"prefetch":4,"compact_budget":16}`, ""},
		{"negative pages", `{"pages":-5}`, "pages must not be negative"},
		{"negative push", `{"push":-1}`, "push must not be negative"},
		{"negative ops", `{"ops":-2}`, "ops must not be negative"},
		{"negative prefetch", `{"prefetch":-3}`, "prefetch must not be negative"},
		{"negative compact budget", `{"compact_budget":-9}`, "compact_budget must not be negative"},
		{"unknown field", `{"bogus_field":1}`, `unknown field "bogus_field"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as := daemon.AttachSpec{Name: "w"}
			if tc.spec != "" {
				as.Spec = []byte(tc.spec)
			}
			cfg, err := b.build(as)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("build(%s): %v", tc.spec, err)
				}
				if cfg.Manager == nil || cfg.Workload == nil {
					t.Fatalf("build(%s): incomplete config %+v", tc.spec, cfg)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("build(%s): err = %v, want %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}
