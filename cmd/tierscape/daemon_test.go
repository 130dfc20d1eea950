package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"tierscape/internal/daemon"
)

// testOptions parses args on a fresh flag set, as main does on the
// command line.
func testOptions(args ...string) (options, error) {
	fs := flag.NewFlagSet("tierscape", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// small keeps the attach-path builds cheap.
var small = []string{"-pages", "1024", "-ops", "1000"}

// TestSpecBuilderRejectsBadSpecs runs every case through both paths: the
// batch flags and a daemon attach spec. Unknown keys and out-of-range
// counts are refused with the same validation message on both (an
// attach error becomes a 400 on /command, a flag error exit status 2),
// while well-formed specs still build.
func TestSpecBuilderRejectsBadSpecs(t *testing.T) {
	def, err := testOptions(small...)
	if err != nil {
		t.Fatal(err)
	}
	b := &specBuilder{defaults: def.spec}
	cases := []struct {
		name, spec string
		args       []string
		wantErr    string // "" = must build
	}{
		{"empty", ``, nil, ""},
		{"defaults", `{}`, nil, ""},
		{"overrides", `{"pages":1024,"push":1,"ops":500,"prefetch":4,"compact_budget":16}`,
			[]string{"-pages", "1024", "-push", "1", "-ops", "500", "-prefetch", "4", "-compact-budget", "16"}, ""},
		{"zero push", `{"push":0}`, []string{"-push", "0"}, ""},
		{"negative pages", `{"pages":-5}`, []string{"-pages", "-5"}, "pages must be at least 1, got -5"},
		{"zero pages", `{"pages":0}`, []string{"-pages", "0"}, "pages must be at least 1, got 0"},
		{"negative push", `{"push":-1}`, []string{"-push", "-1"}, "push must be at least 0, got -1"},
		{"negative ops", `{"ops":-2}`, []string{"-ops", "-2"}, "ops must be at least 1, got -2"},
		{"zero ops", `{"ops":0}`, []string{"-ops", "0"}, "ops must be at least 1, got 0"},
		{"negative prefetch", `{"prefetch":-3}`, []string{"-prefetch", "-3"}, "prefetch must be at least 0, got -3"},
		{"negative compact budget", `{"compact_budget":-9}`, []string{"-compact-budget", "-9"}, "compact_budget must be at least 0, got -9"},
		{"unknown field", `{"bogus_field":1}`, []string{"-bogus_field", "1"}, "bogus_field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, flagErr := testOptions(append(append([]string{}, small...), tc.args...)...)
			as := daemon.AttachSpec{Name: "w"}
			if tc.spec != "" {
				as.Spec = []byte(tc.spec)
			}
			cfg, attachErr := b.build(as)
			if tc.wantErr == "" {
				if flagErr != nil {
					t.Fatalf("flags %q: %v", tc.args, flagErr)
				}
				if attachErr != nil {
					t.Fatalf("build(%s): %v", tc.spec, attachErr)
				}
				if cfg.Manager == nil || cfg.Workload == nil {
					t.Fatalf("build(%s): incomplete config %+v", tc.spec, cfg)
				}
				return
			}
			if flagErr == nil || !strings.Contains(flagErr.Error(), tc.wantErr) {
				t.Errorf("flags %q: err = %v, want %q", tc.args, flagErr, tc.wantErr)
			}
			if attachErr == nil || !strings.Contains(attachErr.Error(), tc.wantErr) {
				t.Errorf("build(%s): err = %v, want %q", tc.spec, attachErr, tc.wantErr)
			}
		})
	}
}

// TestAttachSpecOverridesDefaults: an attach key that is present
// overrides the flag default, 0 included; an absent key inherits it; and
// the flag-only knobs are not attach keys.
func TestAttachSpecOverridesDefaults(t *testing.T) {
	def, err := testOptions(append(append([]string{}, small...), "-prefetch", "4", "-compact-budget", "16")...)
	if err != nil {
		t.Fatal(err)
	}
	b := &specBuilder{defaults: def.spec}

	cfg, err := b.build(daemon.AttachSpec{Name: "w", Spec: []byte(`{"prefetch":0,"compact_budget":0}`)})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PrefetchFaultThreshold != 0 || cfg.CompactBudget != nil {
		t.Fatalf("explicit zeros: prefetch %d, compact budget %v; want 0 and nil (unbounded)",
			cfg.PrefetchFaultThreshold, cfg.CompactBudget)
	}

	cfg, err = b.build(daemon.AttachSpec{Name: "w", Spec: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PrefetchFaultThreshold != 4 || cfg.CompactBudget == nil || *cfg.CompactBudget != 16 {
		t.Fatalf("absent keys: prefetch %d, compact budget %v; want the defaults 4 and 16",
			cfg.PrefetchFaultThreshold, cfg.CompactBudget)
	}

	for _, spec := range []string{`{"windows":4}`, `{"warm_solver":true}`, `{"WarmSolver":true}`} {
		if _, err := b.build(daemon.AttachSpec{Name: "w", Spec: []byte(spec)}); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("build(%s): err = %v, want unknown field", spec, err)
		}
	}
}
