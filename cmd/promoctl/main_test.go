package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins promoctl's flag names: scripts (CI smoke,
// bench) and documentation depend on them, so removing or renaming one
// must be a deliberate act that updates this list.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("promoctl", flag.ContinueOnError)
	registerFlags(fs)
	want := []string{
		"graph", "target", "measure", "p", "strategy", "guaranteed",
		"out", "dot", "json", "enginestats",
		"debug-addr", "debug-linger", "trace", "trace-topk", "trace-threshold",
		"manifest",
	}
	got := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		got[f.Name] = true
		if f.Usage == "" {
			t.Errorf("flag -%s has no usage string", f.Name)
		}
	})
	for _, name := range want {
		if !got[name] {
			t.Errorf("flag -%s missing", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("flag surface has %d flags, want %d: %v", len(got), len(want), got)
	}
}
