package main

import (
	"testing"

	"promonet/internal/engine"
)

// TestSequenceDigestFollowsSeed checks that each workload's request
// sequence derives only from the seed: the same seed gives the same
// digest, another seed another digest.
func TestSequenceDigestFollowsSeed(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		a, b, c := buildSequence(w, 7, 2000), buildSequence(w, 7, 2000), buildSequence(w, 8, 2000)
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 both gave digest %s", name, a.digest)
		}
	}
}

// TestSequenceProperties checks the measured input properties against
// each workload's stated mix.
func TestSequenceProperties(t *testing.T) {
	hot := measureProperties(buildSequence(workloads["hot-replay"], 1, 20000).reqs)
	if hot.distinctShare != 64.0/20000 || hot.mix["degree"] != 1 {
		t.Errorf("hot-replay: %s, want 64 distinct degree requests", hot)
	}
	zipf := measureProperties(buildSequence(workloads["zipf-miss"], 1, 20000).reqs)
	if zipf.distinctShare < 0.5 || zipf.zipfFit < 0.8 || zipf.zipfFit > 1.4 || zipf.exactShare != 0 {
		t.Errorf("zipf-miss: %s, want mostly distinct keys and a fitted exponent near 1.1", zipf)
	}
	exact := measureProperties(buildSequence(workloads["exact-reload"], 1, 2101).reqs)
	if exact.exactShare < 0.66 || exact.exactShare > 0.67 || len(exact.mix) != 7 {
		t.Errorf("exact-reload: %s, want two thirds exact over all seven measures", exact)
	}
}

// TestHostFollowsSeed checks that the generated host file, read back
// and frozen, depends only on the seed.
func TestHostFollowsSeed(t *testing.T) {
	w := &workload{hostN: 300, hostK: 3, servable: []string{"degree"}}
	eng := engine.New(1)
	defer eng.Close()
	dir := t.TempDir()
	a, err := makeHost(dir, w, 5, eng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeHost(t.TempDir(), w, 5, eng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeHost(dir, w, 6, eng)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.digest == c.digest {
		t.Errorf("digests seed5=%s seed5=%s seed6=%s: want equal for one seed, different across seeds", a.digest, b.digest, c.digest)
	}
}
