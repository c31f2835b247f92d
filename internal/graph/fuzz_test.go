package graph

import (
	"bufio"
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// checkAgainstReference loads in through readEdgeList with the given
// size hint and through referenceReadEdgeList, and fails unless both
// return equal graphs, equal label vectors and identical error text.
// It returns the bulk loader's result for further checks.
func checkAgainstReference(t *testing.T, in string, sizeHint int64) (*Graph, []int64, error) {
	t.Helper()
	g, labels, err := readEdgeList(strings.NewReader(in), sizeHint)
	wg, wlabels, werr := referenceReadEdgeList(strings.NewReader(in))
	if (err == nil) != (werr == nil) {
		t.Fatalf("sizeHint %d: err = %v, reference err = %v", sizeHint, err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("sizeHint %d: err = %q, reference err = %q", sizeHint, err, werr)
		}
		if errors.Is(werr, bufio.ErrTooLong) != errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("sizeHint %d: errors.Is(err, bufio.ErrTooLong) differs from the reference: %v", sizeHint, err)
		}
		return nil, nil, err
	}
	if !g.Equal(wg) {
		t.Fatalf("sizeHint %d: graph %v differs from reference %v", sizeHint, g, wg)
	}
	if !slices.Equal(labels, wlabels) {
		t.Fatalf("sizeHint %d: labels %v, reference %v", sizeHint, labels, wlabels)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("sizeHint %d: %v", sizeHint, err)
	}
	return g, labels, nil
}

// FuzzReadEdgeList is a differential oracle: on arbitrary input the
// bulk loader must agree with referenceReadEdgeList — same graph, same
// labels, same error text — both without a size hint (every label goes
// through the map) and with the input's length as the hint (small
// labels go through the dense table). On success the graph must also
// satisfy the structural invariants and survive a write/read round
// trip.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"0 1\n1 2\n",
		"# comment\n\n5\t7\n7,9\n",
		"% c\n1 1\n2 3\n2 3\n",
		"9999999999999999999999 1\n",
		"a b\n",
		"1",
		strings.Repeat("1 2\n", 100),
		"+5 -3\n-3 0\n",
		"10000000000000000000 1\n", // 20 digits: out of int64 range
		"1000000000000000000 1\n",  // 19 digits: in range, past the inline parser
		"9223372036854775807 0\n9223372036854775808 0\n",
		"1\u00852\n",
		"1\u00a02\n\u00a0# nbsp-led comment\n",
		"0 1\r\n1 2\r\n\r\n2 0\r\n",
		"0 1 extra fields 7 x\n1 2\t3\n",
		"4 4\n5 5\n4 5\n6 6\n",
		"0 1\n1 0\n0 1\n2 1\n1 2\n",
		"0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n",
		"# " + strings.Repeat("x", 200) + "\n5 40\n40 7\n7 5\n0 99\n",
		",# comma-led\n",
		" ,1,,2 \n\v\f\n  %x\n",
		"01 001\n1 2\n",
		"1 2",
		"1 2\n3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if _, _, err := checkAgainstReference(t, in, 0); err != nil {
			return
		}
		g, labels, _ := checkAgainstReference(t, in, int64(len(in)))
		if g.N() != len(labels) {
			t.Fatalf("n=%d but %d labels", g.N(), len(labels))
		}
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
			if g.HasEdge(v, v) {
				t.Fatalf("self-loop at %d", v)
			}
		}
		if sum != 2*g.M() {
			t.Fatalf("handshake violated: sum=%d m=%d", sum, g.M())
		}
		// Round trip must reproduce the same structure sizes.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, _, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.M() != g.M() {
			t.Fatalf("round trip m: %d -> %d", g.M(), h.M())
		}
	})
}

// TestReadEdgeListLongLines pins the 1 MiB line limit against the
// reference: a line whose bytes before its newline number 1<<20 or more
// fails with an error wrapping bufio.ErrTooLong, anything shorter loads
// — comment, edge line with a long trailing field, terminated or not.
func TestReadEdgeListLongLines(t *testing.T) {
	const limit = 1 << 20
	edge := func(n int) string { return "3 4 " + strings.Repeat("9", n-4) }
	cases := []struct {
		name    string
		in      string
		tooLong bool
	}{
		{"900KiB comment", "0 1\n#" + strings.Repeat("c", 900<<10) + "\n1 2\n", false},
		{"900KiB edge line", "0 1\n" + edge(900<<10) + "\n1 2\n", false},
		{"limit-1 terminated", "0 1\n" + edge(limit-1) + "\n1 2\n", false},
		{"limit-1 CRLF", "0 1\n" + edge(limit-2) + "\r\n1 2\n", false},
		{"limit-1 unterminated", "0 1\n" + edge(limit-1), false},
		{"limit terminated", "0 1\n" + edge(limit) + "\n1 2\n", true},
		{"limit unterminated", "0 1\n" + edge(limit), true},
		{"2MiB edge line", "0 1\n" + edge(2<<20) + "\n1 2\n", true},
		{"2MiB comment", "#" + strings.Repeat("c", 2<<20) + "\n", true},
		{"bad label before long line", "x 1\n" + edge(2<<20) + "\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, hint := range []int64{0, int64(len(tc.in))} {
				_, _, err := checkAgainstReference(t, tc.in, hint)
				if got := errors.Is(err, bufio.ErrTooLong); got != tc.tooLong {
					t.Fatalf("sizeHint %d: errors.Is(err, bufio.ErrTooLong) = %v, want %v (err %v)", hint, got, tc.tooLong, err)
				}
			}
		})
	}
}
