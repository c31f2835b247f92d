package flow

import "testing"

func TestAllocSitesKinds(t *testing.T) {
	_, fd, info := buildFunc(t, `package fixture
func take(v any) {}
func f(p *int) {
	a := make([]int, 4)
	b := new(int)
	a = append(a, 1)
	m := map[string]int{}
	s := &struct{ x int }{}
	fn := func() {}
	take(42)        // boxes: int is not pointer-shaped
	take(p)         // exempt: pointer-shaped
	take(struct{}{}) // exempt: zero-size
	var i any = 7   // boxes via typed var decl
	_ = i
	_, _, _, _, _, _ = a, b, m, s, fn, p
}
`, "f")

	counts := map[AllocKind]int{}
	for _, site := range AllocSites(info, fd.Body) {
		counts[site.Kind]++
	}
	want := map[AllocKind]int{
		AllocMake:      1,
		AllocNew:       1,
		AllocAppend:    1,
		AllocComposite: 2, // map literal + &struct literal
		AllocClosure:   1,
		AllocBox:       2, // take(42) and var i any = 7
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%v: got %d sites, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
}

func TestAllocSitesValueStructNotFlagged(t *testing.T) {
	_, fd, info := buildFunc(t, `package fixture
type pt struct{ x, y int }
func f() int {
	p := pt{1, 2}
	return p.x
}
`, "f")
	if sites := AllocSites(info, fd.Body); len(sites) != 0 {
		t.Fatalf("value struct literal must not be an alloc site, got %v", sites)
	}
}

func TestEscapes(t *testing.T) {
	_, fd, info := buildFunc(t, `package fixture
func sink(v *int) {}
func f(ch chan *int) *int {
	a := new(int)
	b := new(int)
	c := new(int)
	d := new(int)
	e := new(int)
	local := new(int)
	ch <- b
	sink(c)
	go func() { _ = d }()
	var store *int
	store = e
	_ = store
	_ = *local
	return a
}
`, "f")
	esc := Escapes(info, fd.Body)
	find := func(name string) EscapeMask {
		for obj, m := range esc {
			if obj.Name() == name {
				return m
			}
		}
		return 0
	}
	cases := []struct {
		name string
		want EscapeMask
	}{
		{"a", EscReturned},
		{"b", EscSent},
		{"c", EscArg},
		{"d", EscCaptured},
		{"e", EscStored},
	}
	for _, c := range cases {
		if find(c.name)&c.want == 0 {
			t.Errorf("%s: mask %b missing %b", c.name, find(c.name), c.want)
		}
	}
	for obj := range esc {
		if obj.Name() == "local" {
			t.Errorf("local must not escape, got mask %b", esc[obj])
		}
	}
}
