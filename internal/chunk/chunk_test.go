package chunk

import (
	"slices"
	"testing"
)

// TestListStableAndExact fills a list past several chunk boundaries and
// one oversized Copy, then requires every address and copy handed out to
// still hold its value, and Slice to return all values in order at exact
// length.
func TestListStableAndExact(t *testing.T) {
	var l List[int]
	var want []int
	var ptrs []*int
	var copies [][]int
	next := 0
	for round := 0; round < 200; round++ {
		ptrs = append(ptrs, l.Add(next))
		want = append(want, next)
		next++
		vs := make([]int, round%7)
		if round == 150 {
			vs = make([]int, maxLen+5)
		}
		for i := range vs {
			vs[i] = next
			next++
		}
		c := l.Copy(vs)
		if len(c) != len(vs) || cap(c) != len(vs) {
			t.Fatalf("Copy of %d values returned len %d cap %d", len(vs), len(c), cap(c))
		}
		if len(vs) == 0 && c != nil {
			t.Fatal("empty Copy returned a non-nil slice")
		}
		copies = append(copies, c)
		want = append(want, vs...)
	}
	if l.n != len(want) {
		t.Fatalf("list counts %d values, want %d", l.n, len(want))
	}
	if len(l.full) < 5 {
		t.Fatalf("only %d filled chunks: the test must cross chunk boundaries", len(l.full))
	}
	for _, c := range l.full {
		if cap(c) > maxLen && cap(c) != maxLen+5 {
			t.Errorf("chunk of cap %d exceeds maxLen %d", cap(c), maxLen)
		}
	}
	got := l.Slice()
	if !slices.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("Slice: %d values (cap %d), want %d in order", len(got), cap(got), len(want))
	}
	i := 0
	for round, p := range ptrs {
		if *p != want[i] {
			t.Fatalf("Add address %d holds %d, want %d", round, *p, want[i])
		}
		i++
		if !slices.Equal(copies[round], want[i:i+len(copies[round])]) {
			t.Fatalf("Copy %d changed", round)
		}
		i += len(copies[round])
	}
	if l.n != 0 || l.Slice() != nil {
		t.Error("Slice did not empty the list")
	}
}

// TestListReset reuses a list: Reset keeps the newest chunk, so refilling
// up to its size allocates nothing.
func TestListReset(t *testing.T) {
	var l List[uint64]
	for i := range 3000 {
		l.Add(uint64(i))
	}
	l.Reset()
	if l.n != 0 || len(l.full) != 0 {
		t.Fatalf("Reset left %d values in %d chunks", l.n, len(l.full))
	}
	keep := cap(l.cur)
	if allocs := testing.AllocsPerRun(10, func() {
		l.Reset()
		for i := range keep {
			l.Add(uint64(i))
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset list allocated %.1f times", allocs)
	}
	if got := l.Slice(); len(got) != keep || got[keep-1] != uint64(keep-1) {
		t.Errorf("Slice after reuse: %d values", len(got))
	}
}
