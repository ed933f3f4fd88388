package core

import (
	"reflect"
	"slices"
	"testing"

	"dsprof/internal/cc"
	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
)

// TestWorkloads checks each bundled workload's descriptor against its
// leaf package: layout names, program names, generated instances,
// output checks and the baseline intervals the advisor loop uses.
func TestWorkloads(t *testing.T) {
	cases := []struct {
		w         *Workload
		layout    func(i int) string // the leaf enum's String
		generate  func(size int, seed uint64) []int64
		outLen    int
		intervals map[int]PaperIntervals
	}{
		{
			w:      MCF,
			layout: func(i int) string { return mcf.Layout(i).String() },
			generate: func(n int, seed uint64) []int64 {
				return mcf.Generate(mcf.DefaultGenParams(n, seed)).Encode()
			},
			outLen: 9,
			intervals: map[int]PaperIntervals{
				120:  {20011, 1009, 4001, 503, 0},
				1200: {},
			},
		},
		{
			w:      NBody,
			layout: func(i int) string { return nbody.Variant(i).String() },
			generate: func(n int, seed uint64) []int64 {
				return nbody.Generate(nbody.DefaultGenParams(n, seed)).Encode()
			},
			outLen: 8,
			intervals: map[int]PaperIntervals{
				400:   {2003, 251, 1009, 127, 90001},
				10000: {},
			},
		},
	}
	for _, tc := range cases {
		w := tc.w
		if got, err := LookupWorkload(w.Name); err != nil || got != w {
			t.Errorf("LookupWorkload(%q) = %v, %v", w.Name, got, err)
		}
		for i, name := range w.Layouts {
			if want := tc.layout(i); name != want {
				t.Errorf("%s: Layouts[%d] = %q, leaf layout %d is %q", w.Name, i, name, i, want)
			}
			if l, err := w.Layout(name); err != nil || l != i {
				t.Errorf("%s: Layout(%q) = %d, %v; want %d", w.Name, name, l, err, i)
			}
			prog, err := w.Program(i, cc.Options{HWCProf: true})
			if err != nil {
				t.Fatalf("%s: Program(%d): %v", w.Name, i, err)
			}
			if want := w.Name + "-" + name; prog.Name != want {
				t.Errorf("%s: Program(%d) is named %q, want %q", w.Name, i, prog.Name, want)
			}
		}
		if l, err := w.Layout(""); err != nil || l != 0 {
			t.Errorf("%s: Layout(\"\") = %d, %v; want the first layout", w.Name, l, err)
		}
		if _, err := w.Layout("warp"); err == nil {
			t.Errorf("%s: Layout accepted an unknown name", w.Name)
		}

		if got, want := w.Generate(60, 7), tc.generate(60, 7); !slices.Equal(got, want) {
			t.Errorf("%s: Generate differs from the leaf generator's Encode", w.Name)
		}

		ok := make([]int64, tc.outLen)
		if err := w.Check(ok); err != nil {
			t.Errorf("%s: Check rejected a successful output: %v", w.Name, err)
		}
		if err := w.Check(ok[1:]); err == nil {
			t.Errorf("%s: Check accepted a %d-long output", w.Name, tc.outLen-1)
		}
		failed := slices.Clone(ok)
		failed[0] = 3
		if err := w.Check(failed); err == nil {
			t.Errorf("%s: Check accepted status 3", w.Name)
		}

		for size, want := range tc.intervals {
			if got := w.Intervals(size); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Intervals(%d) = %+v, want %+v", w.Name, size, got, want)
			}
		}
	}

	if _, err := LookupWorkload("warp"); err == nil {
		t.Error("LookupWorkload accepted an unknown name")
	}
	if cfg, err := MachineConfig(""); err != nil || !reflect.DeepEqual(cfg, StudyMachine()) {
		t.Errorf("MachineConfig(\"\") = %+v, %v; want the study machine", cfg, err)
	}
	for _, name := range []string{"study", "scaled", "default"} {
		if _, err := MachineConfig(name); err != nil {
			t.Errorf("MachineConfig(%q): %v", name, err)
		}
	}
	if _, err := MachineConfig("warp"); err == nil {
		t.Error("MachineConfig accepted an unknown name")
	}
}
