package machine_test

import (
	"testing"

	"dsprof/internal/cc"
	"dsprof/internal/core"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// TestNBodyUntranslatedShare runs the n-body kernel at the scale the
// advisor benchmark and profd jobs run it — 300 papers on the study
// machine — under the armings of their collects, and requires the engine
// to step fewer than 10% of the instructions. Translated blocks count
// armed events exactly, so dense intervals leave to Step only the skid
// after each overflow, tick deliveries, and instructions within one
// worst-case cost of a horizon.
func TestNBodyUntranslatedShare(t *testing.T) {
	target, err := core.StudyParams{Workload: core.NBody, Size: 300, Seed: core.DefaultSeed, HWCProf: true}.Target()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.Compile(target.Sources, target.Options)
	if err != nil {
		t.Fatal(err)
	}
	type pic struct {
		ev       hwc.Event
		interval uint64
	}
	iv := core.NBody.Intervals(300)
	cases := []struct {
		name  string
		clock uint64
		pics  []pic
	}{
		{"unarmed", 0, nil},
		// The advisor benchmark's dense A and B collects.
		{"advise-A", 9001, []pic{{hwc.EvECStall, 211}, {hwc.EvECRdMiss, 31}}},
		{"advise-B", 0, []pic{{hwc.EvECRef, 101}, {hwc.EvDTLBMiss, 13}}},
		// profd's n-body A and B jobs at this size.
		{"intervals-A", iv.ClockTick, []pic{{hwc.EvECStall, iv.ECStall}, {hwc.EvECRdMiss, iv.ECRdMiss}}},
		{"intervals-B", 0, []pic{{hwc.EvECRef, iv.ECRef}, {hwc.EvDTLBMiss, iv.DTLBMiss}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := *target.Machine
			if prog.HeapPageSize != 0 {
				cfg.HeapPageSize = prog.HeapPageSize
			}
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
				t.Fatal(err)
			}
			m.SetInput(target.Input)
			m.ClockTickCycles = tc.clock
			for i, p := range tc.pics {
				if err := m.ArmCounter(i, p.ev, p.interval); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			instrs := m.Stats().Instrs
			stepped := machine.StepFallbacks(m)
			share := float64(stepped) / float64(instrs)
			t.Logf("%d of %d instructions stepped: %.2f%% translated", stepped, instrs, 100*(1-share))
			if share >= 0.10 {
				t.Errorf("stepped share %.2f%%, want < 10%%", 100*share)
			}
		})
	}
}
