package machine_test

import (
	"fmt"
	"testing"

	"dsprof/internal/cc"
	"dsprof/internal/core"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// nbodyPIC is one counter armed for an n-body run.
type nbodyPIC struct {
	ev       hwc.Event
	interval uint64
}

// adviseA is the advisor benchmark's dense A arming; its collects run it
// next to a 9001-cycle clock.
var adviseA = []nbodyPIC{{hwc.EvECStall, 211}, {hwc.EvECRdMiss, 31}}

// nbodyRunner compiles the n-body kernel at the scale the advisor
// benchmark and profd jobs run it — 300 papers on the study machine —
// and returns a function that runs it to completion under a clock (0 for
// none) and counters, returning the halted machine.
func nbodyRunner(t *testing.T) func(t *testing.T, clock uint64, pics []nbodyPIC) *machine.Machine {
	t.Helper()
	target, err := core.StudyParams{Workload: core.NBody, Size: 300, Seed: core.DefaultSeed, HWCProf: true}.Target()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.Compile(target.Sources, target.Options)
	if err != nil {
		t.Fatal(err)
	}
	cfg := *target.Machine
	if prog.HeapPageSize != 0 {
		cfg.HeapPageSize = prog.HeapPageSize
	}
	return func(t *testing.T, clock uint64, pics []nbodyPIC) *machine.Machine {
		t.Helper()
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
			t.Fatal(err)
		}
		m.SetInput(target.Input)
		m.ClockTickCycles = clock
		for i, p := range pics {
			if err := m.ArmCounter(i, p.ev, p.interval); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// TestNBodyUntranslatedShare runs the n-body kernel under the armings of
// the advisor benchmark's and profd's collects, and requires the engine
// to step fewer than 10% of the instructions. Translated blocks count
// armed events exactly and side-exit on an overflow or on the stall that
// reaches a cycle horizon, so Step runs only the skid after each
// overflow, the instruction at each tick, and the few instructions
// whose static cost no longer fits before an instruction or cycle
// horizon.
func TestNBodyUntranslatedShare(t *testing.T) {
	run := nbodyRunner(t)
	iv := core.NBody.Intervals(300)
	cases := []struct {
		name  string
		clock uint64
		pics  []nbodyPIC
	}{
		{"unarmed", 0, nil},
		// The advisor benchmark's dense A and B collects.
		{"advise-A", 9001, adviseA},
		{"advise-B", 0, []nbodyPIC{{hwc.EvECRef, 101}, {hwc.EvDTLBMiss, 13}}},
		// profd's n-body A and B jobs at this size.
		{"intervals-A", iv.ClockTick, []nbodyPIC{{hwc.EvECStall, iv.ECStall}, {hwc.EvECRdMiss, iv.ECRdMiss}}},
		{"intervals-B", 0, []nbodyPIC{{hwc.EvECRef, iv.ECRef}, {hwc.EvDTLBMiss, iv.DTLBMiss}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := run(t, tc.clock, tc.pics)
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

// TestClockTickStepCost bounds what the profiling clock costs the
// engine: each delivered tick may add at most two stepped instructions
// to an n-body run, unarmed and under the advisor benchmark's A arming,
// at a 997- and a 9001-cycle clock. Step delivers a tick at the top of
// the instruction it then retires, so one stepped instruction a tick is
// the floor. Bounding blocks by a worst-case cycle footprint instead of
// their static cost leaves the last few thousand cycles before every
// tick to prefix fits and Step, about 43 stepped instructions a tick.
func TestClockTickStepCost(t *testing.T) {
	run := nbodyRunner(t)
	for _, arm := range []struct {
		name string
		pics []nbodyPIC
	}{{"unarmed", nil}, {"advise-A", adviseA}} {
		base := machine.StepFallbacks(run(t, 0, arm.pics))
		for _, clock := range []uint64{997, 9001} {
			t.Run(fmt.Sprintf("%s/clock-%d", arm.name, clock), func(t *testing.T) {
				m := run(t, clock, arm.pics)
				ticks := m.Stats().ClockTicks
				if ticks == 0 {
					t.Fatal("no clock ticks delivered")
				}
				added := int64(machine.StepFallbacks(m)) - int64(base)
				per := float64(added) / float64(ticks)
				t.Logf("%d ticks added %d stepped instructions: %.2f per tick", ticks, added, per)
				if per > 2 {
					t.Errorf("the clock adds %.2f stepped instructions per tick, want at most 2", per)
				}
			})
		}
	}
}
