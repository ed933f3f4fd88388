package bench

import (
	"testing"

	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
)

// An oracle that cannot fail is not an oracle: each test below gives one
// check a wrong expected value and asserts that the run counts the
// resulting failures in its error rate.

func tinyRun(t *testing.T, workload string, h hooks) *Report {
	t.Helper()
	rep, err := Run(Options{
		Workload: workload, Seed: 7, preset: tiny, WorkDir: t.TempDir(), hooks: h,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

func assertCounted(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Failed == 0 || rep.ErrorRate() == 0 || rep.Correct {
		t.Fatalf("wrong expectation not counted: attempted %d, failed %d, correct %v",
			rep.Attempted, rep.Failed, rep.Correct)
	}
}

func TestOracleUnitChecks(t *testing.T) {
	ins := mcf.Generate(mcf.DefaultGenParams(20, 3))
	cost, _, err := mcf.SolveNetSimplex(ins)
	if err != nil {
		t.Fatal(err)
	}
	good := []int64{0, cost, 0, 0, 0, 0, 0, 0, 0} // status, cost, effort counters
	if err := checkMCF(good, cost); err != nil {
		t.Errorf("right cost rejected: %v", err)
	}
	if checkMCF(good, cost+1) == nil {
		t.Error("wrong MCF cost accepted")
	}
	bad := append([]int64(nil), good...)
	bad[0] = 1 // status: not optimal
	if checkMCF(bad, cost) == nil {
		t.Error("non-optimal MCF status accepted")
	}
	want := nbody.Simulate(nbody.Generate(nbody.DefaultGenParams(20, 3)))
	if err := checkNBody(want.Longs(), want); err != nil {
		t.Errorf("right n-body output rejected: %v", err)
	}
	wrong := *want
	wrong.ForceChk++
	if checkNBody(want.Longs(), &wrong) == nil {
		t.Error("wrong n-body checksum accepted")
	}
	w := &profdServe{bodies: make(map[string][]byte)}
	if w.checkBody("q", []byte("abc")) != nil || w.checkBody("q", []byte("abc")) != nil {
		t.Error("identical bodies rejected")
	}
	if w.checkBody("q", []byte("abd")) == nil {
		t.Error("mutated body accepted")
	}
}

func TestOracleWrongMCFCostCounted(t *testing.T) {
	assertCounted(t, tinyRun(t, MCFProfile, hooks{afterSetup: func(r *run) {
		r.w.(*mcfProfile).instances[0].cost++
	}}))
}

func TestOracleWrongNBodyChecksumCounted(t *testing.T) {
	assertCounted(t, tinyRun(t, NBodyAdvise, hooks{afterSetup: func(r *run) {
		want := *r.w.(*nbodyAdvise).want
		want.PosChk++
		r.w.(*nbodyAdvise).want = &want
	}}))
}

func TestOracleMutatedReportByteCounted(t *testing.T) {
	assertCounted(t, tinyRun(t, ProfdServe, hooks{afterWarmup: func(r *run) {
		w := r.w.(*profdServe)
		w.mu.Lock()
		defer w.mu.Unlock()
		for k, b := range w.bodies {
			m := append([]byte(nil), b...)
			m[len(m)/2] ^= 0x20
			w.bodies[k] = m
		}
	}}))
}

func TestOracleDifferingDigestCounted(t *testing.T) {
	assertCounted(t, tinyRun(t, MCFUnarmed, hooks{afterWarmup: func(r *run) {
		r.refDigest[0][0] ^= 1
	}}))
}
