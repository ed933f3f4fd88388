package dsprof_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestToolPipeline drives the command-line tools end to end, exactly as
// the README documents: mcfgen → mcc → collect ×2 → erprint.
func TestToolPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI tools")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	for _, tool := range []string{"mcc", "collect", "erprint", "mcfgen"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// Generate the program source and an instance.
	run("mcfgen", "-emit-source", "-layout", "paper", "-o", "mcf.mc")
	run("mcfgen", "-trips", "120", "-seed", "7", "-o", "mcf.in")
	solve := run("mcfgen", "-trips", "120", "-seed", "7", "-solve")
	if !strings.Contains(solve, "netsimplex optimum=") {
		t.Fatalf("mcfgen -solve output:\n%s", solve)
	}

	// Compile with the paper's flags.
	out := run("mcc", "-xhwcprof", "-xdebugformat=dwarf", "-o", "mcf.obj", "mcf.mc")
	if !strings.Contains(out, "debug=dwarf") {
		t.Fatalf("mcc output:\n%s", out)
	}

	// The -S assembly listing shows annotated code.
	listing := run("mcc", "-xhwcprof", "-S", "mcf.mc")
	for _, want := range []string{"refresh_potential:", "{structure:node -}{long orientation}", "ldx ["} {
		if !strings.Contains(listing, want) {
			t.Errorf("mcc -S missing %q", want)
		}
	}

	// collect with no args lists counters.
	counters := run("collect")
	if !strings.Contains(counters, "ecstall") || !strings.Contains(counters, "dtlbm") {
		t.Fatalf("counter list:\n%s", counters)
	}

	// A misspelt on/off value, or the retired -backend flag, is a usage
	// error (exit 2) that writes nothing, never a collect that silently
	// runs with clock profiling or provenance off.
	for _, args := range [][]string{
		{"-p", "yes"},
		{"-prov", "of"},
		{"-backend", "fast"},
	} {
		args = append(args, "-scaled", "-o", "bad.er", "-h", "+ecstall,20011", "-input", "mcf.in", "mcf.obj")
		cmd := exec.Command(bin("collect"), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("collect %v: %v, want exit status 2\n%s", args, err, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.er")); !os.IsNotExist(err) {
		t.Errorf("rejected collects left bad.er behind (stat: %v)", err)
	}

	// The paper's two experiments.
	out = run("collect", "-scaled", "-o", "exp1.er", "-p", "on",
		"-h", "+ecstall,20011,+ecrm,1009", "-input", "mcf.in", "mcf.obj")
	if !strings.Contains(out, "wrote experiment exp1.er") {
		t.Fatalf("collect 1:\n%s", out)
	}
	run("collect", "-scaled", "-o", "exp2.er", "-p", "off",
		"-h", "+ecref,4001,+dtlbm,503", "-input", "mcf.in", "mcf.obj")

	// Analysis over the merged experiments.
	rep := run("erprint", "total", "functions", "objects", "members=node",
		"source=refresh_potential", "disasm=refresh_potential",
		"pcs", "lines", "addrspace", "effect", "feedback",
		"callers=refresh_potential", "exp1.er", "exp2.er")
	for _, want := range []string{
		"Exclusive Total LWP Time",
		"refresh_potential",
		"{structure:arc -}",
		"+56",
		"node->orientation == 1",
		"effectiveness",
		"(exclusive)",
		"mcf.mc:",
		"E$ read-miss",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("erprint output missing %q", want)
		}
	}

	// STABS build refuses data-object attribution.
	run("mcc", "-xhwcprof", "-xdebugformat=stabs", "-o", "mcf-stabs.obj", "mcf.mc")
	run("collect", "-scaled", "-o", "exp3.er", "-p", "off",
		"-h", "+ecstall,20011", "-input", "mcf.in", "mcf-stabs.obj")
	rep = run("erprint", "objects", "exp3.er")
	if strings.Contains(rep, "{structure:") {
		t.Error("STABS experiment attributed struct objects")
	}
	if !strings.Contains(rep, "(Unascertainable)") {
		t.Errorf("STABS experiment should report (Unascertainable):\n%s", rep)
	}

	// Experiment directory contents look like the paper's.
	entries, err := os.ReadDir(filepath.Join(dir, "exp1.er"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
	}
	// Format v2: counter events live in sharded .ev2 files (only PICs
	// that recorded events write one) instead of the v1 monolithic
	// hwc{0,1}.gob blobs.
	for _, want := range []string{"log.txt", "meta.gob", "clock.gob", "hwc0.ev2", "program.obj", "allocs.gob"} {
		if !names[want] {
			t.Errorf("experiment missing %s (have %v)", want, names)
		}
	}
}
