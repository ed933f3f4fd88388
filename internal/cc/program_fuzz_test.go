package cc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dsprof/internal/machine"
	"dsprof/internal/xrand"
)

// Whole-program differential fuzzing: generate random structured programs
// (assignments, compound assignments, if/else, bounded loops over a fixed
// set of long and float variables), compile and run them, and compare
// every write_long against a direct Go interpretation of the same
// program. Floats are modeled exactly as the compiler lowers them:
// Q16.16 raws with floor-rounded multiplies, so the interpreter is a
// second, independent implementation of the fixed-point semantics.

type progGen struct {
	r     *xrand.Rand
	vars  []string
	fvars []string
}

// interp mirrors the generated program's semantics over variable state.
type interpState struct {
	vars  map[string]int64
	fvars map[string]int64 // Q16.16 raw values
	out   []int64
}

// stmtSpec is a tiny AST the generator both prints as MC and interprets.
type stmtSpec interface{ exec(*interpState) }

type assignSpec struct {
	lhs string
	op  string
	rhs exprSpec
}

type ifSpec struct {
	cond      exprSpec
	then, els []stmtSpec
}

type loopSpec struct {
	v     string
	count int64
	body  []stmtSpec
}

type writeSpec struct{ x exprSpec }

type exprSpec struct {
	// kind: 0 long literal, 1 long var, 2 long binary,
	// 3 float literal (lit is the Q16.16 raw, a multiple of 4096),
	// 4 float var, 5 float binary (+ - *),
	// 6 (float) long-expr, 7 (long) float-expr.
	kind int
	lit  int64
	v    string
	op   string
	l, r *exprSpec
}

// isFloat reports whether the expression has float type.
func (e *exprSpec) isFloat() bool { return e.kind >= 3 && e.kind <= 6 }

func (e *exprSpec) eval(st *interpState) int64 {
	switch e.kind {
	case 0:
		return e.lit
	case 1:
		return st.vars[e.v]
	case 3:
		return e.lit
	case 4:
		return st.fvars[e.v]
	case 5:
		a, b := e.l.eval(st), e.r.eval(st)
		switch e.op {
		case "+":
			return a + b
		case "-":
			return a - b
		}
		return (a * b) >> 16 // Mul; Sra 16 — floor, like the codegen
	case 6:
		return e.l.eval(st) << 16
	case 7:
		return e.l.eval(st) >> 16
	}
	a, b := e.l.eval(st), e.r.eval(st)
	switch e.op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "&":
		return a & b
	case "|":
		return a | b
	case "^":
		return a ^ b
	case "<":
		if a < b {
			return 1
		}
		return 0
	case "==":
		if a == b {
			return 1
		}
		return 0
	}
	return 0
}

func (e *exprSpec) String() string {
	switch e.kind {
	case 0:
		if e.lit < 0 {
			return fmt.Sprintf("(%d)", e.lit)
		}
		return fmt.Sprintf("%d", e.lit)
	case 1:
		return e.v
	case 3:
		// lit = n*4096 renders as n/16 with four exact decimal digits,
		// so the compiler's literal parse recovers the same raw.
		n := e.lit / 4096
		return fmt.Sprintf("%d.%04d", n/16, (n%16)*625)
	case 4:
		return e.v
	case 5:
		return fmt.Sprintf("(%s %s %s)", e.l, e.op, e.r)
	case 6:
		return fmt.Sprintf("((float) %s)", e.l)
	case 7:
		return fmt.Sprintf("((long) %s)", e.l)
	}
	return fmt.Sprintf("(%s %s %s)", e.l, e.op, e.r)
}

func (s *assignSpec) exec(st *interpState) {
	v := s.rhs.eval(st)
	tgt := st.vars
	if s.rhs.isFloat() {
		tgt = st.fvars
	}
	switch s.op {
	case "=":
		tgt[s.lhs] = v
	case "+=":
		tgt[s.lhs] += v
	case "-=":
		tgt[s.lhs] -= v
	case "^=":
		tgt[s.lhs] ^= v
	}
}

func (s *ifSpec) exec(st *interpState) {
	body := s.els
	if s.cond.eval(st) != 0 {
		body = s.then
	}
	for _, t := range body {
		t.exec(st)
	}
}

func (s *loopSpec) exec(st *interpState) {
	for st.vars[s.v] = 0; st.vars[s.v] < s.count; st.vars[s.v]++ {
		for _, t := range s.body {
			t.exec(st)
		}
	}
}

func (s *writeSpec) exec(st *interpState) {
	st.out = append(st.out, s.x.eval(st))
}

func (g *progGen) expr(depth int) exprSpec {
	if depth > 0 && g.r.Intn(6) == 0 {
		// A float subtree truncated back to long.
		f := g.fexpr(depth - 1)
		return exprSpec{kind: 7, l: &f}
	}
	if depth == 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return exprSpec{kind: 0, lit: int64(g.r.Intn(200) - 100)}
		}
		return exprSpec{kind: 1, v: g.vars[g.r.Intn(len(g.vars))]}
	}
	ops := []string{"+", "-", "*", "&", "|", "^", "<", "=="}
	l, r := g.expr(depth-1), g.expr(depth-1)
	return exprSpec{kind: 2, op: ops[g.r.Intn(len(ops))], l: &l, r: &r}
}

// fexpr generates a float-typed expression over Q16.16 literals, float
// variables, + - * chains, and (float) casts of long subtrees.
func (g *progGen) fexpr(depth int) exprSpec {
	if depth == 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			// n/16 for n in [0, 512): every value has exact 4-digit
			// decimals, so render and re-parse are lossless.
			return exprSpec{kind: 3, lit: int64(g.r.Intn(512)) * 4096}
		}
		return exprSpec{kind: 4, v: g.fvars[g.r.Intn(len(g.fvars))]}
	}
	if g.r.Intn(5) == 0 {
		l := g.expr(depth - 1)
		return exprSpec{kind: 6, l: &l}
	}
	ops := []string{"+", "-", "*"}
	l, r := g.fexpr(depth-1), g.fexpr(depth-1)
	return exprSpec{kind: 5, op: ops[g.r.Intn(len(ops))], l: &l, r: &r}
}

func (g *progGen) stmts(n, depth int) []stmtSpec {
	var out []stmtSpec
	for i := 0; i < n; i++ {
		switch k := g.r.Intn(12); {
		case k < 5:
			ops := []string{"=", "+=", "-=", "^="}
			out = append(out, &assignSpec{
				lhs: g.vars[g.r.Intn(len(g.vars))],
				op:  ops[g.r.Intn(len(ops))],
				rhs: g.expr(2),
			})
		case k < 7:
			// Float assignment; ^= has no float form.
			ops := []string{"=", "+=", "-="}
			out = append(out, &assignSpec{
				lhs: g.fvars[g.r.Intn(len(g.fvars))],
				op:  ops[g.r.Intn(len(ops))],
				rhs: g.fexpr(2),
			})
		case k < 9 && depth > 0:
			out = append(out, &ifSpec{
				cond: g.expr(2),
				then: g.stmts(1+g.r.Intn(2), depth-1),
				els:  g.stmts(g.r.Intn(2), depth-1),
			})
		case k < 10 && depth > 0:
			// Loop variable is dedicated (v0) to keep semantics simple:
			// the generator never assigns v0 inside loop bodies.
			out = append(out, &loopSpec{
				v:     "v0",
				count: int64(1 + g.r.Intn(5)),
				body:  g.loopBody(1+g.r.Intn(2), depth-1),
			})
		default:
			out = append(out, &writeSpec{x: g.expr(2)})
		}
	}
	return out
}

// loopBody generates statements that never touch the loop variable v0.
func (g *progGen) loopBody(n, depth int) []stmtSpec {
	saved := g.vars
	g.vars = g.vars[1:] // drop v0 from assignment targets
	defer func() { g.vars = saved }()
	var out []stmtSpec
	for i := 0; i < n; i++ {
		switch g.r.Intn(3) {
		case 0:
			ops := []string{"=", "+=", "-=", "^="}
			out = append(out, &assignSpec{
				lhs: g.vars[g.r.Intn(len(g.vars))],
				op:  ops[g.r.Intn(len(ops))],
				rhs: g.exprNoV0(2),
			})
		case 1:
			ops := []string{"=", "+=", "-="}
			out = append(out, &assignSpec{
				lhs: g.fvars[g.r.Intn(len(g.fvars))],
				op:  ops[g.r.Intn(len(ops))],
				rhs: g.fexpr(2),
			})
		default:
			out = append(out, &writeSpec{x: g.exprNoV0(2)})
		}
	}
	return out
}

// exprNoV0 is like expr but may still read v0 — reading is fine.
func (g *progGen) exprNoV0(depth int) exprSpec { return g.expr(depth) }

func renderStmts(sb *strings.Builder, stmts []stmtSpec, indent string) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *assignSpec:
			fmt.Fprintf(sb, "%s%s %s %s;\n", indent, s.lhs, s.op, s.rhs.String())
		case *ifSpec:
			fmt.Fprintf(sb, "%sif (%s) {\n", indent, s.cond.String())
			renderStmts(sb, s.then, indent+"\t")
			fmt.Fprintf(sb, "%s} else {\n", indent)
			renderStmts(sb, s.els, indent+"\t")
			fmt.Fprintf(sb, "%s}\n", indent)
		case *loopSpec:
			fmt.Fprintf(sb, "%sfor (%s = 0; %s < %d; %s++) {\n", indent, s.v, s.v, s.count, s.v)
			renderStmts(sb, s.body, indent+"\t")
			fmt.Fprintf(sb, "%s}\n", indent)
		case *writeSpec:
			fmt.Fprintf(sb, "%swrite_long(%s);\n", indent, s.x.String())
		}
	}
}

func TestRandomProgramsDifferential(t *testing.T) {
	r := xrand.New(987654)
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g := &progGen{r: r, vars: []string{"v0", "v1", "v2", "v3"}, fvars: []string{"f0", "f1"}}
		prog := g.stmts(6+r.Intn(6), 2)

		// Interpret.
		st := &interpState{vars: map[string]int64{}, fvars: map[string]int64{}}
		for _, s := range prog {
			s.exec(st)
		}

		// Render, compile, run.
		var sb strings.Builder
		sb.WriteString("long main() {\n")
		for _, v := range g.vars {
			fmt.Fprintf(&sb, "\tlong %s;\n", v)
		}
		for _, v := range g.fvars {
			fmt.Fprintf(&sb, "\tfloat %s;\n", v)
		}
		for _, v := range g.vars {
			fmt.Fprintf(&sb, "\t%s = 0;\n", v)
		}
		for _, v := range g.fvars {
			fmt.Fprintf(&sb, "\t%s = 0.0;\n", v)
		}
		renderStmts(&sb, prog, "\t")
		sb.WriteString("\treturn 0;\n}\n")
		src := sb.String()

		compiled, err := Compile([]Source{{Name: "fuzz.mc", Text: src}}, Options{HWCProf: trial%2 == 0})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		cfg := machine.DefaultConfig()
		cfg.MaxInstrs = 10_000_000
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(compiled.Text, compiled.Data, compiled.Entry); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("trial %d: run: %v\n%s", trial, err, src)
		}
		got := m.OutputLongs()
		if len(got) != len(st.out) {
			t.Fatalf("trial %d: %d outputs, interpreter %d\n%s", trial, len(got), len(st.out), src)
		}
		for i := range got {
			if got[i] != st.out[i] {
				t.Fatalf("trial %d output %d: machine %d, interpreter %d\n%s",
					trial, i, got[i], st.out[i], src)
			}
		}
	}
}

// corpusPrograms are hand-written differential seeds for the two
// features the n-body kernel forced into the dialect: anonymous unions
// inside structs (mixed-width arms over one slot) and the Q16.16 float
// lowering (literal fractions, mul/div chains, floor casts).
var corpusPrograms = []struct {
	name string
	src  string
}{
	{"union-arms", `
struct tag { long kind; };
struct box {
	long id;
	union {
		float f;
		long raw;
		struct tag *t;
	};
};
long main() {
	struct box *b;
	long i;
	long sum;
	b = (struct box *) calloc(8, sizeof(struct box));
	sum = 0;
	for (i = 0; i < 8; i++) {
		b[i].id = i;
		if (i % 2 == 0) {
			b[i].f = (float) i * 1.5;
		} else {
			b[i].raw = i * 3;
		}
	}
	for (i = 0; i < 8; i++) {
		if (i % 2 == 0) {
			sum += (long) (b[i].f * 2.0);
		} else {
			sum += b[i].raw;
		}
	}
	write_long(sum);
	return 0;
}
`},
	{"fixed-point", `
long main() {
	float x;
	float y;
	float z;
	long i;
	long acc;
	x = 0.0 - 1.5;
	y = 0.125;
	z = 3.25;
	acc = 0;
	for (i = 0; i < 50; i++) {
		x += y * z;
		z = z / 1.0625;
		y = y * 0.5 + 0.0078125;
		acc += (long) (x * 256.0);
		acc += (long) y + (long) z;
	}
	write_long(acc);
	write_long((long) (x * 65536.0));
	write_long((long) (0.0 - 2.5));
	return 0;
}
`},
	{"union-float-walk", `
struct node {
	float w;
	union {
		struct node *next;
		long idx;
	};
	long hits;
};
long main() {
	struct node *ns;
	struct node *p;
	long i;
	long steps;
	float total;
	ns = (struct node *) calloc(16, sizeof(struct node));
	for (i = 0; i < 16; i++) {
		ns[i].w = (float) (i % 5) * 0.25;
		ns[i].idx = (i * 7 + 3) % 16;
	}
	p = &ns[0];
	total = 0.0;
	for (steps = 0; steps < 200; steps++) {
		total += p->w;
		p->hits++;
		p = &ns[p->idx];
	}
	write_long((long) (total * 16.0));
	write_long(ns[3].hits);
	return 0;
}
`},
}

// TestCorpusProgramsDifferential compiles each corpus seed and requires
// the reference stepper and the engine, driven by Run and by RunFor in
// 7-instruction slices, to produce identical outputs and instruction
// counts.
func TestCorpusProgramsDifferential(t *testing.T) {
	for _, c := range corpusPrograms {
		prog, err := Compile([]Source{{Name: c.name + ".mc", Text: c.src}}, Options{Name: c.name, HWCProf: true})
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		run := func(drive func(m *machine.Machine) error) ([]int64, uint64) {
			cfg := machine.DefaultConfig()
			cfg.MaxInstrs = 10_000_000
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
				t.Fatal(err)
			}
			if err := drive(m); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return m.OutputLongs(), m.Stats().Instrs
		}
		refOut, refN := run(func(m *machine.Machine) error {
			for !m.Halted() {
				if err := m.Step(); err != nil {
					return err
				}
			}
			return nil
		})
		runOut, runN := run((*machine.Machine).Run)
		slicedOut, slicedN := run(func(m *machine.Machine) error {
			for !m.Halted() {
				if err := m.RunFor(7); err != nil {
					return err
				}
			}
			return nil
		})
		if len(refOut) == 0 {
			t.Fatalf("%s: no output", c.name)
		}
		if !reflect.DeepEqual(refOut, runOut) || refN != runN {
			t.Errorf("%s: step (%v, %d instrs) vs Run (%v, %d instrs)", c.name, refOut, refN, runOut, runN)
		}
		if !reflect.DeepEqual(refOut, slicedOut) || refN != slicedN {
			t.Errorf("%s: step (%v, %d instrs) vs RunFor (%v, %d instrs)", c.name, refOut, refN, slicedOut, slicedN)
		}
	}
}
